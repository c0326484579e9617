#include "src/krb5/messages.h"

#include <gtest/gtest.h>

namespace krb5 {
namespace {

Principal Alice() { return Principal::User("alice", "ATHENA.SIM"); }
Principal Payroll() { return Principal::Service("payroll", "hr-host", "SALES.CORP"); }

TEST(Ticket5Test, TlvRoundTripAllFields) {
  kcrypto::Prng prng(1);
  Ticket5 t;
  t.service = Payroll();
  t.client = Alice();
  t.flags = kFlagForwardable | kFlagForwarded;
  t.client_addr = 0x0a000001;
  t.issued_at = 55 * ksim::kSecond;
  t.lifetime = ksim::kHour;
  t.session_key = prng.NextDesKey().bytes();
  t.transited = {"ENG.CORP", "CORP"};

  auto back = kenc::Decode<Ticket5>(kenc::Encode(t));
  ASSERT_TRUE(back.ok());
  EXPECT_TRUE(back.value().service == t.service);
  EXPECT_TRUE(back.value().client == t.client);
  EXPECT_EQ(back.value().flags, t.flags);
  EXPECT_EQ(back.value().client_addr, t.client_addr);
  EXPECT_EQ(back.value().session_key, t.session_key);
  EXPECT_EQ(back.value().transited, t.transited);
}

TEST(Ticket5Test, AddressOmissionSurvivesRoundTrip) {
  kcrypto::Prng prng(2);
  Ticket5 t;
  t.service = Payroll();
  t.client = Alice();
  t.session_key = prng.NextDesKey().bytes();
  // no client_addr
  auto back = kenc::Decode<Ticket5>(kenc::Encode(t));
  ASSERT_TRUE(back.ok());
  EXPECT_FALSE(back.value().client_addr.has_value());
}

TEST(Ticket5Test, SealUnsealAndTypeSeparation) {
  kcrypto::Prng prng(3);
  kcrypto::DesKey key = prng.NextDesKey();
  EncLayerConfig config;
  Ticket5 t;
  t.service = Payroll();
  t.client = Alice();
  t.session_key = prng.NextDesKey().bytes();
  kerb::Bytes sealed = Seal(key, t, config, prng);
  ASSERT_TRUE(Unseal<Ticket5>(key, sealed, config).ok());
  // A sealed ticket must not unseal as an authenticator.
  EXPECT_FALSE(Unseal<Authenticator5>(key, sealed, config).ok());
}

TEST(Authenticator5Test, OptionalFieldsRoundTrip) {
  kcrypto::Prng prng(4);
  Authenticator5 a;
  a.client = Alice();
  a.timestamp = 9 * ksim::kSecond;
  a.checksum_type = kcrypto::ChecksumType::kMd4Des;
  a.request_checksum = prng.NextBytes(16);
  a.subkey = prng.NextDesKey().bytes();
  a.initial_seq = 0xdeadbeef;
  a.service_name_check = "nfs.fileserver@ATHENA.SIM";

  auto back = kenc::Decode<Authenticator5>(kenc::Encode(a));
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back.value().checksum_type, a.checksum_type);
  EXPECT_EQ(back.value().request_checksum, a.request_checksum);
  EXPECT_EQ(back.value().subkey, a.subkey);
  EXPECT_EQ(back.value().initial_seq, a.initial_seq);
  EXPECT_EQ(back.value().service_name_check, a.service_name_check);
}

TEST(Authenticator5Test, MinimalFieldsRoundTrip) {
  Authenticator5 a;
  a.client = Alice();
  a.timestamp = 1;
  auto back = kenc::Decode<Authenticator5>(kenc::Encode(a));
  ASSERT_TRUE(back.ok());
  EXPECT_FALSE(back.value().subkey.has_value());
  EXPECT_FALSE(back.value().request_checksum.has_value());
}

TEST(AsMessages5Test, RequestRoundTripWithPadata) {
  kcrypto::Prng prng(5);
  AsRequest5 req;
  req.client = Alice();
  req.service_realm = "ATHENA.SIM";
  req.lifetime = ksim::kHour;
  req.options = kOptOmitAddress;
  req.nonce = 777;
  req.padata = prng.NextBytes(24);
  auto back = kenc::Decode<AsRequest5>(kenc::Encode(req));
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back.value().options, kOptOmitAddress);
  EXPECT_EQ(back.value().nonce, 777u);
  EXPECT_EQ(back.value().padata, req.padata);
}

TEST(TgsMessages5Test, ChecksumInputCoversRewritableFields) {
  // Changing any adversary-visible field must change the checksum input.
  TgsRequest5 req;
  req.service = Payroll();
  req.lifetime = ksim::kHour;
  req.options = 0;
  req.nonce = 1;
  req.tgt_realm = "ATHENA.SIM";
  req.additional_ticket = kerb::ToBytes("TICKET");
  req.authorization_data = kerb::ToBytes("AUTHZ");
  kerb::Bytes base = req.ChecksumInput();

  TgsRequest5 changed = req;
  changed.options = kOptEncTktInSkey;
  EXPECT_NE(changed.ChecksumInput(), base);

  changed = req;
  changed.additional_ticket = kerb::ToBytes("OTHER");
  EXPECT_NE(changed.ChecksumInput(), base);

  changed = req;
  changed.authorization_data = kerb::ToBytes("AUTHZ2");
  EXPECT_NE(changed.ChecksumInput(), base);

  changed = req;
  changed.service.name = "other";
  EXPECT_NE(changed.ChecksumInput(), base);
}

TEST(TgsMessages5Test, FullRoundTrip) {
  kcrypto::Prng prng(6);
  TgsRequest5 req;
  req.service = Payroll();
  req.lifetime = ksim::kHour;
  req.options = kOptEncTktInSkey | kOptOmitAddress;
  req.nonce = 42;
  req.tgt_realm = "CORP";
  req.additional_ticket = prng.NextBytes(48);
  req.additional_ticket_service = Principal::Service("nfs", "fs", "ATHENA.SIM");
  req.authorization_data = prng.NextBytes(12);
  req.sealed_tgt = prng.NextBytes(64);
  req.sealed_authenticator = prng.NextBytes(40);

  auto back = kenc::Decode<TgsRequest5>(kenc::Encode(req));
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back.value().options, req.options);
  EXPECT_EQ(back.value().tgt_realm, "CORP");
  EXPECT_EQ(back.value().additional_ticket, req.additional_ticket);
  ASSERT_TRUE(back.value().additional_ticket_service.has_value());
  EXPECT_TRUE(*back.value().additional_ticket_service == *req.additional_ticket_service);
  EXPECT_EQ(back.value().authorization_data, req.authorization_data);
}

TEST(ApMessages5Test, RoundTripWithChallengeResponse) {
  kcrypto::Prng prng(7);
  ApRequest5 req;
  req.sealed_ticket = prng.NextBytes(32);
  req.sealed_authenticator = prng.NextBytes(32);
  req.want_mutual = true;
  req.app_data = kerb::ToBytes("GET /inbox");
  req.challenge_response = prng.NextBytes(16);
  auto back = kenc::Decode<ApRequest5>(kenc::Encode(req));
  ASSERT_TRUE(back.ok());
  EXPECT_TRUE(back.value().want_mutual);
  EXPECT_EQ(back.value().challenge_response, req.challenge_response);
}

TEST(ApMessages5Test, EncApRepPartRoundTrip) {
  kcrypto::Prng prng(8);
  EncApRepPart5 part;
  part.timestamp = 12 * ksim::kSecond;
  part.subkey = prng.NextDesKey().bytes();
  part.initial_seq = 99;
  auto back = kenc::Decode<EncApRepPart5>(kenc::Encode(part));
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back.value().timestamp, part.timestamp);
  EXPECT_EQ(back.value().subkey, part.subkey);
  EXPECT_EQ(back.value().initial_seq, part.initial_seq);
}

TEST(KrbError5Test, RoundTrip) {
  KrbError5 err;
  err.code = kErrMethod;
  err.text = "challenge/response required";
  err.e_data = kerb::Bytes{1, 2, 3};
  auto back = kenc::Decode<KrbError5>(kenc::Encode(err));
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back.value().code, kErrMethod);
  EXPECT_EQ(back.value().e_data, err.e_data);
}

}  // namespace
}  // namespace krb5
