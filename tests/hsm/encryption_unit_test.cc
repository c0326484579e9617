#include "src/hsm/encryption_unit.h"

#include <gtest/gtest.h>

namespace khsm {
namespace {

krb4::Principal Alice() { return krb4::Principal::User("alice", "ATHENA.SIM"); }

struct UnitFixture {
  kcrypto::Prng prng{55};
  EncryptionUnit unit{99};
  kcrypto::DesKey login_key{prng.NextDesKey()};
  kcrypto::DesKey tgs_key{prng.NextDesKey()};
  KeyHandle login{unit.LoadKey(login_key, KeyUsage::kLoginKey)};
};

TEST(EncryptionUnitTest, OpenAsReplyCapturesSessionKeyAsHandle) {
  UnitFixture f;
  kcrypto::DesKey session = f.prng.NextDesKey();
  krb4::ReplyBody4 body;
  body.session_key = session.bytes();
  body.sealed_ticket = f.prng.NextBytes(32);
  kerb::Bytes sealed = krb4::Seal(f.login_key, body);

  kerb::Bytes tgt_out;
  auto handle = f.unit.OpenAsReply(f.login, sealed, &tgt_out);
  ASSERT_TRUE(handle.ok());
  EXPECT_EQ(tgt_out, body.sealed_ticket);
  // The handle works where a TGS session key should.
  auto auth = f.unit.MakeAuthenticator(handle.value(), Alice(), 1, 0);
  ASSERT_TRUE(auth.ok());
  EXPECT_TRUE(krb4::Unseal<krb4::Authenticator4>(session, auth.value()).ok());
}

TEST(EncryptionUnitTest, UsageTagsPreventCrossPurposeUse) {
  UnitFixture f;
  // The login key must not function as a session key.
  auto sealed = f.unit.SealData(f.login, kerb::ToBytes("data"));
  EXPECT_EQ(sealed.code(), kerb::ErrorCode::kPolicy);
  // Or as a service key.
  auto ticket = f.unit.DecryptTicket(f.login, f.prng.NextBytes(32));
  EXPECT_EQ(ticket.code(), kerb::ErrorCode::kPolicy);
}

TEST(EncryptionUnitTest, UnknownHandleRejected) {
  UnitFixture f;
  EXPECT_EQ(f.unit.SealData(424242, kerb::ToBytes("x")).code(), kerb::ErrorCode::kNotFound);
}

TEST(EncryptionUnitTest, DestroyKeyMakesHandleDead) {
  UnitFixture f;
  KeyHandle session = f.unit.GenerateKey(KeyUsage::kSessionKey);
  ASSERT_TRUE(f.unit.SealData(session, kerb::ToBytes("x")).ok());
  f.unit.DestroyKey(session);
  EXPECT_FALSE(f.unit.SealData(session, kerb::ToBytes("x")).ok());
}

TEST(EncryptionUnitTest, SealOpenRoundTripThroughHandles) {
  UnitFixture f;
  KeyHandle session = f.unit.GenerateKey(KeyUsage::kSessionKey);
  auto sealed = f.unit.SealData(session, kerb::ToBytes("secret"));
  ASSERT_TRUE(sealed.ok());
  auto opened = f.unit.OpenData(session, sealed.value());
  ASSERT_TRUE(opened.ok());
  EXPECT_EQ(kerb::ToString(opened.value()), "secret");
}

TEST(EncryptionUnitTest, DecryptTicketReturnsMetadataNotKey) {
  UnitFixture f;
  kcrypto::DesKey service_key = f.prng.NextDesKey();
  KeyHandle service = f.unit.LoadKey(service_key, KeyUsage::kServiceKey);
  krb4::Ticket4 ticket;
  ticket.service = krb4::Principal::Service("nfs", "fs", "ATHENA.SIM");
  ticket.client = Alice();
  ticket.client_addr = 7;
  ticket.lifetime = ksim::kHour;
  ticket.session_key = f.prng.NextDesKey().bytes();

  auto info = f.unit.DecryptTicket(service, krb4::Seal(service_key, ticket));
  ASSERT_TRUE(info.ok());
  EXPECT_TRUE(info.value().client == Alice());
  EXPECT_EQ(info.value().client_addr, 7u);
  // The session key came back as a live handle.
  EXPECT_TRUE(f.unit.SealData(info.value().session_key, kerb::ToBytes("x")).ok());
}

TEST(EncryptionUnitTest, OperationLogRecordsActivity) {
  UnitFixture f;
  KeyHandle session = f.unit.GenerateKey(KeyUsage::kSessionKey);
  (void)f.unit.SealData(session, kerb::ToBytes("x"));
  (void)f.unit.SealData(f.login, kerb::ToBytes("x"));  // violation
  bool saw_seal = false, saw_violation = false;
  for (const auto& entry : f.unit.operation_log()) {
    if (entry == "seal-data") {
      saw_seal = true;
    }
    if (entry.find("usage-violation") != std::string::npos) {
      saw_violation = true;
    }
  }
  EXPECT_TRUE(saw_seal);
  EXPECT_TRUE(saw_violation);
}

TEST(EncryptionUnitTest, KeyUsageNames) {
  EXPECT_STREQ(KeyUsageName(KeyUsage::kLoginKey), "login");
  EXPECT_STREQ(KeyUsageName(KeyUsage::kTicketGranting), "ticket-granting");
  EXPECT_STREQ(KeyUsageName(KeyUsage::kServiceKey), "service");
  EXPECT_STREQ(KeyUsageName(KeyUsage::kSessionKey), "session");
}

}  // namespace
}  // namespace khsm
