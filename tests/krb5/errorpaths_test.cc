// Error-path coverage for the V5 KDC, client, and application server:
// every rejection branch an adversary (or misconfiguration) can reach must
// produce a clean error, never a crash or a silent success.

#include <gtest/gtest.h>

#include "src/attacks/testbed5.h"
#include "src/crypto/str2key.h"
#include "src/hardened/policy.h"

namespace krb5 {
namespace {

using kattack::Testbed5;
using kattack::Testbed5Config;

TEST(ErrorPaths5Test, AsRequestForUnknownPrincipal) {
  Testbed5 bed;
  AsRequest5 req;
  req.client = Principal::User("nobody", bed.realm);
  req.service_realm = bed.realm;
  req.nonce = 1;
  auto reply = bed.world().network().Call(Testbed5::kEveAddr, Testbed5::kAsAddr,
                                          kenc::Encode(req));
  EXPECT_EQ(reply.code(), kerb::ErrorCode::kNotFound);
}

TEST(ErrorPaths5Test, GarbageToEveryKdcPort) {
  Testbed5 bed;
  kcrypto::Prng prng(1);
  for (const auto& addr : {Testbed5::kAsAddr, Testbed5::kTgsAddr}) {
    for (int i = 0; i < 50; ++i) {
      auto reply =
          bed.world().network().Call(Testbed5::kEveAddr, addr, prng.NextBytes(64));
      EXPECT_FALSE(reply.ok());
    }
  }
}

TEST(ErrorPaths5Test, MalformedPreauthRejectedCleanly) {
  Testbed5Config config;
  config.kdc_policy.require_preauth = true;
  Testbed5 bed(config);
  kcrypto::Prng prng(2);
  AsRequest5 req;
  req.client = bed.alice_principal();
  req.service_realm = bed.realm;
  req.nonce = 7;
  req.padata = prng.NextBytes(40);  // not even block-aligned-sealed data
  auto reply = bed.world().network().Call(Testbed5::kAliceAddr, Testbed5::kAsAddr,
                                          kenc::Encode(req));
  EXPECT_EQ(reply.code(), kerb::ErrorCode::kAuthFailed);
}

TEST(ErrorPaths5Test, PreauthWithWrongNonceRejected) {
  Testbed5Config config;
  config.kdc_policy.require_preauth = true;
  Testbed5 bed(config);
  kcrypto::Prng prng(3);
  kcrypto::DesKey alice_key =
      kcrypto::StringToKey(Testbed5::kAlicePassword, bed.alice_principal().Salt());

  AsRequest5 req;
  req.client = bed.alice_principal();
  req.service_realm = bed.realm;
  req.nonce = 7;
  Preauth5 preauth;
  preauth.nonce = 8;  // mismatched
  preauth.timestamp = bed.world().clock().Now();
  req.padata = Seal(alice_key, preauth, EncLayerConfig{}, prng);
  auto reply = bed.world().network().Call(Testbed5::kAliceAddr, Testbed5::kAsAddr,
                                          kenc::Encode(req));
  EXPECT_EQ(reply.code(), kerb::ErrorCode::kAuthFailed);
}

TEST(ErrorPaths5Test, StalePreauthRejected) {
  Testbed5Config config;
  config.kdc_policy.require_preauth = true;
  Testbed5 bed(config);
  kcrypto::Prng prng(4);
  kcrypto::DesKey alice_key =
      kcrypto::StringToKey(Testbed5::kAlicePassword, bed.alice_principal().Salt());
  AsRequest5 req;
  req.client = bed.alice_principal();
  req.service_realm = bed.realm;
  req.nonce = 7;
  Preauth5 preauth;
  preauth.nonce = 7;
  preauth.timestamp = bed.world().clock().Now() - ksim::kHour;
  req.padata = Seal(alice_key, preauth, EncLayerConfig{}, prng);
  auto reply = bed.world().network().Call(Testbed5::kAliceAddr, Testbed5::kAsAddr,
                                          kenc::Encode(req));
  EXPECT_EQ(reply.code(), kerb::ErrorCode::kAuthFailed);
}

TEST(ErrorPaths5Test, TgsRequestWithoutChecksumRejected) {
  Testbed5 bed;
  ASSERT_TRUE(bed.alice().Login(Testbed5::kAlicePassword).ok());
  kcrypto::Prng prng(5);
  TgsRequest5 req;
  req.service = bed.mail_principal();
  req.lifetime = ksim::kHour;
  req.nonce = 1;
  req.tgt_realm = bed.realm;
  req.sealed_tgt = bed.alice().tgs_credentials()->sealed_tgt;
  Authenticator5 auth;
  auth.client = bed.alice_principal();
  auth.timestamp = bed.world().clock().Now();
  // No checksum fields at all.
  req.sealed_authenticator =
      Seal(bed.alice().tgs_credentials()->session_key, auth, EncLayerConfig{}, prng);
  auto reply = bed.world().network().Call(Testbed5::kAliceAddr, Testbed5::kTgsAddr,
                                          kenc::Encode(req));
  EXPECT_EQ(reply.code(), kerb::ErrorCode::kAuthFailed);
}

TEST(ErrorPaths5Test, TgsRequestFromWrongAddressRejected) {
  Testbed5 bed;  // tickets carry addresses by default
  ASSERT_TRUE(bed.alice().Login(Testbed5::kAlicePassword).ok());
  // An otherwise-valid request built from alice's stolen material, sent
  // from eve's host WITHOUT source spoofing: the ticket's address binding
  // catches this (and only this — see E12) case.
  kcrypto::Prng prng(6);
  TgsRequest5 raw;
  raw.service = bed.mail_principal();
  raw.lifetime = ksim::kHour;
  raw.nonce = 1;
  raw.tgt_realm = bed.realm;
  raw.sealed_tgt = bed.alice().tgs_credentials()->sealed_tgt;
  Authenticator5 auth;
  auth.client = bed.alice_principal();
  auth.timestamp = bed.world().clock().Now();
  auth.checksum_type = kcrypto::ChecksumType::kCrc32;
  auth.request_checksum =
      kcrypto::ComputeChecksum(kcrypto::ChecksumType::kCrc32, raw.ChecksumInput(),
                               bed.alice().tgs_credentials()->session_key);
  raw.sealed_authenticator =
      Seal(bed.alice().tgs_credentials()->session_key, auth, EncLayerConfig{}, prng);
  auto reply = bed.world().network().Call(Testbed5::kEveAddr, Testbed5::kTgsAddr,
                                          kenc::Encode(raw));
  EXPECT_EQ(reply.code(), kerb::ErrorCode::kAuthFailed);
}

// The authenticator's checksum type comes off the wire as a u32. A value
// outside the Draft 3 suite must not verify an empty checksum — that would
// leave every unencrypted request field unprotected — whether or not the
// policy demands a collision-proof type, and 0x101 must not read as CRC-32.
TEST(ErrorPaths5Test, TgsRequestWithUnknownChecksumTypeRejected) {
  for (bool collision_proof : {false, true}) {
    Testbed5Config config;
    config.kdc_policy.require_collision_proof_checksum = collision_proof;
    Testbed5 bed(config);
    ASSERT_TRUE(bed.alice().Login(Testbed5::kAlicePassword).ok());
    const kcrypto::DesKey& session = bed.alice().tgs_credentials()->session_key;
    kcrypto::Prng prng(8);
    for (uint32_t type : {0u, 4u, 200u, 0x101u}) {
      TgsRequest5 req;
      req.service = bed.mail_principal();
      req.lifetime = ksim::kHour;
      req.nonce = prng.NextU64();
      req.tgt_realm = bed.realm;
      req.sealed_tgt = bed.alice().tgs_credentials()->sealed_tgt;
      Authenticator5 auth;
      auth.client = bed.alice_principal();
      auth.timestamp = bed.world().clock().Now();
      kenc::TlvMessage tlv = kenc::TlvMessage::Decode(kenc::Encode(auth)).value();
      tlv.SetU32(tag::kChecksumType, type);
      tlv.SetBytes(tag::kChecksum, kerb::Bytes{});
      EXPECT_EQ(kenc::Decode<Authenticator5>(tlv.Encode()).code(), kerb::ErrorCode::kBadFormat)
          << type;
      req.sealed_authenticator = Seal(session, tlv, EncLayerConfig{}, prng);
      auto reply = bed.world().network().Call(Testbed5::kAliceAddr, Testbed5::kTgsAddr,
                                              kenc::Encode(req));
      EXPECT_EQ(reply.code(), kerb::ErrorCode::kAuthFailed)
          << "type " << type << ", collision-proof policy " << collision_proof;
    }
  }
  const auto unknown = static_cast<kcrypto::ChecksumType>(4);
  EXPECT_FALSE(kcrypto::VerifyChecksum(unknown, kerb::ToBytes("request"), kerb::Bytes{}));
  EXPECT_FALSE(kcrypto::IsCollisionProof(unknown));
}

// `msg`'s wire form with field `tag` replaced by `size` bytes: present, but
// not the width its kind demands. Each mis-sized field below must be a
// decode error, never read as absent.
template <typename Msg>
kenc::TlvMessage WithMisSizedField(const Msg& msg, uint16_t tag, size_t size) {
  kenc::TlvMessage tlv = kenc::TlvMessage::Decode(kenc::Encode(msg)).value();
  tlv.SetBytes(tag, kerb::Bytes(size, 0x01));
  return tlv;
}

// A ticket whose address field is 3 or 5 bytes must not become a ticket
// bound to no address, usable from any host.
TEST(ErrorPaths5Test, MisSizedTicketAddressRejected) {
  for (size_t size : {3u, 5u}) {
    Testbed5 bed;
    kcrypto::Prng prng(9);
    const kcrypto::DesKey session = prng.NextDesKey();
    Ticket5 ticket;
    ticket.service = bed.mail_principal();
    ticket.client = bed.alice_principal();
    ticket.client_addr = Testbed5::kAliceAddr.host;
    ticket.issued_at = bed.world().clock().Now();
    ticket.lifetime = ksim::kHour;
    ticket.session_key = session.bytes();
    kenc::TlvMessage tlv = WithMisSizedField(ticket, tag::kAddress, size);
    EXPECT_EQ(kenc::Decode<Ticket5>(tlv.Encode()).code(), kerb::ErrorCode::kBadFormat) << size;

    ApRequest5 req;
    req.sealed_ticket = Seal(bed.mail_key(), tlv, EncLayerConfig{}, prng);
    Authenticator5 auth;
    auth.client = bed.alice_principal();
    auth.timestamp = bed.world().clock().Now();
    req.sealed_authenticator = Seal(session, auth, EncLayerConfig{}, prng);
    auto verdict = bed.mail_server().VerifyApRequest(req, Testbed5::kEveAddr.host, nullptr);
    EXPECT_EQ(verdict.code(), kerb::ErrorCode::kAuthFailed) << size;
  }
}

TEST(ErrorPaths5Test, MisSizedAsRequestOptionsRejected) {
  Testbed5 bed;
  AsRequest5 req;
  req.client = bed.alice_principal();
  req.service_realm = bed.realm;
  req.lifetime = ksim::kHour;
  req.options = kOptOmitAddress;
  req.nonce = 11;
  kenc::TlvMessage tlv = WithMisSizedField(req, tag::kOptions, 3);
  EXPECT_EQ(kenc::Decode<AsRequest5>(tlv.Encode()).code(), kerb::ErrorCode::kBadFormat);
  auto reply =
      bed.world().network().Call(Testbed5::kAliceAddr, Testbed5::kAsAddr, tlv.Encode());
  EXPECT_EQ(reply.code(), kerb::ErrorCode::kBadFormat);
}

TEST(ErrorPaths5Test, MisSizedPkAsRequestOptionsRejected) {
  Testbed5 bed;
  kcrypto::Prng prng(10);
  AsPkRequest5 req;
  req.client = bed.alice_principal();
  req.service_realm = bed.realm;
  req.lifetime = ksim::kHour;
  req.nonce = 12;
  req.client_pub = prng.NextBytes(64);
  kenc::TlvMessage tlv = WithMisSizedField(req, tag::kOptions, 5);
  EXPECT_EQ(kenc::Decode<AsPkRequest5>(tlv.Encode()).code(), kerb::ErrorCode::kBadFormat);
  auto reply =
      bed.world().network().Call(Testbed5::kAliceAddr, Testbed5::kAsAddr, tlv.Encode());
  EXPECT_EQ(reply.code(), kerb::ErrorCode::kBadFormat);
}

TEST(ErrorPaths5Test, MisSizedAuthenticatorChecksumTypeRejected) {
  Testbed5 bed;
  ASSERT_TRUE(bed.alice().Login(Testbed5::kAlicePassword).ok());
  const kcrypto::DesKey& session = bed.alice().tgs_credentials()->session_key;
  kcrypto::Prng prng(11);
  TgsRequest5 req;
  req.service = bed.mail_principal();
  req.lifetime = ksim::kHour;
  req.nonce = prng.NextU64();
  req.tgt_realm = bed.realm;
  req.sealed_tgt = bed.alice().tgs_credentials()->sealed_tgt;
  Authenticator5 auth;
  auth.client = bed.alice_principal();
  auth.timestamp = bed.world().clock().Now();
  auth.checksum_type = kcrypto::ChecksumType::kCrc32;
  auth.request_checksum =
      kcrypto::ComputeChecksum(kcrypto::ChecksumType::kCrc32, req.ChecksumInput(), session);
  kenc::TlvMessage tlv = WithMisSizedField(auth, tag::kChecksumType, 3);
  EXPECT_EQ(kenc::Decode<Authenticator5>(tlv.Encode()).code(), kerb::ErrorCode::kBadFormat);
  req.sealed_authenticator = Seal(session, tlv, EncLayerConfig{}, prng);
  auto reply = bed.world().network().Call(Testbed5::kAliceAddr, Testbed5::kTgsAddr,
                                          kenc::Encode(req));
  EXPECT_EQ(reply.code(), kerb::ErrorCode::kAuthFailed);
}

TEST(ErrorPaths5Test, MisSizedAuthenticatorSeqNumberRejected) {
  Testbed5 bed;
  ASSERT_TRUE(bed.alice().Login(Testbed5::kAlicePassword).ok());
  auto creds = bed.alice().GetServiceTicket(bed.mail_principal());
  ASSERT_TRUE(creds.ok());
  kcrypto::Prng prng(12);
  Authenticator5 auth;
  auth.client = bed.alice_principal();
  auth.timestamp = bed.world().clock().Now();
  auth.initial_seq = 7;
  kenc::TlvMessage tlv = WithMisSizedField(auth, tag::kSeqNumber, 5);
  EXPECT_EQ(kenc::Decode<Authenticator5>(tlv.Encode()).code(), kerb::ErrorCode::kBadFormat);
  ApRequest5 req;
  req.sealed_ticket = creds.value().sealed_ticket;
  req.sealed_authenticator = Seal(creds.value().session_key, tlv, EncLayerConfig{}, prng);
  auto verdict = bed.mail_server().VerifyApRequest(req, Testbed5::kAliceAddr.host, nullptr);
  EXPECT_EQ(verdict.code(), kerb::ErrorCode::kAuthFailed);
}

TEST(ErrorPaths5Test, MisSizedApReplySeqNumberRejected) {
  kcrypto::Prng prng(13);
  const kcrypto::DesKey session = prng.NextDesKey();
  EncApRepPart5 part;
  part.timestamp = 5 * ksim::kSecond;
  part.initial_seq = 9;
  kenc::TlvMessage tlv = WithMisSizedField(part, tag::kSeqNumber, 3);
  EXPECT_EQ(kenc::Decode<EncApRepPart5>(tlv.Encode()).code(), kerb::ErrorCode::kBadFormat);
  kerb::Bytes sealed = Seal(session, tlv, EncLayerConfig{}, prng);
  EXPECT_EQ(Unseal<EncApRepPart5>(session, sealed, EncLayerConfig{}).code(),
            kerb::ErrorCode::kBadFormat);
}

// A TGT the KDC has no key to verify must be refused, not unsealed under a
// default key. Eve, holding no key at all, seals a TGT naming alice under
// kcrypto::DesKey() and presents it: from a realm the KDC shares no key
// with, and — once the krbtgt entry is gone — as a local TGT.
TEST(ErrorPaths5Test, TgtUnderDefaultKeyRefused) {
  Testbed5 bed;
  kcrypto::Prng prng(7);
  const ksim::Time now = bed.world().clock().Now();
  const kcrypto::DesKey session = prng.NextDesKey();
  Ticket5 forged;
  forged.service = krb4::TgsPrincipal(bed.realm);
  forged.client = bed.alice_principal();
  forged.flags = kFlagForwardable;
  forged.issued_at = now;
  forged.lifetime = ksim::kHour;
  forged.session_key = session.bytes();

  auto present = [&](const std::string& tgt_realm) {
    TgsRequest5 req;
    req.service = bed.mail_principal();
    req.lifetime = ksim::kHour;
    req.nonce = prng.NextU64();
    req.tgt_realm = tgt_realm;
    req.sealed_tgt = Seal(kcrypto::DesKey(), forged, EncLayerConfig{}, prng);
    Authenticator5 auth;
    auth.client = bed.alice_principal();
    auth.timestamp = now;
    auth.checksum_type = kcrypto::ChecksumType::kCrc32;
    auth.request_checksum =
        kcrypto::ComputeChecksum(kcrypto::ChecksumType::kCrc32, req.ChecksumInput(), session);
    req.sealed_authenticator = Seal(session, auth, EncLayerConfig{}, prng);
    return bed.world().network().Call(Testbed5::kEveAddr, Testbed5::kTgsAddr,
                                      kenc::Encode(req));
  };

  EXPECT_EQ(present("NO.SUCH.REALM").code(), kerb::ErrorCode::kAuthFailed);
  ASSERT_TRUE(bed.kdc().database().Remove(forged.service));
  EXPECT_EQ(present(bed.realm).code(), kerb::ErrorCode::kNotFound);
}

TEST(ErrorPaths5Test, ChallengesExpireAtTheServer) {
  Testbed5Config config;
  config.server_options.mode = ApAuthMode::kChallengeResponse;
  Testbed5 bed(config);
  ASSERT_TRUE(bed.alice().Login(Testbed5::kAlicePassword).ok());
  // First leg: collect a challenge by sending a bare AP request.
  auto request = bed.alice().MakeApRequest(bed.mail_principal(), false);
  ASSERT_TRUE(request.ok());
  (void)bed.world().network().Call(Testbed5::kAliceAddr, Testbed5::kMailAddr,
                                   request.value());
  EXPECT_EQ(bed.mail_server().outstanding_challenges(), 1u);
  // Outstanding challenges age out of the window.
  bed.world().clock().Advance(10 * ksim::kMinute);
  auto request2 = bed.alice().MakeApRequest(bed.mail_principal(), false);
  ASSERT_TRUE(request2.ok());
  (void)bed.world().network().Call(Testbed5::kAliceAddr, Testbed5::kMailAddr,
                                   request2.value());
  EXPECT_EQ(bed.mail_server().outstanding_challenges(), 1u)
      << "the stale challenge must have been pruned, leaving only the new one";
}

TEST(ErrorPaths5Test, ClientRejectsRealmWithoutDirectoryEntry) {
  Testbed5 bed;
  ASSERT_TRUE(bed.alice().Login(Testbed5::kAlicePassword).ok());
  auto creds =
      bed.alice().GetServiceTicket(Principal::Service("svc", "h", "NOWHERE.EXAMPLE"));
  EXPECT_FALSE(creds.ok());
}

TEST(ErrorPaths5Test, HardenedKdcRejectsReplayedPreauth) {
  // Replaying a captured preauth blob fails once the timestamp ages out;
  // within the window the AS reply is useless without K_c anyway.
  Testbed5Config config;
  config.kdc_policy.require_preauth = true;
  config.client_options.use_preauth = true;
  Testbed5 bed(config);
  ksim::RecordingAdversary recorder;
  bed.world().network().SetAdversary(&recorder);
  ASSERT_TRUE(bed.alice().Login(Testbed5::kAlicePassword).ok());
  bed.world().network().SetAdversary(nullptr);
  kerb::Bytes captured = recorder.exchanges()[0].request.payload;

  bed.world().clock().Advance(ksim::kHour);
  auto replay =
      bed.world().network().Call(Testbed5::kEveAddr, Testbed5::kAsAddr, captured);
  EXPECT_EQ(replay.code(), kerb::ErrorCode::kAuthFailed);
}

}  // namespace
}  // namespace krb5
