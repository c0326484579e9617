// End-to-end Version 5 protocol tests over the simulated network.

#include <gtest/gtest.h>

#include "src/attacks/testbed5.h"
#include "src/obs/kobs.h"

namespace krb5 {
namespace {

using kattack::Testbed5;
using kattack::Testbed5Config;

TEST(Protocol5Test, LoginAndServiceCall) {
  Testbed5 bed;
  ASSERT_TRUE(bed.alice().Login(Testbed5::kAlicePassword).ok());
  auto result = bed.alice().CallService(Testbed5::kMailAddr, bed.mail_principal(), false);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(kerb::ToString(result.value().app_reply), "mail-ok: mail-check");
  ASSERT_EQ(bed.mail_log().size(), 1u);
  EXPECT_EQ(bed.mail_log()[0], "mail-check by alice@ATHENA.SIM");
}

TEST(Protocol5Test, WrongPasswordFails) {
  Testbed5 bed;
  EXPECT_FALSE(bed.alice().Login("wrong").ok());
}

TEST(Protocol5Test, NonceEchoDetectsFabricatedReply) {
  // Draft 3's AS nonce: a fabricated AS reply (e.g. a replayed one from an
  // earlier login) fails the nonce check even when the password matches.
  Testbed5 bed;
  ksim::RecordingAdversary recorder;
  bed.world().network().SetAdversary(&recorder);
  ASSERT_TRUE(bed.alice().Login(Testbed5::kAlicePassword).ok());
  kerb::Bytes old_reply = recorder.exchanges()[0].reply;
  bed.world().network().SetAdversary(nullptr);

  class Replayer : public ksim::Adversary {
   public:
    explicit Replayer(kerb::Bytes reply) : reply_(std::move(reply)) {}
    Decision OnRequest(ksim::Message& msg) override {
      if (msg.dst.port == 88) {
        return Decision{false, reply_};
      }
      return {};
    }
    kerb::Bytes reply_;
  } replayer(old_reply);
  bed.world().network().SetAdversary(&replayer);

  auto status = bed.alice().Login(Testbed5::kAlicePassword);
  EXPECT_FALSE(status.ok());
}

TEST(Protocol5Test, MutualAuthentication) {
  Testbed5 bed;
  ASSERT_TRUE(bed.alice().Login(Testbed5::kAlicePassword).ok());
  auto result = bed.alice().CallService(Testbed5::kFileAddr, bed.file_principal(), true,
                                        kerb::ToBytes("mount /home/alice"));
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(kerb::ToString(result.value().app_reply), "file-ok: mount /home/alice");
}

TEST(Protocol5Test, PreauthRequiredRejectsBareRequests) {
  Testbed5Config config;
  config.kdc_policy.require_preauth = true;
  Testbed5 bed(config);
  // Client not configured for preauth: rejected.
  EXPECT_FALSE(bed.alice().Login(Testbed5::kAlicePassword).ok());
  // Client with preauth: accepted.
  auto options = bed.alice().options();
  options.use_preauth = true;
  auto alice2 = bed.MakeClient(bed.alice_principal(), Testbed5::kAliceAddr, options);
  EXPECT_TRUE(alice2->Login(Testbed5::kAlicePassword).ok());
}

TEST(Protocol5Test, PreauthWithWrongPasswordRejected) {
  Testbed5Config config;
  config.kdc_policy.require_preauth = true;
  config.client_options.use_preauth = true;
  Testbed5 bed(config);
  EXPECT_FALSE(bed.alice().Login("wrong-password").ok());
}

TEST(Protocol5Test, RateLimitThrottlesAsRequests) {
  Testbed5Config config;
  config.kdc_policy.as_rate_limit_per_minute = 3;
  Testbed5 bed(config);
  for (int i = 0; i < 3; ++i) {
    EXPECT_TRUE(bed.alice().Login(Testbed5::kAlicePassword).ok()) << i;
  }
  auto status = bed.alice().Login(Testbed5::kAlicePassword);
  EXPECT_EQ(status.code(), kerb::ErrorCode::kRateLimited);
  EXPECT_EQ(bed.kdc().as_requests_rate_limited(), 1u);
  // The window slides: a minute later requests flow again.
  bed.world().clock().Advance(ksim::kMinute + ksim::kSecond);
  EXPECT_TRUE(bed.alice().Login(Testbed5::kAlicePassword).ok());
}

TEST(Protocol5Test, AddressOmissionProducesPortableTickets) {
  Testbed5Config config;
  config.client_options.omit_address = true;
  config.server_options.check_address = true;  // enforced but vacuous
  Testbed5 bed(config);
  ASSERT_TRUE(bed.alice().Login(Testbed5::kAlicePassword).ok());
  auto request = bed.alice().MakeApRequest(bed.mail_principal(), false);
  ASSERT_TRUE(request.ok());
  // Delivered from a completely different host: still accepted, because the
  // ticket binds no address.
  auto reply = bed.world().network().Call(Testbed5::kEveAddr, Testbed5::kMailAddr,
                                          request.value());
  EXPECT_TRUE(reply.ok());
}

TEST(Protocol5Test, AddressBindingBlocksNaiveCrossHostUse) {
  Testbed5 bed;  // addresses bound by default
  ASSERT_TRUE(bed.alice().Login(Testbed5::kAlicePassword).ok());
  auto request = bed.alice().MakeApRequest(bed.mail_principal(), false);
  ASSERT_TRUE(request.ok());
  auto reply = bed.world().network().Call(Testbed5::kEveAddr, Testbed5::kMailAddr,
                                          request.value());
  EXPECT_FALSE(reply.ok());  // naive reuse fails; E12 shows spoofing defeats it
}

TEST(Protocol5Test, ChallengeResponseModeWorksForHonestClients) {
  Testbed5Config config;
  config.server_options.mode = ApAuthMode::kChallengeResponse;
  Testbed5 bed(config);
  ASSERT_TRUE(bed.alice().Login(Testbed5::kAlicePassword).ok());
  auto result = bed.alice().CallService(Testbed5::kMailAddr, bed.mail_principal(), false);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(bed.mail_log().size(), 1u);
  // The challenge was consumed.
  EXPECT_EQ(bed.mail_server().outstanding_challenges(), 0u);
}

TEST(Protocol5Test, SubkeyNegotiationYieldsSharedChannelKey) {
  Testbed5Config config;
  config.server_options.negotiate_subkey = true;
  config.client_options.send_subkey = true;
  Testbed5 bed(config);
  ASSERT_TRUE(bed.alice().Login(Testbed5::kAlicePassword).ok());

  kcrypto::DesKey server_channel_key;
  // Capture the channel key the server derived.
  bed.mail_server();  // server handler stores nothing; use a second call path
  auto result = bed.alice().CallService(Testbed5::kMailAddr, bed.mail_principal(), true);
  ASSERT_TRUE(result.ok());
  auto creds = bed.alice().GetServiceTicket(bed.mail_principal());
  ASSERT_TRUE(creds.ok());
  // The negotiated key differs from the ticket's multi-session key.
  EXPECT_FALSE(result.value().channel_key == creds.value().session_key);
}

// With negotiate_subkey the server takes the client's subkey from the
// authenticator VerifyApRequest already opened: one AP exchange unseals the
// ticket and the authenticator once each, and both ends still derive the
// same channel key.
TEST(Protocol5Test, SubkeyNegotiationUnsealsTheAuthenticatorOnce) {
  Testbed5Config config;
  config.client_options.send_subkey = true;
  Testbed5 bed(config);
  AppServer5Options options;
  options.negotiate_subkey = true;
  constexpr ksim::NetAddress kProbeAddr{0x0a000013, 220};
  kcrypto::DesKey server_channel_key;
  AppServer5 server(
      &bed.world().network(), kProbeAddr, bed.mail_principal(), bed.mail_key(),
      bed.world().MakeHostClock(), kcrypto::Prng(0x5b),
      [&](const VerifiedSession5& session, const kerb::Bytes&) {
        server_channel_key = session.channel_key;
        return kerb::Bytes{};
      },
      options);
  ASSERT_TRUE(bed.alice().Login(Testbed5::kAlicePassword).ok());
  auto request = bed.alice().MakeApRequest(bed.mail_principal(), /*want_mutual=*/true);
  ASSERT_TRUE(request.ok());

  {
    kobs::ScopedTrace trace;
    auto reply = bed.world().network().Call(Testbed5::kAliceAddr, kProbeAddr, request.value());
    ASSERT_TRUE(reply.ok());
    EXPECT_EQ(trace->Count(kobs::Ev::kUnsealOk), 2u);
    EXPECT_EQ(trace->Count(kobs::Ev::kUnsealFail), 0u);
  }

  auto result = bed.alice().CallService(kProbeAddr, bed.mail_principal(), true);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value().channel_key, server_channel_key);
  ASSERT_TRUE(bed.alice().last_subkey().has_value());
}

TEST(Protocol5Test, ForwardedTgtFlaggedAndUsable) {
  Testbed5Config config;
  Testbed5 bed(config);
  ASSERT_TRUE(bed.alice().Login(Testbed5::kAlicePassword).ok());
  auto forwarded = bed.alice().ForwardTgt(/*omit_address=*/true);
  ASSERT_TRUE(forwarded.ok());
  // The forwarded TGT carries the FORWARDED flag but "does not include the
  // original source" — verify by unsealing with the TGS key via the KDC db.
  auto tgs_key = bed.kdc().database().Lookup(krb4::TgsPrincipal(bed.realm));
  ASSERT_TRUE(tgs_key.ok());
  auto ticket = Unseal<Ticket5>(tgs_key.value(), forwarded.value().sealed_tgt,
                                bed.kdc().policy().enc);
  ASSERT_TRUE(ticket.ok());
  EXPECT_TRUE(ticket.value().flags & kFlagForwarded);
  EXPECT_FALSE(ticket.value().client_addr.has_value());
}

TEST(Protocol5Test, ForwardedTicketOmitsOriginalSource) {
  // "Kerberos has a flag bit to indicate that a ticket was forwarded, but
  // does not include the original source." Two TGTs forwarded through
  // completely different hosts are structurally indistinguishable: the
  // accepting party cannot evaluate the forwarding chain.
  auto forward_from = [](uint64_t seed, const ksim::NetAddress&) -> krb5::Ticket5 {
    kattack::Testbed5Config config;
    config.seed = seed;
    kattack::Testbed5 bed(config);
    EXPECT_TRUE(bed.alice().Login(kattack::Testbed5::kAlicePassword).ok());
    auto fwd = bed.alice().ForwardTgt(/*omit_address=*/true);
    EXPECT_TRUE(fwd.ok());
    auto tgs_key = bed.kdc().database().Lookup(krb4::TgsPrincipal(bed.realm));
    EXPECT_TRUE(tgs_key.ok());
    auto ticket = Unseal<Ticket5>(tgs_key.value(), fwd.value().sealed_tgt,
                                  bed.kdc().policy().enc);
    EXPECT_TRUE(ticket.ok());
    return ticket.value();
  };
  // Same user, same realm — forwarded via two different "hosts" (the
  // request source is the only thing that differs, and it is not recorded).
  krb5::Ticket5 a = forward_from(1, kattack::Testbed5::kAliceAddr);
  krb5::Ticket5 b = forward_from(1, kattack::Testbed5::kEveAddr);
  EXPECT_EQ(a.flags, b.flags);
  EXPECT_EQ(a.client_addr, b.client_addr);  // both absent
  EXPECT_EQ(a.transited, b.transited);
  // Nothing in the ticket distinguishes the forwarding origins: every field
  // that is not a random key or a timestamp is identical.
}

TEST(Protocol5Test, EncTktInSkeyDisabledByPolicy) {
  Testbed5Config config;
  config.kdc_policy.allow_enc_tkt_in_skey = false;
  Testbed5 bed(config);
  ASSERT_TRUE(bed.alice().Login(Testbed5::kAlicePassword).ok());
  TgsRequest5 req;
  req.service = bed.mail_principal();
  req.lifetime = ksim::kHour;
  req.options = kOptEncTktInSkey;
  req.additional_ticket = bed.alice().tgs_credentials()->sealed_tgt;
  auto reply = bed.alice().RawTgsRequest(bed.realm, req);
  EXPECT_FALSE(reply.ok());
}

TEST(Protocol5Test, CollisionProofChecksumPolicyRejectsCrc32Clients) {
  Testbed5Config config;
  config.kdc_policy.require_collision_proof_checksum = true;
  // Client uses the Draft 3 CRC-32 default.
  Testbed5 bed(config);
  ASSERT_TRUE(bed.alice().Login(Testbed5::kAlicePassword).ok());
  auto creds = bed.alice().GetServiceTicket(bed.mail_principal());
  EXPECT_EQ(creds.code(), kerb::ErrorCode::kPolicy);

  // An MD4-DES client passes.
  auto options = bed.alice().options();
  options.request_checksum = kcrypto::ChecksumType::kMd4Des;
  auto alice2 = bed.MakeClient(bed.alice_principal(), Testbed5::kAliceAddr, options);
  ASSERT_TRUE(alice2->Login(Testbed5::kAlicePassword).ok());
  EXPECT_TRUE(alice2->GetServiceTicket(bed.mail_principal()).ok());
}

TEST(Protocol5Test, TamperedTgsRequestDetectedEvenWithCrc32WhenNotCompensated) {
  // A blind bit-flip in the options field fails the checksum: CRC-32 does
  // detect NOISE; E9 shows it fails against a compensating adversary.
  Testbed5 bed;
  ASSERT_TRUE(bed.alice().Login(Testbed5::kAlicePassword).ok());

  class OptionFlipper : public ksim::Adversary {
   public:
    Decision OnRequest(ksim::Message& msg) override {
      if (msg.dst.port != 750) {
        return {};
      }
      auto req = kenc::Decode<TgsRequest5>(msg.payload);
      if (!req.ok()) {
        return {};
      }
      req.value().options |= kOptOmitAddress;  // no checksum compensation
      msg.payload = kenc::Encode(req.value());
      return {};
    }
  } flipper;
  bed.world().network().SetAdversary(&flipper);

  auto creds = bed.alice().GetServiceTicket(bed.mail_principal());
  EXPECT_FALSE(creds.ok());
}

TEST(Protocol5Test, ServiceTicketNeverOutlivesTheTgt) {
  // "The latter is a security measure; the longer a ticket is in use, the
  // greater the risk of it being stolen or compromised." Tickets derive
  // their authority from the TGT; they must expire with it.
  Testbed5 bed;
  ASSERT_TRUE(bed.alice().Login(Testbed5::kAlicePassword, 2 * ksim::kHour).ok());
  bed.world().clock().Advance(90 * ksim::kMinute);  // 30 minutes of TGT left
  auto creds = bed.alice().GetServiceTicket(bed.mail_principal(), 8 * ksim::kHour);
  ASSERT_TRUE(creds.ok());
  EXPECT_LE(creds.value().lifetime, 30 * ksim::kMinute);
}

TEST(Protocol5Test, ExpiredTicketsRejected) {
  Testbed5 bed;
  ASSERT_TRUE(bed.alice().Login(Testbed5::kAlicePassword, ksim::kHour).ok());
  auto creds = bed.alice().GetServiceTicket(bed.mail_principal(), ksim::kHour);
  ASSERT_TRUE(creds.ok());
  bed.world().clock().Advance(2 * ksim::kHour);
  ApRequest5 req;
  req.sealed_ticket = creds.value().sealed_ticket;
  Authenticator5 auth;
  auth.client = bed.alice_principal();
  auth.timestamp = bed.world().clock().Now();
  kcrypto::Prng prng(1);
  req.sealed_authenticator = Seal(creds.value().session_key, auth, bed.kdc().policy().enc, prng);
  auto verdict = bed.mail_server().VerifyApRequest(req, Testbed5::kAliceAddr.host, nullptr);
  EXPECT_EQ(verdict.code(), kerb::ErrorCode::kExpired);
}

}  // namespace
}  // namespace krb5
