// End-to-end Kerberos V4 protocol tests over the simulated network,
// using the standard experiment testbed.

#include <gtest/gtest.h>

#include "src/attacks/testbed.h"

namespace krb4 {
namespace {

using kattack::Testbed4;
using kattack::TestbedConfig;

TEST(Protocol4Test, LoginSucceedsWithCorrectPassword) {
  Testbed4 bed;
  EXPECT_TRUE(bed.alice().Login(Testbed4::kAlicePassword).ok());
  EXPECT_TRUE(bed.alice().logged_in());
}

TEST(Protocol4Test, LoginFailsWithWrongPassword) {
  Testbed4 bed;
  auto status = bed.alice().Login("not-the-password");
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(status.code(), kerb::ErrorCode::kAuthFailed);
  EXPECT_FALSE(bed.alice().logged_in());
}

TEST(Protocol4Test, ServiceTicketAndApExchange) {
  Testbed4 bed;
  ASSERT_TRUE(bed.alice().Login(Testbed4::kAlicePassword).ok());
  auto reply = bed.alice().CallService(Testbed4::kMailAddr, bed.mail_principal(), false);
  ASSERT_TRUE(reply.ok());
  EXPECT_EQ(kerb::ToString(reply.value()), "You have 3 messages.");
  ASSERT_EQ(bed.mail_log().size(), 1u);
  EXPECT_EQ(bed.mail_log()[0], "mail-check alice@ATHENA.SIM");
}

TEST(Protocol4Test, MutualAuthenticationRoundTrip) {
  Testbed4 bed;
  ASSERT_TRUE(bed.alice().Login(Testbed4::kAlicePassword).ok());
  auto reply = bed.alice().CallService(Testbed4::kFileAddr, bed.file_principal(), true,
                                       kerb::ToBytes("mount /home/alice"));
  ASSERT_TRUE(reply.ok());
  EXPECT_EQ(kerb::ToString(reply.value()), "ok: mount /home/alice");
}

TEST(Protocol4Test, CannotUseServiceWithoutLogin) {
  Testbed4 bed;
  auto reply = bed.alice().CallService(Testbed4::kMailAddr, bed.mail_principal(), false);
  EXPECT_FALSE(reply.ok());
}

TEST(Protocol4Test, TicketForWrongServiceRejected) {
  Testbed4 bed;
  ASSERT_TRUE(bed.alice().Login(Testbed4::kAlicePassword).ok());
  // Get a valid AP request for the mail service, then deliver it to the
  // file server: its key cannot unseal the ticket.
  auto request = bed.alice().MakeApRequest(bed.mail_principal(), false);
  ASSERT_TRUE(request.ok());
  auto reply = bed.world().network().Call(Testbed4::kAliceAddr, Testbed4::kFileAddr,
                                          request.value());
  EXPECT_FALSE(reply.ok());
  EXPECT_EQ(bed.file_server().rejected_requests(), 1u);
}

TEST(Protocol4Test, ExpiredTicketRejected) {
  Testbed4 bed;
  ASSERT_TRUE(bed.alice().Login(Testbed4::kAlicePassword, ksim::kHour).ok());
  auto creds = bed.alice().GetServiceTicket(bed.mail_principal(), ksim::kHour);
  ASSERT_TRUE(creds.ok());
  bed.world().clock().Advance(2 * ksim::kHour);
  // Build the AP request by hand with the stale cached ticket.
  Authenticator4 auth;
  auth.client = bed.alice_principal();
  auth.client_addr = Testbed4::kAliceAddr.host;
  auth.timestamp = bed.world().clock().Now();
  ApRequest4 req;
  req.sealed_ticket = creds.value().sealed_ticket;
  req.sealed_auth = krb4::Seal(creds.value().session_key, auth);
  auto verdict = bed.mail_server().VerifyApRequest(req, Testbed4::kAliceAddr.host);
  EXPECT_FALSE(verdict.ok());
  EXPECT_EQ(verdict.code(), kerb::ErrorCode::kExpired);
}

TEST(Protocol4Test, ExpiredTgtRejectedByTgs) {
  Testbed4 bed;
  ASSERT_TRUE(bed.alice().Login(Testbed4::kAlicePassword, ksim::kHour).ok());
  bed.world().clock().Advance(3 * ksim::kHour);
  auto creds = bed.alice().GetServiceTicket(bed.mail_principal());
  EXPECT_FALSE(creds.ok());
}

TEST(Protocol4Test, StaleAuthenticatorOutsideSkewRejected) {
  Testbed4 bed;
  ASSERT_TRUE(bed.alice().Login(Testbed4::kAlicePassword).ok());
  auto request = bed.alice().MakeApRequest(bed.mail_principal(), false);
  ASSERT_TRUE(request.ok());
  // Deliver it six minutes later — outside the five-minute window.
  bed.world().clock().Advance(6 * ksim::kMinute);
  auto reply = bed.world().network().Call(Testbed4::kAliceAddr, Testbed4::kMailAddr,
                                          request.value());
  EXPECT_FALSE(reply.ok());
}

TEST(Protocol4Test, AuthenticatorWithinSkewAccepted) {
  Testbed4 bed;
  ASSERT_TRUE(bed.alice().Login(Testbed4::kAlicePassword).ok());
  auto request = bed.alice().MakeApRequest(bed.mail_principal(), false);
  ASSERT_TRUE(request.ok());
  bed.world().clock().Advance(4 * ksim::kMinute);  // inside the window
  auto reply = bed.world().network().Call(Testbed4::kAliceAddr, Testbed4::kMailAddr,
                                          request.value());
  EXPECT_TRUE(reply.ok());
}

TEST(Protocol4Test, ServiceTicketsAreCachedPerService) {
  Testbed4 bed;
  ASSERT_TRUE(bed.alice().Login(Testbed4::kAlicePassword).ok());
  ASSERT_TRUE(bed.alice().GetServiceTicket(bed.mail_principal()).ok());
  uint64_t after_first = bed.kdc().tgs_requests_served();
  ASSERT_TRUE(bed.alice().GetServiceTicket(bed.mail_principal()).ok());
  EXPECT_EQ(bed.kdc().tgs_requests_served(), after_first);  // cache hit
  ASSERT_TRUE(bed.alice().GetServiceTicket(bed.file_principal()).ok());
  EXPECT_EQ(bed.kdc().tgs_requests_served(), after_first + 1);
}

TEST(Protocol4Test, LogoutWipesCredentials) {
  Testbed4 bed;
  ASSERT_TRUE(bed.alice().Login(Testbed4::kAlicePassword).ok());
  ASSERT_TRUE(bed.alice().GetServiceTicket(bed.mail_principal()).ok());
  bed.alice().Logout();
  EXPECT_FALSE(bed.alice().logged_in());
  EXPECT_TRUE(bed.alice().credentials().empty());
  EXPECT_FALSE(bed.alice().GetServiceTicket(bed.mail_principal()).ok());
}

TEST(Protocol4Test, UnknownUserGetsError) {
  Testbed4 bed;
  auto mallory = bed.MakeClient(Principal::User("mallory", bed.realm), Testbed4::kEveAddr);
  EXPECT_EQ(mallory->Login("whatever").code(), kerb::ErrorCode::kNotFound);
}

TEST(Protocol4Test, UnknownServiceGetsError) {
  Testbed4 bed;
  ASSERT_TRUE(bed.alice().Login(Testbed4::kAlicePassword).ok());
  auto creds =
      bed.alice().GetServiceTicket(Principal::Service("nosuch", "host", bed.realm));
  EXPECT_EQ(creds.code(), kerb::ErrorCode::kNotFound);
}

TEST(Protocol4Test, TwoUsersIndependentSessions) {
  Testbed4 bed;
  ASSERT_TRUE(bed.alice().Login(Testbed4::kAlicePassword).ok());
  ASSERT_TRUE(bed.bob().Login(Testbed4::kBobPassword).ok());
  ASSERT_TRUE(bed.alice().CallService(Testbed4::kMailAddr, bed.mail_principal(), false).ok());
  ASSERT_TRUE(bed.bob().CallService(Testbed4::kMailAddr, bed.mail_principal(), false).ok());
  ASSERT_EQ(bed.mail_log().size(), 2u);
  EXPECT_EQ(bed.mail_log()[0], "mail-check alice@ATHENA.SIM");
  EXPECT_EQ(bed.mail_log()[1], "mail-check bob@ATHENA.SIM");
}

TEST(Protocol4Test, SessionKeysDifferAcrossTicketGrants) {
  Testbed4 bed;
  ASSERT_TRUE(bed.alice().Login(Testbed4::kAlicePassword).ok());
  ASSERT_TRUE(bed.bob().Login(Testbed4::kBobPassword).ok());
  auto a = bed.alice().GetServiceTicket(bed.mail_principal());
  auto b = bed.bob().GetServiceTicket(bed.mail_principal());
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_FALSE(a.value().session_key == b.value().session_key);
}

TEST(Protocol4Test, LifetimesAreQuantizedToV4Units) {
  Testbed4 bed;
  // Ask for an un-round lifetime; the grant snaps to 5-minute units.
  ASSERT_TRUE(bed.alice().Login(Testbed4::kAlicePassword, 47 * ksim::kMinute).ok());
  EXPECT_EQ(bed.alice().tgs_credentials()->lifetime % krb4::kV4LifetimeUnit, 0);
  auto creds = bed.alice().GetServiceTicket(bed.mail_principal(), 23 * ksim::kMinute);
  ASSERT_TRUE(creds.ok());
  EXPECT_EQ(creds.value().lifetime % krb4::kV4LifetimeUnit, 0);
  EXPECT_LE(creds.value().lifetime, 23 * ksim::kMinute);  // TGS rounds down
}

TEST(Protocol4Test, NoTicketOutlivesTheOneByteCap) {
  TestbedConfig config;
  config.seed = 77;
  Testbed4 bed(config);
  // Even with a permissive KDC maximum, V4's encoding caps at 21h15m.
  ASSERT_TRUE(bed.alice().Login(Testbed4::kAlicePassword, 100 * ksim::kHour).ok());
  EXPECT_LE(bed.alice().tgs_credentials()->lifetime, krb4::kV4MaxLifetime);
}

TEST(Protocol4Test, ServiceTicketCappedByTgtRemainingLife) {
  Testbed4 bed;
  ASSERT_TRUE(bed.alice().Login(Testbed4::kAlicePassword, 2 * ksim::kHour).ok());
  bed.world().clock().Advance(90 * ksim::kMinute);
  auto creds = bed.alice().GetServiceTicket(bed.mail_principal(), 8 * ksim::kHour);
  ASSERT_TRUE(creds.ok());
  EXPECT_LE(creds.value().lifetime, 30 * ksim::kMinute);
}

TEST(Protocol4Test, KdcCountsRequests) {
  Testbed4 bed;
  EXPECT_EQ(bed.kdc().as_requests_served(), 0u);
  ASSERT_TRUE(bed.alice().Login(Testbed4::kAlicePassword).ok());
  EXPECT_EQ(bed.kdc().as_requests_served(), 1u);
}

TEST(Protocol4Test, ChallengeResponseModeWorks) {
  Testbed4 bed;
  krb4::AppServerOptions options = bed.mail_server().options();
  options.challenge_response = true;
  bed.mail_server().set_options(options);
  ASSERT_TRUE(bed.alice().Login(Testbed4::kAlicePassword).ok());
  auto reply = bed.alice().CallService(Testbed4::kMailAddr, bed.mail_principal(), false);
  ASSERT_TRUE(reply.ok()) << reply.error().ToString();
  EXPECT_EQ(kerb::ToString(reply.value()), "You have 3 messages.");
  EXPECT_EQ(bed.mail_server().outstanding_challenges(), 0u);  // consumed
}

TEST(Protocol4Test, ChallengeResponseDefeatsReplayedExchange) {
  Testbed4 bed;
  krb4::AppServerOptions options = bed.mail_server().options();
  options.challenge_response = true;
  bed.mail_server().set_options(options);
  ASSERT_TRUE(bed.alice().Login(Testbed4::kAlicePassword).ok());

  ksim::RecordingAdversary recorder;
  bed.world().network().SetAdversary(&recorder);
  ASSERT_TRUE(
      bed.alice().CallService(Testbed4::kMailAddr, bed.mail_principal(), false).ok());
  bed.world().network().SetAdversary(nullptr);
  uint64_t accepted = bed.mail_server().accepted_requests();

  // Replaying BOTH recorded legs (challenge request + answered request)
  // yields nothing: the answered nonce is consumed, and the new challenge
  // issued to the replayer is one it cannot answer without the key.
  for (const auto& exchange : recorder.exchanges()) {
    if (exchange.request.dst == Testbed4::kMailAddr) {
      (void)bed.world().network().Call(Testbed4::kAliceAddr, Testbed4::kMailAddr,
                                       exchange.request.payload);
    }
  }
  EXPECT_EQ(bed.mail_server().accepted_requests(), accepted);
}

TEST(Protocol4Test, ChallengeResponseIgnoresServerClockSkew) {
  // The whole point: the server's view of time no longer matters to the AP
  // exchange. (A timestamp-mode server two hours off rejects everyone; a
  // challenge/response server doesn't care.)
  Testbed4 bed;
  bed.mail_server().clock().SetOffset(-2 * ksim::kHour);  // server clock is way off
  ASSERT_TRUE(bed.alice().Login(Testbed4::kAlicePassword).ok());

  // Timestamp mode: the skewed server rejects a perfectly fresh request.
  auto rejected = bed.alice().CallService(Testbed4::kMailAddr, bed.mail_principal(), false);
  EXPECT_FALSE(rejected.ok());

  // Challenge/response mode on the same skewed server: works.
  krb4::AppServerOptions options = bed.mail_server().options();
  options.challenge_response = true;
  bed.mail_server().set_options(options);
  auto reply = bed.alice().CallService(Testbed4::kMailAddr, bed.mail_principal(), false);
  EXPECT_TRUE(reply.ok()) << "challenge/response must not depend on clock agreement";
}

TEST(Protocol4Test, ReplayCachePopulatesWhenEnabled) {
  TestbedConfig config;
  config.server_replay_cache = true;
  Testbed4 bed(config);
  ASSERT_TRUE(bed.alice().Login(Testbed4::kAlicePassword).ok());
  ASSERT_TRUE(bed.alice().CallService(Testbed4::kMailAddr, bed.mail_principal(), false).ok());
  EXPECT_EQ(bed.mail_server().replay_cache_size(), 1u);
}

}  // namespace
}  // namespace krb4
