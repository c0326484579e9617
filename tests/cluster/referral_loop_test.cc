// The fail-closed exits of the cluster referral loop both clients share
// (krb4::KdcLink::RoutedKdcExchange). The routing hooks send every request
// to a node that only ever answers with a referral: a router that rejects
// the referral ends the exchange after one hop, one that keeps accepting
// ends it at the hop limit, and a V5 referral with no body never reaches
// the router at all.

#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/encoding/tlv.h"
#include "src/krb4/client.h"
#include "src/krb5/client.h"
#include "src/sim/world.h"

namespace {

constexpr ksim::NetAddress kReferrer{0x0a0000aa, 88};
constexpr ksim::NetAddress kHomeTgs{0x0a0000aa, 750};
constexpr ksim::NetAddress kSelf{0x0b000001, 4000};
constexpr const char* kRealm = "ATHENA.SIM";
constexpr const char* kBody = "opaque referral body";

kerb::Bytes Referral5(bool with_body) {
  kenc::TlvMessage referral(krb5::kMsgClusterReferral);
  if (with_body) {
    referral.SetBytes(krb5::tag::kClusterBody, kerb::ToBytes(kBody));
  }
  return referral.Encode();
}

// A node that answers every request with `referral`, and routing hooks
// that send every request there and count the referrals the router sees.
struct ReferralBed {
  explicit ReferralBed(kerb::Bytes referral) : world(7), reply(std::move(referral)) {
    world.network().Bind(kReferrer, [this](const ksim::Message&) -> kerb::Result<kerb::Bytes> {
      ++requests;
      return reply;
    });
  }

  // One routed AS exchange, through a router that answers `accept` to
  // every referral.
  template <typename Client>
  kerb::Status Login(Client& client, bool accept) {
    client.SetClusterRouting(
        {[](const krb4::Principal&, bool) { return std::vector<ksim::NetAddress>{kReferrer}; },
         [this, accept](kerb::BytesView body) {
           ++referrals;
           EXPECT_EQ(kerb::ToString(body), kBody);
           return accept;
         }});
    return client.LoginWithKey(kcrypto::DesKey());
  }

  ksim::World world;
  kerb::Bytes reply;
  int requests = 0;
  int referrals = 0;
};

krb5::Client5 MakeClient5(ReferralBed& bed) {
  krb5::Client5 client(&bed.world.network(), kSelf, bed.world.MakeHostClock(),
                       krb4::Principal::User("alice", kRealm), kReferrer, kcrypto::Prng(5));
  client.AddRealmTgs(kRealm, kHomeTgs);
  return client;
}

// Runs `check(bed, client)` with a Client4 and with a Client5, each facing
// a node that refers with its own protocol's referral.
template <typename Check>
void ForBothClients(Check check) {
  {
    SCOPED_TRACE("V4");
    ReferralBed bed(krb4::Frame4(krb4::MsgType::kClusterReferral, kerb::ToBytes(kBody)));
    krb4::Client4 client(&bed.world.network(), kSelf, bed.world.MakeHostClock(),
                         krb4::Principal::User("alice", kRealm), kReferrer, kHomeTgs);
    check(bed, client);
  }
  {
    SCOPED_TRACE("V5");
    ReferralBed bed(Referral5(/*with_body=*/true));
    krb5::Client5 client = MakeClient5(bed);
    check(bed, client);
  }
}

TEST(ReferralLoopTest, RejectedReferralIsNotActionable) {
  ForBothClients([](ReferralBed& bed, auto& client) {
    kerb::Status status = bed.Login(client, /*accept=*/false);
    ASSERT_FALSE(status.ok());
    EXPECT_EQ(status.code(), kerb::ErrorCode::kTransport);
    EXPECT_EQ(status.error().detail, "cluster referral not actionable");
    EXPECT_EQ(bed.referrals, 1);
    EXPECT_EQ(bed.requests, 1);
  });
}

TEST(ReferralLoopTest, AcceptedReferralsStopAtTheHopLimit) {
  ForBothClients([](ReferralBed& bed, auto& client) {
    kerb::Status status = bed.Login(client, /*accept=*/true);
    ASSERT_FALSE(status.ok());
    EXPECT_EQ(status.code(), kerb::ErrorCode::kTransport);
    EXPECT_EQ(status.error().detail, "cluster referral loop");
    EXPECT_EQ(bed.referrals, 4);  // kMaxReferralHops
    EXPECT_EQ(bed.requests, 4);
  });
}

TEST(ReferralLoopTest, V5ReferralWithoutBodyNeverReachesTheRouter) {
  ReferralBed bed(Referral5(/*with_body=*/false));
  krb5::Client5 client = MakeClient5(bed);
  kerb::Status status = bed.Login(client, /*accept=*/true);
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), kerb::ErrorCode::kTransport);
  EXPECT_EQ(status.error().detail, "cluster referral not actionable");
  EXPECT_EQ(bed.referrals, 0);
  EXPECT_EQ(bed.requests, 1);
}

}  // namespace
