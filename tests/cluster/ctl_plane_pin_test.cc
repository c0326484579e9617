// Byte pin of the cluster control plane and of referral replies.
//
// A 4-node V4 cluster runs through its membership life: bootstrap, cold
// clients that learn the ring from referrals, a node crash that ProbeAll
// detects (pings, ring updates and range loads to the gaining nodes), the
// node's recovery and rejoin (a wholesale catch-up), then Maintain. The
// pins fold every control-plane exchange ('KCL1' frames on the control
// port, both directions), every referral reply a node sent, and the kobs
// digest of the run. Any change to how a control body or a referral body
// is encoded, sealed or decoded moves one of them.

#include <array>
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "src/cluster/cluster.h"
#include "src/cluster/population.h"
#include "src/cluster/router.h"
#include "src/krb4/client.h"
#include "src/krb4/messages.h"
#include "src/obs/kobs.h"
#include "src/sim/network.h"
#include "src/sim/world.h"

namespace {

constexpr uint64_t kGoldenControl = 0x5791e7255f8f96f3ull;
constexpr uint64_t kGoldenReferrals = 0xd7ea1c6767b5cc4cull;
constexpr uint64_t kGoldenTrace = 0x205c55080a66962bull;

struct Fnv {
  uint64_t h = 0xcbf29ce484222325ull;
  void Byte(uint8_t b) { h = (h ^ b) * 0x100000001b3ull; }
  void U64(uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      Byte(static_cast<uint8_t>(v >> (8 * i)));
    }
  }
  void Blob(kerb::BytesView bytes) {
    U64(bytes.size());
    for (uint8_t b : bytes) {
      Byte(b);
    }
  }
};

struct PinResult {
  uint64_t control = 0;
  uint64_t referrals = 0;
  uint64_t trace = 0;
  std::array<size_t, 8> control_frames{};  // requests and replies, by frame type
  size_t referral_replies = 0;
};

PinResult RunMembershipLife() {
  kobs::ScopedTrace trace;
  ksim::World world(0xc7a1);
  ksim::RecordingAdversary tap;
  world.network().SetAdversary(&tap);

  kcluster::PopulationConfig pc;
  pc.users = 400;
  pc.services = 6;
  const kcluster::Population population(pc);
  kcluster::ClusterController controller(&world, kcluster::ClusterConfig{});
  population.Install(controller.logical_db());
  controller.Bootstrap({{1, 0x0a000010}, {2, 0x0a000011}, {3, 0x0a000012}, {4, 0x0a000013}});
  const kcluster::ClusterConfig& config = controller.config();

  // Cold clients: each boots against node 1 with no view, so every login
  // for a principal node 1 does not own is referred.
  auto cold_logins = [&](size_t first, size_t count) {
    for (size_t i = first; i < first + count; ++i) {
      kcluster::ClientRouter router;
      krb4::Client4 client(&world.network(), {0x0a000100 + static_cast<uint32_t>(i), 4000},
                           world.MakeHostClock(), population.UserPrincipal(i),
                           {0x0a000010, config.as_port}, {0x0a000010, config.tgs_port});
      router.Attach(client);
      EXPECT_TRUE(client.LoginWithKey(population.UserKey(i)).ok()) << "user " << i;
      world.clock().Advance(ksim::kSecond);
    }
  };
  cold_logins(0, 12);

  // Node 3 crashes; the probe sees it, bumps the epoch and moves its ranges.
  controller.node(3)->Crash();
  EXPECT_TRUE(controller.ProbeAll());
  cold_logins(12, 8);

  // It recovers from its own device and rejoins; Maintain then finds the
  // cluster in step.
  EXPECT_TRUE(controller.node(3)->Recover().ok());
  EXPECT_TRUE(controller.ProbeAll());
  controller.Maintain();
  cold_logins(20, 8);
  EXPECT_EQ(controller.epoch(), 3u);
  EXPECT_TRUE(controller.AllSlicesConsistent());

  PinResult result;
  Fnv control;
  Fnv referrals;
  for (const ksim::RecordingAdversary::Exchange& x : tap.exchanges()) {
    if (x.request.dst.port == config.ctl_port) {
      for (const kerb::Bytes* frame : {&x.request.payload, &x.reply}) {
        if (frame->size() > 4 && (*frame)[4] < result.control_frames.size()) {
          ++result.control_frames[(*frame)[4]];
        }
      }
      control.U64(x.request.src.host);
      control.U64(x.request.dst.host);
      control.Blob(x.request.payload);
      control.U64(x.has_reply ? 1 : 0);
      control.Blob(x.reply);
    } else if (x.has_reply && x.reply.size() >= 2 && x.reply[0] == krb4::kProtocolVersion &&
               x.reply[1] == static_cast<uint8_t>(krb4::MsgType::kClusterReferral)) {
      ++result.referral_replies;
      referrals.U64(x.request.dst.host);
      referrals.Blob(x.reply);
    }
  }
  result.control = control.h;
  result.referrals = referrals.h;
  world.network().SetAdversary(nullptr);
  result.trace = trace->digest();
  return result;
}

TEST(CtlPlanePinTest, MembershipLifeKeepsItsControlAndReferralBytes) {
  const PinResult first = RunMembershipLife();
  const PinResult second = RunMembershipLife();
  // The scenario must reach what it pins: every control frame type (ping,
  // pong, ring, ring-ack, load, load-ack), and referrals before and after
  // each epoch change.
  for (uint8_t type = kcluster::kCtlPing; type <= kcluster::kCtlLoadAck; ++type) {
    EXPECT_GT(first.control_frames[type], 0u) << "no control frame of type " << int{type};
  }
  EXPECT_GT(first.referral_replies, 10u);
  EXPECT_EQ(first.control, second.control) << "control bytes vary across reruns";
  EXPECT_EQ(first.referrals, second.referrals) << "referral bytes vary across reruns";
  EXPECT_EQ(first.trace, second.trace) << "trace digest varies across reruns";
  EXPECT_EQ(first.control, kGoldenControl) << "actual 0x" << std::hex << first.control;
  EXPECT_EQ(first.referrals, kGoldenReferrals) << "actual 0x" << std::hex << first.referrals;
  EXPECT_EQ(first.trace, kGoldenTrace) << "actual 0x" << std::hex << first.trace;
}

}  // namespace
