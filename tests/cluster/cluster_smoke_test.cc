// Tier-1 cluster smoke: a small population served across four nodes, with
// referral routing, node loss + rebalance, rejoin catch-up, and digest
// rerun-stability. The million-principal version of this scenario lives in
// bench/bench_b16_cluster.cc; this suite keeps the protocol honest at a
// size every CI run affords.

#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/cluster/cluster.h"
#include "src/cluster/population.h"
#include "src/cluster/router.h"
#include "src/krb4/client.h"
#include "src/krb5/client.h"
#include "src/obs/kobs.h"
#include "src/sim/world.h"

namespace {

using kcluster::ClusterConfig;
using kcluster::ClusterController;
using kcluster::ClusterLoadConfig;
using kcluster::ClusterLoadReport;
using kcluster::Population;
using kcluster::PopulationConfig;
using kcluster::Protocol;
using kcluster::RingMember;

std::vector<RingMember> FourNodes() {
  return {{1, 0x0a000010}, {2, 0x0a000011}, {3, 0x0a000012}, {4, 0x0a000013}};
}

PopulationConfig SmokePopulation() {
  PopulationConfig pc;
  pc.users = 1500;
  pc.services = 12;
  return pc;
}

ClusterLoadConfig SmokeLoad() {
  ClusterLoadConfig lc;
  lc.ops = 160;
  lc.client_pool = 8;
  lc.cold_clients = 2;
  return lc;
}

struct Cluster {
  ksim::World world;
  Population population;
  ClusterController controller;

  explicit Cluster(Protocol protocol, uint64_t seed = 0x5310c)
      : world(seed), population(SmokePopulation()), controller(&world, Config(protocol)) {
    population.Install(controller.logical_db());
    controller.Bootstrap(FourNodes());
  }

  static ClusterConfig Config(Protocol protocol) {
    ClusterConfig cc;
    cc.protocol = protocol;
    return cc;
  }
};

TEST(ClusterSmokeTest, LoadSpreadsAcrossAllFourNodesV4) {
  Cluster cluster(Protocol::kV4);
  const ClusterLoadReport report =
      RunClusterLoad(cluster.world, cluster.controller, cluster.population, SmokeLoad());

  EXPECT_EQ(report.attempted, 160u);
  EXPECT_EQ(report.ok, report.attempted) << "faultless world must not fail requests";
  EXPECT_EQ(report.internal_errors, 0u);
  EXPECT_GT(report.logins, 0u);
  EXPECT_GT(report.tgs_ops, 0u);
  // Cold clients bootstrap through referrals; warm ones hash-route direct.
  EXPECT_GT(report.routing.referrals_followed, 0u);
  EXPECT_GT(report.routing.direct_routes, 0u);
  EXPECT_GT(report.cold_referral_rate, 0.0);
  EXPECT_LT(report.cold_referral_rate, 0.5);
  // Zipf or not, four nodes all see work at this op count.
  for (uint64_t id : cluster.controller.node_ids()) {
    EXPECT_GT(cluster.controller.node(id)->requests_served(), 0u) << "node " << id;
  }
  EXPECT_TRUE(cluster.controller.AllSlicesConsistent());
}

TEST(ClusterSmokeTest, LoadSpreadsAcrossAllFourNodesV5) {
  Cluster cluster(Protocol::kV5);
  const ClusterLoadReport report =
      RunClusterLoad(cluster.world, cluster.controller, cluster.population, SmokeLoad());

  EXPECT_EQ(report.ok, report.attempted);
  EXPECT_EQ(report.internal_errors, 0u);
  EXPECT_GT(report.routing.referrals_followed, 0u);
  EXPECT_TRUE(cluster.controller.AllSlicesConsistent());
}

TEST(ClusterSmokeTest, ReferralTeachesAColdClientTheRing) {
  Cluster cluster(Protocol::kV4);
  // Find a user NOT owned by node 1, so a bootstrap login through node 1
  // must take exactly one referral hop.
  size_t ui = 0;
  while (cluster.controller.ring()
             .OwnerOfPrincipal(cluster.population.UserPrincipal(ui))
             ->node_id == 1) {
    ++ui;
  }
  const ClusterConfig& cc = cluster.controller.config();
  kcluster::ClientRouter router;  // cold: no view
  krb4::Client4 client(&cluster.world.network(), {0x0b000001, 4000},
                       cluster.world.MakeHostClock(),
                       cluster.population.UserPrincipal(ui), {0x0a000010, cc.as_port},
                       {0x0a000010, cc.tgs_port});
  router.Attach(client);

  ASSERT_TRUE(client.LoginWithKey(cluster.population.UserKey(ui)).ok());
  EXPECT_EQ(router.stats().referrals_followed, 1u);
  EXPECT_EQ(router.epoch(), 1u);

  // Second exchange goes straight to the owner: no new referral.
  client.Logout();
  ASSERT_TRUE(client.LoginWithKey(cluster.population.UserKey(ui)).ok());
  EXPECT_EQ(router.stats().referrals_followed, 1u);
  EXPECT_GT(router.stats().direct_routes, 0u);
}

// A router invalidated before each request, as a cold client is, sends the
// first request through the bootstrap list, follows exactly one referral,
// and then routes as a router that never dropped its view. A view that
// changed while the router was cold is adopted in full.
TEST(ClusterSmokeTest, InvalidatedRouterRelearnsTheViewFromOneReferral) {
  Cluster cluster(Protocol::kV4);
  // A user node 3 owns: the bootstrap node 1 refers its logins, before and
  // after node 2 leaves.
  size_t ui = 0;
  while (cluster.controller.ring()
             .OwnerOfPrincipal(cluster.population.UserPrincipal(ui))
             ->node_id != 3) {
    ++ui;
  }
  const ClusterConfig& cc = cluster.controller.config();
  kcluster::ClientRouter router;
  krb4::Client4 client(&cluster.world.network(), {0x0b000001, 4000},
                       cluster.world.MakeHostClock(),
                       cluster.population.UserPrincipal(ui), {0x0a000010, cc.as_port},
                       {0x0a000010, cc.tgs_port});
  router.Attach(client);

  auto cold_login = [&] {
    const kcluster::ClientRouter::Stats before = router.stats();
    router.Invalidate();
    EXPECT_EQ(router.epoch(), 0u);
    ASSERT_TRUE(client.LoginWithKey(cluster.population.UserKey(ui)).ok());
    client.Logout();
    EXPECT_EQ(router.stats().fallback_routes, before.fallback_routes + 1);
    EXPECT_EQ(router.stats().referrals_followed, before.referrals_followed + 1);
    EXPECT_EQ(router.stats().direct_routes, before.direct_routes + 1);
  };
  auto routes_as_a_warm_router = [&] {
    kcluster::ClientRouter warm;
    warm.AdoptView(cluster.controller.View());
    EXPECT_EQ(router.epoch(), warm.epoch());
    for (size_t i = 0; i < 64; ++i) {
      const krb4::Principal p = cluster.population.UserPrincipal(i);
      EXPECT_EQ(router.Endpoints(p, false), warm.Endpoints(p, false)) << "user " << i;
      EXPECT_EQ(router.Endpoints(p, true), warm.Endpoints(p, true)) << "user " << i;
    }
  };

  for (int round = 0; round < 3; ++round) {
    cold_login();
    routes_as_a_warm_router();
  }
  EXPECT_EQ(router.epoch(), 1u);

  cluster.controller.node(2)->Crash();
  ASSERT_TRUE(cluster.controller.ProbeAll());
  ASSERT_EQ(cluster.controller.epoch(), 2u);
  cold_login();
  EXPECT_EQ(router.epoch(), 2u);
  routes_as_a_warm_router();
}

TEST(ClusterSmokeTest, NodeLossRebalancesAndServingContinues) {
  Cluster cluster(Protocol::kV4);
  // Warm-up traffic, then kill node 2.
  ClusterLoadConfig warm = SmokeLoad();
  warm.ops = 40;
  ASSERT_EQ(RunClusterLoad(cluster.world, cluster.controller, cluster.population, warm).ok,
            40u);

  cluster.controller.node(2)->Crash();
  ASSERT_TRUE(cluster.controller.ProbeAll());
  EXPECT_FALSE(cluster.controller.node_up(2));
  EXPECT_EQ(cluster.controller.epoch(), 2u);
  // Survivors hold exactly the re-assigned slices.
  EXPECT_TRUE(cluster.controller.AllSlicesConsistent());

  // Serving continues: every request succeeds against the 3-node ring.
  ClusterLoadConfig degraded = SmokeLoad();
  degraded.ops = 60;
  degraded.seed = 99;
  const ClusterLoadReport report = RunClusterLoad(cluster.world, cluster.controller,
                                                  cluster.population, degraded);
  EXPECT_EQ(report.ok, report.attempted);
}

TEST(ClusterSmokeTest, RejoinCatchesUpWholesaleAndMatchesItsSlice) {
  Cluster cluster(Protocol::kV4);
  cluster.controller.node(3)->Crash();
  ASSERT_TRUE(cluster.controller.ProbeAll());

  // Mutations the dead node misses entirely.
  for (int i = 0; i < 8; ++i) {
    cluster.controller.logical_db().ApplyUpsert(
        krb4::Principal::User("late" + std::to_string(i), "ATHENA.MIT.EDU"),
        kcrypto::Prng(1000 + i).NextDesKey(), krb4::PrincipalKind::kUser);
  }
  cluster.controller.PropagateAll();
  EXPECT_TRUE(cluster.controller.AllSlicesConsistent());

  ASSERT_TRUE(cluster.controller.node(3)->Recover().ok());
  ASSERT_TRUE(cluster.controller.ProbeAll());
  EXPECT_TRUE(cluster.controller.node_up(3));
  EXPECT_EQ(cluster.controller.epoch(), 3u);
  EXPECT_GT(cluster.controller.stats().wholesale_transfers, 0u);

  // The recovered node's database is byte-equivalent to its ring slice,
  // and its durable LSN matches the controller's.
  EXPECT_TRUE(cluster.controller.NodeSliceConsistent(3));
  EXPECT_TRUE(cluster.controller.AllSlicesConsistent());
  EXPECT_EQ(cluster.controller.node(3)->applied_lsn(),
            cluster.controller.store().last_lsn());

  ClusterLoadConfig after = SmokeLoad();
  after.ops = 40;
  after.seed = 123;
  const ClusterLoadReport report = RunClusterLoad(cluster.world, cluster.controller,
                                                  cluster.population, after);
  EXPECT_EQ(report.ok, report.attempted);
}

TEST(ClusterSmokeTest, CrashRecoverWithoutMembershipChangeResyncs) {
  Cluster cluster(Protocol::kV4);
  // Quick crash + in-place recovery between probes: the node answers pings
  // again before the controller ever saw it down, but reports epoch 0.
  cluster.controller.node(1)->Crash();
  ASSERT_TRUE(cluster.controller.node(1)->Recover().ok());
  EXPECT_FALSE(cluster.controller.ProbeAll()) << "membership must not change";
  EXPECT_EQ(cluster.controller.epoch(), 1u);
  EXPECT_EQ(cluster.controller.node(1)->view_epoch(), 1u) << "ring re-taught";
  EXPECT_TRUE(cluster.controller.AllSlicesConsistent());
}

TEST(ClusterSmokeTest, DigestIsRerunStable) {
  auto run = [](Protocol protocol) {
    kobs::ScopedTrace trace;
    Cluster cluster(protocol);
    ClusterLoadConfig lc = SmokeLoad();
    lc.ops = 60;
    RunClusterLoad(cluster.world, cluster.controller, cluster.population, lc);
    cluster.controller.node(4)->Crash();
    cluster.controller.ProbeAll();
    cluster.controller.node(4)->Recover();
    cluster.controller.ProbeAll();
    return trace->digest();
  };
  EXPECT_EQ(run(Protocol::kV4), run(Protocol::kV4));
  EXPECT_EQ(run(Protocol::kV5), run(Protocol::kV5));
  EXPECT_NE(run(Protocol::kV4), run(Protocol::kV5));
}

}  // namespace
