// The controller's data plane is the same kprop feed the replica sets use
// (kstore::Propagator): these tests pin the two behaviours the cluster's
// own suites do not reach — the compaction-horizon wholesale fallback, and
// one kPropShip event per frame the controller sends.

#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/cluster/cluster.h"
#include "src/cluster/population.h"
#include "src/krb4/kdcstore.h"
#include "src/obs/kobs.h"
#include "src/sim/faults.h"
#include "src/sim/world.h"

namespace {

using kcluster::ClusterConfig;
using kcluster::ClusterController;
using kcluster::Population;
using kcluster::PopulationConfig;
using kcluster::RingMember;

std::vector<RingMember> FourNodes() {
  return {{1, 0x0a000010}, {2, 0x0a000011}, {3, 0x0a000012}, {4, 0x0a000013}};
}

Population SmallPopulation() {
  PopulationConfig pc;
  pc.users = 400;
  pc.services = 4;
  return Population(pc);
}

void Register(ClusterController& controller, const std::string& prefix, int count) {
  for (int i = 0; i < count; ++i) {
    controller.logical_db().ApplyUpsert(
        krb4::Principal::User(prefix + std::to_string(i), controller.config().realm),
        kcrypto::Prng(0xfeed + static_cast<uint64_t>(i)).NextDesKey(),
        krb4::PrincipalKind::kUser);
  }
}

TEST(ClusterFeedTest, NodeBehindTheCompactionHorizonCatchesUpWholesale) {
  ksim::World world(0xfeed1, ksim::FaultPlan{});  // lossless until told otherwise
  const Population population = SmallPopulation();
  ClusterController controller(&world, ClusterConfig{});
  population.Install(controller.logical_db());
  controller.Bootstrap(FourNodes());
  const uint32_t node2_host = controller.node(2)->host();

  // Node 2 misses every delta frame of these registrations.
  world.faults()->plan().per_host[node2_host].drop_request = 1.0;
  Register(controller, "horizon", 40);
  controller.PropagateAll();
  EXPECT_LT(controller.node(2)->applied_lsn(), controller.store().last_lsn());

  // Compaction discards the history node 2 still needs: only a wholesale
  // slice snapshot can catch it up now.
  kstore::KStore& store = controller.store();
  store.Compact(krb4::SnapshotDatabase(controller.logical_db(), store.last_lsn()));
  world.faults()->plan().per_host[node2_host].drop_request = 0;
  const uint64_t wholesale_before = controller.stats().wholesale_transfers;
  controller.PropagateAll();

  EXPECT_EQ(controller.stats().wholesale_transfers, wholesale_before + 1);
  EXPECT_TRUE(controller.AllSlicesConsistent());
  EXPECT_EQ(controller.node(2)->applied_lsn(), store.last_lsn());
}

TEST(ClusterFeedTest, EveryControllerFrameIsAPropShipEvent) {
  kobs::ScopedTrace trace;
  ksim::World world(0xfeed2);
  const Population population = SmallPopulation();
  ClusterController controller(&world, ClusterConfig{});
  population.Install(controller.logical_db());
  controller.Bootstrap(FourNodes());

  Register(controller, "shipped", 300);
  controller.PropagateAll();
  controller.node(3)->Crash();
  ASSERT_TRUE(controller.ProbeAll());
  ASSERT_TRUE(controller.node(3)->Recover().ok());
  ASSERT_TRUE(controller.ProbeAll());
  ASSERT_TRUE(controller.AllSlicesConsistent());

  // On a lossless network every frame reaches a live sink, which answers
  // it with exactly one verdict event.
  const uint64_t answered =
      trace->Count(kobs::Ev::kPropApply) + trace->Count(kobs::Ev::kPropWholesale) +
      trace->Count(kobs::Ev::kPropStale) + trace->Count(kobs::Ev::kPropReject);
  EXPECT_GT(trace->Count(kobs::Ev::kPropShip), 0u);
  EXPECT_EQ(trace->Count(kobs::Ev::kPropShip), answered);
}

}  // namespace
