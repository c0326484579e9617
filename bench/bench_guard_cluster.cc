// Regression guard: clustering must actually spread the serving load.
//
// Not a google-benchmark binary — a plain pass/fail ctest (registered as
// bench_smoke_cluster_guard). One fixed AS-only workload against a
// single-node "cluster" and the same workload against four nodes. The
// four-node run must hold at least a 1.5x margin in ok logins per request
// the busiest node served, over the single node:
//
//   four.ok * one_busiest >= 1.5 * one.ok * four_busiest
//
// With a balanced ring the expected margin is near 4x, so 1.5x trips only
// when sharding or referral routing genuinely regresses — hot-spotting the
// ring, serving every request from one node, or serving referral chases.
// It counts requests (ClusterNode::requests_served) and times nothing, so
// it runs in the sanitizer tiers too. Deterministic seeds: a failure is a
// regression, not flake.

#include <algorithm>
#include <cstdio>

#include "src/cluster/cluster.h"
#include "src/cluster/population.h"
#include "src/sim/world.h"

namespace {

bool Check(const char* what, bool ok) {
  std::printf("%-52s %s\n", what, ok ? "ok" : "FAIL");
  return ok;
}

struct Run {
  kcluster::ClusterLoadReport report;
  uint64_t busiest = 0;  // requests served by the busiest node
};

Run RunAsOnly(size_t node_count) {
  ksim::World world(0x6a2d + node_count);
  kcluster::PopulationConfig pc;
  pc.users = 8000;
  pc.services = 16;
  kcluster::Population population(pc);
  kcluster::ClusterConfig cc;
  kcluster::ClusterController controller(&world, cc);
  population.Install(controller.logical_db());
  std::vector<kcluster::RingMember> members;
  for (size_t i = 0; i < node_count; ++i) {
    members.push_back({i + 1, 0x0a000010u + static_cast<uint32_t>(i)});
  }
  controller.Bootstrap(members);

  kcluster::ClusterLoadConfig lc;
  lc.ops = 1000;
  lc.login_mix_1024 = 1024;  // AS-only: every op is a login
  Run run{RunClusterLoad(world, controller, population, lc)};
  for (uint64_t id : controller.node_ids()) {
    run.busiest = std::max(run.busiest, controller.node(id)->requests_served());
  }
  return run;
}

}  // namespace

int main() {
  bool pass = true;

  const Run one_run = RunAsOnly(1);
  const Run four_run = RunAsOnly(4);
  const kcluster::ClusterLoadReport& one = one_run.report;
  const kcluster::ClusterLoadReport& four = four_run.report;
  std::printf("[cluster] busiest node served: 1 node %llu of %llu ok logins, "
              "4 nodes %llu of %llu\n",
              (unsigned long long)one_run.busiest, (unsigned long long)one.ok,
              (unsigned long long)four_run.busiest, (unsigned long long)four.ok);

  pass &= Check("1-node: every login succeeds", one.ok == one.attempted && one.ok > 0);
  pass &= Check("4-node: every login succeeds", four.ok == four.attempted && four.ok > 0);
  pass &= Check("no internal errors", one.internal_errors == 0 && four.internal_errors == 0);
  pass &= Check("4-node referral routing exercised",
                four.routing.referrals_followed > 0 && four.routing.direct_routes > 0);
  pass &= Check("4-node ok logins per busiest-node request >= 1.5x single node",
                2 * four.ok * one_run.busiest >= 3 * one.ok * four_run.busiest);

  if (!pass) {
    std::printf("cluster guard FAILED\n");
    return 1;
  }
  std::printf("cluster guard passed\n");
  return 0;
}
