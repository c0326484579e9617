// B16 — clustered KDC scale-out: consistent-hash sharding, referral
// routing, and a million-principal realm.
//
// The paper sizes Athena at thousands of principals and one master KDC
// with read-only slaves; this table asks what the same protocol stack does
// when the realm grows three orders of magnitude and the database is
// SHARDED across serving nodes instead of mirrored. Reported per node
// count: the busiest node's share of the requests the nodes served (a
// count — how evenly the ring spreads the work) and the cold-client
// referral rate. Plus the share's zipf-vs-uniform skew sensitivity and
// goodput through a blackout + crash chaos run. Clocked throughput and
// latency of a clustered realm are kdcbench's cluster_churn workload.
//
// Population defaults to 20k users so smoke runs stay cheap; set
// KERB_CLUSTER_POP=1000000 for the full million-principal realm (the
// numbers in BENCH_PR10.json are recorded that way by bench_baseline.py).

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/admin/kadmin.h"
#include "src/cluster/cluster.h"
#include "src/cluster/population.h"
#include "src/cluster/router.h"
#include "src/krb4/client.h"
#include "src/krb4/kdcstore.h"
#include "src/sim/faults.h"
#include "src/sim/world.h"

namespace {

size_t PopulationSize() {
  if (const char* env = std::getenv("KERB_CLUSTER_POP")) {
    const long v = std::atol(env);
    if (v > 0) {
      return static_cast<size_t>(v);
    }
  }
  return 20000;
}

std::vector<kcluster::RingMember> MakeMembers(size_t n) {
  std::vector<kcluster::RingMember> members;
  for (size_t i = 0; i < n; ++i) {
    members.push_back({i + 1, 0x0a000010u + static_cast<uint32_t>(i)});
  }
  return members;
}

struct LoadResult {
  kcluster::ClusterLoadReport report;
  double busiest_share = 0;  // the busiest node's share of served requests
};

LoadResult RunLoad(size_t node_count, size_t population_size, size_t ops, bool zipf,
                   uint32_t login_mix_1024) {
  ksim::World world(0xb16 + node_count);
  kcluster::PopulationConfig pc;
  pc.users = population_size;
  pc.services = 32;
  kcluster::Population population(pc);
  kcluster::ClusterConfig cc;
  kcluster::ClusterController controller(&world, cc);
  population.Install(controller.logical_db());
  controller.Bootstrap(MakeMembers(node_count));

  kcluster::ClusterLoadConfig lc;
  lc.ops = ops;
  lc.zipf = zipf;
  lc.login_mix_1024 = login_mix_1024;
  LoadResult result;
  result.report = RunClusterLoad(world, controller, population, lc);
  uint64_t served = 0;
  uint64_t busiest = 0;
  for (uint64_t id : controller.node_ids()) {
    served += controller.node(id)->requests_served();
    busiest = std::max(busiest, controller.node(id)->requests_served());
  }
  result.busiest_share =
      served > 0 ? static_cast<double>(busiest) / static_cast<double>(served) : 0;
  return result;
}

void PrintExperimentReport() {
  kbench::Header("B16", "clustered KDC scale-out: sharding, referrals, recovery");
  const size_t pop = PopulationSize();
  const size_t ops = pop >= 500000 ? 4000 : 1200;
  kbench::Line("  realm: " + std::to_string(pop) + " user principals, 32 services");
  kbench::Line("  (set KERB_CLUSTER_POP=1000000 for the full realm)");
  kbench::Line("");
  kbench::Line("  nodes   busiest-node share   cold-referral");
  for (size_t nodes : {1u, 2u, 4u, 8u}) {
    const LoadResult r = RunLoad(nodes, pop, ops, /*zipf=*/true, /*mix=*/512);
    char row[160];
    std::snprintf(row, sizeof(row), "  %5zu   %18.4f   %8.4f", nodes, r.busiest_share,
                  r.report.cold_referral_rate);
    kbench::Line(row);
    const std::string prefix = "cluster_" + std::to_string(nodes) + "node_";
    kbench::GlobalJson().AddMetric(prefix + "busiest_share", r.busiest_share);
    kbench::GlobalJson().AddMetric(prefix + "cold_referral_rate",
                                   r.report.cold_referral_rate);
  }

  kbench::Line("");
  kbench::Line("  traffic skew at 4 nodes (busiest node's share of served requests):");
  const LoadResult uniform = RunLoad(4, pop, ops, /*zipf=*/false, 512);
  const LoadResult zipf = RunLoad(4, pop, ops, /*zipf=*/true, 512);
  char skew[160];
  std::snprintf(skew, sizeof(skew), "    uniform %9.4f    zipf(s=1) %9.4f",
                uniform.busiest_share, zipf.busiest_share);
  kbench::Line(skew);
  kbench::GlobalJson().AddMetric("cluster_4node_uniform_busiest_share", uniform.busiest_share);
  kbench::GlobalJson().AddMetric("cluster_4node_zipf_busiest_share", zipf.busiest_share);

  // Goodput through the chaos scenario: a faulty network, a blackout
  // mid-traffic, a device crash + recovery, rebalances under load.
  ksim::FaultPlan plan;
  plan.link.drop_request = 0.03;
  plan.link.drop_reply = 0.03;
  plan.link.duplicate_request = 0.04;
  plan.link.corrupt_request = 0.02;
  plan.link.corrupt_reply = 0.02;
  plan.link.delay = 2 * ksim::kMillisecond;
  plan.link.delay_jitter = 3 * ksim::kMillisecond;
  ksim::World world(0xb16c4a05, plan);
  kcluster::PopulationConfig pc;
  pc.users = pop >= 500000 ? 100000 : pop;  // chaos phase needn't be huge
  pc.services = 16;
  kcluster::Population population(pc);
  kcluster::ClusterConfig cc;
  kcluster::ClusterController controller(&world, cc);
  population.Install(controller.logical_db());
  controller.Bootstrap(MakeMembers(4));
  kcluster::ClusterChaosConfig chaos;
  chaos.ops_per_phase = 150;
  const kcluster::ClusterChaosReport cr =
      RunClusterChaos(world, controller, population, chaos);
  const double goodput_pct =
      cr.attempted ? 100.0 * static_cast<double>(cr.ok) / static_cast<double>(cr.attempted)
                   : 0;
  kbench::Line("");
  char chaos_row[200];
  std::snprintf(chaos_row, sizeof(chaos_row),
                "  chaos goodput: %llu/%llu ops (%.1f%%), epoch %u, "
                "double-issues %llu, slices %s",
                (unsigned long long)cr.ok, (unsigned long long)cr.attempted, goodput_pct,
                cr.final_epoch, (unsigned long long)cr.double_issues,
                cr.slices_consistent ? "consistent" : "INCONSISTENT");
  kbench::Line(chaos_row);
  kbench::GlobalJson().AddMetric("cluster_chaos_goodput_pct", goodput_pct);
  kbench::ResultRow("cluster double-issue under blackout chaos",
                    cr.double_issues != 0 || !cr.slices_consistent ||
                        cr.internal_errors != 0,
                    "fail-closed: " + std::to_string(cr.failed_closed) + "/" +
                        std::to_string(cr.attempted) + " clean errors");
}

void BM_ClusterLoad(benchmark::State& state) {
  const size_t nodes = static_cast<size_t>(state.range(0));
  uint64_t ok = 0;
  for (auto _ : state) {
    const LoadResult r = RunLoad(nodes, 5000, 300, /*zipf=*/true, 512);
    if (r.report.ok != r.report.attempted) {
      state.SkipWithError("faultless cluster load failed requests");
      return;
    }
    ok += r.report.ok;
  }
  state.SetItemsProcessed(static_cast<int64_t>(ok));
}
BENCHMARK(BM_ClusterLoad)->Arg(1)->Arg(2)->Arg(4)->Arg(8)->Unit(benchmark::kMillisecond);

void BM_ClusterRebalance(benchmark::State& state) {
  // Cost of one node-loss rebalance (detection + range moves + resync) at
  // 5k principals across 4 nodes, in wall time of the simulation.
  for (auto _ : state) {
    state.PauseTiming();
    ksim::World world(0xeba1 + state.iterations());
    kcluster::PopulationConfig pc;
    pc.users = 5000;
    pc.services = 16;
    kcluster::Population population(pc);
    kcluster::ClusterConfig cc;
    kcluster::ClusterController controller(&world, cc);
    population.Install(controller.logical_db());
    controller.Bootstrap(MakeMembers(4));
    controller.node(2)->Crash();
    state.ResumeTiming();
    if (!controller.ProbeAll() || !controller.AllSlicesConsistent()) {
      state.SkipWithError("rebalance failed");
      return;
    }
  }
}
BENCHMARK(BM_ClusterRebalance)->Unit(benchmark::kMillisecond);

// One cluster write as kdcbench's cluster_churn makes it: a service key
// rotation through AdminClient -> KadminServer on the controller's logical
// database, then PropagateAll to 4 nodes, over a 2,000-user realm. The
// virtual clock steps 20 ms per write, cluster_churn's write spacing, so
// the replay and ack caches hold what they hold there; the controller's
// journal is compacted, untimed, every 4,096 records, as there.
void BM_ClusterWrite(benchmark::State& state) {
  constexpr ksim::NetAddress kAdminAddr{0x0a0000f0, kadmin::kAdminPort};
  constexpr size_t kServices = 16;
  ksim::World world(0xc1a5);
  kcluster::PopulationConfig pc;
  pc.users = 2000;
  pc.services = kServices;
  kcluster::Population population(pc);
  kcluster::ClusterController controller(&world, kcluster::ClusterConfig{});
  const std::string realm = controller.config().realm;
  krb4::KdcDatabase& logical = controller.logical_db();
  population.Install(logical);
  kcrypto::Prng key_prng(0xad417);
  logical.AddServiceWithRandomKey(kadmin::AdminPrincipal(realm), key_prng);
  const krb4::Principal oper{"oper", "admin", realm};
  const kcrypto::DesKey oper_key = key_prng.NextDesKey();
  logical.ApplyUpsert(oper, oper_key, krb4::PrincipalKind::kUser);
  controller.Bootstrap(MakeMembers(4));

  kadmin::AdminPolicy policy;
  policy.nonce_window = 10 * ksim::kSecond;
  kadmin::KadminServer server(&world.network(), kAdminAddr, realm, &logical,
                              world.MakeHostClock(), world.prng().Fork(), policy);
  kcluster::ClientRouter router;
  router.AdoptView(controller.View());
  krb4::Client4 client(&world.network(), {0x0a0000f1, 4000}, world.MakeHostClock(), oper,
                       {0x0a000010, controller.config().as_port},
                       {0x0a000010, controller.config().tgs_port});
  router.Attach(client);
  if (!client.LoginWithKey(oper_key).ok()) {
    state.SkipWithError("operator login failed");
    return;
  }
  kadmin::AdminClient admin(&client, &world.network(), world.MakeHostClock(), kAdminAddr,
                            kcrypto::Prng(0xad));
  kstore::KStore& store = controller.store();
  uint64_t compacted_lsn = store.last_lsn();
  uint64_t writes = 0;
  for (auto _ : state) {
    if (!admin.RotateKey(population.ServicePrincipal(writes++ % kServices)).ok()) {
      state.SkipWithError("rotation denied");
      return;
    }
    controller.PropagateAll();
    world.clock().Advance(20 * ksim::kMillisecond);
    if (store.last_lsn() - compacted_lsn >= 4096) {
      state.PauseTiming();
      compacted_lsn = store.last_lsn();
      store.Compact(krb4::SnapshotDatabase(logical, compacted_lsn));
      state.ResumeTiming();
    }
  }
  state.SetItemsProcessed(static_cast<int64_t>(writes));
}
BENCHMARK(BM_ClusterWrite)->Unit(benchmark::kMicrosecond);

}  // namespace

KERB_BENCH_MAIN()
