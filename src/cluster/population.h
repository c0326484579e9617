// Synthetic realm populations and the clustered load/chaos harnesses.
//
// The north-star workload: a realm of a million principals served across a
// KDC cluster. Population generates that realm deterministically — user
// keys come straight from a seeded PRNG (string-to-key a million passwords
// would dominate setup time without changing anything the cluster layer is
// measuring), so a harness can re-derive any user's key from (seed, index)
// without storing a million keys.
//
// RunClusterLoad drives login (AS) and service-ticket (TGS) traffic through
// cluster-routed clients and reports goodput and referral behaviour; how
// evenly the ring spreads the work is each node's requests_served(). Each
// operation's virtual-time span is emitted as a kobs kClusterOp event,
// which tests/obs/cluster_metrics_test.cc reconciles with the report.
// Clocked cluster throughput and latency come from kdcbench's
// cluster_churn workload, not from here.
//
// RunClusterChaos is the succeed-or-fail-closed testbed: traffic runs while
// a node blacks out mid-stream, the controller rebalances under load,
// propagation pauses and catches up, and a second node takes a device
// crash + recovery. Every request either yields a verified credential or a
// clean error; the report carries the double-issue divergence count and
// the final slice-consistency verdict for the tests to assert on.

#ifndef SRC_CLUSTER_POPULATION_H_
#define SRC_CLUSTER_POPULATION_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/cluster/cluster.h"
#include "src/cluster/router.h"
#include "src/sim/world.h"

namespace kcluster {

struct PopulationConfig {
  uint64_t seed = 0x706f70756c617465ull;  // "populate"
  size_t users = 10000;
  size_t services = 64;
  std::string realm = "ATHENA.MIT.EDU";
};

class Population {
 public:
  explicit Population(PopulationConfig config) : config_(config) {}

  // Registers the TGS principal, every user, and every service into `db`
  // (Reserve first, so a million inserts never pay an incremental rehash).
  void Install(krb4::KdcDatabase& db) const;

  krb4::Principal UserPrincipal(size_t i) const;
  krb4::Principal ServicePrincipal(size_t j) const;
  // Deterministic per-principal keys, re-derivable from (seed, index).
  kcrypto::DesKey UserKey(size_t i) const;
  kcrypto::DesKey ServiceKey(size_t j) const;

  const PopulationConfig& config() const { return config_; }

 private:
  PopulationConfig config_;
};

// Zipf(s) over [0, n): rank-frequency traffic skew (a few principals log in
// constantly, the long tail rarely). Deterministic via the caller's PRNG.
class ZipfSampler {
 public:
  ZipfSampler(size_t n, double s);

  size_t Sample(kcrypto::Prng& prng) const;

 private:
  std::vector<double> cdf_;  // normalized prefix sums of 1/rank^s
};

struct ClusterLoadConfig {
  uint64_t seed = 1;
  size_t ops = 1000;
  // Out of 1024: operations that are logins (AS); the rest are
  // login + service-ticket (TGS) pairs. Integer so op selection is exact
  // and replayable.
  uint32_t login_mix_1024 = 512;
  bool zipf = true;  // Zipf(1) over users, else uniform
  // Client actors cycled round-robin across operations; each keeps its own
  // cached ring view.
  size_t client_pool = 32;
  // Out of the pool, routers that start with NO ring view — they bootstrap
  // through an arbitrary node and learn the ring from its referral. The
  // rest are warm-started with the controller's view.
  size_t cold_clients = 4;
};

struct ClusterLoadReport {
  uint64_t attempted = 0;
  uint64_t ok = 0;
  uint64_t failed = 0;
  uint64_t internal_errors = 0;  // kInternal leaks among the failures
  uint64_t logins = 0;
  uint64_t tgs_ops = 0;
  ClientRouter::Stats routing;      // summed over the client pool
  double cold_referral_rate = 0.0;  // referrals followed / attempted
};

ClusterLoadReport RunClusterLoad(ksim::World& world, ClusterController& cluster,
                                 const Population& population,
                                 const ClusterLoadConfig& config);

// The chaos scenario itself is fixed (see RunClusterChaos); only the
// workload seed and its size vary.
struct ClusterChaosConfig {
  uint64_t seed = 7;
  size_t ops_per_phase = 200;  // three phases: before, during, after
};

struct ClusterChaosReport {
  uint64_t attempted = 0;
  uint64_t ok = 0;
  uint64_t failed_closed = 0;   // clean errors: attempted == ok + failed_closed
  uint64_t internal_errors = 0;  // kInternal leaks — must be zero
  uint64_t double_issues = 0;    // reply divergences across every node host
  bool slices_consistent = false;
  uint32_t final_epoch = 0;
  uint64_t schedule_digest = 0;  // fault-fabric digest (0 without faults)
  ClusterLoadReport phases;      // merged per-op tallies across phases
};

ClusterChaosReport RunClusterChaos(ksim::World& world, ClusterController& cluster,
                                   const Population& population,
                                   const ClusterChaosConfig& config);

}  // namespace kcluster

#endif  // SRC_CLUSTER_POPULATION_H_
