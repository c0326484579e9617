#include "src/cluster/population.h"

#include <algorithm>
#include <cmath>
#include <string>

#include "src/krb4/client.h"
#include "src/krb5/client.h"
#include "src/obs/kobs.h"
#include "src/sim/faults.h"

namespace kcluster {

namespace {

// Independent deterministic key streams per (seed, domain, index).
kcrypto::Prng KeyStream(uint64_t seed, uint64_t domain, uint64_t index) {
  return kcrypto::Prng(seed ^ (domain * 0x9e3779b97f4a7c15ull) ^
                       (index * 0xbf58476d1ce4e5b9ull) ^ 0x94d049bb133111ebull);
}

// Client actor i sends from {kClientHostBase + i, 4000}.
constexpr uint32_t kClientHostBase = 0x0a000000;  // 10.0.0.0

// The chaos scenario's shape: which members (by list index) black out and
// crash, for how long the outage lasts, and how many registrations land
// during it (the rebalance-under-load + paused-propagation ingredient).
constexpr size_t kChaosBlackoutNode = 1;
constexpr size_t kChaosCrashNode = 2;
constexpr ksim::Duration kChaosBlackoutLength = 2 * ksim::kMinute;
constexpr size_t kChaosMidstreamRegistrations = 32;

}  // namespace

// --- Population -------------------------------------------------------------

krb4::Principal Population::UserPrincipal(size_t i) const {
  return krb4::Principal::User(std::string("u").append(std::to_string(i)), config_.realm);
}

krb4::Principal Population::ServicePrincipal(size_t j) const {
  return krb4::Principal::Service(std::string("svc").append(std::to_string(j)),
                                  std::string("host").append(std::to_string(j)), config_.realm);
}

kcrypto::DesKey Population::UserKey(size_t i) const {
  return KeyStream(config_.seed, 1, i).NextDesKey();
}

kcrypto::DesKey Population::ServiceKey(size_t j) const {
  return KeyStream(config_.seed, 2, j).NextDesKey();
}

void Population::Install(krb4::KdcDatabase& db) const {
  // The store keeps key bytes, so registration draws each key without
  // scheduling it: the same draws UserKey() and friends make.
  db.Reserve(db.size() + config_.users + config_.services + 1);
  db.ApplyUpsert(krb4::TgsPrincipal(config_.realm),
                 KeyStream(config_.seed, 3, 0).NextDesKeyBytes(), krb4::PrincipalKind::kService);
  for (size_t i = 0; i < config_.users; ++i) {
    db.ApplyUpsert(UserPrincipal(i), KeyStream(config_.seed, 1, i).NextDesKeyBytes(),
                   krb4::PrincipalKind::kUser);
  }
  for (size_t j = 0; j < config_.services; ++j) {
    db.ApplyUpsert(ServicePrincipal(j), KeyStream(config_.seed, 2, j).NextDesKeyBytes(),
                   krb4::PrincipalKind::kService);
  }
}

// --- ZipfSampler ------------------------------------------------------------

ZipfSampler::ZipfSampler(size_t n, double s) {
  cdf_.reserve(n);
  double sum = 0.0;
  for (size_t rank = 1; rank <= n; ++rank) {
    sum += 1.0 / std::pow(static_cast<double>(rank), s);
    cdf_.push_back(sum);
  }
  for (double& c : cdf_) {
    c /= sum;
  }
}

size_t ZipfSampler::Sample(kcrypto::Prng& prng) const {
  const double u =
      static_cast<double>(prng.NextU64() >> 11) / static_cast<double>(1ull << 53);
  auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
  if (it == cdf_.end()) {
    return cdf_.size() - 1;
  }
  return static_cast<size_t>(it - cdf_.begin());
}

// --- RunClusterLoad ---------------------------------------------------------

ClusterLoadReport RunClusterLoad(ksim::World& world, ClusterController& cluster,
                                 const Population& population,
                                 const ClusterLoadConfig& config) {
  const ClusterConfig& cc = cluster.config();
  const PopulationConfig& pc = population.config();
  ClusterLoadReport report;
  kcrypto::Prng prng(config.seed);
  ZipfSampler sampler(pc.users, 1.0);

  const RingAnnounce view = cluster.View();
  const std::vector<RingMember>& members = view.members;
  if (members.empty() || pc.users == 0) {
    return report;
  }
  std::vector<ksim::NetAddress> as_addrs;
  std::vector<ksim::NetAddress> tgs_addrs;
  for (const RingMember& m : members) {
    as_addrs.push_back({m.host, cc.as_port});
    tgs_addrs.push_back({m.host, cc.tgs_port});
  }

  const size_t pool = std::max<size_t>(config.client_pool, 1);
  std::vector<ClientRouter> routers(pool);
  for (size_t i = config.cold_clients; i < pool; ++i) {
    routers[i].AdoptView(view);
  }

  ksim::RetryPolicy policy;
  policy.max_attempts = static_cast<int>(members.size()) + 2;

  for (uint64_t op = 0; op < config.ops; ++op) {
    const size_t actor = op % pool;
    const size_t boot = op % members.size();
    const size_t ui =
        config.zipf ? sampler.Sample(prng) : static_cast<size_t>(prng.NextBelow(pc.users));
    const bool login_only = (prng.NextU64() & 1023) < config.login_mix_1024;
    const krb4::Principal user = population.UserPrincipal(ui);
    const ksim::NetAddress self{kClientHostBase + static_cast<uint32_t>(actor), 4000};
    const ksim::Time started = world.clock().Now();

    // Either protocol's client: slaves, retry, router, login, then the
    // optional service ticket.
    auto drive = [&](auto& client) {
      for (size_t k = 1; k < members.size(); ++k) {
        const size_t alt = (boot + k) % members.size();
        client.AddSlaveKdc(as_addrs[alt], tgs_addrs[alt]);
      }
      client.ConfigureRetry(&world.clock(), policy, config.seed ^ (op * 2 + 1));
      routers[actor].Attach(client);
      kerb::Status status = client.LoginWithKey(population.UserKey(ui));
      if (status.ok() && !login_only) {
        const size_t sj = static_cast<size_t>(prng.NextBelow(pc.services));
        auto ticket = client.GetServiceTicket(population.ServicePrincipal(sj));
        status = ticket.ok() ? kerb::Status::Ok() : ticket.error();
      }
      return status;
    };
    kerb::Status outcome = kerb::Status::Ok();
    if (cc.protocol == Protocol::kV4) {
      krb4::Client4 client(&world.network(), self, world.MakeHostClock(), user,
                           as_addrs[boot], tgs_addrs[boot]);
      outcome = drive(client);
    } else {
      krb5::Client5 client(&world.network(), self, world.MakeHostClock(), user,
                           as_addrs[boot], kcrypto::Prng(config.seed ^ (op * 2 + 1)));
      client.AddRealmTgs(pc.realm, tgs_addrs[boot]);
      outcome = drive(client);
    }

    const uint64_t latency_us =
        static_cast<uint64_t>(world.clock().Now() - started);
    kobs::EmitNow(kobs::kSrcCluster, kobs::Ev::kClusterOp, latency_us,
                  login_only ? 0 : 1);
    ++report.attempted;
    if (login_only) {
      ++report.logins;
    } else {
      ++report.tgs_ops;
    }
    if (outcome.ok()) {
      ++report.ok;
    } else {
      ++report.failed;
      if (outcome.code() == kerb::ErrorCode::kInternal) {
        ++report.internal_errors;
      }
    }
  }

  for (const ClientRouter& router : routers) {
    report.routing.direct_routes += router.stats().direct_routes;
    report.routing.fallback_routes += router.stats().fallback_routes;
    report.routing.referrals_followed += router.stats().referrals_followed;
    report.routing.referrals_rejected += router.stats().referrals_rejected;
  }
  if (report.attempted > 0) {
    report.cold_referral_rate =
        static_cast<double>(report.routing.referrals_followed) /
        static_cast<double>(report.attempted);
  }
  return report;
}

// --- RunClusterChaos --------------------------------------------------------

ClusterChaosReport RunClusterChaos(ksim::World& world, ClusterController& cluster,
                                   const Population& population,
                                   const ClusterChaosConfig& config) {
  ClusterChaosReport report;
  const PopulationConfig& pc = population.config();

  auto run_phase = [&](uint64_t salt) {
    ClusterLoadConfig lc;
    lc.seed = config.seed ^ salt;
    lc.ops = config.ops_per_phase;
    lc.client_pool = 16;  // the chaos scenario's pool, not the load defaults
    lc.cold_clients = 2;
    const ClusterLoadReport r = RunClusterLoad(world, cluster, population, lc);
    report.attempted += r.attempted;
    report.ok += r.ok;
    report.failed_closed += r.failed;
    report.internal_errors += r.internal_errors;
    report.phases.attempted += r.attempted;
    report.phases.ok += r.ok;
    report.phases.failed += r.failed;
    report.phases.logins += r.logins;
    report.phases.tgs_ops += r.tgs_ops;
    report.phases.routing.direct_routes += r.routing.direct_routes;
    report.phases.routing.fallback_routes += r.routing.fallback_routes;
    report.phases.routing.referrals_followed += r.routing.referrals_followed;
    report.phases.routing.referrals_rejected += r.routing.referrals_rejected;
  };

  const std::vector<uint64_t> ids = cluster.node_ids();
  ksim::FaultyNetwork* faults = world.faults();

  // Phase A: healthy traffic, propagation flowing.
  run_phase(0xA11CE);
  cluster.PropagateAll();

  // Outage: one node goes dark mid-stream — a scripted network blackout
  // when the world has a fault fabric, a device crash otherwise.
  const uint64_t black_id = ids[kChaosBlackoutNode % ids.size()];
  ClusterNode* black = cluster.node(black_id);
  const ksim::Time outage_start = world.clock().Now();
  const ksim::Time outage_end = outage_start + kChaosBlackoutLength;
  if (faults != nullptr) {
    faults->plan().blackouts.push_back({black->host(), outage_start, outage_end});
  } else {
    black->Crash();
  }

  // Registrations land while propagation is paused: the rebalance and the
  // later catch-up must carry them.
  for (size_t i = 0; i < kChaosMidstreamRegistrations; ++i) {
    const krb4::Principal extra =
        krb4::Principal::User("chaos" + std::to_string(i), pc.realm);
    cluster.logical_db().ApplyUpsert(extra,
                                     KeyStream(config.seed, 4, i).NextDesKey(),
                                     krb4::PrincipalKind::kUser);
  }

  // The controller notices the loss and rebalances under load.
  cluster.ProbeAll();

  // Phase B: traffic against the degraded cluster.
  run_phase(0xB1ACC);

  // A second node takes a device crash and recovers in place.
  const uint64_t crash_id = ids[kChaosCrashNode % ids.size()];
  if (crash_id != black_id) {
    ClusterNode* crashed = cluster.node(crash_id);
    crashed->Crash();
    crashed->Recover();
  }

  // End the outage and let the controller re-admit everyone.
  if (faults != nullptr) {
    const ksim::Time now = world.clock().Now();
    if (now <= outage_end) {
      world.clock().Advance(outage_end - now + ksim::kSecond);
    }
  } else {
    black->Recover();
  }
  cluster.ProbeAll();   // rejoin + wholesale catch-up, amnesiac re-sync
  cluster.PropagateAll();
  cluster.Maintain();

  // Phase C: recovered cluster.
  run_phase(0xCAFE);

  // Convergence: link faults can corrupt any individual sync frame, so
  // drive deterministic retries until every up node matches its slice
  // (each round re-rolls the fault stream; a bounded number of rounds
  // converges for any non-degenerate fault rate).
  for (int round = 0; round < 8; ++round) {
    cluster.ProbeAll();
    cluster.PropagateAll();
    cluster.Maintain();
    if (cluster.AllSlicesConsistent()) {
      break;
    }
  }

  report.slices_consistent = cluster.AllSlicesConsistent();
  report.final_epoch = cluster.epoch();
  if (faults != nullptr) {
    for (uint64_t id : ids) {
      report.double_issues += faults->divergences_at(cluster.node(id)->host());
    }
    report.schedule_digest = faults->schedule_digest();
  }
  return report;
}

}  // namespace kcluster
