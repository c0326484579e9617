// cluster_churn: reads beside writes on a 4-node V4 cluster.
//
// One thread in a ksim::World. A 4-node ClusterController serves a
// million-user realm. 32 routed clients, 4 of them cold (their ring view is
// dropped before every op, so they bootstrap through an arbitrary node and
// learn the owner from a referral), do Zipf(1.0) logins: half AS only, half
// AS+TGS, as RunClusterLoad does. Every 64th op is a write through
// AdminClient -> KadminServer on the controller's logical database,
// alternating a user password change (the user then logs in with the new
// key) and a service key rotation. Each write is followed by PropagateAll,
// and bumps the owning node's store generation, which invalidates that
// node's key caches. Between timed rounds, once 4,096 records have built up
// since the last compaction, the controller's journal is compacted, as an
// operator's periodic dump would; that is not timed.

#include <algorithm>
#include <array>
#include <cstdio>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "kdcbench/workloads.h"
#include "src/admin/kadmin.h"
#include "src/cluster/cluster.h"
#include "src/cluster/router.h"
#include "src/crypto/str2key.h"
#include "src/krb4/client.h"
#include "src/krb4/kdcstore.h"
#include "src/sim/world.h"

namespace kdcbench {
namespace {

constexpr size_t kUsers = 1000000;
constexpr size_t kServices = 64;
constexpr size_t kNodes = 4;
constexpr size_t kClients = 32;
constexpr size_t kColdClients = 4;
constexpr uint64_t kWriteEvery = 64;
constexpr size_t kScheduleLen = 1 << 16;
constexpr uint64_t kCompactEvery = 4096;  // controller WAL records
constexpr ksim::NetAddress kAdminAddr{0x0a0000f0, kadmin::kAdminPort};
constexpr ksim::NetAddress kOperatorAddr{0x0a0000f1, 4000};

enum class OpKind : uint8_t { kLogin, kLoginTgs, kChangePassword, kRotateKey };

// Each login comes from a fresh ephemeral port of the actor's host, as a
// real client's UDP socket does. V4 AS requests carry no nonce, so with a
// fixed port the nodes' 30 s reply cache would answer a login made right
// after a password change with the reply sealed under the old key.
ksim::NetAddress ClientAddr(size_t actor, uint64_t op) {
  return {0x0b000000u + static_cast<uint32_t>(actor),
          static_cast<uint16_t>(1024 + (op / kClients) % 64000)};
}

class ClusterChurn : public Workload {
 public:
  explicit ClusterChurn(uint64_t seed)
      : seed_(seed),
        population_(MakePopulationConfig(kUsers, kServices)),
        world_(seed ^ 0xc105ull) {
    kcluster::ZipfSampler zipf(kUsers, 1.0);
    kcrypto::Prng prng(seed * 0x9e3779b97f4a7c15ull + 0xc1);
    Fnv digest;
    schedule_.reserve(kScheduleLen);
    uint64_t writes = 0;
    for (size_t i = 0; i < kScheduleLen; ++i) {
      Entry e;
      e.user = static_cast<uint32_t>(zipf.Sample(prng));
      e.service = static_cast<uint32_t>(prng.NextBelow(kServices));
      if (i % kWriteEvery == kWriteEvery - 1) {
        e.kind = (writes++ % 2 == 0) ? OpKind::kChangePassword : OpKind::kRotateKey;
      } else {
        e.kind = (prng.NextU64() & 1023) < 512 ? OpKind::kLogin : OpKind::kLoginTgs;
      }
      schedule_.push_back(e);
      digest.Add(e.user);
      digest.Add(e.service);
      digest.Add(static_cast<uint64_t>(e.kind));
    }
    schedule_digest_ = digest.value();
    for (size_t j = 0; j < kServices; ++j) {
      services_.push_back(population_.ServicePrincipal(j));
    }

    const int64_t start = NowNs();
    controller_ = std::make_unique<kcluster::ClusterController>(&world_, kcluster::ClusterConfig{});
    krb4::KdcDatabase& logical = controller_->logical_db();
    int64_t stage = NowNs();
    population_.Install(logical);
    setup_.install_s = Seconds(stage);
    kcrypto::Prng key_prng(seed ^ 0xad417);
    logical.AddServiceWithRandomKey(kadmin::AdminPrincipal(kRealm), key_prng);
    const krb4::Principal oper{"oper", "admin", kRealm};
    const kcrypto::DesKey oper_key = key_prng.NextDesKey();
    logical.ApplyUpsert(oper, oper_key, krb4::PrincipalKind::kUser);

    std::vector<kcluster::RingMember> members;
    for (size_t i = 0; i < kNodes; ++i) {
      members.push_back({i + 1, 0x0a000010u + static_cast<uint32_t>(i)});
    }
    stage = NowNs();
    controller_->Bootstrap(members);
    setup_.bootstrap_s = Seconds(stage);

    // Applied nonces are kept 10 virtual seconds, not the default 10
    // minutes: with writes every ~20 virtual ms the default would keep every
    // write of the run, and the server scans them all on each request.
    kadmin::AdminPolicy admin_policy;
    admin_policy.nonce_window = 10 * ksim::kSecond;
    kadmin_ = std::make_unique<kadmin::KadminServer>(&world_.network(), kAdminAddr, kRealm,
                                                     &logical, world_.MakeHostClock(),
                                                     world_.prng().Fork(), admin_policy);
    net_ = std::make_unique<TimedNetwork>(&world_.clock(), &world_.network());
    const kcluster::RingAnnounce view = controller_->View();
    for (const kcluster::RingMember& m : view.members) {
      as_addrs_.push_back({m.host, controller_->config().as_port});
      tgs_addrs_.push_back({m.host, controller_->config().tgs_port});
    }
    routers_.resize(kClients + 1);  // the last one routes the operator
    for (size_t i = kColdClients; i < routers_.size(); ++i) {
      routers_[i].AdoptView(view);
    }
    retry_.max_attempts = static_cast<int>(kNodes) + 2;

    // The operator logs in and prefetches the changepw ticket.
    operator_ = MakeClient(oper, kOperatorAddr, 0, kClients, seed);
    admin_ = std::make_unique<kadmin::AdminClient>(operator_.get(), net_.get(),
                                                   world_.MakeHostClock(), kAdminAddr,
                                                   kcrypto::Prng(seed ^ 0xad));
    if (!operator_->LoginWithKey(oper_key).ok() ||
        !operator_->GetServiceTicket(kadmin::AdminPrincipal(kRealm)).ok()) {
      setup_failures_.push_back("operator login and changepw ticket prefetch");
    }
    setup_.total_s = Seconds(start);
  }

  size_t threads() const override { return 1; }
  uint64_t schedule_digest() const override { return schedule_digest_; }
  void SetTracer(size_t, Tracer* tracer) override {
    tracer_ = tracer;
    net_->set_tracer(tracer);
  }

  const char* RunOp(size_t, uint64_t op) override {
    const Entry& e = schedule_[op % kScheduleLen];
    const size_t actor = op % kClients;
    if (e.kind == OpKind::kChangePassword) {
      return ChangePassword(e, op, actor);
    }
    if (e.kind == OpKind::kRotateKey) {
      return Write([&] { return admin_->RotateKey(services_[e.service]); },
                   "admin ack (key rotation)");
    }
    if (actor < kColdClients) {
      routers_[actor].Invalidate();
    }
    auto client = MakeClient(population_.UserPrincipal(e.user), ClientAddr(actor, op), op % kNodes,
                             actor, seed_ ^ op);
    const char* failure = Login(*client, KeyOf(e.user), "V4 login");
    if (failure == nullptr && e.kind == OpKind::kLoginTgs) {
      ScopedSpan span(tracer_, SpanName::kTgs4);
      if (!client->GetServiceTicket(services_[e.service]).ok()) {
        failure = "TGS reply unsealed";
      }
    }
    if (tracer_ != nullptr) {
      traced_.retries += client->retry_stats().retries;
    }
    return failure;
  }

  // PropagateAll rescans the controller's WAL, so without compaction every
  // write would be slower than the last. Every write has been propagated by
  // now, so no node falls behind the compaction horizon.
  void BetweenRounds() override {
    kstore::KStore& store = controller_->store();
    if (store.last_lsn() - compacted_lsn_ >= kCompactEvery) {
      compacted_lsn_ = store.last_lsn();
      store.Compact(krb4::SnapshotDatabase(controller_->logical_db(), compacted_lsn_));
    }
  }

  void BeginTracedRound() override { round_start_ = Snapshot(); }
  void EndTracedRound() override {
    const Counters end = Snapshot();
    traced_.writes_applied += end.applied - round_start_.applied;
    traced_.referrals += end.routing.referrals_followed - round_start_.routing.referrals_followed;
    traced_.direct_routes += end.routing.direct_routes - round_start_.routing.direct_routes;
    traced_.fallback_routes += end.routing.fallback_routes - round_start_.routing.fallback_routes;
    for (size_t i = 0; i < kNodes; ++i) {
      served_[i] += end.served[i] - round_start_.served[i];
    }
    const uint64_t max = *std::max_element(served_.begin(), served_.end());
    uint64_t sum = 0;
    for (uint64_t s : served_) {
      sum += s;
    }
    traced_.node_imbalance =
        sum == 0 ? 0 : static_cast<double>(max) * kNodes / static_cast<double>(sum);
  }
  LayerCounts traced_counts() const override { return traced_; }

  std::vector<std::string> Verify() override {
    std::vector<std::string> failed = setup_failures_;
    if (!controller_->AllSlicesConsistent()) {
      failed.push_back("ClusterController::AllSlicesConsistent");
    }
    uint64_t answered = 0;
    for (uint64_t id : controller_->node_ids()) {
      const kcluster::ClusterNode* node = controller_->node(id);
      answered += node->requests_served() + node->referrals_sent();
    }
    const uint64_t kdc_calls = net_->calls_to(controller_->config().as_port) +
                               net_->calls_to(controller_->config().tgs_port);
    if (answered != kdc_calls) {
      failed.push_back("cluster nodes answered " + std::to_string(answered) +
                       " KDC requests, bench made " + std::to_string(kdc_calls));
    }
    if (kadmin_->applied() != writes_ || kadmin_->denied() != 0) {
      failed.push_back("KadminServer applied " + std::to_string(kadmin_->applied()) +
                       " and denied " + std::to_string(kadmin_->denied()) + " of " +
                       std::to_string(writes_) + " writes");
    }
    return failed;
  }

 private:
  struct Entry {
    uint32_t user = 0;
    uint32_t service = 0;
    OpKind kind = OpKind::kLogin;
  };
  struct Counters {
    uint64_t applied = 0;
    kcluster::ClientRouter::Stats routing;
    std::array<uint64_t, kNodes> served{};
  };

  std::unique_ptr<krb4::Client4> MakeClient(const krb4::Principal& user,
                                            const ksim::NetAddress& self, size_t boot,
                                            size_t router, uint64_t jitter_seed) {
    auto client = std::make_unique<krb4::Client4>(net_.get(), self, world_.MakeHostClock(), user,
                                                  as_addrs_[boot], tgs_addrs_[boot]);
    for (size_t k = 1; k < kNodes; ++k) {
      const size_t alt = (boot + k) % kNodes;
      client->AddSlaveKdc(as_addrs_[alt], tgs_addrs_[alt]);
    }
    client->ConfigureRetry(&world_.clock(), retry_, jitter_seed);
    routers_[router].Attach(*client);
    return client;
  }

  kcrypto::DesKey KeyOf(uint32_t user) const {
    auto it = changed_keys_.find(user);
    return it != changed_keys_.end() ? it->second : population_.UserKey(user);
  }

  const char* Login(krb4::Client4& client, const kcrypto::DesKey& key, const char* check) {
    ScopedSpan span(tracer_, SpanName::kLogin4);
    return client.LoginWithKey(key).ok() ? nullptr : check;
  }

  // Makes one admin write through `call`, then propagates it to the nodes.
  template <typename Call>
  const char* Write(Call call, const char* check) {
    ++writes_;
    if (tracer_ != nullptr) {
      ++traced_.writes;
    }
    bool acked = false;
    {
      ScopedSpan span(tracer_, SpanName::kAdminWrite);
      acked = call().ok();
    }
    {
      ScopedSpan span(tracer_, SpanName::kPropagate);
      controller_->PropagateAll();
    }
    return acked ? nullptr : check;
  }

  const char* ChangePassword(const Entry& e, uint64_t op, size_t actor) {
    // Unique per op, and never contains a user name (those start with 'u').
    char password[48];
    std::snprintf(password, sizeof(password), "pw-%016llx-%llu",
                  static_cast<unsigned long long>(seed_), static_cast<unsigned long long>(op));
    const krb4::Principal user = population_.UserPrincipal(e.user);
    if (const char* failure = Write([&] { return admin_->ChangePassword(user, password); },
                                   "admin ack (password change)")) {
      return failure;
    }
    const kcrypto::DesKey key = kcrypto::StringToKey(password, user.Salt());
    changed_keys_[e.user] = key;
    auto client = MakeClient(user, ClientAddr(actor, op), op % kNodes, actor, seed_ ^ op);
    return Login(*client, key, "login with the changed password");
  }

  Counters Snapshot() const {
    Counters c;
    c.applied = kadmin_->applied();
    for (const kcluster::ClientRouter& r : routers_) {
      c.routing.referrals_followed += r.stats().referrals_followed;
      c.routing.direct_routes += r.stats().direct_routes;
      c.routing.fallback_routes += r.stats().fallback_routes;
    }
    const std::vector<uint64_t> ids = controller_->node_ids();
    for (size_t i = 0; i < kNodes && i < ids.size(); ++i) {
      c.served[i] = controller_->node(ids[i])->requests_served();
    }
    return c;
  }

  uint64_t seed_;
  kcluster::Population population_;
  ksim::World world_;
  std::vector<Entry> schedule_;
  uint64_t schedule_digest_ = 0;
  std::vector<krb4::Principal> services_;
  std::unique_ptr<kcluster::ClusterController> controller_;
  std::unique_ptr<kadmin::KadminServer> kadmin_;
  std::unique_ptr<TimedNetwork> net_;
  std::vector<ksim::NetAddress> as_addrs_;
  std::vector<ksim::NetAddress> tgs_addrs_;
  std::vector<kcluster::ClientRouter> routers_;
  ksim::RetryPolicy retry_;
  std::unique_ptr<krb4::Client4> operator_;
  std::unique_ptr<kadmin::AdminClient> admin_;
  std::unordered_map<uint32_t, kcrypto::DesKey> changed_keys_;
  std::vector<std::string> setup_failures_;
  Tracer* tracer_ = nullptr;
  uint64_t writes_ = 0;
  uint64_t compacted_lsn_ = 0;
  LayerCounts traced_;
  Counters round_start_;
  std::array<uint64_t, kNodes> served_{};
};

}  // namespace

std::unique_ptr<Workload> MakeClusterChurn(uint64_t seed) {
  return std::make_unique<ClusterChurn>(seed);
}

}  // namespace kdcbench
