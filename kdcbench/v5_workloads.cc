// The two Version 5 workloads.
//
// v5_login: four long-lived client threads share one KdcCore5 over a
// million-user realm that requires preauthentication. Each thread owns a
// network whose AS/TGS endpoints call the shared core with the thread's own
// KdcContext, so the serving path is the 4-core one. One op is a preauth
// login, a service ticket for one of eight services, and a mutually
// authenticated call to the thread's own app server for that service.
// Users are drawn Zipf(1.0) from the whole realm, a working set far larger
// than the 64-slot per-context key cache. Every clock stays frozen.
//
// v5_session: one thread, 256 clients that already hold TGTs in a
// 4,096-user realm. One op drops the client's service tickets, gets a new
// one and calls the app server, whose replay cache is on. The clock moves
// a fixed step per op, so the replay cache settles at a steady size during
// warm-up.

#include "kdcbench/workloads.h"

#include <memory>
#include <string>
#include <vector>

#include "src/krb5/appserver.h"
#include "src/krb5/client.h"
#include "src/krb5/kdccore.h"

namespace kdcbench {
namespace {

constexpr ksim::NetAddress kAsAddr{0x0a000001, 88};
constexpr ksim::NetAddress kTgsAddr{0x0a000001, 89};
constexpr size_t kServices = 8;

ksim::NetAddress AppAddr(size_t service) {
  return {0x0a000100u + static_cast<uint32_t>(service), 2000};
}
ksim::NetAddress ClientAddr(size_t client) {
  return {0x0b000000u + static_cast<uint32_t>(client), 4000};
}

kerb::Bytes OpPayload(uint64_t op) {
  kerb::Bytes payload(8);
  for (int i = 0; i < 8; ++i) {
    payload[static_cast<size_t>(i)] = static_cast<uint8_t>(op >> (8 * i));
  }
  return payload;
}

// Everything one serving thread owns: a network whose AS/TGS endpoints
// call the shared core with this lane's context, and one app server per
// service. The app servers sit behind a private network so the bench can
// bind its own timed handler at their addresses. Cache-line aligned, as its
// thread bumps the counters on every op.
class alignas(64) Lane5 {
 public:
  Lane5(ksim::SimClock* clock, krb5::KdcCore5* core, const kcluster::Population& population,
        uint64_t seed, const krb5::AppServer5Options& app_options)
      : net_(clock), app_net_(clock), ctx_(kcrypto::Prng(seed)) {
    net_.Bind(kAsAddr, [this, core](const ksim::Message& msg) {
      ScopedSpan span(tracer_, SpanName::kKdcAs5);
      ++as_calls_;
      return core->HandleAs(msg, ctx_);
    });
    net_.Bind(kTgsAddr, [this, core](const ksim::Message& msg) {
      ScopedSpan span(tracer_, SpanName::kKdcTgs5);
      ++tgs_calls_;
      return core->HandleTgs(msg, ctx_);
    });
    kcrypto::Prng app_prng(seed ^ 0xa99);
    for (size_t j = 0; j < kServices; ++j) {
      apps_.push_back(std::make_unique<krb5::AppServer5>(
          &app_net_, AppAddr(j), population.ServicePrincipal(j), population.ServiceKey(j),
          ksim::HostClock(clock), app_prng.Fork(),
          [](const krb5::VerifiedSession5&, const kerb::Bytes& data) { return data; },
          app_options));
      net_.Bind(AppAddr(j), [this](const ksim::Message& msg) {
        ScopedSpan span(tracer_, SpanName::kAp5);
        return app_net_.Call(msg.src, msg.dst, msg.payload);
      });
    }
  }
  Lane5(const Lane5&) = delete;
  Lane5& operator=(const Lane5&) = delete;

  TimedNetwork& net() { return net_; }
  void set_tracer(Tracer* tracer) {
    tracer_ = tracer;
    net_.set_tracer(tracer);
  }
  Tracer* tracer() const { return tracer_; }
  void CountOp() { ++ops_; }
  uint64_t ops() const { return ops_; }
  uint64_t as_calls() const { return as_calls_; }
  uint64_t tgs_calls() const { return tgs_calls_; }
  uint64_t ap_rejected() const {
    uint64_t n = 0;
    for (const auto& app : apps_) {
      n += app->rejected_requests();
    }
    return n;
  }

 private:
  TimedNetwork net_;
  ksim::Network app_net_;
  krb4::KdcContext ctx_;
  std::vector<std::unique_ptr<krb5::AppServer5>> apps_;
  Tracer* tracer_ = nullptr;
  uint64_t ops_ = 0;
  uint64_t as_calls_ = 0;
  uint64_t tgs_calls_ = 0;
};

// Gets a ticket for `service` and calls it with mutual authentication;
// the app server echoes the op's payload back.
const char* TicketAndCall(krb5::Client5& client, Tracer* tracer, size_t service,
                          const krb4::Principal& principal, uint64_t op) {
  {
    ScopedSpan span(tracer, SpanName::kTicket5);
    if (!client.GetServiceTicket(principal).ok()) {
      return "TGS reply unsealed";
    }
  }
  const kerb::Bytes payload = OpPayload(op);
  ScopedSpan span(tracer, SpanName::kCallService5);
  auto reply = client.CallService(AppAddr(service), principal, /*want_mutual=*/true, payload);
  if (!reply.ok()) {
    return "mutual-auth AP reply";
  }
  if (reply.value().app_reply != payload) {
    return "app server echo";
  }
  return nullptr;
}

std::vector<std::string> CheckCounters(const krb5::KdcCore5& core, uint64_t as_calls,
                                       uint64_t tgs_calls, uint64_t want_as, uint64_t want_tgs) {
  std::vector<std::string> failed;
  if (core.as_requests_served() != as_calls || as_calls != want_as) {
    failed.push_back("KdcCore5::as_requests_served " + std::to_string(core.as_requests_served()) +
                     " vs AS calls " + std::to_string(as_calls) + " vs expected " +
                     std::to_string(want_as));
  }
  if (core.tgs_requests_served() != tgs_calls || tgs_calls != want_tgs) {
    failed.push_back("KdcCore5::tgs_requests_served " +
                     std::to_string(core.tgs_requests_served()) + " vs TGS calls " +
                     std::to_string(tgs_calls) + " vs expected " + std::to_string(want_tgs));
  }
  return failed;
}

class V5Login : public Workload {
 public:
  static constexpr size_t kThreads = 4;
  static constexpr size_t kUsers = 1000000;
  static constexpr size_t kScheduleLen = 1 << 16;

  explicit V5Login(uint64_t seed) : population_(MakePopulationConfig(kUsers, kServices)) {
    kcluster::ZipfSampler zipf(kUsers, 1.0);
    Fnv digest;
    for (size_t t = 0; t < kThreads; ++t) {
      kcrypto::Prng prng(seed * 0x9e3779b97f4a7c15ull + t + 1);
      std::vector<Entry>& schedule = schedules_[t];
      schedule.reserve(kScheduleLen);
      for (size_t i = 0; i < kScheduleLen; ++i) {
        const auto user = static_cast<uint32_t>(zipf.Sample(prng));
        const auto service = static_cast<uint32_t>(prng.NextBelow(kServices));
        schedule.push_back({user, service, population_.UserKey(user), prng.NextU64()});
        digest.Add(user);
        digest.Add(service);
      }
    }
    schedule_digest_ = digest.value();
    for (size_t j = 0; j < kServices; ++j) {
      services_.push_back(population_.ServicePrincipal(j));
    }

    const int64_t start = NowNs();
    krb4::KdcDatabase db;
    population_.Install(db);
    setup_.install_s = Seconds(start);
    krb5::KdcPolicy5 policy;
    policy.require_preauth = true;
    core_ = std::make_unique<krb5::KdcCore5>(ksim::HostClock(&clock_), kRealm, std::move(db),
                                             policy);
    krb5::AppServer5Options app_options;
    app_options.replay_cache = false;
    for (size_t t = 0; t < kThreads; ++t) {
      lanes_.push_back(
          std::make_unique<Lane5>(&clock_, core_.get(), population_, seed + t, app_options));
    }
    setup_.total_s = Seconds(start);
  }

  size_t threads() const override { return kThreads; }
  uint64_t schedule_digest() const override { return schedule_digest_; }
  void SetTracer(size_t t, Tracer* tracer) override { lanes_[t]->set_tracer(tracer); }

  const char* RunOp(size_t t, uint64_t op) override {
    Lane5& lane = *lanes_[t];
    const Entry& e = schedules_[t][op % kScheduleLen];
    lane.CountOp();
    krb5::Client5Options options;
    options.use_preauth = true;
    krb5::Client5 client(&lane.net(), ClientAddr(t), ksim::HostClock(&clock_),
                         population_.UserPrincipal(e.user), kAsAddr,
                         kcrypto::Prng(e.client_seed ^ op), options);
    client.AddRealmTgs(kRealm, kTgsAddr);
    {
      ScopedSpan span(lane.tracer(), SpanName::kLogin5);
      if (!client.LoginWithKey(e.key).ok()) {
        return "preauth AS login";
      }
    }
    return TicketAndCall(client, lane.tracer(), e.service, services_[e.service], op);
  }

  std::vector<std::string> Verify() override {
    uint64_t as_calls = 0;
    uint64_t tgs_calls = 0;
    uint64_t ops = 0;
    for (size_t t = 0; t < kThreads; ++t) {
      as_calls += lanes_[t]->as_calls();
      tgs_calls += lanes_[t]->tgs_calls();
      ops += lanes_[t]->ops();
    }
    return CheckCounters(*core_, as_calls, tgs_calls, ops, ops);
  }

 private:
  struct Entry {
    uint32_t user;
    uint32_t service;
    kcrypto::DesKey key;
    uint64_t client_seed;
  };

  kcluster::Population population_;
  std::vector<Entry> schedules_[kThreads];
  uint64_t schedule_digest_ = 0;
  std::vector<krb4::Principal> services_;
  ksim::SimClock clock_;  // frozen
  std::unique_ptr<krb5::KdcCore5> core_;
  std::vector<std::unique_ptr<Lane5>> lanes_;
};

class V5Session : public Workload {
 public:
  static constexpr size_t kUsers = 4096;
  static constexpr size_t kClients = 256;
  static constexpr size_t kScheduleLen = 1 << 16;
  static constexpr ksim::Duration kStep = 10 * ksim::kMillisecond;
  // Replay-cache window: with kStep it holds about 6,000 live entries.
  static constexpr ksim::Duration kSkew = ksim::kMinute;
  static constexpr ksim::Duration kLifetime = 24 * ksim::kHour;

  explicit V5Session(uint64_t seed) : population_(MakePopulationConfig(kUsers, kServices)) {
    // 256 distinct users hold TGTs; clients are drawn Zipf(1.0).
    kcrypto::Prng prng(seed * 0x9e3779b97f4a7c15ull + 0x5e55);
    std::vector<uint32_t> users(kUsers);
    for (size_t i = 0; i < kUsers; ++i) {
      users[i] = static_cast<uint32_t>(i);
    }
    for (size_t i = 0; i < kClients; ++i) {
      std::swap(users[i], users[i + prng.NextBelow(kUsers - i)]);
    }
    users.resize(kClients);
    kcluster::ZipfSampler zipf(kClients, 1.0);
    Fnv digest;
    schedule_.reserve(kScheduleLen);
    for (size_t i = 0; i < kScheduleLen; ++i) {
      const auto client = static_cast<uint32_t>(zipf.Sample(prng));
      const auto service = static_cast<uint32_t>(prng.NextBelow(kServices));
      schedule_.push_back({client, service});
      digest.Add(client);
      digest.Add(service);
    }
    for (uint32_t u : users) {
      digest.Add(u);
    }
    schedule_digest_ = digest.value();
    for (size_t j = 0; j < kServices; ++j) {
      services_.push_back(population_.ServicePrincipal(j));
    }

    const int64_t start = NowNs();
    krb4::KdcDatabase db;
    population_.Install(db);
    setup_.install_s = Seconds(start);
    krb5::KdcPolicy5 policy;
    policy.max_ticket_lifetime = kLifetime;
    core_ = std::make_unique<krb5::KdcCore5>(ksim::HostClock(&clock_), kRealm, std::move(db),
                                             policy);
    krb5::AppServer5Options app_options;
    app_options.replay_cache = true;
    app_options.clock_skew_limit = kSkew;
    lane_ = std::make_unique<Lane5>(&clock_, core_.get(), population_, seed, app_options);
    // TGT prefetch.
    for (size_t c = 0; c < kClients; ++c) {
      auto client = std::make_unique<krb5::Client5>(
          &lane_->net(), ClientAddr(c), ksim::HostClock(&clock_),
          population_.UserPrincipal(users[c]), kAsAddr, kcrypto::Prng(prng.NextU64()));
      client->AddRealmTgs(kRealm, kTgsAddr);
      if (!client->LoginWithKey(population_.UserKey(users[c]), kLifetime).ok()) {
        setup_failures_.push_back("TGT prefetch login for client " + std::to_string(c));
      }
      clients_.push_back(std::move(client));
    }
    setup_.total_s = Seconds(start);
  }

  size_t threads() const override { return 1; }
  uint64_t schedule_digest() const override { return schedule_digest_; }
  void SetTracer(size_t, Tracer* tracer) override { lane_->set_tracer(tracer); }

  const char* RunOp(size_t, uint64_t op) override {
    const Entry& e = schedule_[op % kScheduleLen];
    lane_->CountOp();
    clock_.Advance(kStep);
    krb5::Client5& client = *clients_[e.client];
    client.DropServiceCredentials();
    return TicketAndCall(client, lane_->tracer(), e.service, services_[e.service], op);
  }

  std::vector<std::string> Verify() override {
    std::vector<std::string> failed = setup_failures_;
    for (std::string& f : CheckCounters(*core_, lane_->as_calls(), lane_->tgs_calls(), kClients,
                                        lane_->ops())) {
      failed.push_back(std::move(f));
    }
    if (lane_->ap_rejected() != 0) {
      failed.push_back("AppServer5 rejected " + std::to_string(lane_->ap_rejected()) +
                       " AP requests");
    }
    return failed;
  }

 private:
  struct Entry {
    uint32_t client;
    uint32_t service;
  };

  kcluster::Population population_;
  std::vector<Entry> schedule_;
  uint64_t schedule_digest_ = 0;
  std::vector<krb4::Principal> services_;
  ksim::SimClock clock_;
  std::unique_ptr<krb5::KdcCore5> core_;
  std::unique_ptr<Lane5> lane_;
  std::vector<std::unique_ptr<krb5::Client5>> clients_;
  std::vector<std::string> setup_failures_;
};

}  // namespace

std::unique_ptr<Workload> MakeV5Login(uint64_t seed) { return std::make_unique<V5Login>(seed); }
std::unique_ptr<Workload> MakeV5Session(uint64_t seed) {
  return std::make_unique<V5Session>(seed);
}

}  // namespace kdcbench
