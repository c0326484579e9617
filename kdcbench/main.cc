// kdcbench — one clocked benchmark for the KDC.
//
//   kdcbench --workload <v5_login|v5_session|cluster_churn> --seed <n>
//            --seconds <s> --trace <0|1> [--setups <k>] [--span-file <path>]
//
// Sets the workload up <k> times (setup_s is their median; the last
// instance is kept), runs a fixed kobs-traced op prefix for the determinism
// digest, warms up, then measures for <s> seconds. With --trace 0 the last
// stdout line carries the end-to-end metrics; with --trace 1 the run
// alternates untraced and traced rounds and carries the per-layer metrics.
// Exits 1, naming the failed check, when the correctness gate fails.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "kdcbench/harness.h"
#include "kdcbench/workloads.h"

namespace kdcbench {
namespace {

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  int setups = 0;  // 0: the workload's default
  std::string span_file;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::atof(value);
    } else if (flag == "--trace") {
      args->trace = std::atoi(value) != 0;
    } else if (flag == "--setups") {
      args->setups = std::max(1, std::atoi(value));
    } else if (flag == "--span-file") {
      args->span_file = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !args->workload.empty() && args->seconds > 0;
}

std::unique_ptr<Workload> Make(const std::string& name, uint64_t seed) {
  if (name == "v5_login") {
    return MakeV5Login(seed);
  }
  if (name == "v5_session") {
    return MakeV5Session(seed);
  }
  if (name == "cluster_churn") {
    return MakeClusterChurn(seed);
  }
  return nullptr;
}

RunConfig ConfigFor(const std::string& name, const Args& args) {
  RunConfig config;
  config.seconds = args.seconds;
  config.trace = args.trace;
  if (name == "v5_session") {
    config.warmup_ops = 8192;  // fills the replay cache to its steady size
  }
  return config;
}

// Set-ups per run: enough that their median is steady, within a few
// seconds of set-up work.
int DefaultSetups(const std::string& name) {
  if (name == "v5_session") {
    return 31;
  }
  return name == "v5_login" ? 5 : 3;
}

double Ratio(double num, double den) { return den == 0 ? 0 : num / den; }

// Metrics in print order: name -> (value, unit).
using Metrics = std::vector<std::pair<std::string, std::pair<double, std::string>>>;

void Put(Metrics& m, const std::string& name, double value, const char* unit) {
  m.push_back({name, {value, unit}});
}

void PutLatency(Metrics& m, const std::string& stem, const std::vector<double>& samples,
                bool with_p99) {
  Put(m, stem + "_p50", Quantile(samples, 0.50), "us");
  if (with_p99) {
    Put(m, stem + "_p99", Quantile(samples, 0.99), "us");
  }
}

// Per-round values of the timing metrics, in round order.
struct RoundSeries {
  std::vector<double> rate;
  std::vector<double> p50;
  std::vector<double> p99;
  std::vector<double> cpu;

  explicit RoundSeries(const std::vector<RoundStats>& rounds) {
    for (const RoundStats& r : rounds) {
      rate.push_back(Ratio(static_cast<double>(r.ops), r.wall_s));
      p50.push_back(r.p50_us);
      p99.push_back(r.p99_us);
      cpu.push_back(Ratio(r.cpu_s * 1e6, static_cast<double>(r.ops)));
    }
  }
};

// Median of the second half of `v` over the median of its first half.
double Drift(const std::vector<double>& v) {
  const auto mid = v.begin() + static_cast<ptrdiff_t>(v.size() / 2);
  return Ratio(Median({mid, v.end()}), Median({v.begin(), mid}));
}

// Interference from outside the program (other tenants of the host) only
// ever slows a round down, and comes and goes within a second or so. So
// each timing metric is a quantile of its per-round values on the better
// side: high for round throughput, low for a round's latency quantile and
// CPU per op. Those rounds measure the program. A lone worker sits on one
// CPU per round and takes a burst on it whole, so it gets the better
// decile; several workers spread over all CPUs each round, which evens
// bursts out, and get the better quartile.
Metrics EndToEnd(const Measurement& m, double setup_s, size_t threads) {
  const RoundSeries s(m.rounds);
  const double better = threads == 1 ? 0.1 : 0.25;
  Metrics out;
  Put(out, "ops_per_s", Quantile(s.rate, 1 - better), "ops/s");
  Put(out, "op_p50_us", Quantile(s.p50, better), "us");
  Put(out, "op_p99_us", Quantile(s.p99, better), "us");
  Put(out, "cpu_us_per_op", Quantile(s.cpu, better), "us");
  Put(out, "setup_s", setup_s, "s");
  Put(out, "peak_rss_mb", PeakRssMb(), "MB");
  return out;
}

Metrics PerLayer(const Measurement& m, const LayerCounts& c, const SetupTimes& setup) {
  using kobs::Ev;
  const KobsTotals& k = m.kobs;
  auto per_op = [&m](uint64_t n) {
    return Ratio(static_cast<double>(n), static_cast<double>(m.traced_ops));
  };
  auto per_write = [&c](uint64_t n) {
    return Ratio(static_cast<double>(n), static_cast<double>(c.writes));
  };
  auto frac = [](uint64_t n, uint64_t total) {
    return Ratio(static_cast<double>(n), static_cast<double>(total));
  };
  auto span = [&m](SpanName name) -> const std::vector<double>& {
    return m.spans.duration_us[static_cast<size_t>(name)];
  };
  Metrics out;
  PutLatency(out, "krb5.kdc_as_us", span(SpanName::kKdcAs5), true);
  PutLatency(out, "krb5.kdc_tgs_us", span(SpanName::kKdcTgs5), true);
  Put(out, "crypto.seals_per_op", per_op(k.Count(Ev::kSeal)), "count/op");
  Put(out, "crypto.unseals_per_op", per_op(k.Count(Ev::kUnsealOk) + k.Count(Ev::kUnsealFail)),
      "count/op");
  Put(out, "crypto.seal_bytes_per_op", per_op(k.SumA(Ev::kSeal)), "B/op");
  Put(out, "encoding.request_bytes_per_op", per_op(m.net.request_bytes), "B/op");
  Put(out, "encoding.reply_bytes_per_op", per_op(m.net.reply_bytes), "B/op");
  const uint64_t key_hits = k.Count(Ev::kKdcKeyCacheHit);
  Put(out, "krb4.key_cache_hit_frac", frac(key_hits, key_hits + k.Count(Ev::kKdcKeyCacheMiss)),
      "frac");
  Put(out, "krb4.install_s", setup.install_s, "s");
  const uint64_t memo_hits = k.Count(Ev::kKdcUnsealMemoHit);
  Put(out, "krb4.unseal_memo_hit_frac",
      frac(memo_hits, memo_hits + k.Count(Ev::kKdcUnsealMemoMiss)), "frac");
  PutLatency(out, "krb5.ap_us", span(SpanName::kAp5), false);
  PutLatency(out, "krb5.client_self_us", m.spans.client_self_us, false);
  PutLatency(out, "sim.call_self_us", m.spans.call_self_us, false);
  Put(out, "sim.calls_per_op", per_op(m.net.calls), "count/op");
  Put(out, "sim.replay_admits_per_op", per_op(k.Count(Ev::kCacheAdmit)), "count/op");
  Put(out, "sim.replay_rejects", static_cast<double>(k.Count(Ev::kCacheReplay)), "count");
  Put(out, "cluster.referrals_per_op", per_op(c.referrals), "count/op");
  Put(out, "cluster.direct_route_frac",
      frac(c.direct_routes, c.direct_routes + c.fallback_routes), "frac");
  Put(out, "cluster.node_imbalance", c.node_imbalance, "ratio");
  Put(out, "cluster.bootstrap_s", setup.bootstrap_s, "s");
  PutLatency(out, "krb4.login_us", span(SpanName::kLogin4), true);
  PutLatency(out, "krb4.tgs_us", span(SpanName::kTgs4), true);
  Put(out, "sim.retries_per_op", per_op(c.retries), "count/op");
  PutLatency(out, "store.propagate_us", span(SpanName::kPropagate), true);
  Put(out, "store.wal_appends_per_write", per_write(k.Count(Ev::kStoreAppend)), "count/write");
  Put(out, "store.wal_bytes_per_write", per_write(k.SumB(Ev::kStoreAppend)), "B/write");
  // Every world-network call the bench did not make is the controller
  // shipping to its nodes; only writes give it anything to ship.
  const uint64_t shipped = c.writes == 0 ? 0 : k.SumB(Ev::kNetCall) - m.net.request_bytes;
  Put(out, "store.prop_bytes_per_write", per_write(shipped), "B/write");
  PutLatency(out, "admin.write_us", span(SpanName::kAdminWrite), true);
  Put(out, "admin.applied_frac", per_write(c.writes_applied), "frac");
  double untraced_ops = 0;
  double untraced_s = 0;
  for (const RoundStats& r : m.rounds) {
    untraced_ops += static_cast<double>(r.ops);
    untraced_s += r.wall_s;
  }
  const double untraced = Ratio(untraced_ops, untraced_s);
  const double traced = Ratio(static_cast<double>(m.traced_ops), m.traced_wall_s);
  Put(out, "obs.trace_overhead_frac", untraced == 0 ? 0 : 1 - traced / untraced, "frac");
  return out;
}

void PrintJson(bool correct, const Measurement& m, const Metrics& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
              correct ? "true" : "false", static_cast<unsigned long long>(m.attempted),
              static_cast<unsigned long long>(m.failed));
  for (size_t i = 0; i < metrics.size(); ++i) {
    const auto& [name, vu] = metrics[i];
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i == 0 ? "" : ", ",
                name.c_str(), std::isfinite(vu.first) ? vu.first : 0.0, vu.second.c_str());
  }
  std::printf("}}\n");
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: kdcbench --workload <v5_login|v5_session|cluster_churn> --seed <n> "
                 "--seconds <s> --trace <0|1> [--setups <k>] [--span-file <path>]\n");
    return 2;
  }

  std::unique_ptr<Workload> workload;
  std::vector<double> totals;
  std::vector<double> installs;
  std::vector<double> bootstraps;
  const int setups = args.setups > 0 ? args.setups : DefaultSetups(args.workload);
  // Set-up k runs on the k-th allowed CPU, round robin, so a burst of
  // interference on one CPU slows only some of the set-ups, not their median.
  const std::vector<int> cpus = AllowedCpus();
  for (int k = 0; k < setups; ++k) {
    if (cpus.size() > 1) {
      SetThreadCpus({cpus[static_cast<size_t>(k) % cpus.size()]});
    }
    workload.reset();  // the previous instance goes first, so peak RSS is one instance
    workload = Make(args.workload, args.seed);
    if (workload == nullptr) {
      std::fprintf(stderr, "kdcbench: unknown workload '%s'\n", args.workload.c_str());
      return 2;
    }
    totals.push_back(workload->setup().total_s);
    installs.push_back(workload->setup().install_s);
    bootstraps.push_back(workload->setup().bootstrap_s);
  }
  if (cpus.size() > 1) {
    SetThreadCpus(cpus);
  }
  SetupTimes setup{Median(totals), Median(installs), Median(bootstraps)};

  const Measurement m = Drive(*workload, ConfigFor(args.workload, args));

  std::vector<std::string> failures = workload->Verify();
  if (m.failed != 0) {
    failures.push_back("op verification (" + m.first_failure + "): " + std::to_string(m.failed) +
                       " of " + std::to_string(m.attempted) + " ops failed");
  }
  if (m.spans.nesting_violations != 0) {
    failures.push_back("span nesting: " + std::to_string(m.spans.nesting_violations) +
                       " child spans outside their parent");
  }
  const Metrics metrics =
      args.trace ? PerLayer(m, workload->traced_counts(), setup)
                 : EndToEnd(m, setup.total_s, workload->threads());
  for (const auto& [name, vu] : metrics) {
    if (!std::isfinite(vu.first)) {
      failures.push_back("metric " + name + " is not finite");
    }
  }
  if (args.trace && !args.span_file.empty() && !m.spans.WriteTsv(args.span_file)) {
    failures.push_back("writing spans to " + args.span_file);
  }

  std::printf("workload=%s seed=%llu threads=%zu schedule_digest=%016llx kobs_digest=%016llx\n",
              args.workload.c_str(), static_cast<unsigned long long>(args.seed),
              workload->threads(), static_cast<unsigned long long>(workload->schedule_digest()),
              static_cast<unsigned long long>(m.kobs_digest));
  std::printf("setup_s samples:");
  for (double t : totals) {
    std::printf(" %.4f", t);
  }
  uint64_t samples = 0;
  for (const RoundStats& r : m.rounds) {
    samples += r.latency_samples;
  }
  const RoundSeries s(m.rounds);
  std::printf("\nattempted=%llu failed=%llu fail_frac=%.6g untraced_rounds=%zu "
              "latency_samples=%llu traced_ops=%llu\n",
              static_cast<unsigned long long>(m.attempted),
              static_cast<unsigned long long>(m.failed),
              Ratio(static_cast<double>(m.failed), static_cast<double>(m.attempted)),
              m.rounds.size(), static_cast<unsigned long long>(samples),
              static_cast<unsigned long long>(m.traced_ops));
  std::printf("round ops/s: min %.0f q1 %.0f median %.0f q3 %.0f max %.0f\n",
              Quantile(s.rate, 0), Quantile(s.rate, 0.25), Median(s.rate),
              Quantile(s.rate, 0.75), Quantile(s.rate, 1));
  std::printf("drift, second half / first half of the rounds: ops/s %.3f p50 %.3f p99 %.3f "
              "cpu/op %.3f\n",
              Drift(s.rate), Drift(s.p50), Drift(s.p99), Drift(s.cpu));
  for (const std::string& f : failures) {
    std::printf("CHECK FAILED: %s\n", f.c_str());
    std::fprintf(stderr, "kdcbench: CHECK FAILED: %s\n", f.c_str());
  }
  PrintJson(failures.empty(), m, metrics);
  std::fflush(stdout);
  return failures.empty() ? 0 : 1;
}

}  // namespace
}  // namespace kdcbench

int main(int argc, char** argv) { return kdcbench::Main(argc, argv); }
