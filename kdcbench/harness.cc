#include "kdcbench/harness.h"

#include <pthread.h>
#include <sched.h>
#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <atomic>
#include <barrier>
#include <cstdio>
#include <thread>

namespace kdcbench {

const char* SpanNameString(SpanName name) {
  switch (name) {
    case SpanName::kOp: return "op";
    case SpanName::kLogin5: return "krb5.client.login";
    case SpanName::kTicket5: return "krb5.client.get_ticket";
    case SpanName::kCallService5: return "krb5.client.call_service";
    case SpanName::kKdcAs5: return "krb5.kdc_as";
    case SpanName::kKdcTgs5: return "krb5.kdc_tgs";
    case SpanName::kAp5: return "krb5.ap";
    case SpanName::kNetCall: return "sim.call";
    case SpanName::kLogin4: return "krb4.login";
    case SpanName::kTgs4: return "krb4.tgs";
    case SpanName::kAdminWrite: return "admin.write";
    case SpanName::kPropagate: return "store.propagate";
    case SpanName::kCount: break;
  }
  return "?";
}

kerb::Result<kerb::Bytes> TimedNetwork::Call(const ksim::NetAddress& src,
                                             const ksim::NetAddress& dst,
                                             kerb::BytesView payload) {
  ++calls_by_port_[dst.port % kPorts];
  if (tracer_ == nullptr) {
    return Deliver(src, dst, payload);
  }
  ScopedSpan span(tracer_, SpanName::kNetCall);
  ++tracer_->net.calls;
  tracer_->net.request_bytes += payload.size();
  kerb::Result<kerb::Bytes> reply = Deliver(src, dst, payload);
  if (reply.ok()) {
    tracer_->net.reply_bytes += reply.value().size();
  }
  return reply;
}

void KobsTotals::Harvest(kobs::Trace& trace) {
  for (const kobs::Event& e : trace.events()) {
    const size_t k = static_cast<size_t>(e.kind);
    ++count[k];
    sum_a[k] += e.a;
    sum_b[k] += e.b;
  }
  trace.Clear();
}

namespace {

constexpr size_t kKeptSpans = 20000;

bool IsHandler(SpanName name) {
  return name == SpanName::kKdcAs5 || name == SpanName::kKdcTgs5 || name == SpanName::kAp5;
}

double Us(const Span& s) { return static_cast<double>(s.end_ns - s.start_ns) / 1e3; }

}  // namespace

void SpanStats::Add(const std::vector<Span>& spans) {
  // Spans of one op are contiguous and start with its kOp root. No call
  // nests inside another call in these workloads, so an op's call time is
  // the sum of its call spans.
  double op_us = -1;
  double op_calls_us = 0;
  auto flush_op = [&]() {
    if (op_us >= 0) {
      client_self_us.push_back(op_us - op_calls_us);
    }
  };
  for (const Span& s : spans) {
    if (s.end_ns < s.start_ns) {
      ++nesting_violations;
      continue;
    }
    if (s.parent >= 0) {
      const Span& p = spans[static_cast<size_t>(s.parent)];
      if (s.start_ns < p.start_ns || s.end_ns > p.end_ns || s.op != p.op) {
        ++nesting_violations;
      }
      if (IsHandler(s.name) && p.name == SpanName::kNetCall) {
        call_self_us.push_back(Us(p) - Us(s));
      }
    } else if (s.name != SpanName::kOp) {
      ++nesting_violations;  // every span belongs to an op
    }
    duration_us[static_cast<size_t>(s.name)].push_back(Us(s));
    if (s.name == SpanName::kOp) {
      flush_op();
      op_us = Us(s);
      op_calls_us = 0;
    } else if (s.name == SpanName::kNetCall) {
      op_calls_us += Us(s);
    }
  }
  flush_op();
  const size_t room = kKeptSpans - std::min(kKeptSpans, kept.size());
  if (room > 0) {
    // Parents are indices into `spans`; rebase them into `kept`.
    const int32_t base = static_cast<int32_t>(kept.size());
    const size_t n = std::min(room, spans.size());
    for (size_t i = 0; i < n; ++i) {
      Span s = spans[i];
      if (s.parent >= 0) {
        s.parent += base;
      }
      kept.push_back(s);
    }
  }
}

bool SpanStats::WriteTsv(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return false;
  }
  std::fprintf(f, "index\tname\tstart_ns\tend_ns\tparent\top\n");
  for (size_t i = 0; i < kept.size(); ++i) {
    const Span& s = kept[i];
    std::fprintf(f, "%zu\t%s\t%lld\t%lld\t%d\t%llu\n", i, SpanNameString(s.name),
                 static_cast<long long>(s.start_ns), static_cast<long long>(s.end_ns), s.parent,
                 static_cast<unsigned long long>(s.op));
  }
  return std::fclose(f) == 0;
}

double Quantile(std::vector<double> samples, double q) {
  if (samples.empty()) {
    return 0;
  }
  size_t rank = static_cast<size_t>(q * static_cast<double>(samples.size()));
  rank = std::min(rank, samples.size() - 1);
  std::nth_element(samples.begin(), samples.begin() + static_cast<ptrdiff_t>(rank),
                   samples.end());
  return samples[rank];
}

double Median(std::vector<double> samples) {
  if (samples.empty()) {
    return 0;
  }
  std::sort(samples.begin(), samples.end());
  const size_t n = samples.size();
  return n % 2 == 1 ? samples[n / 2] : (samples[n / 2 - 1] + samples[n / 2]) / 2;
}

// User plus system CPU of all threads, as getrusage reports it, but from
// the scheduler's nanosecond runtime accounting rather than tick samples.
double ProcessCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) / 1e9;
}

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

std::vector<int> AllowedCpus() {
  std::vector<int> cpus;
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof(allowed), &allowed) == 0) {
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (CPU_ISSET(cpu, &allowed)) {
        cpus.push_back(cpu);
      }
    }
  }
  return cpus;
}

void SetThreadCpus(const std::vector<int>& cpus) {
  cpu_set_t set;
  CPU_ZERO(&set);
  for (int cpu : cpus) {
    CPU_SET(cpu, &set);
  }
  pthread_setaffinity_np(pthread_self(), sizeof(set), &set);
}

namespace {

constexpr uint64_t kDigestOps = 512;  // per worker, traced by kobs for the digest
constexpr double kRoundS = 0.25;

enum class RoundKind { kWarmup, kTimed, kTraced };

// Cache-line aligned: each worker bumps its lane's counters on every op.
struct alignas(64) Lane {
  uint64_t next_op = 0;
  uint64_t round_ops = 0;
  uint64_t failed = 0;
  const char* first_failure = nullptr;
  std::vector<int64_t> latency_ns;
  Tracer tracer;
};

// Long-lived workers that run rounds on command. Between rounds every
// worker is parked at the barrier, so the main thread may reconfigure
// tracing and read per-worker state without locks.
class RoundRunner {
 public:
  explicit RoundRunner(Workload& workload)
      : workload_(workload),
        lanes_(workload.threads()),
        cpus_(AllowedCpus()),
        sync_(workload.threads() + 1) {
    for (size_t t = 0; t < lanes_.size(); ++t) {
      threads_.emplace_back([this, t] { Work(t); });
    }
  }
  ~RoundRunner() {
    quit_ = true;
    sync_.arrive_and_wait();
    for (std::thread& th : threads_) {
      th.join();
    }
  }
  RoundRunner(const RoundRunner&) = delete;
  RoundRunner& operator=(const RoundRunner&) = delete;

  // Runs one round: `ops_per_worker` ops each when nonzero, else for
  // `seconds` of wall time. Timed rounds also get latency quantiles.
  RoundStats Run(RoundKind kind, uint64_t ops_per_worker, double seconds) {
    kind_ = kind;
    ops_limit_ = ops_per_worker;
    stop_.store(false, std::memory_order_relaxed);
    const bool traced = kind == RoundKind::kTraced;
    for (size_t t = 0; t < lanes_.size(); ++t) {
      lanes_[t].round_ops = 0;
      workload_.SetTracer(t, traced ? &lanes_[t].tracer : nullptr);
    }
    ++round_;
    const double cpu0 = ProcessCpuSeconds();
    const int64_t t0 = NowNs();
    sync_.arrive_and_wait();
    if (ops_per_worker == 0) {
      std::this_thread::sleep_for(std::chrono::duration<double>(seconds));
      stop_.store(true, std::memory_order_relaxed);
    }
    sync_.arrive_and_wait();
    RoundStats r;
    r.wall_s = static_cast<double>(NowNs() - t0) / 1e9;
    r.cpu_s = ProcessCpuSeconds() - cpu0;
    // p50 is each worker's median, averaged over the workers; p99 is over
    // all samples. The workers sit on CPUs of different speeds, so pooled
    // samples form one mode per worker, and the pooled median falls in a
    // gap between modes, where a small shift in the workers' shares of the
    // samples moves it far.
    latency_us_.clear();
    double p50_sum = 0;
    for (Lane& lane : lanes_) {
      r.ops += lane.round_ops;
      const size_t first = latency_us_.size();
      for (int64_t ns : lane.latency_ns) {
        latency_us_.push_back(static_cast<double>(ns) / 1e3);
      }
      p50_sum += Quantile(std::vector<double>(latency_us_.begin() + first, latency_us_.end()),
                          0.50);
      lane.latency_ns.clear();  // keeps its capacity: memory stays flat
    }
    r.latency_samples = latency_us_.size();
    r.p50_us = p50_sum / static_cast<double>(lanes_.size());
    r.p99_us = Quantile(latency_us_, 0.99);
    return r;
  }

  std::vector<Lane>& lanes() { return lanes_; }

 private:
  void Work(size_t t) {
    Lane& lane = lanes_[t];
    for (;;) {
      sync_.arrive_and_wait();
      if (quit_) {
        return;
      }
      MoveToNextCpu(t);
      const bool traced = kind_ == RoundKind::kTraced;
      const bool timed = kind_ == RoundKind::kTimed;
      Tracer* tracer = traced ? &lane.tracer : nullptr;
      while (ops_limit_ != 0 ? lane.round_ops < ops_limit_
                             : !stop_.load(std::memory_order_relaxed)) {
        const uint64_t op = lane.next_op++;
        if (tracer != nullptr) {
          tracer->BeginOp(op);
          tracer->Open(SpanName::kOp);
        }
        // The first ops after a move to another CPU run on cold caches, a
        // cost of the rotation, not of the program: not sampled.
        const bool sampled = timed && lane.round_ops >= kUnsampledOps;
        const int64_t start = sampled ? NowNs() : 0;
        const char* failure = workload_.RunOp(t, op);
        if (sampled) {
          lane.latency_ns.push_back(NowNs() - start);
        }
        if (tracer != nullptr) {
          tracer->Close();
        }
        ++lane.round_ops;
        if (failure != nullptr) {
          ++lane.failed;
          if (lane.first_failure == nullptr) {
            lane.first_failure = failure;
          }
        }
      }
      sync_.arrive_and_wait();
    }
  }

  // Each round, worker t runs on the next CPU of the allowed set, so every
  // worker visits every CPU. On the 4-vCPU box this was tuned on, CPUs
  // slow down independently for tens of seconds at a time; a worker left on
  // one CPU made single-thread runs bimodal.
  void MoveToNextCpu(size_t t) {
    if (cpus_.size() > 1) {
      SetThreadCpus({cpus_[(t + round_) % cpus_.size()]});
    }
  }

  static constexpr uint64_t kUnsampledOps = 32;

  Workload& workload_;
  std::vector<Lane> lanes_;
  std::vector<int> cpus_;
  std::vector<double> latency_us_;
  std::barrier<> sync_;
  // Written by the main thread only while the workers are parked.
  RoundKind kind_ = RoundKind::kWarmup;
  size_t round_ = 0;
  uint64_t ops_limit_ = 0;
  bool quit_ = false;
  std::atomic<bool> stop_{false};
  std::vector<std::thread> threads_;  // last: started after the state above
};

}  // namespace

Measurement Drive(Workload& workload, const RunConfig& config) {
  Measurement m;
  RoundRunner runner(workload);
  kobs::Trace trace;

  // A fixed op prefix under kobs, for the determinism digest.
  trace.Install();
  runner.Run(RoundKind::kWarmup, kDigestOps, 0);
  trace.Uninstall();
  m.kobs_digest = trace.digest();
  trace.Clear();

  runner.Run(RoundKind::kWarmup, config.warmup_ops, 0);

  // Timed rounds; trace runs alternate untraced and traced rounds so both
  // see the same drift, and the untraced ones give the overhead baseline.
  const int rounds = std::max(1, static_cast<int>(config.seconds / kRoundS + 0.5));
  const double round_s = config.seconds / rounds;
  for (int r = 0; r < rounds; ++r) {
    workload.BetweenRounds();
    const bool traced = config.trace && (r % 2 == 1);
    if (!traced) {
      m.rounds.push_back(runner.Run(RoundKind::kTimed, 0, round_s));
      continue;
    }
    workload.BeginTracedRound();
    trace.Install();
    const RoundStats rr = runner.Run(RoundKind::kTraced, 0, round_s);
    trace.Uninstall();
    workload.EndTracedRound();
    m.traced_ops += rr.ops;
    m.traced_wall_s += rr.wall_s;
    m.kobs.Harvest(trace);
    for (Lane& lane : runner.lanes()) {
      m.spans.Add(lane.tracer.spans());
      lane.tracer.Clear();
      m.net += lane.tracer.net;
      lane.tracer.net = {};
    }
  }

  for (Lane& lane : runner.lanes()) {
    m.attempted += lane.next_op;
    m.failed += lane.failed;
    if (m.first_failure.empty() && lane.first_failure != nullptr) {
      m.first_failure = lane.first_failure;
    }
  }
  for (size_t t = 0; t < workload.threads(); ++t) {
    workload.SetTracer(t, nullptr);
  }
  return m;
}

}  // namespace kdcbench
