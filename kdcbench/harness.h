// The KDC benchmark's harness: the workload interface, the round-based op
// loop that drives it for a wall-clock budget, the span recorder used by
// traced rounds, and the Network subclass that times every call.
//
// Every layer is measured from outside: spans are opened by the benchmark
// around calls into public functions (client methods, Network::Call, the
// KDC handlers the benchmark binds itself, PropagateAll, AdminClient
// operations). Counts come from the existing kobs counters, harvested after
// each traced round while the workers are parked.

#ifndef KDCBENCH_HARNESS_H_
#define KDCBENCH_HARNESS_H_

#include <array>
#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "src/obs/kobs.h"
#include "src/sim/network.h"

namespace kdcbench {

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Seconds of steady_clock time since `from_ns`.
inline double Seconds(int64_t from_ns) { return static_cast<double>(NowNs() - from_ns) / 1e9; }

// FNV-1a, for schedule digests.
class Fnv {
 public:
  void Add(uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h_ = (h_ ^ ((v >> (8 * i)) & 0xff)) * 1099511628211ull;
    }
  }
  uint64_t value() const { return h_; }

 private:
  uint64_t h_ = 1469598103934665603ull;
};

enum class SpanName : uint8_t {
  kOp,            // one whole op, opened by the harness
  kLogin5,        // Client5::LoginWithKey
  kTicket5,       // Client5::GetServiceTicket
  kCallService5,  // Client5::CallService
  kKdcAs5,        // bench-bound AS handler around KdcCore5::HandleAs
  kKdcTgs5,       // bench-bound TGS handler around KdcCore5::HandleTgs
  kAp5,           // bench-bound handler forwarding to an AppServer5
  kNetCall,       // TimedNetwork::Call
  kLogin4,        // Client4::LoginWithKey
  kTgs4,          // Client4::GetServiceTicket
  kAdminWrite,    // AdminClient::ChangePassword / RotateKey
  kPropagate,     // ClusterController::PropagateAll
  kCount
};
constexpr size_t kSpanNames = static_cast<size_t>(SpanName::kCount);
const char* SpanNameString(SpanName name);

struct Span {
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  uint64_t op = 0;
  int32_t parent = -1;  // index into the same recorder's spans, -1 for a root
  SpanName name = SpanName::kOp;
};

// Calls and bytes seen at the network boundary.
struct NetCounts {
  uint64_t calls = 0;
  uint64_t request_bytes = 0;
  uint64_t reply_bytes = 0;

  NetCounts& operator+=(const NetCounts& other) {
    calls += other.calls;
    request_bytes += other.request_bytes;
    reply_bytes += other.reply_bytes;
    return *this;
  }
};

// Per-worker span recorder, plus the network counts of traced rounds. Only
// touched by its worker while a traced round runs.
class Tracer {
 public:
  void BeginOp(uint64_t op) { op_ = op; }
  void Open(SpanName name) {
    const int32_t parent = open_.empty() ? -1 : open_.back();
    open_.push_back(static_cast<int32_t>(spans_.size()));
    spans_.push_back(Span{NowNs(), 0, op_, parent, name});
  }
  void Close() {
    spans_[static_cast<size_t>(open_.back())].end_ns = NowNs();
    open_.pop_back();
  }

  const std::vector<Span>& spans() const { return spans_; }
  void Clear() {
    spans_.clear();
    open_.clear();
  }

  NetCounts net;

 private:
  uint64_t op_ = 0;
  std::vector<Span> spans_;
  std::vector<int32_t> open_;
};

// Opens a span for its lifetime; a no-op when tracing is off.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, SpanName name) : tracer_(tracer) {
    if (tracer_ != nullptr) {
      tracer_->Open(name);
    }
  }
  ~ScopedSpan() {
    if (tracer_ != nullptr) {
      tracer_->Close();
    }
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tracer_;
};

// A Network that times each Call and counts its bytes when a tracer is set.
// With `forward` set it delivers through that network instead of its own
// bindings, which lets clients in a ksim::World go through this layer while
// the world's servers stay bound on the world's network.
class TimedNetwork : public ksim::Network {
 public:
  explicit TimedNetwork(ksim::SimClock* clock, ksim::Network* forward = nullptr)
      : ksim::Network(clock), forward_(forward) {}

  kerb::Result<kerb::Bytes> Call(const ksim::NetAddress& src, const ksim::NetAddress& dst,
                                 kerb::BytesView payload) override;

  void set_tracer(Tracer* tracer) { tracer_ = tracer; }
  // Calls made to destination `port` (ports are below 1024 here).
  uint64_t calls_to(uint16_t port) const { return calls_by_port_[port % kPorts]; }

 private:
  static constexpr size_t kPorts = 1024;

  kerb::Result<kerb::Bytes> Deliver(const ksim::NetAddress& src, const ksim::NetAddress& dst,
                                    kerb::BytesView payload) {
    return forward_ != nullptr ? forward_->Call(src, dst, payload)
                               : ksim::Network::Call(src, dst, payload);
  }

  ksim::Network* forward_;
  Tracer* tracer_ = nullptr;
  std::array<uint64_t, kPorts> calls_by_port_{};
};

// Set-up cost of one workload instance, by stage.
struct SetupTimes {
  double total_s = 0;
  double install_s = 0;    // Population::Install
  double bootstrap_s = 0;  // ClusterController::Bootstrap (cluster only)
};

// Layer counts a workload accumulates over traced rounds only.
struct LayerCounts {
  uint64_t writes = 0;
  uint64_t writes_applied = 0;
  uint64_t referrals = 0;
  uint64_t direct_routes = 0;
  uint64_t fallback_routes = 0;
  uint64_t retries = 0;
  double node_imbalance = 0;  // max / mean requests served, over nodes
};

class Workload {
 public:
  virtual ~Workload() = default;

  virtual size_t threads() const = 0;
  // Digest of the op schedule generated from the seed.
  virtual uint64_t schedule_digest() const = 0;
  const SetupTimes& setup() const { return setup_; }

  // Runs op number `op` of worker `t` (its schedule wraps around). Returns
  // nullptr when the op verified end to end, else the failed check's name.
  virtual const char* RunOp(size_t t, uint64_t op) = 0;
  // Points worker `t`'s spans at `tracer` (null turns tracing off). Called
  // only while the workers are parked between rounds.
  virtual void SetTracer(size_t t, Tracer* tracer) = 0;
  // Untimed upkeep before each timed round, while the workers are parked.
  virtual void BetweenRounds() {}
  // Bracket each traced round, for counter deltas.
  virtual void BeginTracedRound() {}
  virtual void EndTracedRound() {}
  virtual LayerCounts traced_counts() const { return {}; }
  // The correctness gate after the run: the names of failed checks.
  virtual std::vector<std::string> Verify() = 0;

 protected:
  SetupTimes setup_;
};

// Per-event-kind totals harvested from a kobs trace.
struct KobsTotals {
  std::array<uint64_t, kobs::kEvCount> count{};
  std::array<uint64_t, kobs::kEvCount> sum_a{};
  std::array<uint64_t, kobs::kEvCount> sum_b{};

  // Adds the trace's events and clears it.
  void Harvest(kobs::Trace& trace);
  uint64_t Count(kobs::Ev kind) const { return count[static_cast<size_t>(kind)]; }
  uint64_t SumB(kobs::Ev kind) const { return sum_b[static_cast<size_t>(kind)]; }
  uint64_t SumA(kobs::Ev kind) const { return sum_a[static_cast<size_t>(kind)]; }
};

// Durations and self times derived from traced rounds' spans.
struct SpanStats {
  std::array<std::vector<double>, kSpanNames> duration_us;
  std::vector<double> client_self_us;  // per op: op span minus its call spans
  std::vector<double> call_self_us;    // per call: call span minus its handler span
  uint64_t nesting_violations = 0;
  std::vector<Span> kept;  // the first spans, written out when the run ends

  void Add(const std::vector<Span>& spans);
  bool WriteTsv(const std::string& path) const;
};

struct RunConfig {
  double seconds = 10;
  bool trace = false;
  uint64_t warmup_ops = 2048;  // per worker, before any timing
};

// One untraced timed round. End-to-end metrics are quantiles over rounds,
// so a burst of interference from outside moves a few rounds, not the
// result.
struct RoundStats {
  uint64_t ops = 0;
  uint64_t latency_samples = 0;
  double wall_s = 0;
  double cpu_s = 0;
  double p50_us = 0;
  double p99_us = 0;
};

struct Measurement {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::string first_failure;
  uint64_t kobs_digest = 0;

  std::vector<RoundStats> rounds;  // untraced timed rounds

  // Traced timed rounds (trace runs only).
  uint64_t traced_ops = 0;
  double traced_wall_s = 0;
  NetCounts net;
  KobsTotals kobs;
  SpanStats spans;
};

// Drives `workload` through the digest, warm-up and timed rounds on
// long-lived worker threads.
Measurement Drive(Workload& workload, const RunConfig& config);

// Nearest-rank quantile; 0 for an empty sample.
double Quantile(std::vector<double> samples, double q);
double Median(std::vector<double> samples);

double ProcessCpuSeconds();
double PeakRssMb();

// The CPUs the process may run on, and a way to confine the calling thread
// to some of them.
std::vector<int> AllowedCpus();
void SetThreadCpus(const std::vector<int>& cpus);

}  // namespace kdcbench

#endif  // KDCBENCH_HARNESS_H_
