// kobs — deterministic structured tracing and metrics for the whole stack.
//
// The paper's critique is an argument about what happens on the wire and
// inside the KDC: replayed authenticators, double-issued tickets, skewed
// clocks. The attack experiments prove their claims through end-state
// assertions; this layer turns each run into an inspectable event stream so
// tests can pin *behaviour*, not just outcomes — the same shift from
// end-state to explicit message traces that formal-methods analyses of
// related protocols make.
//
// Design rules:
//   * Zero overhead when disabled. Every emit site costs one relaxed-ish
//     atomic load and a predicted branch while no trace is installed —
//     nothing else: no clock read, no formatting, no allocation.
//   * Virtual time only. Events carry the simulation clock (or a host's
//     skewed view of it), never wall time, so a trace is a pure function of
//     (seed, workload, fault plan).
//   * Thread-safe and schedule-independent. Emits go to per-thread buffers;
//     flush merges them into one stream ordered by (time, source, kind,
//     args). Two runs of the same workload produce the same merged stream
//     regardless of worker count or interleaving, PROVIDED the emitted
//     multiset is itself schedule-independent — which is why kinds are
//     split into two classes below.
//
// Digest-stable vs counter-only kinds: the FNV trace digest folds only
// kinds that describe protocol-visible behaviour (wire traffic, KDC
// verdicts, replay-cache admissions, retry/failover decisions). Kinds that
// report per-context implementation artifacts — key-cache and unseal-memo
// hits, reply-cache traffic, seal/unseal call counts — depend on how
// requests happen to be distributed over worker contexts, so they aggregate
// into counters and histograms but never into the digest. That split is
// what makes golden digests byte-stable across KERB_KDC_THREADS values.

#ifndef SRC_OBS_KOBS_H_
#define SRC_OBS_KOBS_H_

#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "src/sim/clock.h"

namespace kobs {

// Event kinds, grouped by the subsystem that emits them. EvName() gives the
// ndjson spelling; DigestStable() gives the digest class (see header
// comment). Append new kinds at the end of their group and extend both
// tables in kobs.cc — the enum value itself is folded into digests, so
// reordering existing kinds invalidates every pinned golden trace.
enum class Ev : uint16_t {
  // ksim::Network — adversarial base layer. a = destination host,
  // b = payload/reply bytes.
  kNetCall = 0,   // request entered the network
  kNetDeliver,    // a bound handler produced a reply
  kNetNoRoute,    // no service bound at the destination
  kNetDatagram,   // one-way datagram entered the network

  // ksim::FaultyNetwork — fault overlay. a = destination host except where
  // noted.
  kNetDropRequest,
  kNetDropReply,
  kNetDuplicate,       // same wire bytes delivered twice back to back
  kNetReorder,         // stale copy held for later redelivery
  kNetRedeliver,       // held copy surfaced out of order
  kNetCorruptRequest,  // a = host, b = bit flips
  kNetCorruptReply,    // a = host, b = bit flips
  kNetBlackout,        // call refused: host scripted dark
  kNetStall,           // a = host, b = extra delay (µs)
  kNetDatagramDrop,
  // Duplicate-reply comparison — the double-issue detector. A kNetDupDiverge
  // at a KDC host means a duplicated request was answered with different
  // bytes: a double-issued ticket.
  kNetDupMatch,
  kNetDupDiverge,
  kNetDupReject,

  // ksim::Exchanger — client retry/backoff/failover. a = endpoint host
  // except where noted.
  kXchgAttempt,   // a = endpoint host, b = attempt index
  kXchgFailover,  // attempt went to a non-primary endpoint
  kXchgRetry,     // failed retryable attempt will be retried
  kXchgBackoff,   // a = backoff charged (µs)
  kXchgSuccess,
  kXchgTerminal,  // a = error code: server verdict, returned immediately
  kXchgExhausted,

  // KdcCore4 / KdcCore5 — serving verdicts. Request: a = source host,
  // b = request bytes. Issue: a = exchange (0 AS, 1 TGS), b = reply bytes.
  // Deny: a = exchange, b = error code.
  kKdcAsRequest,
  kKdcTgsRequest,
  kKdcIssue,
  kKdcDeny,
  // Per-context caches (counter-only: hit patterns depend on how requests
  // are spread over worker contexts).
  kKdcReplyCacheHit,
  kKdcReplyCacheStore,
  kKdcKeyCacheHit,
  kKdcKeyCacheMiss,
  kKdcUnsealMemoHit,
  kKdcUnsealMemoMiss,

  // ksim::ShardedReplayCache — authenticator replay verdicts. a = FNV-1a of
  // the identity, b = claimed address. Admissions are digest-stable: a tuple
  // is admitted exactly once no matter how many threads race on it.
  kCacheAdmit,
  kCacheReplay,
  kCachePrune,  // a = entries discarded (counter-only)

  // krb4 / krb5 seal paths (counter-only: memoisation elides repeat
  // unseals per context). a = bytes, b = mode (0 for V4 PCBC, checksum
  // type for the V5 encryption layer).
  kSeal,
  kUnsealOk,
  kUnsealFail,

  // kstore (src/store) — durable KDC database and propagation. The
  // digest-stable kinds describe the logical history and the wire protocol
  // (WAL appends carry LSNs; prop frames are network-visible); device-level
  // byte traffic, local snapshot/compaction timing, and crash/recovery
  // mechanics are storage-engine artifacts and stay counter-only.
  kStoreAppend,    // a = lsn, b = record bytes (digest-stable)
  kStoreSnapshot,  // a = snapshot version lsn, b = snapshot bytes
  kStoreRecover,   // a = recovered last lsn, b = WAL records replayed
  kStoreCrash,     // a = files affected, b = volatile bytes lost
  kStoreDevWrite,  // a = bytes written to the simulated device
  kStoreDevFlush,  // a = bytes made durable
  kPropShip,       // a = slave host, b = frame bytes (digest-stable)
  kPropApply,      // a = to_lsn, b = records applied (digest-stable)
  kPropStale,      // a = offered to_lsn, b = applied lsn (digest-stable)
  kPropReject,     // a = error code, b = offered from_lsn (digest-stable)
  kPropWholesale,  // a = snapshot lsn, b = entries loaded (digest-stable)

  // kadmin (src/admin) — admin-plane verdicts and the kvno lifecycle.
  // Verdicts and rotations are protocol-visible (digest-stable); cached-ack
  // service and old-key unseal fallbacks depend on retransmit timing and
  // per-context memo state, so they stay counter-only.
  kAdminRequest,      // a = source host, b = request bytes (digest-stable)
  kAdminApply,        // a = op, b = resulting kvno (digest-stable)
  kAdminDeny,         // a = op (0 before decode), b = error code (digest-stable)
  kAdminReplayServe,  // a = source host, b = 0 reply-cache / 1 ack-cache (counter-only)
  kKvnoRotate,        // a = FNV-1a of the principal, b = new kvno (digest-stable)
  kKvnoOldKeyAccept,  // a = accepted kvno (0 at app servers), b = ring index (counter-only)

  // kcluster (src/cluster) — clustered serving. Referrals and membership
  // transitions are protocol-visible and deterministic (digest-stable);
  // per-op routing decisions and latency samples depend on client cache
  // warmth and routing-table state, so they stay counter-only.
  kClusterRoute,      // a = owning node id, b = 0 AS / 1 TGS (counter-only)
  kClusterReferral,   // a = referring node id, b = owning node id (digest-stable)
  kClusterRebalance,  // a = ring epoch, b = entries shipped (digest-stable)
  kClusterNodeDown,   // a = node id, b = ring epoch after removal (digest-stable)
  kClusterNodeUp,     // a = node id, b = ring epoch after rejoin (digest-stable)
  kClusterOp,         // a = op latency (µs), b = 0 login / 1 TGS (counter-only)

  kCount
};

constexpr size_t kEvCount = static_cast<size_t>(Ev::kCount);

const char* EvName(Ev kind);

// True for kinds folded into the trace digest; false for counter-only
// kinds. See the header comment for the classification rule.
bool DigestStable(Ev kind);

// Well-known source ids. One id per subsystem, not per instance — the
// event's `a` argument carries the host where instance identity matters,
// and a stable small id space keeps merged ordering meaningful.
enum Source : uint32_t {
  kSrcNet = 1,
  kSrcFaults = 2,
  kSrcXchg = 3,
  kSrcReplay = 4,
  kSrcKdc4 = 5,
  kSrcKdc5 = 6,
  kSrcSeal4 = 7,
  kSrcSeal5 = 8,
  kSrcStore = 9,
  kSrcProp = 10,
  kSrcAdmin = 11,
  kSrcApp4 = 12,
  kSrcCluster = 13,
};

const char* SourceName(uint32_t source);

struct Event {
  int64_t t = 0;  // virtual microseconds — SimClock/HostClock, never wall time
  uint32_t source = 0;
  Ev kind = Ev::kCount;
  uint64_t a = 0;
  uint64_t b = 0;
};

// One tracing session. Install() makes it the process-wide active trace;
// emits land in per-thread buffers owned by the trace. The read-side
// accessors (events, digest, counters, ndjson) merge the buffers into one
// deterministically ordered stream; call them only after emitting threads
// have been joined — they are meant for the single-threaded phase after a
// run, mirroring how FaultyNetwork's schedule_digest is read.
class Trace {
 public:
  Trace();
  ~Trace();  // uninstalls itself if still active
  Trace(const Trace&) = delete;
  Trace& operator=(const Trace&) = delete;

  void Install();
  void Uninstall();

  // Merged event stream, sorted by (t, source, kind, a, b). The full-tuple
  // order makes the stream — and everything derived from it — independent
  // of thread interleaving: equal events are interchangeable.
  const std::vector<Event>& events();

  // FNV-1a over the digest-stable events of the merged stream. Equal
  // digests mean behaviourally identical runs.
  uint64_t digest();

  // Aggregated counters over ALL events (both digest classes).
  uint64_t Count(Ev kind);
  uint64_t CountA(Ev kind, uint64_t a);  // restricted to events with a == a
  uint64_t SumA(Ev kind);                // sum of `a` (bytes, durations, ...)

  // Power-of-two histogram of `a` for one kind: bucket i counts events with
  // a in [2^(i-1), 2^i), bucket 0 counts a == 0.
  static constexpr size_t kHistBuckets = 65;
  std::vector<uint64_t> HistogramA(Ev kind);

  // One JSON object per line: every event, then per-kind counter and
  // histogram summaries, then a trailer with the digest.
  void WriteNdjson(std::ostream& os);
  bool WriteNdjsonFile(const std::string& path);

  // Discards all recorded events (buffers stay registered). For long
  // timing loops that would otherwise accumulate without bound.
  void Clear();

  // Emission plumbing — call through kobs::Emit / kobs::EmitNow.
  struct Buffer;  // per-thread event buffer, defined in kobs.cc
  void Record(uint32_t source, Ev kind, int64_t t, uint64_t a, uint64_t b);
  int64_t BoundClockNow() const {
    const ksim::SimClock* clock = clock_.load(std::memory_order_acquire);
    return clock != nullptr ? clock->Now() : 0;
  }

 private:
  friend void BindClock(const ksim::SimClock* clock);
  friend void UnbindClock(const ksim::SimClock* clock);

  void Merge();

  const uint64_t generation_;  // globally unique per Trace instance
  std::atomic<const ksim::SimClock*> clock_{nullptr};

  std::mutex mu_;
  std::vector<std::unique_ptr<Buffer>> buffers_;
  std::vector<Event> merged_;
};

// The active trace. Null (the default) disables every emit site.
extern std::atomic<Trace*> g_active_trace;

inline Trace* ActiveTrace() { return g_active_trace.load(std::memory_order_acquire); }
inline bool Enabled() { return ActiveTrace() != nullptr; }

// The hot-path guard: when no trace is installed this is a load and a
// branch. Callers that must compute arguments (clock reads, sizes) should
// guard the whole block with Enabled() first.
inline void Emit(uint32_t source, Ev kind, int64_t t, uint64_t a = 0, uint64_t b = 0) {
  Trace* trace = ActiveTrace();
  if (trace == nullptr) {
    return;
  }
  trace->Record(source, kind, t, a, b);
}

// Emit stamped with the trace's bound clock (0 when none is bound). For
// emit sites below the simulation layer — the seal paths — that have no
// clock of their own.
void EmitNow(uint32_t source, Ev kind, uint64_t a = 0, uint64_t b = 0);

// Clock binding: a World registers its SimClock with the active trace on
// construction (first binder wins) and clears it on destruction, so traces
// installed around a whole experiment stamp clockless emit sites with real
// virtual time. No-ops when no trace is active.
void BindClock(const ksim::SimClock* clock);
void UnbindClock(const ksim::SimClock* clock);

// FNV-1a of a string — the spelling used for identity arguments (replay
// cache identities) so events never carry raw principal names.
uint64_t FnvOf(const std::string& s);

// RAII install/uninstall for the common test shape:
//   kobs::ScopedTrace trace;
//   RunExperiment(...);
//   EXPECT_EQ(trace->digest(), kGolden);
class ScopedTrace {
 public:
  ScopedTrace() { trace_.Install(); }
  ~ScopedTrace() { trace_.Uninstall(); }
  ScopedTrace(const ScopedTrace&) = delete;
  ScopedTrace& operator=(const ScopedTrace&) = delete;

  Trace& trace() { return trace_; }
  Trace* operator->() { return &trace_; }

 private:
  Trace trace_;
};

}  // namespace kobs

#endif  // SRC_OBS_KOBS_H_
