#include "src/obs/kobs.h"

#include <algorithm>
#include <array>
#include <cstdio>
#include <fstream>
#include <ostream>

namespace kobs {

std::atomic<Trace*> g_active_trace{nullptr};

namespace {

// Globally monotonic trace ids, so a thread's cached buffer pointer can
// never be mistaken for one belonging to a new Trace allocated at the same
// address.
std::atomic<uint64_t> g_trace_generation{0};

constexpr uint64_t kFnvOffset = 0xcbf29ce484222325ull;
constexpr uint64_t kFnvPrime = 0x100000001b3ull;

uint64_t FoldU64(uint64_t digest, uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    digest ^= (v >> (8 * i)) & 0xff;
    digest *= kFnvPrime;
  }
  return digest;
}

struct EvInfo {
  const char* name;
  bool digest_stable;
};

constexpr std::array<EvInfo, kEvCount> kEvTable = {{
    {"net_call", true},
    {"net_deliver", true},
    {"net_no_route", true},
    {"net_datagram", true},
    {"net_drop_request", true},
    {"net_drop_reply", true},
    {"net_duplicate", true},
    {"net_reorder", true},
    {"net_redeliver", true},
    {"net_corrupt_request", true},
    {"net_corrupt_reply", true},
    {"net_blackout", true},
    {"net_stall", true},
    {"net_datagram_drop", true},
    {"net_dup_match", true},
    {"net_dup_diverge", true},
    {"net_dup_reject", true},
    {"xchg_attempt", true},
    {"xchg_failover", true},
    {"xchg_retry", true},
    {"xchg_backoff", true},
    {"xchg_success", true},
    {"xchg_terminal", true},
    {"xchg_exhausted", true},
    {"kdc_as_request", true},
    {"kdc_tgs_request", true},
    {"kdc_issue", true},
    {"kdc_deny", true},
    {"kdc_reply_cache_hit", false},
    {"kdc_reply_cache_store", false},
    {"kdc_key_cache_hit", false},
    {"kdc_key_cache_miss", false},
    {"kdc_unseal_memo_hit", false},
    {"kdc_unseal_memo_miss", false},
    {"cache_admit", true},
    {"cache_replay", true},
    {"cache_prune", false},
    {"seal", false},
    {"unseal_ok", false},
    {"unseal_fail", false},
    {"store_append", true},
    {"store_snapshot", false},
    {"store_recover", false},
    {"store_crash", false},
    {"store_dev_write", false},
    {"store_dev_flush", false},
    {"prop_ship", true},
    {"prop_apply", true},
    {"prop_stale", true},
    {"prop_reject", true},
    {"prop_wholesale", true},
    {"admin_request", true},
    {"admin_apply", true},
    {"admin_deny", true},
    {"admin_replay_serve", false},
    {"kvno_rotate", true},
    {"kvno_old_key_accept", false},
    {"cluster_route", false},
    {"cluster_referral", true},
    {"cluster_rebalance", true},
    {"cluster_node_down", true},
    {"cluster_node_up", true},
    {"cluster_op", false},
}};

const EvInfo& InfoFor(Ev kind) { return kEvTable[static_cast<size_t>(kind)]; }

bool EventBefore(const Event& x, const Event& y) {
  if (x.t != y.t) return x.t < y.t;
  if (x.source != y.source) return x.source < y.source;
  if (x.kind != y.kind) return x.kind < y.kind;
  if (x.a != y.a) return x.a < y.a;
  return x.b < y.b;
}

// Per-thread buffer binding. A thread re-resolves its buffer whenever the
// active trace's generation differs from the one it last registered with.
thread_local uint64_t tl_generation = 0;

}  // namespace

const char* EvName(Ev kind) {
  return kind < Ev::kCount ? InfoFor(kind).name : "invalid";
}

bool DigestStable(Ev kind) {
  return kind < Ev::kCount && InfoFor(kind).digest_stable;
}

const char* SourceName(uint32_t source) {
  switch (source) {
    case kSrcNet:
      return "net";
    case kSrcFaults:
      return "faults";
    case kSrcXchg:
      return "xchg";
    case kSrcReplay:
      return "replay";
    case kSrcKdc4:
      return "kdc4";
    case kSrcKdc5:
      return "kdc5";
    case kSrcSeal4:
      return "seal4";
    case kSrcSeal5:
      return "seal5";
    case kSrcStore:
      return "store";
    case kSrcProp:
      return "prop";
    case kSrcAdmin:
      return "admin";
    case kSrcApp4:
      return "app4";
    case kSrcCluster:
      return "cluster";
    default:
      return "other";
  }
}

uint64_t FnvOf(const std::string& s) {
  uint64_t h = kFnvOffset;
  for (unsigned char c : s) {
    h ^= c;
    h *= kFnvPrime;
  }
  return h;
}

struct Trace::Buffer {
  std::vector<Event> events;
};

namespace {
thread_local Trace::Buffer* tl_buffer = nullptr;
}  // namespace

Trace::Trace() : generation_(g_trace_generation.fetch_add(1, std::memory_order_relaxed) + 1) {}

Trace::~Trace() { Uninstall(); }

void Trace::Install() { g_active_trace.store(this, std::memory_order_release); }

void Trace::Uninstall() {
  Trace* expected = this;
  g_active_trace.compare_exchange_strong(expected, nullptr, std::memory_order_acq_rel);
}

void Trace::Record(uint32_t source, Ev kind, int64_t t, uint64_t a, uint64_t b) {
  if (tl_generation != generation_) {
    std::lock_guard lock(mu_);
    buffers_.push_back(std::make_unique<Buffer>());
    tl_buffer = buffers_.back().get();
    tl_generation = generation_;
  }
  tl_buffer->events.push_back(Event{t, source, kind, a, b});
}

void Trace::Merge() {
  std::lock_guard lock(mu_);
  for (auto& buffer : buffers_) {
    merged_.insert(merged_.end(), buffer->events.begin(), buffer->events.end());
    buffer->events.clear();
  }
  // Full-tuple order: equal events are interchangeable, so the sorted
  // stream is a pure function of the emitted multiset — independent of
  // thread count and interleaving.
  std::sort(merged_.begin(), merged_.end(), EventBefore);
}

const std::vector<Event>& Trace::events() {
  Merge();
  return merged_;
}

uint64_t Trace::digest() {
  Merge();
  uint64_t digest = kFnvOffset;
  for (const Event& e : merged_) {
    if (!DigestStable(e.kind)) {
      continue;
    }
    digest = FoldU64(digest, static_cast<uint64_t>(e.t));
    digest = FoldU64(digest, e.source);
    digest = FoldU64(digest, static_cast<uint64_t>(e.kind));
    digest = FoldU64(digest, e.a);
    digest = FoldU64(digest, e.b);
  }
  return digest;
}

uint64_t Trace::Count(Ev kind) {
  Merge();
  uint64_t n = 0;
  for (const Event& e : merged_) {
    n += e.kind == kind ? 1 : 0;
  }
  return n;
}

uint64_t Trace::CountA(Ev kind, uint64_t a) {
  Merge();
  uint64_t n = 0;
  for (const Event& e : merged_) {
    n += (e.kind == kind && e.a == a) ? 1 : 0;
  }
  return n;
}

uint64_t Trace::SumA(Ev kind) {
  Merge();
  uint64_t sum = 0;
  for (const Event& e : merged_) {
    sum += e.kind == kind ? e.a : 0;
  }
  return sum;
}

std::vector<uint64_t> Trace::HistogramA(Ev kind) {
  Merge();
  std::vector<uint64_t> buckets(kHistBuckets, 0);
  for (const Event& e : merged_) {
    if (e.kind != kind) {
      continue;
    }
    size_t bucket = 0;
    for (uint64_t v = e.a; v != 0; v >>= 1) {
      ++bucket;
    }
    ++buckets[bucket];
  }
  return buckets;
}

void Trace::WriteNdjson(std::ostream& os) {
  Merge();
  char line[192];
  for (const Event& e : merged_) {
    std::snprintf(line, sizeof(line),
                  "{\"t\":%lld,\"src\":\"%s\",\"ev\":\"%s\",\"a\":%llu,\"b\":%llu}\n",
                  static_cast<long long>(e.t), SourceName(e.source), EvName(e.kind),
                  static_cast<unsigned long long>(e.a), static_cast<unsigned long long>(e.b));
    os << line;
  }
  for (size_t k = 0; k < kEvCount; ++k) {
    Ev kind = static_cast<Ev>(k);
    uint64_t count = Count(kind);
    if (count == 0) {
      continue;
    }
    std::snprintf(line, sizeof(line),
                  "{\"counter\":\"%s\",\"count\":%llu,\"sum_a\":%llu,\"digest_stable\":%s}\n",
                  EvName(kind), static_cast<unsigned long long>(count),
                  static_cast<unsigned long long>(SumA(kind)),
                  DigestStable(kind) ? "true" : "false");
    os << line;
    std::vector<uint64_t> buckets = HistogramA(kind);
    size_t last = 0;
    for (size_t i = 0; i < buckets.size(); ++i) {
      if (buckets[i] != 0) {
        last = i;
      }
    }
    std::string hist = "{\"histogram\":\"";
    hist += EvName(kind);
    hist += "\",\"log2_a\":[";
    for (size_t i = 0; i <= last; ++i) {
      if (i != 0) {
        hist += ',';
      }
      hist += std::to_string(buckets[i]);
    }
    hist += "]}\n";
    os << hist;
  }
  std::snprintf(line, sizeof(line), "{\"trace\":{\"events\":%llu,\"digest\":\"%016llx\"}}\n",
                static_cast<unsigned long long>(merged_.size()),
                static_cast<unsigned long long>(digest()));
  os << line;
}

bool Trace::WriteNdjsonFile(const std::string& path) {
  std::ofstream os(path);
  if (!os) {
    return false;
  }
  WriteNdjson(os);
  return static_cast<bool>(os);
}

void Trace::Clear() {
  std::lock_guard lock(mu_);
  for (auto& buffer : buffers_) {
    buffer->events.clear();
  }
  merged_.clear();
}

void EmitNow(uint32_t source, Ev kind, uint64_t a, uint64_t b) {
  Trace* trace = ActiveTrace();
  if (trace == nullptr) {
    return;
  }
  trace->Record(source, kind, trace->BoundClockNow(), a, b);
}

void BindClock(const ksim::SimClock* clock) {
  Trace* trace = ActiveTrace();
  if (trace == nullptr) {
    return;
  }
  const ksim::SimClock* expected = nullptr;
  trace->clock_.compare_exchange_strong(expected, clock, std::memory_order_acq_rel);
}

void UnbindClock(const ksim::SimClock* clock) {
  Trace* trace = ActiveTrace();
  if (trace == nullptr) {
    return;
  }
  const ksim::SimClock* expected = clock;
  trace->clock_.compare_exchange_strong(expected, nullptr, std::memory_order_acq_rel);
}

}  // namespace kobs
