#include "src/sim/replaycache.h"

#include <iterator>

#include "src/obs/kobs.h"

namespace ksim {

ShardedReplayCache::ShardedReplayCache() : shards_(new Shard[kShardCount]) {}

size_t ShardedReplayCache::ShardIndex(const std::string& identity) {
  uint64_t h = 0xcbf29ce484222325ull;  // FNV-1a
  for (unsigned char c : identity) {
    h ^= c;
    h *= 0x100000001b3ull;
  }
  return (h >> 60) & (kShardCount - 1);
}

bool ShardedReplayCache::CheckAndInsert(const std::string& identity, uint32_t addr,
                                        Time timestamp, Time now, Duration window) {
  Shard& shard = shards_[ShardIndex(identity)];
  std::lock_guard lock(shard.mu);
  // Stale entries sort before (cutoff, "", 0); erase the prefix. Upstream
  // freshness checks reject out-of-window timestamps before they reach this
  // cache, so discarding them here never readmits a live replay.
  const Time cutoff = now - window;
  auto stale_end = shard.entries.lower_bound(Entry{cutoff, std::string(), 0});
  if (kobs::Enabled() && stale_end != shard.entries.begin()) {
    kobs::Emit(kobs::kSrcReplay, kobs::Ev::kCachePrune, now,
               static_cast<uint64_t>(std::distance(shard.entries.begin(), stale_end)));
  }
  shard.entries.erase(shard.entries.begin(), stale_end);
  bool admitted = shard.entries.emplace(timestamp, identity, addr).second;
  if (kobs::Enabled()) {
    kobs::Emit(kobs::kSrcReplay,
               admitted ? kobs::Ev::kCacheAdmit : kobs::Ev::kCacheReplay, now,
               kobs::FnvOf(identity), addr);
  }
  return admitted;
}

size_t ShardedReplayCache::size() const {
  size_t total = 0;
  for (size_t s = 0; s < kShardCount; ++s) {
    std::lock_guard lock(shards_[s].mu);
    total += shards_[s].entries.size();
  }
  return total;
}

}  // namespace ksim
