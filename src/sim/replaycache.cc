#include "src/sim/replaycache.h"

#include <algorithm>
#include <functional>

#include "src/obs/kobs.h"

namespace ksim {

namespace {

// FNV-1a of the identity: it picks the shard, and it is the `a` argument
// of the cache's kobs events (the hash kobs::FnvOf spells).
uint64_t IdentityFnv(std::string_view identity) {
  uint64_t h = 0xcbf29ce484222325ull;
  for (unsigned char c : identity) {
    h ^= c;
    h *= 0x100000001b3ull;
  }
  return h;
}

// The arena is compacted once its dead bytes outnumber the live ones and
// pass this floor, which keeps compaction amortized O(1) per insert.
constexpr size_t kMinDeadBytes = 4096;

}  // namespace

ShardedReplayCache::ShardedReplayCache() : shards_(new Shard[kShardCount]) {}

bool ShardedReplayCache::CheckAndInsert(std::string_view identity, uint32_t addr,
                                        Time timestamp, Time now, Duration window) {
  const uint64_t fnv = IdentityFnv(identity);
  Shard& shard = shards_[(fnv >> 60) & (kShardCount - 1)];
  std::lock_guard lock(shard.mu);
  // Upstream freshness checks reject out-of-window timestamps before they
  // reach this cache, so discarding them here never readmits a live replay.
  const uint64_t pruned = shard.Expire(now - window);
  if (kobs::Enabled() && pruned != 0) {
    kobs::Emit(kobs::kSrcReplay, kobs::Ev::kCachePrune, now, pruned);
  }
  const uint64_t hash = kerb::NonzeroHash(
      fnv ^ (static_cast<uint64_t>(timestamp) * 0x9e3779b97f4a7c15ull) ^
      (static_cast<uint64_t>(addr) << 17));
  const bool admitted = shard.Insert(hash, identity, addr, timestamp);
  if (kobs::Enabled()) {
    kobs::Emit(kobs::kSrcReplay, admitted ? kobs::Ev::kCacheAdmit : kobs::Ev::kCacheReplay, now,
               fnv, addr);
  }
  return admitted;
}

uint64_t ShardedReplayCache::Shard::Expire(Time cutoff) {
  uint64_t erased = 0;
  while (!expiry.empty() && expiry.front().first < cutoff) {
    const auto [timestamp, hash] = expiry.front();
    std::pop_heap(expiry.begin(), expiry.end(), std::greater<>());
    expiry.pop_back();
    // Every heap item has its slot. Two tuples that share a hash and a
    // timestamp expire together, so either may go first.
    Slot* slot = table.Find(hash, [ts = timestamp](const Slot& s) { return s.timestamp == ts; });
    live_bytes -= slot->identity_size;
    table.Erase(slot);
    ++erased;
  }
  return erased;
}

bool ShardedReplayCache::Shard::Insert(uint64_t hash, std::string_view identity, uint32_t addr,
                                       Time timestamp) {
  const bool present = table.Find(hash, [&](const Slot& s) {
    return s.timestamp == timestamp && s.addr == addr &&
           std::string_view(arena.data() + s.identity_at, s.identity_size) == identity;
  }) != nullptr;
  if (present) {
    return false;
  }
  const size_t dead = arena.size() - live_bytes;
  if (dead > live_bytes && dead >= kMinDeadBytes) {
    std::vector<char> packed;
    packed.reserve(2 * live_bytes);
    table.ForEach([&](Slot& s) {
      const auto from = arena.begin() + static_cast<ptrdiff_t>(s.identity_at);
      s.identity_at = packed.size();
      packed.insert(packed.end(), from, from + s.identity_size);
    });
    arena = std::move(packed);
  }
  Slot& slot = table.Insert(hash);
  slot.timestamp = timestamp;
  slot.addr = addr;
  slot.identity_size = static_cast<uint32_t>(identity.size());
  slot.identity_at = arena.size();
  arena.insert(arena.end(), identity.begin(), identity.end());
  live_bytes += identity.size();
  expiry.emplace_back(timestamp, hash);
  std::push_heap(expiry.begin(), expiry.end(), std::greater<>());
  return true;
}

size_t ShardedReplayCache::size() const {
  size_t total = 0;
  for (size_t s = 0; s < kShardCount; ++s) {
    std::lock_guard lock(shards_[s].mu);
    total += shards_[s].table.size();
  }
  return total;
}

}  // namespace ksim
