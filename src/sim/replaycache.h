// Sharded replay / last-timestamp cache.
//
// "The only known defense ... is to cache all live authenticators and
// reject duplicates" — both application servers and a preauthenticating KDC
// need this cache, and a multi-threaded server needs it without a single
// global lock. Entries are (timestamp, identity, address) tuples; a tuple
// is accepted exactly once within the liveness window, regardless of which
// thread presents it or how many threads race on the same tuple.
//
// Sharding: the identity string hashes to one of 16 shards, each with its
// own mutex and a flat table (kerb::FlatTable). A slot holds the tuple's
// hash, timestamp and address and where its identity bytes sit in the
// shard's byte arena; a lookup compares all of them, the identity in full,
// so a hash collision never reads as a replay. Expiry goes by the claimed
// timestamp, whatever order tuples arrive in: a min-heap of (timestamp,
// hash) names the oldest entry, and every insert first erases its shard's
// entries older than the window under the same lock, bounding each shard
// to the entries inserted within one liveness window. (An earlier revision
// pruned only when `now` changed, which grew without bound while the clock
// stood still.) The table, the heap and the arena grow with the live
// entries; nothing is preallocated.

#ifndef SRC_SIM_REPLAYCACHE_H_
#define SRC_SIM_REPLAYCACHE_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <string_view>
#include <utility>
#include <vector>

#include "src/common/flat_table.h"
#include "src/sim/clock.h"

namespace ksim {

class ShardedReplayCache {
 public:
  ShardedReplayCache();

  // Returns true when (identity, addr, timestamp) is fresh — first
  // presentation within the window — and records it. Returns false for a
  // replay. Entries older than `now - window` are discarded. Thread-safe;
  // concurrent presentations of the same tuple admit exactly one caller.
  bool CheckAndInsert(std::string_view identity, uint32_t addr, Time timestamp, Time now,
                      Duration window);

  size_t size() const;

 private:
  struct Slot {
    uint64_t hash = 0;  // of the whole tuple
    Time timestamp = 0;
    uint32_t addr = 0;
    uint32_t identity_size = 0;
    size_t identity_at = 0;  // offset in the shard's arena
  };
  // Cache-line padded: adjacent shards' mutexes must not share a line, or
  // contention on one shard shows up as coherence misses on its neighbours.
  struct alignas(64) Shard {
    mutable std::mutex mu;
    kerb::FlatTable<Slot> table;
    std::vector<char> arena;  // identity bytes; erased ones stay until compaction
    size_t live_bytes = 0;
    std::vector<std::pair<Time, uint64_t>> expiry;  // min-heap of (timestamp, hash)

    // Erases every entry with timestamp < cutoff; returns how many.
    uint64_t Expire(Time cutoff);
    // Records the tuple unless present; false when it was.
    bool Insert(uint64_t hash, std::string_view identity, uint32_t addr, Time timestamp);
  };

  static constexpr size_t kShardCount = 16;

  std::unique_ptr<Shard[]> shards_;
};

}  // namespace ksim

#endif  // SRC_SIM_REPLAYCACHE_H_
