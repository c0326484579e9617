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
// own mutex and ordered set. Entries order by timestamp first, so expiry is
// a prefix erase: every insert prunes its own shard's stale prefix under
// the same lock, bounding each shard to the entries inserted within one
// liveness window. (An earlier revision pruned only when `now` changed,
// which grew without bound while the clock stood still.)

#ifndef SRC_SIM_REPLAYCACHE_H_
#define SRC_SIM_REPLAYCACHE_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <tuple>

#include "src/sim/clock.h"

namespace ksim {

class ShardedReplayCache {
 public:
  ShardedReplayCache();

  // Returns true when (identity, addr, timestamp) is fresh — first
  // presentation within the window — and records it. Returns false for a
  // replay. Entries older than `now - window` are discarded. Thread-safe;
  // concurrent presentations of the same tuple admit exactly one caller.
  bool CheckAndInsert(const std::string& identity, uint32_t addr, Time timestamp, Time now,
                      Duration window);

  size_t size() const;

 private:
  // Timestamp leads so a shard's stale entries form a contiguous prefix.
  using Entry = std::tuple<Time, std::string, uint32_t>;
  // Cache-line padded: adjacent shards' mutexes must not share a line, or
  // contention on one shard shows up as coherence misses on its neighbours.
  struct alignas(64) Shard {
    mutable std::mutex mu;
    std::set<Entry> entries;
  };

  static constexpr size_t kShardCount = 16;
  static size_t ShardIndex(const std::string& identity);

  std::unique_ptr<Shard[]> shards_;
};

}  // namespace ksim

#endif  // SRC_SIM_REPLAYCACHE_H_
