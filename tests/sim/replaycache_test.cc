// ShardedReplayCache behaviour, including the bounded-growth guarantee:
// every insert prunes its shard's expired prefix, so the cache never holds
// more than one liveness window of entries no matter how long it runs.

#include <gtest/gtest.h>

#include <array>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "src/crypto/prng.h"
#include "src/obs/kobs.h"
#include "src/sim/replaycache.h"

namespace ksim {
namespace {

constexpr Duration kWindow = 5 * kMinute;

TEST(ShardedReplayCacheTest, AcceptsOnceRejectsReplay) {
  ShardedReplayCache cache;
  EXPECT_TRUE(cache.CheckAndInsert("alice", 1, 1000, 1000, kWindow));
  EXPECT_FALSE(cache.CheckAndInsert("alice", 1, 1000, 1000, kWindow));
  // Different identity, address, or timestamp: distinct tuples.
  EXPECT_TRUE(cache.CheckAndInsert("bob", 1, 1000, 1000, kWindow));
  EXPECT_TRUE(cache.CheckAndInsert("alice", 2, 1000, 1000, kWindow));
  EXPECT_TRUE(cache.CheckAndInsert("alice", 1, 1001, 1001, kWindow));
}

TEST(ShardedReplayCacheTest, ExpiredEntriesStopCountingAsReplays) {
  ShardedReplayCache cache;
  EXPECT_TRUE(cache.CheckAndInsert("alice", 1, 1000, 1000, kWindow));
  // Re-presenting the same tuple after the window would be caught by the
  // timestamp freshness check upstream; the cache itself only promises not
  // to remember it forever.
  EXPECT_TRUE(cache.CheckAndInsert("alice", 1, 1000, 1000 + 2 * kWindow, kWindow));
}

TEST(ShardedReplayCacheTest, SizeStaysBoundedOverALongRun) {
  // A server hammered with distinct authenticators over hours must keep
  // only one window's worth. Before prune-on-insert this grew without
  // bound whenever inserts outpaced clock observation.
  ShardedReplayCache cache;
  const Duration step = kSecond;
  size_t max_size = 0;
  for (int i = 0; i < 100000; ++i) {
    Time now = 1000000 + i * step;
    ASSERT_TRUE(cache.CheckAndInsert("user" + std::to_string(i % 64), 1, now, now, kWindow));
    max_size = std::max(max_size, cache.size());
  }
  // One entry per second, five-minute window: ~300 live entries, never the
  // 100000 inserted.
  EXPECT_LE(max_size, 400u);
  EXPECT_GE(max_size, 300u);
}

TEST(ShardedReplayCacheTest, FrozenClockStaysBoundedToTheWindow) {
  // The degenerate case the old prune-on-tick logic got wrong: the clock
  // never advances, and every entry is legitimately live — but entries
  // older than the window still get erased as time eventually moves.
  ShardedReplayCache cache;
  Time now = 1000000;
  for (int i = 0; i < 1000; ++i) {
    ASSERT_TRUE(
        cache.CheckAndInsert(std::string("u").append(std::to_string(i)), 1, now, now, kWindow));
  }
  EXPECT_EQ(cache.size(), 1000u);  // all live: nothing to evict yet
  // One tick past expiry: re-presenting each identity lands in the same
  // shard as its stale entry and sweeps it, so the total never reaches 2000.
  now += kWindow + 1;
  for (int i = 0; i < 1000; ++i) {
    ASSERT_TRUE(
        cache.CheckAndInsert(std::string("u").append(std::to_string(i)), 1, now, now, kWindow));
  }
  EXPECT_EQ(cache.size(), 1000u);
}

// The ordered-set cache this one replaced, as a model: 16 shards picked by
// the identity's FNV, each a std::set ordered by timestamp, pruned of
// entries older than the window on every insert into it.
class SetModel {
 public:
  bool CheckAndInsert(const std::string& identity, uint32_t addr, Time timestamp, Time now,
                      Duration window) {
    std::set<Entry>& shard = shards_[(kobs::FnvOf(identity) >> 60) & 15];
    auto stale_end = shard.lower_bound(Entry{now - window, std::string(), 0});
    pruned_ += static_cast<uint64_t>(std::distance(shard.begin(), stale_end));
    shard.erase(shard.begin(), stale_end);
    return shard.emplace(timestamp, identity, addr).second;
  }

  size_t size() const {
    size_t total = 0;
    for (const auto& shard : shards_) {
      total += shard.size();
    }
    return total;
  }
  uint64_t pruned() const { return pruned_; }

 private:
  using Entry = std::tuple<Time, std::string, uint32_t>;
  std::array<std::set<Entry>, 16> shards_;
  uint64_t pruned_ = 0;
};

// Randomized traffic against the model: claimed timestamps out of order
// (skewed either way, some already past the cutoff and some exactly on
// it), verbatim duplicates of earlier tuples, a clock that stands still
// for long stretches and then jumps, and identities that differ only in a
// late byte. Every verdict, the size after every call, and the total the
// kCachePrune events report must match the model.
TEST(ShardedReplayCacheTest, MatchesAnOrderedSetModel) {
  constexpr Duration kShort = 40 * kSecond;
  kobs::ScopedTrace trace;
  ShardedReplayCache cache;
  SetModel model;
  kcrypto::Prng prng(0x2e91a7);
  std::vector<std::tuple<std::string, uint32_t, Time>> presented;
  Time now = 1000000;
  size_t max_size = 0;
  for (int i = 0; i < 40000; ++i) {
    const uint64_t step = prng.NextBelow(100);
    if (step < 60) {
      // the clock stands still
    } else if (step < 98) {
      now += static_cast<Time>(prng.NextBelow(2 * kSecond));
    } else {
      now += static_cast<Time>(prng.NextBelow(3 * kShort));
    }
    std::string identity;
    uint32_t addr = 0;
    Time timestamp = 0;
    const uint64_t shape = prng.NextBelow(100);
    if (shape < 25 && !presented.empty()) {
      std::tie(identity, addr, timestamp) = presented[prng.NextBelow(presented.size())];
    } else {
      identity = "client-" + std::to_string(prng.NextBelow(48)) + "@R";
      addr = static_cast<uint32_t>(prng.NextBelow(3));
      if (shape < 35) {
        timestamp = now - kShort - static_cast<Time>(prng.NextBelow(2));  // on the cutoff
      } else {
        timestamp = now - kShort - kSecond +
                    static_cast<Time>(prng.NextBelow(2 * kShort + 2 * kSecond));
      }
      presented.emplace_back(identity, addr, timestamp);
    }
    ASSERT_EQ(cache.CheckAndInsert(identity, addr, timestamp, now, kShort),
              model.CheckAndInsert(identity, addr, timestamp, now, kShort))
        << "call " << i;
    ASSERT_EQ(cache.size(), model.size()) << "call " << i;
    max_size = std::max(max_size, cache.size());
  }
  EXPECT_EQ(trace->SumA(kobs::Ev::kCachePrune), model.pruned());
  EXPECT_GT(model.pruned(), 10000u);
  EXPECT_LT(max_size, 4000u) << "the cache holds about one window of entries";
}

}  // namespace
}  // namespace ksim
