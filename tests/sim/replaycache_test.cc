// ShardedReplayCache behaviour, including the bounded-growth guarantee:
// every insert prunes its shard's expired prefix, so the cache never holds
// more than one liveness window of entries no matter how long it runs.

#include <gtest/gtest.h>

#include <string>

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

}  // namespace
}  // namespace ksim
