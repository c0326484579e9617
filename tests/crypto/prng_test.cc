#include "src/crypto/prng.h"

#include <gtest/gtest.h>

#include <set>

namespace kcrypto {
namespace {

TEST(PrngTest, Deterministic) {
  Prng a(123), b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.NextU64(), b.NextU64());
  }
}

TEST(PrngTest, DifferentSeedsDiffer) {
  Prng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.NextU64() == b.NextU64()) {
      ++same;
    }
  }
  EXPECT_EQ(same, 0);
}

TEST(PrngTest, NextBelowInRange) {
  Prng prng(5);
  for (uint64_t bound : {1ull, 2ull, 7ull, 100ull, 1ull << 40}) {
    for (int i = 0; i < 100; ++i) {
      EXPECT_LT(prng.NextBelow(bound), bound);
    }
  }
}

TEST(PrngTest, NextBelowCoversRange) {
  Prng prng(6);
  std::set<uint64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    seen.insert(prng.NextBelow(10));
  }
  EXPECT_EQ(seen.size(), 10u);
}

TEST(PrngTest, NextBytesLengthAndDeterminism) {
  Prng a(7), b(7);
  for (size_t n : {0ul, 1ul, 7ul, 8ul, 9ul, 100ul}) {
    EXPECT_EQ(a.NextBytes(n).size(), n);
  }
  Prng c(8), d(8);
  EXPECT_EQ(c.NextBytes(37), d.NextBytes(37));
}

TEST(PrngTest, DesKeysValidAndDistinct) {
  Prng prng(9);
  std::set<uint64_t> keys;
  for (int i = 0; i < 200; ++i) {
    DesKey key = prng.NextDesKey();
    EXPECT_TRUE(HasOddParity(key.bytes()));
    EXPECT_FALSE(IsWeakKey(key.bytes()));
    keys.insert(key.AsU64());
  }
  EXPECT_EQ(keys.size(), 200u);
}

TEST(PrngTest, ForkIndependentStreams) {
  Prng parent(10);
  Prng child = parent.Fork();
  // Parent and child should not produce the same stream.
  int same = 0;
  for (int i = 0; i < 50; ++i) {
    if (parent.NextU64() == child.NextU64()) {
      ++same;
    }
  }
  EXPECT_EQ(same, 0);
}

// The unscheduled draw is the same draw: a generator handing out key bytes
// stays in step with one handing out scheduled keys.
TEST(PrngTest, NextDesKeyBytesMatchesNextDesKey) {
  Prng bytes_side(77), key_side(77);
  for (int i = 0; i < 1000; ++i) {
    ASSERT_EQ(bytes_side.NextDesKeyBytes(), key_side.NextDesKey().bytes()) << "draw " << i;
  }
  EXPECT_EQ(bytes_side.NextU64(), key_side.NextU64());
}

}  // namespace
}  // namespace kcrypto
