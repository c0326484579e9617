// Consistent-hash ring properties: determinism, balance, and the minimal-
// movement guarantee a rebalance leans on.

#include <algorithm>
#include <cstdint>
#include <map>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/cluster/ring.h"
#include "src/crypto/prng.h"

namespace {

using kcluster::HashRing;
using kcluster::RingConfig;
using kcluster::RingMember;

std::vector<RingMember> Members(int n) {
  std::vector<RingMember> members;
  for (int i = 0; i < n; ++i) {
    members.push_back({static_cast<uint64_t>(i + 1), 0x0a000010u + static_cast<uint32_t>(i)});
  }
  return members;
}

TEST(RingTest, EmptyRingOwnsNothing) {
  HashRing ring;
  EXPECT_TRUE(ring.empty());
  EXPECT_EQ(ring.OwnerOf(12345), nullptr);
}

TEST(RingTest, OwnershipIsDeterministicAcrossIndependentRings) {
  HashRing a((RingConfig()));
  HashRing b((RingConfig()));
  a.SetMembers(1, Members(5));
  b.SetMembers(7, Members(5));  // epoch does not affect placement
  kcrypto::Prng prng(42);
  for (int i = 0; i < 10000; ++i) {
    const uint64_t h = prng.NextU64();
    ASSERT_EQ(a.OwnerOf(h)->node_id, b.OwnerOf(h)->node_id);
  }
}

TEST(RingTest, PointPlacementIsPureInSeedNodeAndVnode) {
  EXPECT_EQ(HashRing::PointOf(1, 2, 3), HashRing::PointOf(1, 2, 3));
  EXPECT_NE(HashRing::PointOf(1, 2, 3), HashRing::PointOf(1, 2, 4));
  EXPECT_NE(HashRing::PointOf(1, 2, 3), HashRing::PointOf(1, 3, 3));
  EXPECT_NE(HashRing::PointOf(2, 2, 3), HashRing::PointOf(1, 2, 3));
}

// Coordinates computed by the original one-pass FNV over the whole
// (seed, node_id, vnode) tuple; ownership on every host depends on them.
TEST(RingTest, PointPlacementIsPinned) {
  struct Case {
    uint64_t seed;
    uint64_t node_id;
    uint32_t vnode;
    uint64_t point;
  };
  const Case cases[] = {
      {0x0ull, 0x0ull, 0u, 0x6d688654e9834407ull},
      {0x1ull, 0x2ull, 3u, 0xb0320c21b46a9760ull},
      {0x6b636c7573746572ull, 0x1ull, 0u, 0x5c74b1b60f0d94dfull},
      {0x6b636c7573746572ull, 0x4ull, 63u, 0x543fde8aebe6bff2ull},
      {0xffffffffffffffffull, 0x123456789abcdefull, 4294967295u, 0x186c93bfdda3a632ull},
  };
  for (const Case& c : cases) {
    EXPECT_EQ(HashRing::PointOf(c.seed, c.node_id, c.vnode), c.point)
        << "seed " << c.seed << ", node " << c.node_id << ", vnode " << c.vnode;
  }
}

// SetMembers places each member's points where PointOf puts them: with the
// expected points sorted, every key in (previous point, point] belongs to
// the point's member, the wrap-around range included.
TEST(RingTest, BuiltPointsMatchPointOf) {
  kcrypto::Prng prng(0x71ed);
  for (int round = 0; round < 50; ++round) {
    RingConfig config;
    config.seed = prng.NextU64();
    config.vnodes = 1 + static_cast<uint32_t>(prng.NextBelow(64));
    std::vector<RingMember> members;
    const int n = 1 + static_cast<int>(prng.NextBelow(8));
    for (int i = 0; i < n; ++i) {
      members.push_back({prng.NextU64(), static_cast<uint32_t>(prng.NextU64())});
    }
    HashRing ring(config);
    ring.SetMembers(1, members);

    std::vector<std::pair<uint64_t, size_t>> expected;  // (point, member index)
    for (size_t m = 0; m < members.size(); ++m) {
      for (uint32_t v = 0; v < config.vnodes; ++v) {
        expected.emplace_back(HashRing::PointOf(config.seed, members[m].node_id, v), m);
      }
    }
    std::sort(expected.begin(), expected.end());
    for (size_t i = 0; i < expected.size(); ++i) {
      const auto& [point, member] = expected[i];
      const uint64_t range_start = (i == 0 ? expected.back() : expected[i - 1]).first + 1;
      ASSERT_EQ(ring.OwnerOf(point), &ring.members()[member])
          << "round " << round << ", point " << i;
      ASSERT_EQ(ring.OwnerOf(range_start), &ring.members()[member])
          << "round " << round << ", range before point " << i;
    }
  }
}

TEST(RingTest, VirtualNodesKeepThePartitionBalanced) {
  HashRing ring((RingConfig()));  // 64 vnodes
  ring.SetMembers(1, Members(4));
  std::map<uint64_t, int> counts;
  kcrypto::Prng prng(7);
  constexpr int kSamples = 100000;
  for (int i = 0; i < kSamples; ++i) {
    counts[ring.OwnerOf(prng.NextU64())->node_id]++;
  }
  ASSERT_EQ(counts.size(), 4u);
  for (const auto& [id, count] : counts) {
    // Expected 25%; 64 vnodes keep the spread comfortably inside [12%, 42%].
    EXPECT_GT(count, kSamples * 12 / 100) << "node " << id;
    EXPECT_LT(count, kSamples * 42 / 100) << "node " << id;
  }
}

TEST(RingTest, RemovingOneMemberMovesOnlyItsKeys) {
  HashRing before((RingConfig()));
  before.SetMembers(1, Members(5));
  HashRing after((RingConfig()));
  std::vector<RingMember> survivors = Members(5);
  const uint64_t removed = survivors.back().node_id;
  survivors.pop_back();
  after.SetMembers(2, survivors);

  kcrypto::Prng prng(99);
  int moved = 0;
  int total = 20000;
  for (int i = 0; i < total; ++i) {
    const uint64_t h = prng.NextU64();
    const uint64_t owner_before = before.OwnerOf(h)->node_id;
    const uint64_t owner_after = after.OwnerOf(h)->node_id;
    if (owner_before != removed) {
      // The consistency property: survivors keep every key they had.
      ASSERT_EQ(owner_before, owner_after);
    } else {
      ++moved;
      ASSERT_NE(owner_after, removed);
    }
  }
  // Roughly a fifth of the space belonged to the removed node.
  EXPECT_GT(moved, total / 10);
  EXPECT_LT(moved, total * 4 / 10);
}

TEST(RingTest, AddingAMemberOnlyStealsKeys) {
  HashRing before((RingConfig()));
  before.SetMembers(1, Members(4));
  HashRing after((RingConfig()));
  after.SetMembers(2, Members(5));
  const uint64_t added = 5;

  kcrypto::Prng prng(1234);
  for (int i = 0; i < 20000; ++i) {
    const uint64_t h = prng.NextU64();
    const uint64_t owner_before = before.OwnerOf(h)->node_id;
    const uint64_t owner_after = after.OwnerOf(h)->node_id;
    // A key either stays put or moves to the new member — never between
    // two old members.
    if (owner_after != owner_before) {
      ASSERT_EQ(owner_after, added);
    }
  }
}

TEST(RingTest, FindMemberLocatesByIdOnly) {
  HashRing ring((RingConfig()));
  ring.SetMembers(1, Members(3));
  ASSERT_NE(ring.FindMember(2), nullptr);
  EXPECT_EQ(ring.FindMember(2)->host, 0x0a000011u);
  EXPECT_EQ(ring.FindMember(42), nullptr);
}

TEST(RingTest, PrincipalOwnershipUsesTheStoreHash) {
  HashRing ring((RingConfig()));
  ring.SetMembers(1, Members(4));
  const krb4::Principal p = krb4::Principal::User("alice", "REALM");
  ASSERT_NE(ring.OwnerOfPrincipal(p), nullptr);
  EXPECT_EQ(ring.OwnerOfPrincipal(p)->node_id,
            ring.OwnerOf(krb4::PrincipalStore::Hash(p))->node_id);
}

}  // namespace
