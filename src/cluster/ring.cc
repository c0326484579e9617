#include "src/cluster/ring.h"

#include <algorithm>

namespace kcluster {

namespace {

// FNV-1a over the eight little-endian bytes of `v`, continuing from `h`.
uint64_t FnvMix(uint64_t h, uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xff;
    h *= 0x100000001b3ull;
  }
  return h;
}

// The FNV state after (seed, node_id), the prefix every point of one
// member shares.
uint64_t MemberPrefix(uint64_t seed, uint64_t node_id) {
  return FnvMix(FnvMix(0xcbf29ce484222325ull, seed), node_id);
}

// Mixes in the vnode, then a SplitMix64-style finalizer: FNV alone is weak
// in its high bits, and ring ownership compares full 64-bit coordinates.
uint64_t PointAfter(uint64_t prefix, uint32_t vnode) {
  uint64_t h = FnvMix(prefix, vnode);
  h ^= h >> 30;
  h *= 0xbf58476d1ce4e5b9ull;
  h ^= h >> 27;
  h *= 0x94d049bb133111ebull;
  h ^= h >> 31;
  return h;
}

}  // namespace

uint64_t HashRing::PointOf(uint64_t seed, uint64_t node_id, uint32_t vnode) {
  // FNV-1a over the (seed, node_id, vnode) tuple, then the finalizer.
  return PointAfter(MemberPrefix(seed, node_id), vnode);
}

void HashRing::SetMembers(uint32_t epoch, std::vector<RingMember> members) {
  epoch_ = epoch;
  members_ = std::move(members);
  points_.clear();
  points_.reserve(members_.size() * config_.vnodes);
  for (uint32_t m = 0; m < members_.size(); ++m) {
    // PointOf for each vnode, the member's prefix folded once.
    const uint64_t prefix = MemberPrefix(config_.seed, members_[m].node_id);
    for (uint32_t v = 0; v < config_.vnodes; ++v) {
      points_.push_back(Point{PointAfter(prefix, v), m});
    }
  }
  // Tie-break on member index so coincident points order identically on
  // every host that builds this view.
  std::sort(points_.begin(), points_.end(), [](const Point& x, const Point& y) {
    return x.where != y.where ? x.where < y.where : x.member_index < y.member_index;
  });
}

const RingMember* HashRing::OwnerOf(uint64_t key_hash) const {
  if (points_.empty()) {
    return nullptr;
  }
  auto it = std::lower_bound(points_.begin(), points_.end(), key_hash,
                             [](const Point& p, uint64_t h) { return p.where < h; });
  if (it == points_.end()) {
    it = points_.begin();  // wrap: the ring is circular
  }
  return &members_[it->member_index];
}

const RingMember* HashRing::FindMember(uint64_t node_id) const {
  for (const RingMember& m : members_) {
    if (m.node_id == node_id) {
      return &m;
    }
  }
  return nullptr;
}

}  // namespace kcluster
