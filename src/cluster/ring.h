// Consistent-hash ring assigning principals to KDC cluster nodes.
//
// The paper treats the realm KDC as one machine plus full-copy slaves; at
// north-star scale (millions of principals) a full copy per node stops
// being the right unit of replication. This ring partitions the principal
// hash space across nodes instead: each node projects a fixed number of
// virtual points onto the 64-bit ring from a deterministic seed, and a
// principal belongs to the node owning the first point at or clockwise
// after Hash(principal). Virtual nodes smooth the partition (expected
// imbalance shrinks as 1/sqrt(vnodes)), and consistency is the membership
// property the recovery protocol leans on: adding or removing one node
// moves only the hash ranges adjacent to that node's points — every other
// principal keeps its owner, so a rebalance ships O(1/n) of the database,
// never all of it.
//
// Everything is deterministic: point placement depends only on (seed,
// node_id, vnode index), so every node and every client that knows the
// member list and the epoch derives byte-identical ownership — referrals
// carry the member list precisely so clients can rebuild this ring locally.

#ifndef SRC_CLUSTER_RING_H_
#define SRC_CLUSTER_RING_H_

#include <cstdint>
#include <tuple>
#include <vector>

#include "src/krb4/principal.h"
#include "src/krb4/principal_store.h"

namespace kcluster {

// One serving node as the ring sees it: a stable identity plus the host its
// AS/TGS/control endpoints live on.
struct RingMember {
  uint64_t node_id = 0;
  uint32_t host = 0;

  bool operator==(const RingMember& other) const {
    return node_id == other.node_id && host == other.host;
  }

  static constexpr auto Layout() { return std::tuple{&RingMember::node_id, &RingMember::host}; }
};

struct RingConfig {
  uint64_t seed = 0x6b636c7573746572ull;  // "kcluster"
  uint32_t vnodes = 64;                   // virtual points per member

  bool operator==(const RingConfig& other) const = default;

  static constexpr auto Layout() { return std::tuple{&RingConfig::seed, &RingConfig::vnodes}; }
};

class HashRing {
 public:
  HashRing() = default;
  explicit HashRing(RingConfig config) : config_(config) {}

  // Rebuilds the ring for a new membership view. `epoch` is the view's
  // version: referral/ring frames carry it, and a client applies a learned
  // view only when its epoch is newer than the one it holds.
  void SetMembers(uint32_t epoch, std::vector<RingMember> members);

  uint32_t epoch() const { return epoch_; }
  const RingConfig& config() const { return config_; }
  const std::vector<RingMember>& members() const { return members_; }
  bool empty() const { return points_.empty(); }

  // The member owning `key_hash`; nullptr on an empty ring. Use
  // krb4::PrincipalStore::Hash for principals so ring ownership and store
  // sharding agree on one hash function.
  const RingMember* OwnerOf(uint64_t key_hash) const;

  const RingMember* OwnerOfPrincipal(const krb4::Principal& principal) const {
    return OwnerOf(krb4::PrincipalStore::Hash(principal));
  }

  // The member with `node_id`, or nullptr.
  const RingMember* FindMember(uint64_t node_id) const;

  // The deterministic ring coordinate of one virtual point.
  static uint64_t PointOf(uint64_t seed, uint64_t node_id, uint32_t vnode);

 private:
  struct Point {
    uint64_t where = 0;
    uint32_t member_index = 0;
  };

  RingConfig config_;
  uint32_t epoch_ = 0;
  std::vector<RingMember> members_;
  std::vector<Point> points_;  // sorted by (where, member_index)
};

}  // namespace kcluster

#endif  // SRC_CLUSTER_RING_H_
