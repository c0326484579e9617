// Clustered KDC scale-out: sharded serving nodes plus the membership and
// recovery controller.
//
// The paper's deployment model is one master KDC plus full-copy slaves —
// every server holds the whole realm database. This subsystem models the
// step beyond that: a realm too large for full copies, partitioned across
// KDC nodes by the consistent-hash ring (src/cluster/ring.h). Each node is
// a complete KDC (an unmodified KdcCore4 or KdcCore5 with its own durable
// kstore WAL + snapshot on its own simulated device) that serves only the
// principals the ring assigns it, answering requests for anything else
// with a referral that teaches the client the current ring view.
//
// Division of labour:
//
//   * ClusterNode — serving. Binds AS/TGS endpoints and decodes each
//     request once: a request for a principal another node owns gets a
//     referral, and the wrapped core serves the rest from the same decode.
//     Binds a kprop PropagationSink for the controller's data feed and a
//     'KCL1' control endpoint for membership traffic. Every applied record
//     is journaled to the node's own KStore first (write-ahead), so
//     Crash()/Recover() rebuild the node from its durable files alone.
//
//   * ClusterController — the registration primary and membership brain.
//     It owns the logical (whole-realm) database and its WAL; per-node
//     slices are projections of that log, shipped through the same kprop
//     feed (kstore::Propagator) the replica sets use. ProbeAll() detects
//     node loss and rejoin over the fault fabric and bumps the ring epoch;
//     Rebalance() moves only the hash ranges the membership change affected
//     (additive range loads to the gaining nodes, prune-on-adopt at the
//     shrinking ones); a rejoining node is caught up wholesale — a slice
//     snapshot at the current LSN — then rides the delta tail like everyone
//     else.
//
// LSN discipline (the recovery invariant): a node's local WAL advances in
// lockstep with the controller feed — exactly one local append per applied
// controller record, with records the node does not own journaled as
// kWalOpClusterMark placeholders. Local last_lsn therefore *is* the
// controller LSN the node has applied, which is what Recover() resumes
// from. The controller journals one cluster-mark per membership change, so
// any post-change snapshot carries an LSN strictly above every node's
// applied LSN and the wholesale stale-guard (kprop's defence against
// rollback-by-old-snapshot) can never reject a legitimate rejoin catch-up.

#ifndef SRC_CLUSTER_CLUSTER_H_
#define SRC_CLUSTER_CLUSTER_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "src/cluster/ring.h"
#include "src/cluster/wire.h"
#include "src/krb4/kdccore.h"
#include "src/krb4/kdcstore.h"
#include "src/krb5/kdccore.h"
#include "src/sim/world.h"
#include "src/store/kprop.h"
#include "src/store/kstore.h"

namespace kcluster {

enum class Protocol { kV4, kV5 };

struct ClusterConfig {
  std::string realm = "ATHENA.MIT.EDU";
  Protocol protocol = Protocol::kV4;
  RingConfig ring;
  uint16_t as_port = 88;
  uint16_t tgs_port = 89;
  uint16_t ctl_port = kClusterCtlPort;
  uint16_t prop_port = kstore::kPropPort;
  uint32_t controller_host = 1;  // control/prop traffic source address
  uint64_t seed = 0x6b636c7573746572ull;
  // Duplicated requests must return the stored reply, never a second
  // ticket — the cluster's no-double-issue invariant leans on this.
  ksim::Duration reply_cache_window = 30 * ksim::kSecond;
};

// Principals replicated to every node regardless of ring ownership. The
// TGS principal must be, or no node could decrypt a ticket-granting
// ticket minted by another node.
inline bool IsInfraPrincipal(const krb4::Principal& p) { return p.name == "krbtgt"; }

class ClusterNode {
 public:
  // `slice` is the node's initial owned entry set; `base_lsn` the
  // controller LSN that slice reflects. The node snapshots the slice as
  // its durable base.
  ClusterNode(ksim::World* world, const ClusterConfig& config, uint64_t node_id,
              uint32_t host, krb4::KdcDatabase slice, uint64_t base_lsn);

  // Binds AS, TGS, control, and propagation endpoints on the node's host.
  void Bind();

  // Installs a ring view and prunes entries the view assigns elsewhere
  // (infra principals always stay). Prunes are not journaled: a recovered
  // node may resurrect pruned entries, which the always-wholesale rejoin
  // catch-up then removes again.
  void AdoptView(const RingAnnounce& view);

  // Power loss / recovery on the node's durable device. Between Crash()
  // and Recover() every endpoint fails closed. Recover() rebuilds the
  // database from the durable base snapshot plus the WAL suffix and drops
  // the (possibly stale) ring view — the controller re-teaches it on
  // rejoin, followed by a wholesale catch-up.
  void Crash();
  kerb::Status Recover();

  uint64_t node_id() const { return node_id_; }
  uint32_t host() const { return host_; }
  bool crashed() const { return crashed_; }
  uint32_t view_epoch() const { return view_.has_value() ? view_->epoch : 0; }
  uint64_t applied_lsn() const { return sink_->applied_lsn(); }
  uint64_t requests_served() const { return requests_served_; }
  uint64_t referrals_sent() const { return referrals_sent_; }
  krb4::KdcDatabase& database() { return db(); }
  const krb4::KdcDatabase& database() const {
    return const_cast<ClusterNode*>(this)->db();
  }
  kstore::KStore& store() { return *store_; }

 private:
  krb4::KdcDatabase& db() {
    return core4_.has_value() ? core4_->database() : core5_->database();
  }
  bool OwnedOrInfra(const krb4::Principal& p) const;
  kerb::Bytes ReferralReply(const krb4::Principal& p);
  kerb::Result<kerb::Bytes> HandleKdc(bool tgs, const ksim::Message& msg);
  kerb::Result<kerb::Bytes> HandleCtl(const ksim::Message& msg);
  // PropagationSink applier: exactly one local WAL append per record. A
  // record for a principal the node does not own is journaled as a mark
  // and its entry is never decoded.
  kerb::Status ApplyRecord(uint8_t op, kerb::BytesView payload);
  // PropagationSink loader: replace the database with the slice snapshot
  // and rebuild the local store around it as the new durable base.
  kerb::Status LoadWholesale(const kstore::Snapshot& snapshot);
  void MakeSink(uint64_t applied_lsn);

  ksim::World* world_;
  ClusterConfig config_;
  uint64_t node_id_;
  uint32_t host_;
  kcrypto::Prng prng_;  // forked per durable-store rebuild
  std::optional<krb4::KdcCore4> core4_;
  std::optional<krb5::KdcCore5> core5_;
  krb4::KdcContext ctx_;
  kcrypto::DesKey ctl_key_;
  kcrypto::DesKey prop_key_;
  std::optional<RingAnnounce> view_;
  HashRing ring_;
  std::unique_ptr<kstore::KStore> store_;
  std::unique_ptr<kstore::PropagationSink> sink_;
  bool crashed_ = false;
  uint64_t requests_served_ = 0;
  uint64_t referrals_sent_ = 0;
};

class ClusterController {
 public:
  struct Stats {
    uint64_t rebalances = 0;
    uint64_t wholesale_transfers = 0;
    uint64_t entries_shipped = 0;  // additive range-load records, total
    uint64_t nodes_lost = 0;
    uint64_t nodes_rejoined = 0;
    uint64_t probe_failures = 0;
  };

  ClusterController(ksim::World* world, ClusterConfig config);

  // Pre-fill this (registrations, population load) BEFORE Bootstrap; it
  // becomes journaled afterwards, so later registrations propagate as WAL
  // deltas.
  krb4::KdcDatabase& logical_db() { return logical_; }

  // Slices the logical database across `members`, builds and binds one
  // node per member, and installs the epoch-1 ring view everywhere.
  void Bootstrap(const std::vector<RingMember>& members);

  // The current ring view, as clients and referral bodies see it.
  RingAnnounce View() const;

  // Ships the pending WAL tail to every up-and-current node.
  void PropagateAll();

  // Pings every member; a lost node or a rejoining one bumps the epoch,
  // journals a cluster-mark, and triggers a rebalance. Returns true when
  // membership changed.
  bool ProbeAll();

  // Re-syncs any node whose ring epoch or data is stale — the wholesale
  // big hammer for nodes a partial rebalance left behind.
  void Maintain();

  // Node db == the ring-assigned slice of the logical db, compared as
  // snapshots in canonical principal order (byte equivalence).
  bool NodeSliceConsistent(uint64_t node_id) const;
  bool AllSlicesConsistent() const;

  ClusterNode* node(uint64_t node_id);
  bool node_up(uint64_t node_id) const;
  std::vector<uint64_t> node_ids() const;
  uint32_t epoch() const { return epoch_; }
  const HashRing& ring() const { return ring_; }
  const ClusterConfig& config() const { return config_; }
  const Stats& stats() const { return stats_; }
  kstore::KStore& store() { return *store_; }

 private:
  struct NodeState {
    std::unique_ptr<ClusterNode> node;
    RingMember member;
    bool up = true;
    uint64_t acked_lsn = 0;
    uint32_t synced_epoch = 0;
    bool needs_wholesale = false;
  };

  std::vector<RingMember> UpMembers() const;
  bool OwnedByOrInfra(uint64_t node_id, const krb4::Principal& p) const;
  void AppendEpochMark();
  // One control-plane round trip to `ns`: the reply frame opened, checked
  // to be of `reply_type`, and its body decoded.
  template <typename Reply>
  kerb::Result<Reply> CallCtl(const NodeState& ns, kerb::BytesView frame, uint8_t reply_type);
  bool Ping(NodeState& ns, PongBody* pong);
  bool ShipRing(NodeState& ns);
  uint64_t ShipGained(NodeState& ns, const HashRing& prev);
  kstore::Snapshot SliceSnapshot(uint64_t node_id, uint64_t lsn) const;
  // Drives `ns` to the controller's last LSN through the feed: chunked
  // deltas normally, a slice-snapshot wholesale when flagged or past the
  // compaction horizon.
  bool SyncNode(NodeState& ns);
  void Rebalance(const HashRing& prev);

  ksim::World* world_;
  ClusterConfig config_;
  kcrypto::Prng prng_;
  kcrypto::DesKey ctl_key_;
  krb4::KdcDatabase logical_;
  std::unique_ptr<kstore::KStore> store_;
  std::optional<kstore::Propagator> feed_;  // built with store_ in Bootstrap
  HashRing ring_;
  uint32_t epoch_ = 0;
  std::vector<NodeState> nodes_;
  Stats stats_;
};

}  // namespace kcluster

#endif  // SRC_CLUSTER_CLUSTER_H_
