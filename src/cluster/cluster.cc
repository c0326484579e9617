#include "src/cluster/cluster.h"

#include <algorithm>
#include <utility>
#include <variant>

#include "src/encoding/io.h"
#include "src/encoding/tlv.h"
#include "src/krb4/messages.h"
#include "src/krb5/messages.h"
#include "src/obs/kobs.h"
#include "src/store/snapshot.h"

namespace kcluster {

namespace {

// How far each served request advances the shared SimClock. It dates the
// tickets the nodes issue, so the traces and digests depend on it; it is
// not a measure of anything.
constexpr ksim::Duration kServedRequestClockStep = 200 * ksim::kMicrosecond;

// Chunking for the controller's data plane: WAL records per kprop delta
// frame, principal entries per range-load frame.
constexpr uint32_t kDeltaRecordsPerFrame = 256;
constexpr size_t kLoadEntriesPerFrame = 512;

// The principal whose owner serves a KDC request: an AS request's client,
// a TGS request's service.
template <typename Request>
const krb4::Principal& RoutingPrincipal(const Request& request) {
  return std::visit(
      [](const auto& req) -> const krb4::Principal& {
        if constexpr (requires { req.client; }) {
          return req.client;
        } else {
          return req.service;
        }
      },
      request);
}

}  // namespace

// --- ClusterNode ------------------------------------------------------------

ClusterNode::ClusterNode(ksim::World* world, const ClusterConfig& config,
                         uint64_t node_id, uint32_t host, krb4::KdcDatabase slice,
                         uint64_t base_lsn)
    : world_(world),
      config_(config),
      node_id_(node_id),
      host_(host),
      prng_(config.seed ^ (node_id * 0x9e3779b97f4a7c15ull)),
      ctx_(prng_.Fork()),
      ctl_key_(ClusterKey(config.realm)),
      prop_key_(kstore::PropKey(config.realm)),
      ring_(config.ring) {
  if (config_.protocol == Protocol::kV4) {
    krb4::KdcOptions options;
    options.reply_cache_window = config_.reply_cache_window;
    core4_.emplace(world_->MakeHostClock(), config_.realm, std::move(slice), options);
  } else {
    krb5::KdcPolicy5 policy;
    policy.reply_cache_window = config_.reply_cache_window;
    core5_.emplace(world_->MakeHostClock(), config_.realm, std::move(slice), policy);
  }
  store_ = std::make_unique<kstore::KStore>(prng_.Fork(), kstore::KStoreOptions{},
                                            krb4::SnapshotDatabase(db(), base_lsn));
  MakeSink(base_lsn);
}

void ClusterNode::MakeSink(uint64_t applied_lsn) {
  sink_ = std::make_unique<kstore::PropagationSink>(
      prop_key_, applied_lsn,
      [this](uint8_t op, kerb::BytesView payload) { return ApplyRecord(op, payload); },
      [this](const kstore::Snapshot& snapshot) { return LoadWholesale(snapshot); });
}

void ClusterNode::Bind() {
  ksim::Network& net = world_->network();
  net.Bind({host_, config_.as_port},
           [this](const ksim::Message& msg) { return HandleKdc(false, msg); });
  net.Bind({host_, config_.tgs_port},
           [this](const ksim::Message& msg) { return HandleKdc(true, msg); });
  net.Bind({host_, config_.ctl_port},
           [this](const ksim::Message& msg) { return HandleCtl(msg); });
  net.Bind({host_, config_.prop_port},
           [this](const ksim::Message& msg) -> kerb::Result<kerb::Bytes> {
             if (crashed_) {
               return kerb::MakeError(kerb::ErrorCode::kTransport, "cluster node down");
             }
             return sink_->Handle(msg);
           });
}

bool ClusterNode::OwnedOrInfra(const krb4::Principal& p) const {
  if (IsInfraPrincipal(p)) {
    return true;
  }
  if (ring_.empty()) {
    return true;  // no view yet — serve everything rather than black-hole
  }
  const RingMember* owner = ring_.OwnerOfPrincipal(p);
  return owner != nullptr && owner->node_id == node_id_;
}

kerb::Bytes ClusterNode::ReferralReply(const krb4::Principal& p) {
  ReferralBody body;
  body.view = *view_;
  const RingMember* owner = ring_.OwnerOfPrincipal(p);
  body.owner_node_id = owner != nullptr ? owner->node_id : 0;
  ++referrals_sent_;
  kobs::EmitNow(kobs::kSrcCluster, kobs::Ev::kClusterReferral, node_id_,
                body.owner_node_id);
  if (config_.protocol == Protocol::kV4) {
    return krb4::Frame4(krb4::MsgType::kClusterReferral, body);
  }
  return kenc::Encode(krb5::ClusterReferral5{kenc::Encode(body)});
}

kerb::Result<kerb::Bytes> ClusterNode::HandleKdc(bool tgs, const ksim::Message& msg) {
  if (crashed_) {
    return kerb::MakeError(kerb::ErrorCode::kTransport, "cluster node down");
  }
  // One decode per request: the routing check reads it and the core serves
  // it. A request that does not decode goes to the core, which rejects it
  // itself — routing must never mask a fail-closed parse.
  auto route = [&](auto& core, const auto& decoded) -> kerb::Result<kerb::Bytes> {
    if (decoded.ok() && view_.has_value() && !ring_.empty()) {
      const krb4::Principal& routing = RoutingPrincipal(decoded.value());
      if (!OwnedOrInfra(routing)) {
        return ReferralReply(routing);  // not ours: teach the client the view
      }
    }
    world_->clock().Advance(kServedRequestClockStep);
    ++requests_served_;
    return core.Handle(tgs, msg, decoded, ctx_);
  };
  if (core4_.has_value()) {
    return route(*core4_, krb4::DecodeKdcRequest4(msg.payload));
  }
  return route(*core5_, krb5::DecodeKdcRequest5(msg.payload));
}

kerb::Result<kerb::Bytes> ClusterNode::HandleCtl(const ksim::Message& msg) {
  if (crashed_) {
    return kerb::MakeError(kerb::ErrorCode::kTransport, "cluster node down");
  }
  auto opened = kstore::OpenFrame(ctl_key_, kClusterMagic, msg.payload);
  if (!opened.ok()) {
    return opened.error();
  }
  const kerb::BytesView body = opened.value().second;
  switch (opened.value().first) {
    case kCtlPing: {
      auto ping = kenc::Decode<PingBody>(body);
      if (!ping.ok()) {
        return ping.error();
      }
      return EncodeCtlFrame(ctl_key_, kCtlPong,
                            PongBody{node_id_, view_epoch(), sink_->applied_lsn()});
    }
    case kCtlRing: {
      auto announce = kenc::Decode<RingAnnounce>(body);
      if (!announce.ok()) {
        return announce.error();
      }
      if (auto valid = CheckAnnounce(announce.value()); !valid.ok()) {
        return valid.error();
      }
      if (!view_.has_value() || announce.value().epoch > view_->epoch) {
        AdoptView(announce.value());
      }
      return EncodeCtlFrame(ctl_key_, kCtlRingAck, RingAckBody{node_id_, view_epoch()});
    }
    case kCtlLoad: {
      auto load = kenc::Decode<LoadBody>(body);
      if (!load.ok()) {
        return load.error();
      }
      if (load.value().entries.size() > kMaxLoadEntries) {
        return kerb::MakeError(kerb::ErrorCode::kBadFormat, "cluster: bad load header");
      }
      if (load.value().epoch != view_epoch()) {
        return kerb::MakeError(kerb::ErrorCode::kReplay, "cluster: stale load epoch");
      }
      // Decode everything before applying anything — a load lands whole or
      // not at all. Loads are deliberately NOT journaled locally (that
      // would break the local-LSN == controller-LSN correspondence); a
      // crash loses them, and the always-wholesale rejoin restores them.
      auto pending = krb4::DecodeEntries(load.value().entries);
      if (!pending.ok()) {
        return pending.error();
      }
      for (const auto& [principal, entry] : pending.value()) {
        db().ApplyEntry(principal, entry);
      }
      kobs::EmitNow(kobs::kSrcCluster, kobs::Ev::kClusterOp, pending.value().size(), 2);
      return EncodeCtlFrame(ctl_key_, kCtlLoadAck,
                            LoadAckBody{static_cast<uint32_t>(pending.value().size())});
    }
    default:
      return kerb::MakeError(kerb::ErrorCode::kBadFormat, "cluster: unexpected ctl frame");
  }
}

kerb::Status ClusterNode::ApplyRecord(uint8_t op, kerb::BytesView payload) {
  // Exactly one local append per controller record — owned records verbatim,
  // everything else as a cluster-mark placeholder — so the local WAL LSN
  // tracks the controller LSN one-for-one.
  if (op == kstore::kWalOpClusterMark) {
    store_->Append(op, payload);
    return kerb::Status::Ok();
  }
  // The principal leads the record: a record this node does not own
  // becomes a mark without decoding its entry.
  kenc::Reader r(payload);
  auto principal = krb4::DecodeRecordPrincipal(op, r);
  if (!principal.ok()) {
    return principal.error();
  }
  if (!OwnedOrInfra(principal.value())) {
    store_->Append(kstore::kWalOpClusterMark, {});
    return kerb::Status::Ok();
  }
  auto entry = krb4::DecodeRecordRest(op, r);
  if (!entry.ok()) {
    return entry.error();
  }
  store_->Append(op, payload);
  if (!entry.value().has_value()) {
    db().Remove(principal.value());
  } else if (!db().ApplyEntry(principal.value(), *entry.value())) {
    return kerb::MakeError(kerb::ErrorCode::kBadFormat, "cluster: entry rejected");
  }
  return kerb::Status::Ok();
}

kerb::Status ClusterNode::LoadWholesale(const kstore::Snapshot& snapshot) {
  auto loaded = krb4::LoadSnapshotEntries(db(), snapshot);
  if (!loaded.ok()) {
    return loaded;
  }
  // The received slice becomes the new durable base: the local WAL restarts
  // at the snapshot's (controller) LSN. Compact() cannot do this — it
  // requires snapshot.lsn == the local last_lsn, and a catch-up snapshot is
  // by definition ahead of it.
  store_ = std::make_unique<kstore::KStore>(prng_.Fork(), kstore::KStoreOptions{},
                                            snapshot);
  return kerb::Status::Ok();
}

void ClusterNode::AdoptView(const RingAnnounce& view) {
  view_ = view;
  ring_ = HashRing(view.ring);
  ring_.SetMembers(view.epoch, view.members);
  // Prune what the new view assigns elsewhere. Not journaled: local WAL
  // records stay a 1:1 image of the controller feed, and the rejoin
  // wholesale re-prunes anything a recovery resurrects.
  std::vector<krb4::Principal> drop;
  db().ForEachEntry([&](const krb4::Principal& p, const krb4::PrincipalEntry& entry) {
    (void)entry;
    if (!OwnedOrInfra(p)) {
      drop.push_back(p);
    }
  });
  for (const krb4::Principal& p : drop) {
    db().Remove(p);
  }
}

void ClusterNode::Crash() {
  crashed_ = true;
  store_->Crash();
}

kerb::Status ClusterNode::Recover() {
  auto recovered_lsn = krb4::RecoverDatabase(*store_, db());
  if (!recovered_lsn.ok()) {
    return recovered_lsn.error();
  }
  MakeSink(recovered_lsn.value());
  // The pre-crash ring view is stale by assumption; drop it and let the
  // controller re-teach on rejoin (pong reports epoch 0, which forces a
  // wholesale re-sync even when membership never changed).
  view_.reset();
  ring_ = HashRing(config_.ring);
  crashed_ = false;
  return kerb::Status::Ok();
}

// --- ClusterController ------------------------------------------------------

ClusterController::ClusterController(ksim::World* world, ClusterConfig config)
    : world_(world),
      config_(std::move(config)),
      prng_(config_.seed),
      ctl_key_(ClusterKey(config_.realm)),
      ring_(config_.ring) {}

std::vector<RingMember> ClusterController::UpMembers() const {
  std::vector<RingMember> up;
  up.reserve(nodes_.size());
  for (const NodeState& ns : nodes_) {
    if (ns.up) {
      up.push_back(ns.member);
    }
  }
  return up;
}

bool ClusterController::OwnedByOrInfra(uint64_t node_id, const krb4::Principal& p) const {
  if (IsInfraPrincipal(p)) {
    return true;
  }
  const RingMember* owner = ring_.OwnerOfPrincipal(p);
  return owner != nullptr && owner->node_id == node_id;
}

void ClusterController::Bootstrap(const std::vector<RingMember>& members) {
  epoch_ = 1;
  ring_ = HashRing(config_.ring);
  ring_.SetMembers(epoch_, members);
  store_ = std::make_unique<kstore::KStore>(prng_.Fork(), kstore::KStoreOptions{},
                                            krb4::SnapshotDatabase(logical_, 0));
  logical_.AttachJournal(store_.get());
  feed_.emplace(&world_->network(), store_.get(), kstore::PropKey(config_.realm),
                ksim::NetAddress{config_.controller_host, config_.prop_port},
                kDeltaRecordsPerFrame);
  nodes_.reserve(members.size());
  // View() derives its member list from nodes_, which is still empty here —
  // splice in the bootstrap membership explicitly.
  RingAnnounce view = View();
  view.members = members;
  // One pass over the logical database routes each entry to its owner's
  // slice (infra principals to every slice), so each slice receives its
  // entries in the logical database's order.
  std::vector<krb4::KdcDatabase> slices(members.size());
  for (krb4::KdcDatabase& slice : slices) {
    slice.Reserve(logical_.size() / members.size() +
                  logical_.size() / (4 * members.size()) + 16);
  }
  logical_.ForEachEntry([&](const krb4::Principal& p, const krb4::PrincipalEntry& entry) {
    const RingMember* owner = IsInfraPrincipal(p) ? nullptr : ring_.OwnerOfPrincipal(p);
    for (size_t i = 0; i < members.size(); ++i) {
      if (IsInfraPrincipal(p) || (owner != nullptr && owner->node_id == members[i].node_id)) {
        slices[i].ApplyEntry(p, entry);
      }
    }
  });
  for (size_t i = 0; i < members.size(); ++i) {
    const RingMember& member = members[i];
    NodeState ns;
    ns.member = member;
    ns.node = std::make_unique<ClusterNode>(world_, config_, member.node_id, member.host,
                                            std::move(slices[i]), 0);
    ns.node->Bind();
    // Bootstrap is setup, not protocol: install the view directly instead
    // of racing the first ring frame against a chaos plan's link faults.
    ns.node->AdoptView(view);
    ns.synced_epoch = epoch_;
    ns.acked_lsn = store_->last_lsn();
    nodes_.push_back(std::move(ns));
  }
}

RingAnnounce ClusterController::View() const {
  RingAnnounce view;
  view.epoch = epoch_;
  view.ring = config_.ring;
  view.as_port = config_.as_port;
  view.tgs_port = config_.tgs_port;
  view.ctl_port = config_.ctl_port;
  view.members = UpMembers();
  return view;
}

void ClusterController::AppendEpochMark() {
  kenc::Writer w;
  w.PutU32(epoch_);
  store_->Append(kstore::kWalOpClusterMark, w.Peek());
}

template <typename Reply>
kerb::Result<Reply> ClusterController::CallCtl(const NodeState& ns, kerb::BytesView frame,
                                               uint8_t reply_type) {
  auto reply = world_->network().Call({config_.controller_host, config_.ctl_port},
                                      {ns.member.host, config_.ctl_port}, frame);
  if (!reply.ok()) {
    return reply.error();
  }
  auto opened = kstore::OpenFrame(ctl_key_, kClusterMagic, reply.value());
  if (!opened.ok()) {
    return opened.error();
  }
  if (opened.value().first != reply_type) {
    return kerb::MakeError(kerb::ErrorCode::kBadFormat, "cluster: unexpected ctl reply");
  }
  return kenc::Decode<Reply>(opened.value().second);
}

bool ClusterController::Ping(NodeState& ns, PongBody* pong) {
  // Two attempts so one dropped datagram on a faulty link is not read as a
  // node loss; a real outage fails both deterministically.
  for (int attempt = 0; attempt < 2; ++attempt) {
    auto info = CallCtl<PongBody>(ns, EncodeCtlFrame(ctl_key_, kCtlPing, PingBody{0}), kCtlPong);
    if (!info.ok() || info.value().node_id != ns.member.node_id) {
      ++stats_.probe_failures;
      continue;
    }
    *pong = info.value();
    return true;
  }
  return false;
}

bool ClusterController::ShipRing(NodeState& ns) {
  auto ack = CallCtl<RingAckBody>(ns, EncodeCtlFrame(ctl_key_, kCtlRing, View()), kCtlRingAck);
  if (!ack.ok() || ack.value().node_id != ns.member.node_id ||
      ack.value().epoch != epoch_) {
    return false;
  }
  ns.synced_epoch = epoch_;
  return true;
}

uint64_t ClusterController::ShipGained(NodeState& ns, const HashRing& prev) {
  std::vector<kerb::Bytes> gained;
  logical_.ForEachEntry([&](const krb4::Principal& p, const krb4::PrincipalEntry& entry) {
    if (IsInfraPrincipal(p)) {
      return;  // replicated everywhere already
    }
    const uint64_t hash = krb4::PrincipalStore::Hash(p);
    const RingMember* now = ring_.OwnerOf(hash);
    if (now == nullptr || now->node_id != ns.member.node_id) {
      return;
    }
    const RingMember* before = prev.OwnerOf(hash);
    if (before != nullptr && before->node_id == ns.member.node_id) {
      return;
    }
    gained.push_back(krb4::EncodePrincipalEntry(p, entry));
  });
  uint64_t shipped = 0;
  for (size_t start = 0; start < gained.size(); start += kLoadEntriesPerFrame) {
    LoadBody frame;
    frame.epoch = epoch_;
    const size_t end = std::min(gained.size(), start + kLoadEntriesPerFrame);
    frame.entries.assign(gained.begin() + static_cast<ptrdiff_t>(start),
                         gained.begin() + static_cast<ptrdiff_t>(end));
    auto ack = CallCtl<LoadAckBody>(ns, EncodeCtlFrame(ctl_key_, kCtlLoad, frame), kCtlLoadAck);
    if (!ack.ok() || ack.value().count_applied != frame.entries.size()) {
      // A lost or rejected load leaves the node short of its new range —
      // flag it for the wholesale hammer rather than guessing what landed.
      ns.needs_wholesale = true;
      break;
    }
    shipped += frame.entries.size();
  }
  stats_.entries_shipped += shipped;
  return shipped;
}

kstore::Snapshot ClusterController::SliceSnapshot(uint64_t node_id, uint64_t lsn) const {
  return krb4::SnapshotDatabase(logical_, lsn, [&](const krb4::Principal& p) {
    return OwnedByOrInfra(node_id, p);
  });
}

bool ClusterController::SyncNode(NodeState& ns) {
  // A forced wholesale is the node's ring slice at the controller's LSN. A
  // mark keeps last_lsn strictly above the node's applied LSN so the sink's
  // rollback stale-guard cannot reject the catch-up.
  if (ns.needs_wholesale && store_->last_lsn() <= ns.acked_lsn) {
    AppendEpochMark();
  }
  kstore::Propagator::CycleReport report;
  const bool synced = feed_->CatchUp(
      ns.member.host, &ns.acked_lsn, ns.needs_wholesale,
      [&](uint64_t lsn) { return SliceSnapshot(ns.member.node_id, lsn); }, report);
  stats_.wholesale_transfers += report.wholesale_transfers;
  if (synced) {
    ns.needs_wholesale = false;
  }
  return synced;
}

void ClusterController::Rebalance(const HashRing& prev) {
  ++stats_.rebalances;
  // 1. Flush the delta tail to healthy nodes so the additive loads below
  //    are computed against fully-applied data.
  for (NodeState& ns : nodes_) {
    if (ns.up && !ns.needs_wholesale) {
      SyncNode(ns);
    }
  }
  // 2. Teach every up node the new ring (they prune on adopt).
  for (NodeState& ns : nodes_) {
    if (ns.up) {
      ShipRing(ns);
    }
  }
  // 3. Ship each gaining node the ranges that moved to it — only the
  //    affected hash ranges, never the whole database.
  uint64_t shipped = 0;
  for (NodeState& ns : nodes_) {
    if (ns.up && !ns.needs_wholesale && ns.synced_epoch == epoch_) {
      shipped += ShipGained(ns, prev);
    }
  }
  // 4. Wholesale catch-up for rejoiners and anyone a load failed on.
  for (NodeState& ns : nodes_) {
    if (ns.up && ns.needs_wholesale && ns.synced_epoch == epoch_) {
      SyncNode(ns);
    }
  }
  kobs::EmitNow(kobs::kSrcCluster, kobs::Ev::kClusterRebalance, epoch_, shipped);
}

bool ClusterController::ProbeAll() {
  bool changed = false;
  for (NodeState& ns : nodes_) {
    PongBody pong;
    const bool alive = Ping(ns, &pong);
    if (ns.up && !alive) {
      ns.up = false;
      ++stats_.nodes_lost;
      ++epoch_;
      const HashRing prev = ring_;
      ring_.SetMembers(epoch_, UpMembers());
      AppendEpochMark();
      kobs::EmitNow(kobs::kSrcCluster, kobs::Ev::kClusterNodeDown, ns.member.node_id,
                    epoch_);
      Rebalance(prev);
      changed = true;
    } else if (!ns.up && alive) {
      ns.up = true;
      ++stats_.nodes_rejoined;
      ++epoch_;
      const HashRing prev = ring_;
      ring_.SetMembers(epoch_, UpMembers());
      AppendEpochMark();
      ns.acked_lsn = pong.applied_lsn;
      ns.synced_epoch = 0;
      ns.needs_wholesale = true;
      kobs::EmitNow(kobs::kSrcCluster, kobs::Ev::kClusterNodeUp, ns.member.node_id,
                    epoch_);
      Rebalance(prev);
      changed = true;
    } else if (ns.up && alive && pong.epoch != epoch_) {
      // Up but amnesiac: the node recovered in place (crash + restart
      // between probes) and dropped its view. Membership is unchanged — no
      // epoch bump — but the node needs the ring back and a wholesale
      // re-sync (un-journaled range loads may be lost).
      ns.acked_lsn = pong.applied_lsn;
      ns.needs_wholesale = true;
      if (ShipRing(ns)) {
        SyncNode(ns);
      }
    }
  }
  return changed;
}

void ClusterController::PropagateAll() {
  for (NodeState& ns : nodes_) {
    if (ns.up) {
      SyncNode(ns);
    }
  }
}

void ClusterController::Maintain() {
  for (NodeState& ns : nodes_) {
    if (!ns.up) {
      continue;
    }
    if (ns.synced_epoch != epoch_) {
      if (!ShipRing(ns)) {
        continue;
      }
      // The node missed a rebalance's loads or prunes; wholesale covers
      // whatever state the partial update left behind.
      ns.needs_wholesale = true;
    }
    SyncNode(ns);
  }
}

bool ClusterController::NodeSliceConsistent(uint64_t node_id) const {
  const NodeState* found = nullptr;
  for (const NodeState& ns : nodes_) {
    if (ns.member.node_id == node_id) {
      found = &ns;
      break;
    }
  }
  if (found == nullptr) {
    return false;
  }
  // Both snapshots list their entries in canonical principal order.
  return SliceSnapshot(node_id, 0) == krb4::SnapshotDatabase(found->node->database(), 0);
}

bool ClusterController::AllSlicesConsistent() const {
  for (const NodeState& ns : nodes_) {
    if (ns.up && !NodeSliceConsistent(ns.member.node_id)) {
      return false;
    }
  }
  return true;
}

ClusterNode* ClusterController::node(uint64_t node_id) {
  for (NodeState& ns : nodes_) {
    if (ns.member.node_id == node_id) {
      return ns.node.get();
    }
  }
  return nullptr;
}

bool ClusterController::node_up(uint64_t node_id) const {
  for (const NodeState& ns : nodes_) {
    if (ns.member.node_id == node_id) {
      return ns.up;
    }
  }
  return false;
}

std::vector<uint64_t> ClusterController::node_ids() const {
  std::vector<uint64_t> ids;
  ids.reserve(nodes_.size());
  for (const NodeState& ns : nodes_) {
    ids.push_back(ns.member.node_id);
  }
  return ids;
}

}  // namespace kcluster
