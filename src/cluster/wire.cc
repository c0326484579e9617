#include "src/cluster/wire.h"

#include <utility>

#include "src/crypto/str2key.h"
#include "src/encoding/io.h"
#include "src/store/kprop.h"

namespace kcluster {

namespace {

kerb::Result<RingAnnounce> DecodeAnnounceFrom(kenc::Reader& r) {
  auto epoch = r.GetU32();
  auto seed = r.GetU64();
  auto vnodes = r.GetU32();
  auto as_port = r.GetU16();
  auto tgs_port = r.GetU16();
  auto ctl_port = r.GetU16();
  auto count = r.GetU32();
  if (!epoch.ok() || !seed.ok() || !vnodes.ok() || !as_port.ok() || !tgs_port.ok() ||
      !ctl_port.ok() || !count.ok()) {
    return kerb::MakeError(kerb::ErrorCode::kBadFormat, "cluster: truncated announce");
  }
  // A view with no members or an absurd vnode count cannot describe a
  // serving cluster; reject rather than build a degenerate ring.
  if (count.value() == 0 || count.value() > kMaxClusterMembers || vnodes.value() == 0 ||
      vnodes.value() > 4096) {
    return kerb::MakeError(kerb::ErrorCode::kBadFormat, "cluster: bad announce shape");
  }
  RingAnnounce announce;
  announce.epoch = epoch.value();
  announce.ring.seed = seed.value();
  announce.ring.vnodes = vnodes.value();
  announce.as_port = as_port.value();
  announce.tgs_port = tgs_port.value();
  announce.ctl_port = ctl_port.value();
  announce.members.reserve(count.value());
  for (uint32_t i = 0; i < count.value(); ++i) {
    auto id = r.GetU64();
    auto host = r.GetU32();
    if (!id.ok() || !host.ok()) {
      return kerb::MakeError(kerb::ErrorCode::kBadFormat, "cluster: truncated member");
    }
    // Duplicate node ids would double the node's ring points and make
    // ownership depend on list order — reject.
    for (const RingMember& m : announce.members) {
      if (m.node_id == id.value()) {
        return kerb::MakeError(kerb::ErrorCode::kBadFormat, "cluster: duplicate member");
      }
    }
    announce.members.push_back(RingMember{id.value(), host.value()});
  }
  return announce;
}

void EncodeAnnounceTo(kenc::Writer& w, const RingAnnounce& announce) {
  w.PutU32(announce.epoch);
  w.PutU64(announce.ring.seed);
  w.PutU32(announce.ring.vnodes);
  w.PutU16(announce.as_port);
  w.PutU16(announce.tgs_port);
  w.PutU16(announce.ctl_port);
  w.PutU32(static_cast<uint32_t>(announce.members.size()));
  for (const RingMember& m : announce.members) {
    w.PutU64(m.node_id);
    w.PutU32(m.host);
  }
}

}  // namespace

kcrypto::DesKey ClusterKey(const std::string& realm) {
  return kcrypto::StringToKey("kcluster/" + realm, realm);
}

kerb::Result<RingAnnounce> DecodeRingAnnounce(kerb::BytesView data) {
  kenc::Reader r(data);
  auto announce = DecodeAnnounceFrom(r);
  if (!announce.ok()) {
    return announce.error();
  }
  if (!r.AtEnd()) {
    return kerb::MakeError(kerb::ErrorCode::kBadFormat, "cluster: trailing announce bytes");
  }
  return announce;
}

kerb::Bytes EncodeReferralBody(const ReferralBody& body) {
  kenc::Writer w;
  EncodeAnnounceTo(w, body.view);
  w.PutU64(body.owner_node_id);
  return w.Take();
}

kerb::Result<ReferralBody> DecodeReferralBody(kerb::BytesView data) {
  kenc::Reader r(data);
  auto announce = DecodeAnnounceFrom(r);
  if (!announce.ok()) {
    return announce.error();
  }
  auto owner = r.GetU64();
  if (!owner.ok() || !r.AtEnd()) {
    return kerb::MakeError(kerb::ErrorCode::kBadFormat, "cluster: bad referral body");
  }
  // The named owner must be in the view it rides with, or the client could
  // not act on the referral anyway.
  ReferralBody body;
  body.view = std::move(announce).value();
  body.owner_node_id = owner.value();
  bool found = false;
  for (const RingMember& m : body.view.members) {
    found = found || m.node_id == body.owner_node_id;
  }
  if (!found) {
    return kerb::MakeError(kerb::ErrorCode::kBadFormat, "cluster: referral owner not in view");
  }
  return body;
}

kerb::Bytes EncodePingFrame(const kcrypto::DesKey& key, uint64_t from_node) {
  kenc::Writer w;
  w.PutU32(kClusterMagic);
  w.PutU8(kCtlPing);
  w.PutU64(from_node);
  return kstore::SealFrame(key, w.Take());
}

kerb::Bytes EncodePongFrame(const kcrypto::DesKey& key, const PongInfo& info) {
  kenc::Writer w;
  w.PutU32(kClusterMagic);
  w.PutU8(kCtlPong);
  w.PutU64(info.node_id);
  w.PutU32(info.epoch);
  w.PutU64(info.applied_lsn);
  return kstore::SealFrame(key, w.Take());
}

kerb::Bytes EncodeRingFrame(const kcrypto::DesKey& key, const RingAnnounce& announce) {
  kenc::Writer w;
  w.PutU32(kClusterMagic);
  w.PutU8(kCtlRing);
  EncodeAnnounceTo(w, announce);
  return kstore::SealFrame(key, w.Take());
}

kerb::Bytes EncodeRingAckFrame(const kcrypto::DesKey& key, const RingAckInfo& info) {
  kenc::Writer w;
  w.PutU32(kClusterMagic);
  w.PutU8(kCtlRingAck);
  w.PutU64(info.node_id);
  w.PutU32(info.epoch);
  return kstore::SealFrame(key, w.Take());
}

kerb::Bytes EncodeLoadFrame(const kcrypto::DesKey& key, const LoadFrame& load) {
  kenc::Writer w;
  w.PutU32(kClusterMagic);
  w.PutU8(kCtlLoad);
  w.PutU32(load.epoch);
  w.PutU32(static_cast<uint32_t>(load.entries.size()));
  for (const kerb::Bytes& entry : load.entries) {
    w.PutLengthPrefixed(entry);
  }
  return kstore::SealFrame(key, w.Take());
}

kerb::Bytes EncodeLoadAckFrame(const kcrypto::DesKey& key, uint32_t count_applied) {
  kenc::Writer w;
  w.PutU32(kClusterMagic);
  w.PutU8(kCtlLoadAck);
  w.PutU32(count_applied);
  return kstore::SealFrame(key, w.Take());
}

kerb::Result<std::pair<uint8_t, kerb::Bytes>> OpenCtlFrame(const kcrypto::DesKey& key,
                                                           kerb::BytesView frame) {
  auto opened = kstore::OpenFrame(key, kClusterMagic, frame);
  if (!opened.ok()) {
    return opened.error();
  }
  const kerb::BytesView body = opened.value().second;
  return std::make_pair(opened.value().first, kerb::Bytes(body.begin(), body.end()));
}

kerb::Result<uint64_t> ParsePingBody(kerb::BytesView body) {
  kenc::Reader r(body);
  auto from = r.GetU64();
  if (!from.ok() || !r.AtEnd()) {
    return kerb::MakeError(kerb::ErrorCode::kBadFormat, "cluster: bad ping body");
  }
  return from.value();
}

kerb::Result<PongInfo> ParsePongBody(kerb::BytesView body) {
  kenc::Reader r(body);
  auto node = r.GetU64();
  auto epoch = r.GetU32();
  auto lsn = r.GetU64();
  if (!node.ok() || !epoch.ok() || !lsn.ok() || !r.AtEnd()) {
    return kerb::MakeError(kerb::ErrorCode::kBadFormat, "cluster: bad pong body");
  }
  return PongInfo{node.value(), epoch.value(), lsn.value()};
}

kerb::Result<RingAnnounce> ParseRingBody(kerb::BytesView body) {
  return DecodeRingAnnounce(body);
}

kerb::Result<RingAckInfo> ParseRingAckBody(kerb::BytesView body) {
  kenc::Reader r(body);
  auto node = r.GetU64();
  auto epoch = r.GetU32();
  if (!node.ok() || !epoch.ok() || !r.AtEnd()) {
    return kerb::MakeError(kerb::ErrorCode::kBadFormat, "cluster: bad ring-ack body");
  }
  return RingAckInfo{node.value(), epoch.value()};
}

kerb::Result<LoadFrame> ParseLoadBody(kerb::BytesView body) {
  kenc::Reader r(body);
  auto epoch = r.GetU32();
  auto count = r.GetU32();
  if (!epoch.ok() || !count.ok() || count.value() > kMaxLoadEntries) {
    return kerb::MakeError(kerb::ErrorCode::kBadFormat, "cluster: bad load header");
  }
  LoadFrame load;
  load.epoch = epoch.value();
  load.entries.reserve(count.value());
  for (uint32_t i = 0; i < count.value(); ++i) {
    auto entry = r.GetLengthPrefixed();
    if (!entry.ok()) {
      return kerb::MakeError(kerb::ErrorCode::kBadFormat, "cluster: truncated load entry");
    }
    load.entries.push_back(std::move(entry).value());
  }
  if (!r.AtEnd()) {
    return kerb::MakeError(kerb::ErrorCode::kBadFormat, "cluster: trailing load bytes");
  }
  return load;
}

kerb::Result<uint32_t> ParseLoadAckBody(kerb::BytesView body) {
  kenc::Reader r(body);
  auto count = r.GetU32();
  if (!count.ok() || !r.AtEnd()) {
    return kerb::MakeError(kerb::ErrorCode::kBadFormat, "cluster: bad load-ack body");
  }
  return count.value();
}

}  // namespace kcluster
