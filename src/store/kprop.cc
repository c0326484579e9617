#include "src/store/kprop.h"

#include <algorithm>
#include <cassert>

#include "src/crypto/modes.h"
#include "src/crypto/str2key.h"
#include "src/obs/kobs.h"

namespace kstore {

kcrypto::DesKey PropKey(const std::string& realm) {
  return kcrypto::StringToKey("kprop/" + realm, realm);
}

kerb::Bytes SealFrame(const kcrypto::DesKey& key, kerb::Bytes frame) {
  const kcrypto::DesBlock mac = kcrypto::CbcMac(key, kcrypto::DesBlock{}, frame);
  frame.insert(frame.end(), mac.begin(), mac.end());
  return frame;
}

kerb::Result<std::pair<uint8_t, kerb::BytesView>> OpenFrame(const kcrypto::DesKey& key,
                                                            uint32_t magic,
                                                            kerb::BytesView frame) {
  if (frame.size() < 5 + 8) {  // (magic, type) + mac
    return kerb::MakeError(kerb::ErrorCode::kBadFormat, "sealed frame too short");
  }
  const kerb::BytesView sealed = frame.first(frame.size() - 8);
  const kcrypto::DesBlock mac = kcrypto::CbcMac(key, kcrypto::DesBlock{}, sealed);
  if (!kerb::ConstantTimeEqual(frame.last(8), kerb::BytesView(mac.data(), mac.size()))) {
    return kerb::MakeError(kerb::ErrorCode::kIntegrity, "sealed frame: bad mac");
  }
  kenc::Reader r(sealed);
  if (r.GetU32().value() != magic) {
    return kerb::MakeError(kerb::ErrorCode::kBadFormat, "sealed frame: bad magic");
  }
  const uint8_t type = r.GetU8().value();
  return std::make_pair(type, sealed.subspan(5));
}

kerb::Bytes EncodeDeltaFrame(const kcrypto::DesKey& key, uint64_t from_lsn,
                             uint64_t to_lsn, std::span<const WalRecord> records) {
  assert(to_lsn - from_lsn == records.size() && "delta window must match records");
  size_t size = 4 + 1 + 8 + 8 + 4 + 8;
  for (const WalRecord& record : records) {
    size += 1 + 4 + record.payload.size();
  }
  kerb::Bytes frame;
  frame.reserve(size);
  kenc::Writer w(&frame);
  w.PutU32(kPropMagic);
  w.PutU8(kPropDelta);
  w.PutU64(from_lsn);
  w.PutU64(to_lsn);
  w.PutU32(static_cast<uint32_t>(records.size()));
  for (size_t i = 0; i < records.size(); ++i) {
    assert(records[i].lsn == from_lsn + 1 + i && "delta records must be consecutive");
    w.PutU8(records[i].op);
    w.PutLengthPrefixed(records[i].payload);
  }
  return SealFrame(key, std::move(frame));
}

kerb::Bytes EncodeWholesaleFrame(const kcrypto::DesKey& key, kerb::BytesView snapshot_image) {
  kerb::Bytes frame;
  frame.reserve(4 + 1 + 4 + snapshot_image.size() + 8);
  kenc::Writer w(&frame);
  w.PutU32(kPropMagic);
  w.PutU8(kPropWholesale);
  w.PutLengthPrefixed(snapshot_image);
  return SealFrame(key, std::move(frame));
}

kerb::Bytes EncodeAckFrame(const kcrypto::DesKey& key, uint64_t applied_lsn) {
  kerb::Bytes frame;
  frame.reserve(4 + 1 + 8 + 8);
  kenc::Writer w(&frame);
  w.PutU32(kPropMagic);
  w.PutU8(kPropAck);
  w.PutU64(applied_lsn);
  return SealFrame(key, std::move(frame));
}

kerb::Result<uint64_t> ParseAckFrame(const kcrypto::DesKey& key, kerb::BytesView frame) {
  auto opened = OpenFrame(key, kPropMagic, frame);
  if (!opened.ok()) {
    return opened.error();
  }
  kenc::Reader r(opened.value().second);
  auto lsn = r.GetU64();
  if (opened.value().first != kPropAck || !lsn.ok() || !r.AtEnd()) {
    return kerb::MakeError(kerb::ErrorCode::kBadFormat, "prop: malformed ack");
  }
  return lsn.value();
}

kerb::Bytes PropagationSink::Ack() const { return EncodeAckFrame(key_, applied_); }

kerb::Result<kerb::Bytes> PropagationSink::Handle(const ksim::Message& msg) {
  auto opened = OpenFrame(key_, kPropMagic, msg.payload);
  if (!opened.ok()) {
    if (opened.code() == kerb::ErrorCode::kIntegrity) {
      kobs::EmitNow(kobs::kSrcProp, kobs::Ev::kPropReject,
                    static_cast<uint64_t>(kerb::ErrorCode::kIntegrity), 0);
    }
    return opened.error();
  }
  kenc::Reader r(opened.value().second);
  switch (opened.value().first) {
    case kPropDelta:
      return HandleDelta(r);
    case kPropWholesale:
      return HandleWholesale(r);
    default:
      return kerb::MakeError(kerb::ErrorCode::kBadFormat, "prop: unknown frame type");
  }
}

kerb::Result<kerb::Bytes> PropagationSink::HandleDelta(kenc::Reader& r) {
  auto from = r.GetU64();
  auto to = r.GetU64();
  auto count = r.GetU32();
  if (!from.ok() || !to.ok() || !count.ok() || to.value() < from.value() ||
      count.value() > kMaxPropRecords ||
      to.value() - from.value() != count.value()) {
    return kerb::MakeError(kerb::ErrorCode::kBadFormat, "prop: bad delta window");
  }
  // Parse the whole frame before touching the database: a delta applies
  // atomically or not at all. The apply pass below reads the records again.
  const kenc::Reader records = r;
  for (uint32_t i = 0; i < count.value(); ++i) {
    auto op = r.GetU8();
    if (!op.ok() || (op.value() != kWalOpUpsert && op.value() != kWalOpDelete &&
                     op.value() != kWalOpClusterMark)) {
      return kerb::MakeError(kerb::ErrorCode::kBadFormat, "prop: bad record op");
    }
    if (!r.GetLengthPrefixedView().ok()) {
      return kerb::MakeError(kerb::ErrorCode::kBadFormat, "prop: truncated record");
    }
  }
  if (!r.AtEnd()) {
    return kerb::MakeError(kerb::ErrorCode::kBadFormat, "prop: trailing bytes");
  }

  if (to.value() <= applied_) {
    // Replay or retransmission of history already applied. Re-ack the
    // current position without touching state: duplicates are idempotent,
    // and a primary whose ack was lost in transit converges on retry.
    kobs::EmitNow(kobs::kSrcProp, kobs::Ev::kPropStale, to.value(), applied_);
    return Ack();
  }
  if (from.value() > applied_) {
    // A gap means someone removed or reordered an interior chunk of the
    // history. Applying it would splice the database; refuse and stay at
    // the consistent prefix.
    kobs::EmitNow(kobs::kSrcProp, kobs::Ev::kPropReject,
                  static_cast<uint64_t>(kerb::ErrorCode::kReplay), from.value());
    return kerb::MakeError(kerb::ErrorCode::kReplay, "prop: delta does not continue history");
  }

  // from <= applied_ < to: the frame authentically continues history — the
  // MAC covers the whole contiguous (from, to] window — but a delayed
  // earlier frame already landed its prefix (the primary's ack was lost or
  // outraced, so it re-sent from an older cursor). Apply only the unseen
  // suffix; re-running the prefix would double-apply mutations.
  const uint64_t skip = applied_ - from.value();
  kenc::Reader apply = records;
  for (uint64_t i = 0; i < count.value(); ++i) {
    const uint8_t op = apply.GetU8().value();
    const kerb::BytesView payload = apply.GetLengthPrefixedView().value();
    if (i < skip) {
      continue;
    }
    auto status = applier_(op, payload);
    if (!status.ok()) {
      return status.error();
    }
  }
  applied_ = to.value();
  kobs::EmitNow(kobs::kSrcProp, kobs::Ev::kPropApply, applied_, count.value() - skip);
  return Ack();
}

kerb::Result<kerb::Bytes> PropagationSink::HandleWholesale(kenc::Reader& r) {
  auto image = r.GetLengthPrefixed();
  if (!image.ok() || !r.AtEnd()) {
    return kerb::MakeError(kerb::ErrorCode::kBadFormat, "prop: bad wholesale framing");
  }
  auto snapshot = DecodeSnapshot(image.value());
  if (!snapshot.ok()) {
    return snapshot.error();
  }
  if (snapshot.value().lsn <= applied_) {
    // A stale snapshot must not roll the slave back — version protection
    // for the wholesale path.
    kobs::EmitNow(kobs::kSrcProp, kobs::Ev::kPropStale, snapshot.value().lsn, applied_);
    return Ack();
  }
  auto status = loader_(snapshot.value());
  if (!status.ok()) {
    return status.error();
  }
  applied_ = snapshot.value().lsn;
  kobs::EmitNow(kobs::kSrcProp, kobs::Ev::kPropWholesale, applied_,
                snapshot.value().size());
  return Ack();
}

const kerb::Bytes& Propagator::SealDelta(uint64_t from, std::span<const WalRecord> records,
                                         CycleReport& report) {
  const uint64_t to = records.back().lsn;
  if (last_delta_.history != store_->history() || last_delta_.from != from ||
      last_delta_.to != to) {
    last_delta_.history = store_->history();
    last_delta_.from = from;
    last_delta_.to = to;
    last_delta_.frame = EncodeDeltaFrame(key_, from, to, records);
    ++report.deltas_sealed;
  }
  return last_delta_.frame;
}

bool Propagator::CatchUp(uint32_t host, uint64_t* acked_lsn, bool wholesale,
                         const SnapshotFn& snapshot, CycleReport& report) {
  const ksim::NetAddress dst{host, source_.port};
  while (wholesale || *acked_lsn < store_->last_lsn()) {
    std::span<const WalRecord> delta;
    kerb::Bytes wholesale_frame;
    const kerb::Bytes* frame = &wholesale_frame;
    uint64_t frame_to = 0;
    if (!wholesale && store_->Delta(*acked_lsn, &delta)) {
      delta = delta.first(std::min<size_t>(delta.size(), records_per_frame_));
      frame_to = delta.back().lsn;
      frame = &SealDelta(*acked_lsn, delta, report);
      report.records_shipped += delta.size();
    } else {
      // Asked for, or the replica predates the compaction horizon: only a
      // full transfer can catch it up.
      frame_to = store_->last_lsn();
      wholesale_frame = EncodeWholesaleFrame(key_, EncodeSnapshot(snapshot(frame_to)));
      ++report.wholesale_transfers;
      report.wholesale_bytes += wholesale_frame.size();
    }
    report.bytes_sent += frame->size();
    kobs::EmitNow(kobs::kSrcProp, kobs::Ev::kPropShip, host, frame->size());
    auto reply = net_->Call(source_, dst, *frame);
    if (!reply.ok()) {
      ++report.failures;
      return false;
    }
    // Every frame's window ends above *acked_lsn (a non-empty delta, a
    // horizon snapshot, or a forced one the caller made land), so an ack at
    // frame_to or beyond is progress. A garbled or regressive ack: assume
    // nothing landed.
    auto acked = ParseAckFrame(key_, reply.value());
    if (!acked.ok() || acked.value() < frame_to) {
      ++report.failures;
      return false;
    }
    *acked_lsn = acked.value();
    wholesale = false;
  }
  return true;
}

}  // namespace kstore
