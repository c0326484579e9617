#include "src/store/wal.h"

#include "src/crypto/crc32.h"
#include "src/obs/kobs.h"

namespace kstore {

namespace {

// Frame header: u32 body_len | u32 crc32(body); then the body's fixed part,
// u64 lsn | u8 op | u32 payload_len.
constexpr size_t kFrameHeader = 8;
constexpr size_t kBodyHeader = 13;

void StoreU32(uint8_t* at, uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    at[i] = static_cast<uint8_t>(v >> (24 - 8 * i));
  }
}

}  // namespace

size_t BeginWalFrame(kerb::Bytes& out, uint64_t lsn, uint8_t op) {
  const size_t start = out.size();
  out.resize(start + kFrameHeader);
  kenc::Writer w(&out, /*append=*/true);
  w.PutU64(lsn);
  w.PutU8(op);
  w.PutU32(0);
  return start;
}

kerb::BytesView FinishWalFrame(kerb::Bytes& out, size_t frame_start) {
  uint8_t* frame = out.data() + frame_start;
  const size_t body_len = out.size() - frame_start - kFrameHeader;
  const size_t payload_len = body_len - kBodyHeader;
  StoreU32(frame + kFrameHeader + kBodyHeader - 4, static_cast<uint32_t>(payload_len));
  StoreU32(frame, static_cast<uint32_t>(body_len));
  StoreU32(frame + 4, kcrypto::Crc32(kerb::BytesView(frame + kFrameHeader, body_len)));
  return kerb::BytesView(frame + kFrameHeader + kBodyHeader, payload_len);
}

kerb::Bytes EncodeWalFrame(const WalRecord& record) {
  kerb::Bytes frame;
  const size_t start = BeginWalFrame(frame, record.lsn, record.op);
  kerb::Append(frame, record.payload);
  FinishWalFrame(frame, start);
  return frame;
}

kerb::Result<WalRecord> ParseWalFrame(kenc::Reader& r) {
  auto body_len = r.GetU32();
  if (!body_len.ok()) {
    return body_len.error();
  }
  // Minimum body: lsn (8) + op (1) + payload length prefix (4).
  if (body_len.value() < 13 || body_len.value() > kMaxWalPayload + 13) {
    return kerb::MakeError(kerb::ErrorCode::kBadFormat, "wal: implausible body length");
  }
  auto crc = r.GetU32();
  if (!crc.ok()) {
    return crc.error();
  }
  auto body = r.GetBytes(body_len.value());
  if (!body.ok()) {
    return body.error();
  }
  if (kcrypto::Crc32(body.value()) != crc.value()) {
    return kerb::MakeError(kerb::ErrorCode::kBadFormat, "wal: frame crc mismatch");
  }
  kenc::Reader br(body.value());
  WalRecord record;
  auto lsn = br.GetU64();
  auto op = br.GetU8();
  if (!lsn.ok() || !op.ok()) {
    return kerb::MakeError(kerb::ErrorCode::kBadFormat, "wal: truncated body");
  }
  auto payload = br.GetLengthPrefixed();
  if (!payload.ok() || !br.AtEnd()) {
    return kerb::MakeError(kerb::ErrorCode::kBadFormat, "wal: bad payload framing");
  }
  if (op.value() != kWalOpUpsert && op.value() != kWalOpDelete &&
      op.value() != kWalOpClusterMark) {
    return kerb::MakeError(kerb::ErrorCode::kBadFormat, "wal: unknown op");
  }
  record.lsn = lsn.value();
  record.op = op.value();
  record.payload = std::move(payload).value();
  return record;
}

kerb::Result<WalScan> ScanWal(kerb::BytesView image) {
  WalScan scan;
  kenc::Reader r(image);
  while (!r.AtEnd()) {
    const size_t before = image.size() - r.remaining();
    auto record = ParseWalFrame(r);
    if (!record.ok()) {
      // Damaged tail: everything from the failed frame on is discarded.
      // This is the expected shape of a crash mid-append, so the scan
      // itself succeeds — callers decide whether a nonzero discard is
      // tolerable for the file at hand.
      scan.valid_bytes = before;
      scan.discarded_bytes = image.size() - before;
      return scan;
    }
    if (!scan.records.empty() &&
        record.value().lsn != scan.records.back().lsn + 1) {
      // An interior LSN gap cannot come from a torn tail — the frames on
      // both sides passed their CRCs. Splice or silent loss: refuse.
      return kerb::MakeError(kerb::ErrorCode::kBadFormat, "wal: lsn discontinuity");
    }
    scan.records.push_back(std::move(record).value());
  }
  scan.valid_bytes = image.size();
  return scan;
}

void Wal::Appended(uint64_t lsn, size_t frame_size) const {
  kobs::EmitNow(kobs::kSrcStore, kobs::Ev::kStoreAppend, lsn, frame_size);
}

void Wal::Rewrite(const std::vector<WalRecord>& records, uint64_t last_lsn) {
  kerb::Bytes image;
  for (const WalRecord& record : records) {
    kerb::Append(image, EncodeWalFrame(record));
  }
  dev_->WriteAtomic(file_, image);
  dev_->Flush(file_);
  last_lsn_ = last_lsn;
}

}  // namespace kstore
