// Write-ahead log of KDC database mutations.
//
// Every principal upsert/delete is appended here, CRC-32-framed and
// LSN-stamped, BEFORE it is applied to the in-memory store — so after any
// crash the database can be rebuilt as snapshot + replayed WAL suffix, and
// the propagation protocol (src/store/kprop.h) can ship exact deltas
// instead of wholesale dumps.
//
// On-disk frame, all integers big-endian (src/encoding/io.h):
//
//   frame := u32 body_len | u32 crc32(body) | body
//   body  := u64 lsn | u8 op | u32 payload_len | payload
//
// Payloads are opaque to this layer; the principal codec lives with the
// KDC database (src/krb4/kdcstore.h), which keeps kstore free of protocol
// types. Parsing is fail-closed: a truncated or CRC-damaged frame is
// kBadFormat, and a CRC-valid record stream whose LSNs are not strictly
// consecutive is kBadFormat too (a gap means splicing or silent loss, not
// a crash). The one tolerated irregularity is a damaged TAIL: ScanWal
// stops cleanly at the first unparsable frame and reports the discarded
// byte count, because a torn final append is the normal signature of power
// loss mid-commit.

#ifndef SRC_STORE_WAL_H_
#define SRC_STORE_WAL_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/common/bytes.h"
#include "src/common/result.h"
#include "src/encoding/io.h"
#include "src/store/blockdev.h"

namespace kstore {

// Record operations. The WAL does not interpret payloads, but the op code
// frames the replay contract: an upsert payload fully describes the new
// entry, a delete payload names the entry to remove.
constexpr uint8_t kWalOpUpsert = 1;
constexpr uint8_t kWalOpDelete = 2;
// Database-neutral marker record (payload: context-defined, e.g. a cluster
// ring epoch). It advances the LSN like any record but carries no entry
// mutation; appliers skip it. The cluster controller journals one on every
// membership change so a post-change snapshot always carries an LSN
// strictly greater than any node's applied LSN — which is what lets the
// wholesale path's stale-snapshot guard coexist with rejoin catch-up.
constexpr uint8_t kWalOpClusterMark = 3;

// Sanity bound on a single record payload — hostile length fields must not
// drive allocations.
constexpr uint32_t kMaxWalPayload = 1u << 20;

struct WalRecord {
  uint64_t lsn = 0;
  uint8_t op = 0;
  kerb::Bytes payload;
};

// Encodes one CRC-framed record.
kerb::Bytes EncodeWalFrame(const WalRecord& record);

// Appends one CRC-framed record to `out`. The frame is written in place:
// BeginWalFrame writes its header with the lengths and CRC left blank, the
// caller appends the payload, and FinishWalFrame fills them in and returns
// the payload's bytes within `out`.
size_t BeginWalFrame(kerb::Bytes& out, uint64_t lsn, uint8_t op);
kerb::BytesView FinishWalFrame(kerb::Bytes& out, size_t frame_start);

// Parses exactly one frame at the reader's position. Fail-closed:
// truncation, oversized lengths, and CRC mismatches are kBadFormat.
kerb::Result<WalRecord> ParseWalFrame(kenc::Reader& r);

struct WalScan {
  std::vector<WalRecord> records;
  size_t valid_bytes = 0;      // prefix of the image that parsed cleanly
  size_t discarded_bytes = 0;  // torn crash tail dropped by the scan
};

// Scans a whole WAL image. The first unparsable frame ends the scan (its
// bytes and everything after count as the discarded tail); LSNs of the
// parsed records must be strictly consecutive or the scan itself fails.
kerb::Result<WalScan> ScanWal(kerb::BytesView image);

// Append-side handle over a SimDevice file. Each AppendWith writes one
// frame and flushes — the WAL is durable up to the last acknowledged LSN
// (modulo the device's injected flush faults, which recovery must
// tolerate).
class Wal {
 public:
  Wal(SimDevice* dev, std::string file, uint64_t last_lsn)
      : dev_(dev), file_(std::move(file)), last_lsn_(last_lsn) {}

  // Stamps the next LSN, appends the frame, flushes, and returns the LSN.
  // `encode(kenc::Writer&)` writes the payload straight into the frame at
  // the device's tail; `*payload` views the journaled payload bytes until
  // the file's next write.
  template <typename Encode>
  uint64_t AppendWith(uint8_t op, Encode&& encode, kerb::BytesView* payload) {
    if (file_handle_ == nullptr) {
      file_handle_ = &dev_->Open(file_);
    }
    const uint64_t lsn = ++last_lsn_;
    size_t frame_size = 0;
    dev_->AppendWith(*file_handle_, [&](kerb::Bytes& out) {
      const size_t start = BeginWalFrame(out, lsn, op);
      kenc::Writer w(&out, /*append=*/true);
      encode(w);
      *payload = FinishWalFrame(out, start);
      frame_size = out.size() - start;
    });
    dev_->Flush(*file_handle_);
    Appended(lsn, frame_size);
    return lsn;
  }

  uint64_t last_lsn() const { return last_lsn_; }

  // Rewrites the file to exactly `records` (compaction truncating the
  // prefix) and resets the append position to follow them.
  void Rewrite(const std::vector<WalRecord>& records, uint64_t last_lsn);

  const std::string& file() const { return file_; }

 private:
  void Appended(uint64_t lsn, size_t frame_size) const;

  SimDevice* dev_;
  std::string file_;
  SimDevice::File* file_handle_ = nullptr;  // opened on the first append
  uint64_t last_lsn_;
};

}  // namespace kstore

#endif  // SRC_STORE_WAL_H_
