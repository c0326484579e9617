// Versioned database snapshots.
//
// A snapshot is the full entry set of the KDC database as of one LSN, in a
// canonical (sorted-by-encoder) order, CRC-sealed. Snapshots bound recovery
// time (replay starts at the snapshot LSN, not LSN 0), bound WAL growth
// (compaction rewrites the log to the post-snapshot suffix), and are the
// wholesale-transfer fallback when a slave is too far behind for an
// incremental delta — the kprop "full dump" path.
//
// Entries are opaque bytes here, same as WAL payloads: each one is a
// kWalOpUpsert payload, so loading a snapshot is exactly replaying `count`
// upserts into an empty database.
//
// Layout, big-endian:
//   u32 magic 'KSN1' | u64 lsn | u32 count | count * lp(entry) | u32 crc
// where the trailing CRC-32 covers everything before it.

#ifndef SRC_STORE_SNAPSHOT_H_
#define SRC_STORE_SNAPSHOT_H_

#include <cstddef>
#include <cstdint>

#include "src/common/bytes.h"
#include "src/common/result.h"

namespace kstore {

constexpr uint32_t kSnapshotMagic = 0x4b534e31;  // "KSN1"
// Decode-side plausibility bound on the entry count. Sized for the
// north-star population: a full dump of a multi-million-principal realm
// (the clustered logical database) must still round-trip, while a hostile
// length field is capped well before it can drive pathological allocation.
constexpr uint32_t kMaxSnapshotEntries = 1u << 22;

// The entries are held as the image holds them, one length-prefixed run,
// so building a snapshot writes each entry once and encoding only frames
// it — no per-entry buffer.
class Snapshot {
 public:
  uint64_t lsn = 0;

  // Appends one entry (a kWalOpUpsert payload) after the others.
  void Add(kerb::BytesView entry);

  size_t size() const { return count_; }

  // Visits every entry in order as fn(kerb::BytesView).
  template <typename Fn>
  void ForEachEntry(Fn&& fn) const {
    size_t at = 0;
    for (uint32_t i = 0; i < count_; ++i) {
      const size_t len = LengthAt(body_.data() + at);
      fn(kerb::BytesView(body_.data() + at + 4, len));
      at += 4 + len;
    }
  }

  // size() × lp(entry), in order: the image between its header and CRC.
  const kerb::Bytes& body() const { return body_; }

  bool operator==(const Snapshot& other) const = default;

 private:
  friend kerb::Result<Snapshot> DecodeSnapshot(kerb::BytesView image);

  // The big-endian u32 length prefix at `p`.
  static size_t LengthAt(const uint8_t* p) {
    return (static_cast<size_t>(p[0]) << 24) | (static_cast<size_t>(p[1]) << 16) |
           (static_cast<size_t>(p[2]) << 8) | p[3];
  }

  uint32_t count_ = 0;
  kerb::Bytes body_;  // canonical order, kWalOpUpsert payloads
};

kerb::Bytes EncodeSnapshot(const Snapshot& snapshot);

// Fail-closed: bad magic, truncation, implausible counts, and CRC damage
// are all kBadFormat.
kerb::Result<Snapshot> DecodeSnapshot(kerb::BytesView image);

}  // namespace kstore

#endif  // SRC_STORE_SNAPSHOT_H_
