#include "src/store/kstore.h"

#include <cassert>
#include <utility>

#include "src/obs/kobs.h"

namespace kstore {

KStore::KStore(kcrypto::Prng dev_prng, const KStoreOptions& options, const Snapshot& base)
    : dev_(dev_prng, options.dev_faults),
      options_(options),
      wal_(&dev_, options.wal_file, base.lsn),
      snapshot_lsn_(base.lsn) {
  kerb::Bytes image = EncodeSnapshot(base);
  const size_t image_size = image.size();
  dev_.WriteAtomic(options_.snapshot_file, std::move(image));
  dev_.Flush(options_.snapshot_file);
  kobs::EmitNow(kobs::kSrcStore, kobs::Ev::kStoreSnapshot, base.lsn, image_size);
}

bool KStore::Delta(uint64_t from_lsn, std::span<const WalRecord>* out) const {
  *out = {};
  if (from_lsn < snapshot_lsn_) {
    return false;  // compacted away
  }
  // live_ holds LSNs snapshot_lsn_ + 1, + 2, ... with no gaps (Append,
  // Compact and Recover keep it so), so the records after from_lsn start
  // at index from_lsn - snapshot_lsn_.
  const uint64_t skip = from_lsn - snapshot_lsn_;
  if (skip < live_.size()) {
    *out = std::span<const WalRecord>(live_).subspan(static_cast<size_t>(skip));
  }
  return true;
}

void KStore::Compact(const Snapshot& snapshot) {
  std::lock_guard lock(mu_);
  assert(snapshot.lsn == wal_.last_lsn() && "compaction snapshot must be current");
  kerb::Bytes image = EncodeSnapshot(snapshot);
  const size_t image_size = image.size();
  dev_.WriteAtomic(options_.snapshot_file, std::move(image));
  dev_.Flush(options_.snapshot_file);
  // Snapshot durable first; only then truncate the log. A crash between
  // the two leaves a snapshot plus a WAL whose prefix it already covers —
  // Recover() filters those records out.
  wal_.Rewrite({}, snapshot.lsn);
  snapshot_lsn_ = snapshot.lsn;
  ++history_;
  live_.clear();
  kobs::EmitNow(kobs::kSrcStore, kobs::Ev::kStoreSnapshot, snapshot.lsn, image_size);
}

void KStore::Crash() { dev_.Crash(); }

kerb::Result<RecoveredState> KStore::Recover() {
  std::lock_guard lock(mu_);
  auto base = DecodeSnapshot(dev_.ReadAll(options_.snapshot_file));
  if (!base.ok()) {
    return base.error();
  }
  auto scan = ScanWal(dev_.ReadAll(options_.wal_file));
  if (!scan.ok()) {
    return scan.error();
  }
  RecoveredState state;
  state.base = std::move(base).value();
  state.discarded_bytes = scan.value().discarded_bytes;
  // Drop records the snapshot already covers (a crash between snapshot
  // install and WAL truncation leaves such a prefix) and require the
  // remainder to continue exactly at the snapshot LSN.
  for (WalRecord& record : scan.value().records) {
    if (record.lsn <= state.base.lsn) {
      continue;
    }
    const uint64_t expect =
        state.records.empty() ? state.base.lsn + 1 : state.records.back().lsn + 1;
    if (record.lsn != expect) {
      return kerb::MakeError(kerb::ErrorCode::kBadFormat,
                             "recover: wal does not continue from snapshot");
    }
    state.records.push_back(std::move(record));
  }
  state.last_lsn = state.records.empty() ? state.base.lsn : state.records.back().lsn;

  // Re-home the engine at the recovered position: future appends continue
  // from last_lsn, and the delta feed matches the durable truth. Rewrite
  // the WAL to the surviving records so the torn tail is gone from disk.
  wal_.Rewrite(state.records, state.last_lsn);
  snapshot_lsn_ = state.base.lsn;
  ++history_;
  live_ = state.records;

  kobs::EmitNow(kobs::kSrcStore, kobs::Ev::kStoreRecover, state.last_lsn,
                state.records.size());
  return state;
}

}  // namespace kstore
