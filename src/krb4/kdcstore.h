// Glue between the KDC database and the kstore durability subsystem.
//
// kstore (src/store) deliberately knows nothing about principals: WAL
// records and snapshot entries are opaque bytes. This header owns the two
// sides of that boundary for the V4/V5 KDC database (both protocol models
// share krb4::KdcDatabase):
//
//   * the record codec — how one principal mutation serialises into a WAL
//     payload and how a snapshot entry round-trips;
//   * ReplicaPropagation — the kprop orchestration a replica set embeds:
//     one KStore journaling the primary, one PropagationSink per slave
//     applying verified deltas straight through the slave store's shard
//     locks (no wholesale database swap, so propagation is safe while
//     serving workers read concurrently).

#ifndef SRC_KRB4_KDCSTORE_H_
#define SRC_KRB4_KDCSTORE_H_

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/common/bytes.h"
#include "src/common/result.h"
#include "src/encoding/io.h"
#include "src/krb4/database.h"
#include "src/sim/network.h"
#include "src/store/kprop.h"
#include "src/store/kstore.h"
#include "src/store/snapshot.h"

namespace krb4 {

// --- Record codec -----------------------------------------------------------
// upsert payload := principal | u8 kind | u64 max_life | u64 max_renew
//                 | u8 ring_count | ring_count × (u32 kvno | 8 key bytes
//                 | u64 not_after)
// delete payload := principal
//
// One upsert record always carries the principal's *entire* key ring
// (SNIPPETS.md snippet 1 shape: kvno plus the max_life/max_renew policy
// attributes). That is the atomicity unit for rotation: a WAL replay or
// kprop delta either lands the whole new ring or none of it, so no
// replica can ever recover into a half-rotated principal. Decoders
// fail closed — ring must be non-empty, ≤ kMaxRingEntries, kvnos strictly
// descending (current version first).

constexpr size_t kMaxRingEntries = 64;

kerb::Bytes EncodePrincipalEntry(const Principal& principal, const PrincipalEntry& entry);
// Single-version convenience used by registration-shaped callers/tests:
// encodes a fresh ring at kvno 1.
kerb::Bytes EncodePrincipalUpsert(const Principal& principal, const kcrypto::DesKey& key,
                                  PrincipalKind kind);
kerb::Bytes EncodePrincipalDelete(const Principal& principal);

// Decodes one upsert payload; `r` is left positioned after the record.
kerb::Result<std::pair<Principal, PrincipalEntry>> DecodePrincipalEntry(kenc::Reader& r);

// Applies one WAL record (op, payload) to `db`. Fails closed on malformed
// payloads; the database is untouched on failure.
kerb::Status ApplyStoreRecord(KdcDatabase& db, uint8_t op, kerb::BytesView payload);

// The database's full entry set as a snapshot at `lsn`, entries in the
// canonical sorted principal order.
kstore::Snapshot SnapshotDatabase(const KdcDatabase& db, uint64_t lsn);

// Wholesale load: upserts every snapshot entry and removes principals the
// snapshot does not contain, leaving `db` exactly at the snapshot state.
kerb::Status LoadSnapshotEntries(KdcDatabase& db, const kstore::Snapshot& snapshot);

// --- Propagation orchestration ---------------------------------------------

// Owns the primary's durable store and the propagation machinery for one
// replica set. Construction snapshots the primary database as the durable
// base and attaches the journal, so every later registration is
// write-ahead logged; Propagate() then ships exact WAL deltas to each
// registered slave, DES-MAC'd under a propagation key derived from the
// realm (never from the replica PRNG — key derivation must not perturb
// the reply-byte streams pinned by capture tests).
class ReplicaPropagation {
 public:
  ReplicaPropagation(ksim::Network* net, const std::string& realm, KdcDatabase* primary,
                     uint32_t primary_host, kstore::KStoreOptions store_options = {},
                     kstore::Propagator::Options prop_options = {});
  ~ReplicaPropagation();

  // Registers a slave database served at `slave_host` and binds its
  // propagation endpoint at {slave_host, prop port}.
  void AddSlave(uint32_t slave_host, KdcDatabase* slave_db);

  // One kprop cycle; the report is also retained for inspection.
  kstore::Propagator::CycleReport Propagate();

  // Snapshots the primary at its current LSN and truncates the WAL.
  // Slaves that have not caught up past the horizon will need a wholesale
  // transfer on the next cycle.
  void Compact();

  kstore::KStore& store() { return *store_; }
  const kstore::Propagator::CycleReport& last_report() const { return last_report_; }
  const kcrypto::DesKey& prop_key() const { return key_; }

 private:
  KdcDatabase* primary_;
  kcrypto::DesKey key_;
  std::unique_ptr<kstore::KStore> store_;
  std::unique_ptr<kstore::Propagator> propagator_;
  std::vector<std::unique_ptr<kstore::PropagationSink>> sinks_;
  kstore::Propagator::CycleReport last_report_;
};

}  // namespace krb4

#endif  // SRC_KRB4_KDCSTORE_H_
