#include "src/krb4/kdcstore.h"

#include <set>
#include <utility>

#include "src/encoding/io.h"

namespace krb4 {

namespace {

// Fixed seed for the simulated device's fault stream. Deterministic and
// deliberately NOT drawn from the replica PRNG: the device must not perturb
// the key-generation streams that capture tests pin byte-for-byte.
constexpr uint64_t kDeviceSeed = 0x6b70726f70644256ull;

// Records per delta frame: small chunks mean an interrupted cycle still
// lands complete prefixes on a slave.
constexpr uint32_t kRecordsPerFrame = 4;

// The fields of an upsert payload after its principal.
kerb::Result<PrincipalEntry> DecodeEntryFields(kenc::Reader& r) {
  auto kind = r.GetU8();
  auto max_life = r.GetU64();
  auto max_renew = r.GetU64();
  auto ring_count = r.GetU8();
  if (!kind.ok() || kind.value() > static_cast<uint8_t>(PrincipalKind::kService) ||
      !max_life.ok() || !max_renew.ok() || !ring_count.ok() || ring_count.value() == 0 ||
      ring_count.value() > kMaxRingEntries) {
    return kerb::MakeError(kerb::ErrorCode::kBadFormat, "kdcstore: malformed entry header");
  }
  PrincipalEntry entry;
  entry.kind = static_cast<PrincipalKind>(kind.value());
  entry.max_life = static_cast<ksim::Duration>(max_life.value());
  entry.max_renew = static_cast<ksim::Duration>(max_renew.value());
  entry.keys.reserve(ring_count.value());
  uint32_t prev_kvno = 0;
  for (size_t i = 0; i < ring_count.value(); ++i) {
    auto kvno = r.GetU32();
    auto key_bytes = r.GetBytes(8);
    auto not_after = r.GetU64();
    // kvnos must be strictly descending (current version first) — the
    // structural well-formedness check that keeps a corrupted record from
    // smuggling in a duplicate or reordered ring.
    if (!kvno.ok() || !key_bytes.ok() || !not_after.ok() || kvno.value() == 0 ||
        (i > 0 && kvno.value() >= prev_kvno)) {
      return kerb::MakeError(kerb::ErrorCode::kBadFormat, "kdcstore: malformed ring entry");
    }
    prev_kvno = kvno.value();
    KeyVersion& kv = entry.keys.emplace_back();
    kv.kvno = kvno.value();
    std::copy(key_bytes.value().begin(), key_bytes.value().end(), kv.key.begin());
    kv.not_after = static_cast<ksim::Time>(not_after.value());
  }
  return entry;
}

}  // namespace

kerb::Bytes EncodePrincipalEntry(const Principal& principal, const PrincipalEntry& entry) {
  kenc::Writer w;
  EncodePrincipalEntryTo(w, principal, entry);
  return w.Take();
}

void EncodePrincipalEntryTo(kenc::Writer& w, const Principal& principal,
                            const PrincipalEntry& entry) {
  kenc::Put(w, principal);
  w.PutU8(static_cast<uint8_t>(entry.kind));
  w.PutU64(static_cast<uint64_t>(entry.max_life));
  w.PutU64(static_cast<uint64_t>(entry.max_renew));
  w.PutU8(static_cast<uint8_t>(entry.keys.size()));
  for (const KeyVersion& kv : entry.keys) {
    w.PutU32(kv.kvno);
    w.PutBytes(kv.key);
    w.PutU64(static_cast<uint64_t>(kv.not_after));
  }
}


kerb::Result<std::pair<Principal, PrincipalEntry>> DecodePrincipalEntry(kenc::Reader& r) {
  Principal principal;
  if (!kenc::Get(r, principal)) {
    return kerb::MakeError(kerb::ErrorCode::kBadFormat, "kdcstore: truncated principal");
  }
  auto entry = DecodeEntryFields(r);
  if (!entry.ok()) {
    return entry.error();
  }
  return std::make_pair(std::move(principal), std::move(entry).value());
}

kerb::Result<std::pair<Principal, PrincipalEntry>> DecodeEntry(kerb::BytesView payload) {
  kenc::Reader r(payload);
  auto decoded = DecodePrincipalEntry(r);
  if (!decoded.ok() || !r.AtEnd()) {
    return kerb::MakeError(kerb::ErrorCode::kBadFormat, "kdcstore: malformed entry");
  }
  return decoded;
}

kerb::Result<std::vector<std::pair<Principal, PrincipalEntry>>> DecodeEntries(
    const std::vector<kerb::Bytes>& payloads) {
  std::vector<std::pair<Principal, PrincipalEntry>> entries;
  entries.reserve(payloads.size());
  for (const kerb::Bytes& payload : payloads) {
    auto decoded = DecodeEntry(payload);
    if (!decoded.ok()) {
      return decoded.error();
    }
    entries.push_back(std::move(decoded).value());
  }
  return entries;
}

kerb::Result<Principal> DecodeRecordPrincipal(uint8_t op, kenc::Reader& r) {
  if (op != kstore::kWalOpDelete && op != kstore::kWalOpUpsert) {
    return kerb::MakeError(kerb::ErrorCode::kBadFormat, "kdcstore: unknown record op");
  }
  Principal principal;
  if (!kenc::Get(r, principal)) {
    return kerb::MakeError(kerb::ErrorCode::kBadFormat, "kdcstore: truncated principal");
  }
  return principal;
}

kerb::Result<std::optional<PrincipalEntry>> DecodeRecordRest(uint8_t op, kenc::Reader& r) {
  std::optional<PrincipalEntry> entry;
  if (op == kstore::kWalOpUpsert) {
    auto fields = DecodeEntryFields(r);
    if (!fields.ok()) {
      return fields.error();
    }
    entry = std::move(fields).value();
  }
  if (!r.AtEnd()) {
    return kerb::MakeError(kerb::ErrorCode::kBadFormat, "kdcstore: trailing record bytes");
  }
  return entry;
}

kerb::Result<StoreRecord> DecodeStoreRecord(uint8_t op, kerb::BytesView payload) {
  kenc::Reader r(payload);
  auto principal = DecodeRecordPrincipal(op, r);
  if (!principal.ok()) {
    return principal.error();
  }
  auto entry = DecodeRecordRest(op, r);
  if (!entry.ok()) {
    return entry.error();
  }
  return StoreRecord{std::move(principal).value(), std::move(entry).value()};
}

kerb::Status ApplyStoreRecord(KdcDatabase& db, uint8_t op, kerb::BytesView payload) {
  auto record = DecodeStoreRecord(op, payload);
  if (!record.ok()) {
    return record.error();
  }
  if (record.value().entry.has_value()) {
    db.ApplyEntry(record.value().principal, *record.value().entry);
  } else {
    db.Remove(record.value().principal);  // removing an absent principal is idempotent
  }
  return kerb::Status::Ok();
}

kstore::Snapshot SnapshotDatabase(const KdcDatabase& db, uint64_t lsn,
                                  const std::function<bool(const Principal&)>& keep) {
  kstore::Snapshot snapshot;
  snapshot.lsn = lsn;
  kerb::Bytes encoded;
  db.store().ForEachSorted([&](const Principal& principal, const PrincipalEntry& entry) {
    if (keep && !keep(principal)) {
      return;
    }
    kenc::Writer w(&encoded);
    EncodePrincipalEntryTo(w, principal, entry);
    snapshot.Add(encoded);
  });
  return snapshot;
}

kerb::Status LoadSnapshotEntries(KdcDatabase& db, const kstore::Snapshot& snapshot) {
  // Decode everything before mutating anything: a malformed snapshot must
  // leave the database untouched.
  std::vector<std::pair<Principal, PrincipalEntry>> entries;
  entries.reserve(snapshot.size());
  kerb::Status decoded = kerb::Status::Ok();
  snapshot.ForEachEntry([&](kerb::BytesView payload) {
    if (!decoded.ok()) {
      return;
    }
    auto entry = DecodeEntry(payload);
    if (!entry.ok()) {
      decoded = entry.error();
      return;
    }
    entries.push_back(std::move(entry).value());
  });
  if (!decoded.ok()) {
    return decoded;
  }
  std::set<Principal> incoming;
  for (const auto& entry : entries) {
    incoming.insert(entry.first);
  }
  for (const Principal& existing : db.Principals()) {
    if (incoming.find(existing) == incoming.end()) {
      db.Remove(existing);
    }
  }
  for (const auto& entry : entries) {
    db.ApplyEntry(entry.first, entry.second);
  }
  return kerb::Status::Ok();
}

kerb::Result<uint64_t> RecoverDatabase(kstore::KStore& store, KdcDatabase& db) {
  auto recovered = store.Recover();
  if (!recovered.ok()) {
    return recovered.error();
  }
  auto loaded = LoadSnapshotEntries(db, recovered.value().base);
  if (!loaded.ok()) {
    return loaded.error();
  }
  for (const kstore::WalRecord& record : recovered.value().records) {
    if (record.op == kstore::kWalOpClusterMark) {
      continue;
    }
    auto applied = ApplyStoreRecord(db, record.op, record.payload);
    if (!applied.ok()) {
      return applied.error();
    }
  }
  return recovered.value().last_lsn;
}

ReplicaPropagation::ReplicaPropagation(ksim::Network* net, const std::string& realm,
                                       KdcDatabase* primary, uint32_t primary_host)
    : net_(net),
      primary_(primary),
      key_(kstore::PropKey(realm)),
      store_(std::make_unique<kstore::KStore>(kcrypto::Prng(kDeviceSeed), kstore::KStoreOptions{},
                                              SnapshotDatabase(*primary, 0))),
      feed_(net, store_.get(), key_, {primary_host, kstore::kPropPort}, kRecordsPerFrame) {
  primary_->AttachJournal(store_.get());
}

ReplicaPropagation::~ReplicaPropagation() {
  if (primary_ != nullptr) {
    primary_->AttachJournal(nullptr);
  }
}

void ReplicaPropagation::AddSlave(uint32_t slave_host, KdcDatabase* slave_db) {
  auto sink = std::make_unique<kstore::PropagationSink>(
      key_, store_->snapshot_lsn(),
      [slave_db](uint8_t op, kerb::BytesView payload) {
        return ApplyStoreRecord(*slave_db, op, payload);
      },
      [slave_db](const kstore::Snapshot& snapshot) {
        return LoadSnapshotEntries(*slave_db, snapshot);
      });
  kstore::PropagationSink* endpoint = sink.get();
  net_->Bind(ksim::NetAddress{slave_host, kstore::kPropPort},
             [endpoint](const ksim::Message& msg) { return endpoint->Handle(msg); });
  slaves_.push_back(Slave{slave_host, endpoint->applied_lsn(), std::move(sink)});
}

kstore::Propagator::CycleReport ReplicaPropagation::Propagate() {
  kstore::Propagator::CycleReport report;
  report.slaves_converged = true;
  const kstore::Propagator::SnapshotFn snapshot = [this](uint64_t lsn) {
    return SnapshotDatabase(*primary_, lsn);
  };
  for (Slave& slave : slaves_) {
    // A failed catch-up leaves the slave at its last acknowledged prefix;
    // the cycle moves on to the next slave.
    if (!feed_.CatchUp(slave.host, &slave.acked_lsn, /*wholesale=*/false, snapshot, report)) {
      report.slaves_converged = false;
    }
  }
  last_report_ = report;
  return report;
}

void ReplicaPropagation::Compact() {
  store_->Compact(SnapshotDatabase(*primary_, store_->last_lsn()));
}

}  // namespace krb4
