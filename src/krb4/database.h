// The KDC principal database: principal → private DES key.
//
// "Note that servers must possess private keys of their own ... These keys
// are stored in a secure location on the server's machine." The database is
// the one component the paper's threat model assumes physically secure
// ("the Kerberos master server, for which strong physical security must be
// assumed in any event").
//
// Storage is a sharded open-addressing table (src/krb4/principal_store.h):
// one probe per lookup instead of the seed's two std::map walks, and safe
// for concurrent reads from a multi-threaded serving core. It holds each key
// as its 8 bytes; Lookup schedules the DesKey it returns.

#ifndef SRC_KRB4_DATABASE_H_
#define SRC_KRB4_DATABASE_H_

#include <string>
#include <utility>
#include <vector>

#include "src/common/result.h"
#include "src/crypto/des.h"
#include "src/crypto/prng.h"
#include "src/krb4/principal.h"
#include "src/krb4/principal_store.h"

namespace kstore {
class KStore;
}  // namespace kstore

namespace krb4 {

class KdcDatabase {
 public:
  KdcDatabase() = default;
  // Copies replicate the entry set only: a copy is a point-in-time snapshot
  // (a slave's working set), not a second handle on the durable journal.
  // Copy-assignment likewise leaves the receiver's journal attachment
  // untouched.
  KdcDatabase(const KdcDatabase& other) : store_(other.store_) {}
  KdcDatabase& operator=(const KdcDatabase& other) {
    if (this != &other) {
      store_ = other.store_;
    }
    return *this;
  }
  KdcDatabase(KdcDatabase&&) = default;
  KdcDatabase& operator=(KdcDatabase&&) = default;

  // Registers a user whose key derives from `password` (string-to-key with
  // the principal's salt).
  void AddUser(const Principal& user, std::string_view password);

  // Registers a service with an explicit (normally random) key.
  void AddService(const Principal& service, const kcrypto::DesKey& key);

  // Registers a service with a fresh random key and returns it.
  kcrypto::DesKey AddServiceWithRandomKey(const Principal& service, kcrypto::Prng& prng);

  // The single mutation path every registration funnels through: journals
  // the change first when a journal is attached (write-ahead), then applies
  // it to the in-memory store under the shard lock. Registration resets the
  // principal to a fresh single-entry key ring at kvno 1.
  void ApplyUpsert(const Principal& principal, const kcrypto::DesBlock& key, PrincipalKind kind);
  void ApplyUpsert(const Principal& principal, const kcrypto::DesKey& key, PrincipalKind kind) {
    ApplyUpsert(principal, key.bytes(), kind);
  }

  // Journals and applies a *whole* record — ring, kind, policy attributes —
  // as one WAL record. Every rotation funnels through here, which is what
  // makes rotation atomic across replicas: a slave either applies the full
  // new ring or (if the delta never arrives) keeps the full old one; there
  // is no wire state in which half a ring exists. False (and no journal
  // append) for entries with an empty ring.
  bool ApplyEntry(const Principal& principal, const PrincipalEntry& entry);

  // Installs `new_key` as the current version (kvno = old kvno + 1). The
  // previous current version stays in the ring with not_after =
  // `retain_until` so tickets sealed under it keep verifying until then
  // (pass now + max ticket lifetime so every live ticket can drain; 0
  // drops the old key immediately). Versions already expired at `now` are
  // pruned, and the ring is capped at PrincipalEntry::kRingCap. Returns
  // the new kvno, or kNotFound for unknown principals.
  kerb::Result<uint32_t> RotateKey(const Principal& principal, const kcrypto::DesKey& new_key,
                                   ksim::Time now, ksim::Time retain_until);

  // RotateKey with the new key derived from `password` (string-to-key with
  // the principal's salt) — the kadmin change-password apply path.
  kerb::Result<uint32_t> ChangePassword(const Principal& principal, std::string_view password,
                                        ksim::Time now, ksim::Time retain_until);

  // Removes a principal (journaled the same way). False when absent.
  bool Remove(const Principal& principal);

  // Attaches the durable journal (src/store/kstore.h). Mutations made
  // after this point are WAL-appended before they touch the store;
  // mutations made before it must already be captured by the journal's
  // base snapshot. Null detaches.
  void AttachJournal(kstore::KStore* journal) { journal_ = journal; }
  kstore::KStore* journal() const { return journal_; }

  bool Has(const Principal& principal) const { return store_.Contains(principal); }
  // The current key, scheduled.
  kerb::Result<kcrypto::DesKey> Lookup(const Principal& principal) const;

  // Full record (ring + attributes); kNotFound for unknown principals.
  kerb::Result<PrincipalEntry> LookupEntry(const Principal& principal) const;

  // Current key version number; 0 for unknown principals.
  uint32_t Kvno(const Principal& principal) const;

  // kService for unknown principals (the caller will fail the Lookup).
  PrincipalKind Kind(const Principal& principal) const;

  // All registered principals — used by harvesting experiments, which model
  // an attacker who knows the user list (usernames are public).
  std::vector<Principal> Principals() const { return store_.Principals(); }

  // Pre-sizes the store for a bulk registration (see PrincipalStore::
  // Reserve) — the million-principal population generator calls this before
  // inserting so registration never pays incremental rehashes.
  void Reserve(size_t expected_entries) { store_.Reserve(expected_entries); }

  // Visits every full record as fn(principal, entry), shard/slot order
  // (deterministic, unsorted). See PrincipalStore::ForEach for the locking
  // contract: fn must copy what it keeps and must not touch this database.
  template <typename Fn>
  void ForEachEntry(Fn&& fn) const {
    store_.ForEach(std::forward<Fn>(fn));
  }

  size_t size() const { return store_.size(); }

  // Advances on every registration; derived-key caches key off this.
  uint64_t generation() const { return store_.generation(); }

  const PrincipalStore& store() const { return store_; }

 private:
  PrincipalStore store_;
  kstore::KStore* journal_ = nullptr;
};

}  // namespace krb4

#endif  // SRC_KRB4_DATABASE_H_
