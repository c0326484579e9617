// Sharded open-addressing principal table — the KDC's hot lookup structure.
//
// The seed KdcDatabase kept two parallel std::maps (principal → key,
// principal → kind), so every request paid two O(log n) string-comparison
// walks plus node-pointer chasing. This store keeps one entry per principal
// behind an open-addressing index (power-of-two capacity, linear probing,
// one hash → typically one probe), split into shards each guarded by its own
// reader/writer lock so a multi-threaded serving core can look keys up
// concurrently while registrations proceed.
//
// Each shard packs its entries into one dense array behind an index of
// 8-byte slots (hash tag, entry number). An entry is the record of
// Heimdal's db_fetch: name and instance bytes (in a per-shard name arena),
// the realm (interned once per store), kind, max_life and max_renew, and
// the current key as its 8 bytes plus kvno; only the older versions of a
// rotated principal's ring live out of line. Nothing is allocated per
// principal, so a million-principal realm costs about 90 bytes a principal,
// table included. Keys are stored unscheduled: the KDC expands a key's DES
// subkey schedule when it serves the principal (src/krb4/kdccore.h keeps the
// scheduled key in a per-worker cache). The `generation()` counter advances
// on every mutation; those caches use it to detect staleness without locks.

#ifndef SRC_KRB4_PRINCIPAL_STORE_H_
#define SRC_KRB4_PRINCIPAL_STORE_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <shared_mutex>
#include <string>
#include <string_view>
#include <vector>

#include "src/crypto/des.h"
#include "src/krb4/principal.h"
#include "src/sim/clock.h"

namespace krb4 {

// Whether a principal is a human (password-derived key) or a service
// (random key). The distinction matters: the paper notes that treating
// "clients as services" lets anyone obtain tickets encrypted with a user's
// password key — another password-guessing avenue (experiment E15).
enum class PrincipalKind {
  kUser,
  kService,
};

// One key version in a principal's ring. Real Kerberos databases carry a
// key version number precisely so keys can change while tickets sealed
// under the previous version are still in flight; the paper's complaint
// about keys that live forever is answered by rotating the current entry
// and letting the old one drain. The key is its 8 bytes; whoever encrypts
// under it schedules a kcrypto::DesKey.
struct KeyVersion {
  uint32_t kvno = 1;
  kcrypto::DesBlock key{};
  // Virtual time after which this version stops being accepted; 0 means no
  // scheduled expiry (the current version always has 0).
  ksim::Time not_after = 0;
};

// The full database record for a principal: its kind, ticket-policy
// attributes (the kvno/max_life/max_renew triple real kadmin databases
// store per principal), and the key ring ordered newest-first —
// keys.front() is the current version every new ticket is sealed under.
struct PrincipalEntry {
  PrincipalKind kind = PrincipalKind::kService;
  std::vector<KeyVersion> keys;
  ksim::Duration max_life = 0;   // 0 = realm default
  ksim::Duration max_renew = 0;  // 0 = realm default

  // Oldest versions beyond this many are pruned at rotation time; a ring
  // this deep covers several back-to-back rotations within one ticket
  // lifetime without unbounded growth.
  static constexpr size_t kRingCap = 4;

  uint32_t kvno() const { return keys.empty() ? 0 : keys.front().kvno; }
};

class PrincipalStore {
 public:
  PrincipalStore();
  PrincipalStore(const PrincipalStore& other);
  PrincipalStore& operator=(const PrincipalStore& other);
  PrincipalStore(PrincipalStore&& other) noexcept;
  PrincipalStore& operator=(PrincipalStore&& other) noexcept;

  // Inserts or replaces the entry for `principal` with a fresh single-entry
  // key ring at kvno 1 — the registration path. Thread-safe. Like every
  // insert, throws std::length_error if the principal's shard already holds
  // 4 GiB of name and instance bytes.
  void Upsert(const Principal& principal, const kcrypto::DesBlock& key, PrincipalKind kind);
  void Upsert(const Principal& principal, const kcrypto::DesKey& key, PrincipalKind kind) {
    Upsert(principal, key.bytes(), kind);
  }

  // Inserts or replaces the *whole* record — ring, kind, and policy
  // attributes — in one shard-locked step. Rotation and replica
  // propagation go through this so a ring change is atomic: no reader ever
  // observes a principal between key versions. Entries with an empty ring,
  // or a ring deeper than kMaxRing, are rejected (returns false, store
  // untouched). Thread-safe.
  bool UpsertEntry(const Principal& principal, const PrincipalEntry& entry);

  // Copies the full record out under the shard's reader lock. Returns
  // false when the principal is unknown. Thread-safe.
  bool LookupEntry(const Principal& principal, PrincipalEntry* entry_out) const;

  // Removes the entry for `principal` (false when absent). Linear probing
  // cannot tolerate tombstone-free holes, so removal backward-shifts the
  // rest of the probe cluster into place; the shard's last entry then moves
  // into the freed place of the dense array. Thread-safe.
  bool Erase(const Principal& principal);

  // Copies the current key's bytes and the kind out under the shard's
  // reader lock, then schedules the key. Either output may be null. Returns
  // false when the principal is unknown. Thread-safe.
  bool Lookup(const Principal& principal, kcrypto::DesKey* key_out,
              PrincipalKind* kind_out = nullptr) const;

  bool Contains(const Principal& principal) const { return Lookup(principal, nullptr); }

  // Pre-sizes every shard for `expected_entries` total entries so the load
  // factor stays below 3/4 without incremental growth: an empty shard gets
  // its final index in one allocation, and each shard's entry array is
  // reserved for its expected share. Registering a million-principal realm
  // without this pays ~12 doubling rehashes per shard, each holding the old
  // and new index at once. Never shrinks; safe to call on a live store.
  // Thread-safe.
  void Reserve(size_t expected_entries);

  // Visits every entry as fn(principal, entry) under each shard's reader
  // lock, in shard/slot order — deterministic for a given insertion
  // history, NOT sorted. The bulk-export path (cluster slice extraction)
  // uses this. Both arguments are rebuilt in place for each entry, so fn
  // must copy what it keeps, and must not call back into this store (the
  // shard lock is held).
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    Principal principal;
    PrincipalEntry entry;
    for (size_t s = 0; s < kShardCount; ++s) {
      const Shard& shard = shards_[s];
      std::shared_lock lock(shard.mu);
      for (const Slot& slot : shard.slots) {
        if (slot.entry != kEmpty) {
          Load(shard, shard.entries[slot.entry], &principal, &entry);
          fn(principal, entry);
        }
      }
    }
  }

  // Visits every entry as fn(principal, entry) in sorted principal order —
  // the canonical order of snapshot images. Holds every shard's reader lock
  // for the whole walk, so the visit is one point-in-time state. Same
  // contract for fn as ForEach.
  template <typename Fn>
  void ForEachSorted(Fn&& fn) const {
    const auto locks = LockAllShared();
    Principal principal;
    PrincipalEntry entry;
    for (const EntryRef& ref : SortedRefs()) {
      const Shard& shard = shards_[ref.shard];
      Load(shard, shard.entries[ref.entry], &principal, &entry);
      fn(principal, entry);
    }
  }

  // Longest probe sequence any current entry needs (1 = every entry sits
  // in its home slot). Diagnostic for the load/churn stress tests: linear
  // probing degrades by growing clusters, and this is the direct measure
  // of that cliff. Thread-safe.
  size_t MaxProbeLength() const;

  // All registered principals in sorted order (the iteration order the old
  // std::map-backed database exposed — harvesting experiments rely on a
  // deterministic listing).
  std::vector<Principal> Principals() const;

  size_t size() const;

  // Advances on every mutation. A cache holding keys copied out of this store
  // is valid only while the generation it recorded still matches.
  uint64_t generation() const { return generation_.load(std::memory_order_acquire); }

  // Stable 64-bit hash of the principal tuple (FNV-1a over name, instance,
  // realm with separators). Exposed so derived-key caches hash only once.
  static uint64_t Hash(const Principal& principal);

  // Deepest ring UpsertEntry accepts (the wire codec caps rings far lower).
  static constexpr size_t kMaxRing = 1 + UINT16_MAX;

 private:
  // One principal. 64 bytes: a cache line, and no heap block unless the
  // ring has older versions.
  struct alignas(64) Entry {
    Entry() = default;
    Entry(const Entry& other);
    Entry& operator=(const Entry& other);
    Entry(Entry&&) noexcept = default;
    Entry& operator=(Entry&&) noexcept = default;

    kcrypto::DesBlock key{};  // the current version
    uint32_t kvno = 0;
    uint32_t realm = 0;        // index into realms_
    ksim::Time not_after = 0;  // the current version's
    ksim::Duration max_life = 0;
    ksim::Duration max_renew = 0;
    std::unique_ptr<KeyVersion[]> older;  // ring versions after the current one
    uint32_t name_at = 0;                 // name, then instance, in Shard::names
    uint32_t name_len = 0;
    uint32_t instance_len = 0;
    uint8_t kind = 0;
    uint16_t older_count = 0;
  };
  static_assert(sizeof(Entry) == 64);

  // An index slot: the low 32 bits of the principal's hash (its home slot
  // and a probe filter) and the entry's place in the dense array.
  static constexpr uint32_t kEmpty = UINT32_MAX;
  struct Slot {
    uint32_t tag = 0;
    uint32_t entry = kEmpty;
  };

  // Padded to a cache line so one shard's lock traffic never invalidates a
  // neighbouring shard's line — with shards packed tight, a writer bouncing
  // shard s's mutex would also evict readers of shards s±1 (false sharing).
  struct alignas(64) Shard {
    mutable std::shared_mutex mu;
    std::vector<Slot> slots;     // power-of-two capacity
    std::vector<Entry> entries;  // dense: one per live principal
    std::string names;           // every entry's name and instance bytes
    size_t dead_name_bytes = 0;  // left in `names` by erased entries
  };

  struct EntryRef {
    uint64_t prefix;  // first 8 name bytes, big-endian: sorts most pairs alone
    uint32_t shard;
    uint32_t entry;
  };

  // Shard count is a power of two; the top hash bits pick the shard, the low
  // bits drive the probe sequence, so the two choices stay independent.
  static constexpr size_t kShardCount = 16;
  static constexpr size_t kInitialSlots = 16;

  static size_t ShardIndex(uint64_t hash) { return (hash >> 60) & (kShardCount - 1); }

  std::string_view Name(const Shard& shard, const Entry& e) const {
    return std::string_view(shard.names).substr(e.name_at, e.name_len);
  }
  std::string_view Instance(const Shard& shard, const Entry& e) const {
    return std::string_view(shard.names).substr(e.name_at + e.name_len, e.instance_len);
  }

  // The slot holding `principal`, or the empty slot that ends its probe
  // sequence when it is absent (check `entry`). Caller holds the shard lock.
  size_t FindSlot(const Shard& shard, uint64_t hash, const Principal& principal) const;
  // Inserts or overwrites `principal` with the given record fields.
  void Put(const Principal& principal, PrincipalKind kind, ksim::Duration max_life,
           ksim::Duration max_renew, const KeyVersion* ring, size_t ring_size);
  // Rebuilds `principal` and `entry` from a stored entry. Either may be
  // null. Caller holds the shard lock.
  void Load(const Shard& shard, const Entry& e, Principal* principal,
            PrincipalEntry* entry) const;
  // Index of `realm` in realms_. Caller holds at least one shard lock.
  bool FindRealm(std::string_view realm, uint32_t* index) const;
  // Adds `realm` to realms_ (if absent) with every shard locked, so a
  // reader holding any one shard lock always sees a stable list.
  uint32_t InternRealm(const std::string& realm);
  std::array<std::shared_lock<std::shared_mutex>, kShardCount> LockAllShared() const;
  // Every entry, in sorted principal order. Caller holds every shard lock.
  std::vector<EntryRef> SortedRefs() const;
  static void GrowLocked(Shard& shard);
  void RemoveEntryLocked(Shard& shard, uint32_t index);
  static void CompactNamesLocked(Shard& shard);

  std::unique_ptr<Shard[]> shards_;
  // Realm names, interned: entries hold an index into this list. Append
  // only, and only with every shard's lock held.
  std::vector<std::string> realms_;
  std::atomic<uint64_t> generation_{0};
};

}  // namespace krb4

#endif  // SRC_KRB4_PRINCIPAL_STORE_H_
