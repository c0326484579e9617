#include "src/krb4/principal_store.h"

#include <algorithm>
#include <mutex>
#include <stdexcept>
#include <tuple>
#include <utility>

namespace krb4 {

namespace {

void HashField(uint64_t& h, std::string_view s) {
  for (unsigned char c : s) {
    h ^= c;
    h *= 0x100000001b3ull;
  }
  // Separator so ("ab","c") and ("a","bc") hash differently.
  h ^= 0xff;
  h *= 0x100000001b3ull;
}

uint64_t HashParts(std::string_view name, std::string_view instance, std::string_view realm) {
  uint64_t h = 0xcbf29ce484222325ull;  // FNV-1a offset basis
  HashField(h, name);
  HashField(h, instance);
  HashField(h, realm);
  return h;
}

// The first 8 bytes of `s`, big-endian, zero-padded. Comparing two prefixes
// never contradicts comparing the strings; equal prefixes decide nothing.
uint64_t Prefix(std::string_view s) {
  uint64_t v = 0;
  for (size_t i = 0; i < 8; ++i) {
    v = (v << 8) | (i < s.size() ? static_cast<unsigned char>(s[i]) : 0u);
  }
  return v;
}

}  // namespace

uint64_t PrincipalStore::Hash(const Principal& principal) {
  return HashParts(principal.name, principal.instance, principal.realm);
}

PrincipalStore::Entry::Entry(const Entry& other)
    : key(other.key),
      kvno(other.kvno),
      realm(other.realm),
      not_after(other.not_after),
      max_life(other.max_life),
      max_renew(other.max_renew),
      name_at(other.name_at),
      name_len(other.name_len),
      instance_len(other.instance_len),
      kind(other.kind),
      older_count(other.older_count) {
  if (older_count > 0) {
    older.reset(new KeyVersion[older_count]);
    std::copy_n(other.older.get(), older_count, older.get());
  }
}

PrincipalStore::Entry& PrincipalStore::Entry::operator=(const Entry& other) {
  if (this != &other) {
    *this = Entry(other);
  }
  return *this;
}

PrincipalStore::PrincipalStore() : shards_(new Shard[kShardCount]) {
  for (size_t s = 0; s < kShardCount; ++s) {
    shards_[s].slots.resize(kInitialSlots);
  }
}

PrincipalStore::PrincipalStore(const PrincipalStore& other) : shards_(new Shard[kShardCount]) {
  for (size_t s = 0; s < kShardCount; ++s) {
    const Shard& from = other.shards_[s];
    std::shared_lock lock(from.mu);
    shards_[s].slots = from.slots;
    shards_[s].entries = from.entries;
    shards_[s].names = from.names;
    shards_[s].dead_name_bytes = from.dead_name_bytes;
    if (s + 1 == kShardCount) {
      // Realms are append-only, so the list as of the last shard covers
      // every realm an earlier shard's entries name.
      realms_ = other.realms_;
    }
  }
  generation_.store(other.generation_.load(std::memory_order_acquire), std::memory_order_release);
}

PrincipalStore& PrincipalStore::operator=(const PrincipalStore& other) {
  if (this != &other) {
    PrincipalStore copy(other);
    *this = std::move(copy);
  }
  return *this;
}

PrincipalStore::PrincipalStore(PrincipalStore&& other) noexcept
    : shards_(std::move(other.shards_)),
      realms_(std::move(other.realms_)),
      generation_(other.generation_.load(std::memory_order_acquire)) {}

PrincipalStore& PrincipalStore::operator=(PrincipalStore&& other) noexcept {
  shards_ = std::move(other.shards_);
  realms_ = std::move(other.realms_);
  generation_.store(other.generation_.load(std::memory_order_acquire), std::memory_order_release);
  return *this;
}

size_t PrincipalStore::FindSlot(const Shard& shard, uint64_t hash,
                                const Principal& principal) const {
  const size_t mask = shard.slots.size() - 1;
  const auto tag = static_cast<uint32_t>(hash);
  for (size_t i = tag & mask;; i = (i + 1) & mask) {
    const Slot& slot = shard.slots[i];
    if (slot.entry == kEmpty) {
      return i;
    }
    if (slot.tag == tag) {
      const Entry& e = shard.entries[slot.entry];
      if (Name(shard, e) == principal.name && Instance(shard, e) == principal.instance &&
          realms_[e.realm] == principal.realm) {
        return i;
      }
    }
  }
}

bool PrincipalStore::FindRealm(std::string_view realm, uint32_t* index) const {
  for (size_t i = 0; i < realms_.size(); ++i) {
    if (realms_[i] == realm) {
      *index = static_cast<uint32_t>(i);
      return true;
    }
  }
  return false;
}

uint32_t PrincipalStore::InternRealm(const std::string& realm) {
  std::array<std::unique_lock<std::shared_mutex>, kShardCount> locks;
  for (size_t s = 0; s < kShardCount; ++s) {
    locks[s] = std::unique_lock(shards_[s].mu);
  }
  uint32_t index = 0;
  if (!FindRealm(realm, &index)) {
    index = static_cast<uint32_t>(realms_.size());
    realms_.push_back(realm);
  }
  return index;
}

std::array<std::shared_lock<std::shared_mutex>, PrincipalStore::kShardCount>
PrincipalStore::LockAllShared() const {
  std::array<std::shared_lock<std::shared_mutex>, kShardCount> locks;
  for (size_t s = 0; s < kShardCount; ++s) {
    locks[s] = std::shared_lock(shards_[s].mu);
  }
  return locks;
}

void PrincipalStore::GrowLocked(Shard& shard) {
  std::vector<Slot> bigger(shard.slots.size() * 2);
  const size_t mask = bigger.size() - 1;
  for (const Slot& old : shard.slots) {
    if (old.entry != kEmpty) {
      size_t i = old.tag & mask;
      while (bigger[i].entry != kEmpty) {
        i = (i + 1) & mask;
      }
      bigger[i] = old;
    }
  }
  shard.slots = std::move(bigger);
}

void PrincipalStore::Reserve(size_t expected_entries) {
  // Per-shard target capacity: the expected share of the population (with
  // headroom for hash imbalance across shards), held strictly below the
  // 3/4 growth threshold, rounded up to a power of two.
  const size_t per_shard = expected_entries / kShardCount + 1;
  const size_t with_headroom = per_shard + per_shard / 4;
  size_t target = kInitialSlots;
  while (target * 3 < with_headroom * 4) {
    target *= 2;
  }
  for (size_t s = 0; s < kShardCount; ++s) {
    Shard& shard = shards_[s];
    std::unique_lock lock(shard.mu);
    if (shard.entries.empty() && shard.slots.size() < target) {
      shard.slots.assign(target, Slot{});
    }
    while (shard.slots.size() < target) {
      // Rehashing a live shard in doubling steps places its entries exactly
      // where incremental growth would have.
      GrowLocked(shard);
    }
    // A shard's share strays from the mean by about its square root, so
    // 1/16 over the mean covers a large population; a shard that outgrows
    // it grows its array.
    shard.entries.reserve(per_shard + per_shard / 16);
  }
}

size_t PrincipalStore::MaxProbeLength() const {
  size_t worst = 0;
  for (size_t s = 0; s < kShardCount; ++s) {
    const Shard& shard = shards_[s];
    std::shared_lock lock(shard.mu);
    const size_t mask = shard.slots.size() - 1;
    for (size_t i = 0; i < shard.slots.size(); ++i) {
      const Slot& slot = shard.slots[i];
      if (slot.entry == kEmpty) {
        continue;
      }
      const size_t home = slot.tag & mask;
      const size_t probes = ((i - home) & mask) + 1;
      worst = std::max(worst, probes);
    }
  }
  return worst;
}

void PrincipalStore::Upsert(const Principal& principal, const kcrypto::DesBlock& key,
                            PrincipalKind kind) {
  const KeyVersion current{1, key, 0};
  Put(principal, kind, 0, 0, &current, 1);
}

bool PrincipalStore::UpsertEntry(const Principal& principal, const PrincipalEntry& entry) {
  if (entry.keys.empty() || entry.keys.size() > kMaxRing) {
    return false;  // a principal without a current key would be unservable
  }
  Put(principal, entry.kind, entry.max_life, entry.max_renew, entry.keys.data(),
      entry.keys.size());
  return true;
}

void PrincipalStore::Put(const Principal& principal, PrincipalKind kind,
                         ksim::Duration max_life, ksim::Duration max_renew,
                         const KeyVersion* ring, size_t ring_size) {
  const uint64_t hash = Hash(principal);
  Shard& shard = shards_[ShardIndex(hash)];
  {
    std::unique_lock lock(shard.mu);
    uint32_t realm = 0;
    if (!FindRealm(principal.realm, &realm)) {
      lock.unlock();
      realm = InternRealm(principal.realm);
      lock.lock();
    }
    // Grow before probing so the load factor stays below 3/4 and probe
    // chains stay short.
    if ((shard.entries.size() + 1) * 4 > shard.slots.size() * 3) {
      GrowLocked(shard);
    }
    Slot& slot = shard.slots[FindSlot(shard, hash, principal)];
    if (slot.entry == kEmpty) {
      if (principal.name.size() + principal.instance.size() > UINT32_MAX - shard.names.size()) {
        throw std::length_error("principal store: shard name arena full");
      }
      Entry& fresh = shard.entries.emplace_back();
      fresh.name_at = static_cast<uint32_t>(shard.names.size());
      fresh.name_len = static_cast<uint32_t>(principal.name.size());
      fresh.instance_len = static_cast<uint32_t>(principal.instance.size());
      fresh.realm = realm;
      shard.names += principal.name;
      shard.names += principal.instance;
      slot.tag = static_cast<uint32_t>(hash);
      slot.entry = static_cast<uint32_t>(shard.entries.size() - 1);
    }
    Entry& e = shard.entries[slot.entry];
    e.key = ring[0].key;
    e.kvno = ring[0].kvno;
    e.not_after = ring[0].not_after;
    e.max_life = max_life;
    e.max_renew = max_renew;
    e.kind = static_cast<uint8_t>(kind);
    e.older_count = static_cast<uint16_t>(ring_size - 1);
    e.older.reset();
    if (ring_size > 1) {
      e.older.reset(new KeyVersion[ring_size - 1]);
      std::copy(ring + 1, ring + ring_size, e.older.get());
    }
  }
  generation_.fetch_add(1, std::memory_order_acq_rel);
}

void PrincipalStore::Load(const Shard& shard, const Entry& e, Principal* principal,
                          PrincipalEntry* entry) const {
  if (principal != nullptr) {
    principal->name.assign(Name(shard, e));
    principal->instance.assign(Instance(shard, e));
    principal->realm.assign(realms_[e.realm]);
  }
  if (entry != nullptr) {
    entry->kind = static_cast<PrincipalKind>(e.kind);
    entry->max_life = e.max_life;
    entry->max_renew = e.max_renew;
    entry->keys.resize(1 + e.older_count);
    entry->keys[0] = KeyVersion{e.kvno, e.key, e.not_after};
    if (e.older_count > 0) {
      std::copy_n(e.older.get(), e.older_count, entry->keys.begin() + 1);
    }
  }
}

bool PrincipalStore::LookupEntry(const Principal& principal, PrincipalEntry* entry_out) const {
  const uint64_t hash = Hash(principal);
  const Shard& shard = shards_[ShardIndex(hash)];
  std::shared_lock lock(shard.mu);
  const Slot& slot = shard.slots[FindSlot(shard, hash, principal)];
  if (slot.entry == kEmpty) {
    return false;
  }
  Load(shard, shard.entries[slot.entry], nullptr, entry_out);
  return true;
}

bool PrincipalStore::Erase(const Principal& principal) {
  const uint64_t hash = Hash(principal);
  Shard& shard = shards_[ShardIndex(hash)];
  {
    std::unique_lock lock(shard.mu);
    size_t hole = FindSlot(shard, hash, principal);
    const uint32_t gone = shard.slots[hole].entry;
    if (gone == kEmpty) {
      return false;
    }
    const size_t mask = shard.slots.size() - 1;
    // Backward-shift deletion: walk the rest of the probe cluster and pull
    // each entry back into the hole when its home position permits —
    // i.e. when the hole lies on the entry's probe path (home ... j). This
    // keeps every surviving entry reachable without tombstones.
    for (size_t j = (hole + 1) & mask;; j = (j + 1) & mask) {
      Slot& candidate = shard.slots[j];
      if (candidate.entry == kEmpty) {
        break;
      }
      const size_t home = candidate.tag & mask;
      if (((hole - home) & mask) <= ((j - home) & mask)) {
        shard.slots[hole] = candidate;
        candidate = Slot{};
        hole = j;
      }
    }
    shard.slots[hole] = Slot{};
    RemoveEntryLocked(shard, gone);
  }
  generation_.fetch_add(1, std::memory_order_acq_rel);
  return true;
}

void PrincipalStore::RemoveEntryLocked(Shard& shard, uint32_t index) {
  shard.dead_name_bytes += shard.entries[index].name_len + shard.entries[index].instance_len;
  const auto last = static_cast<uint32_t>(shard.entries.size() - 1);
  if (index != last) {
    // The last entry fills the hole; re-point the one slot that names it.
    Entry& moved = shard.entries[index];
    moved = std::move(shard.entries[last]);
    const auto tag = static_cast<uint32_t>(
        HashParts(Name(shard, moved), Instance(shard, moved), realms_[moved.realm]));
    const size_t mask = shard.slots.size() - 1;
    size_t i = tag & mask;
    while (shard.slots[i].entry != last) {
      i = (i + 1) & mask;
    }
    shard.slots[i].entry = index;
  }
  shard.entries.pop_back();
  if (shard.dead_name_bytes > shard.names.size() / 2) {
    CompactNamesLocked(shard);
  }
}

void PrincipalStore::CompactNamesLocked(Shard& shard) {
  std::string live;
  live.reserve(shard.names.size() - shard.dead_name_bytes);
  for (Entry& e : shard.entries) {
    const size_t at = live.size();
    live.append(shard.names, e.name_at, e.name_len + e.instance_len);
    e.name_at = static_cast<uint32_t>(at);
  }
  shard.names = std::move(live);
  shard.dead_name_bytes = 0;
}

bool PrincipalStore::Lookup(const Principal& principal, kcrypto::DesKey* key_out,
                            PrincipalKind* kind_out) const {
  const uint64_t hash = Hash(principal);
  const Shard& shard = shards_[ShardIndex(hash)];
  kcrypto::DesBlock key{};
  {
    std::shared_lock lock(shard.mu);
    const Slot& slot = shard.slots[FindSlot(shard, hash, principal)];
    if (slot.entry == kEmpty) {
      return false;
    }
    const Entry& e = shard.entries[slot.entry];
    key = e.key;
    if (kind_out != nullptr) {
      *kind_out = static_cast<PrincipalKind>(e.kind);
    }
  }
  if (key_out != nullptr) {
    *key_out = kcrypto::DesKey(key);
  }
  return true;
}

std::vector<PrincipalStore::EntryRef> PrincipalStore::SortedRefs() const {
  std::vector<EntryRef> refs;
  size_t total = 0;
  for (size_t s = 0; s < kShardCount; ++s) {
    total += shards_[s].entries.size();
  }
  refs.reserve(total);
  for (size_t s = 0; s < kShardCount; ++s) {
    const Shard& shard = shards_[s];
    for (size_t i = 0; i < shard.entries.size(); ++i) {
      refs.push_back(EntryRef{Prefix(Name(shard, shard.entries[i])), static_cast<uint32_t>(s),
                              static_cast<uint32_t>(i)});
    }
  }
  // Principal::operator< order: name, instance, realm, each bytewise.
  std::sort(refs.begin(), refs.end(), [this](const EntryRef& a, const EntryRef& b) {
    if (a.prefix != b.prefix) {
      return a.prefix < b.prefix;
    }
    const Shard& sa = shards_[a.shard];
    const Shard& sb = shards_[b.shard];
    const Entry& ea = sa.entries[a.entry];
    const Entry& eb = sb.entries[b.entry];
    return std::make_tuple(Name(sa, ea), Instance(sa, ea), std::string_view(realms_[ea.realm])) <
           std::make_tuple(Name(sb, eb), Instance(sb, eb), std::string_view(realms_[eb.realm]));
  });
  return refs;
}

std::vector<Principal> PrincipalStore::Principals() const {
  std::vector<Principal> out;
  out.reserve(size());
  ForEachSorted([&](const Principal& principal, const PrincipalEntry&) {
    out.push_back(principal);
  });
  return out;
}

size_t PrincipalStore::size() const {
  size_t total = 0;
  for (size_t s = 0; s < kShardCount; ++s) {
    std::shared_lock lock(shards_[s].mu);
    total += shards_[s].entries.size();
  }
  return total;
}

}  // namespace krb4
