// FlatTable — an open-addressing hash table over one flat vector of slots.
//
// Linear probing over a power-of-two size that doubles at 3/4 load, and
// backward-shift deletion, so a lookup never meets a tombstone and the
// table never needs a rebuild to stay fast. It grows with its live entries
// and starts empty. `Slot` is any default-constructible struct with a
// `uint64_t hash` member; hash 0 marks an empty slot, so callers hash
// through NonzeroHash. The table does not know the key: Find takes a
// predicate that compares the caller's key in full, so a hash collision
// costs a probe, never a wrong answer.

#ifndef SRC_COMMON_FLAT_TABLE_H_
#define SRC_COMMON_FLAT_TABLE_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace kerb {

// The splitmix64 finalizer, mapped away from 0.
inline uint64_t NonzeroHash(uint64_t h) {
  h ^= h >> 30;
  h *= 0xbf58476d1ce4e5b9ull;
  h ^= h >> 27;
  h *= 0x94d049bb133111ebull;
  h ^= h >> 31;
  return h == 0 ? 1 : h;
}

template <typename Slot>
class FlatTable {
 public:
  // The slot with `hash` that `match(slot)` accepts, or null.
  template <typename Match>
  Slot* Find(uint64_t hash, Match&& match) {
    if (slots_.empty()) {
      return nullptr;
    }
    const size_t mask = slots_.size() - 1;
    for (size_t i = hash & mask; slots_[i].hash != 0; i = (i + 1) & mask) {
      if (slots_[i].hash == hash && match(slots_[i])) {
        return &slots_[i];
      }
    }
    return nullptr;
  }

  // A fresh slot on `hash`'s probe run with its hash set; the caller fills
  // in the rest. May grow the table, which moves every slot.
  Slot& Insert(uint64_t hash) {
    if ((live_ + 1) * 4 > slots_.size() * 3) {
      Grow();
    }
    const size_t mask = slots_.size() - 1;
    size_t i = hash & mask;
    while (slots_[i].hash != 0) {
      i = (i + 1) & mask;
    }
    ++live_;
    slots_[i].hash = hash;
    return slots_[i];
  }

  // Erases a slot Find returned. Later slots of its probe run move into
  // the hole when their probe sequence passes it.
  void Erase(Slot* slot) {
    const size_t mask = slots_.size() - 1;
    size_t i = static_cast<size_t>(slot - slots_.data());
    for (size_t j = (i + 1) & mask; slots_[j].hash != 0; j = (j + 1) & mask) {
      const size_t home = slots_[j].hash & mask;
      if (((j - home) & mask) >= ((j - i) & mask)) {
        slots_[i] = std::move(slots_[j]);
        i = j;
      }
    }
    slots_[i] = Slot{};
    --live_;
  }

  // Visits every live slot; fn may change anything but the hash.
  template <typename Fn>
  void ForEach(Fn&& fn) {
    for (Slot& slot : slots_) {
      if (slot.hash != 0) {
        fn(slot);
      }
    }
  }

  size_t size() const { return live_; }

 private:
  static constexpr size_t kMinSlots = 16;

  void Grow() {
    std::vector<Slot> old = std::move(slots_);
    slots_.clear();
    slots_.resize(std::max(kMinSlots, old.size() * 2));
    const size_t mask = slots_.size() - 1;
    for (Slot& slot : old) {
      if (slot.hash != 0) {
        size_t i = slot.hash & mask;
        while (slots_[i].hash != 0) {
          i = (i + 1) & mask;
        }
        slots_[i] = std::move(slot);
      }
    }
  }

  std::vector<Slot> slots_;
  size_t live_ = 0;
};

}  // namespace kerb

#endif  // SRC_COMMON_FLAT_TABLE_H_
