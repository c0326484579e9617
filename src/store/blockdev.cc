#include "src/store/blockdev.h"

#include <utility>

#include "src/obs/kobs.h"

namespace kstore {

namespace {

// Operation tags folded into the device digest.
constexpr uint64_t kOpAppend = 1;
constexpr uint64_t kOpWriteAtomic = 2;
constexpr uint64_t kOpFlush = 3;
constexpr uint64_t kOpFlushLost = 4;
constexpr uint64_t kOpCrash = 5;
constexpr uint64_t kOpTear = 6;

}  // namespace

bool SimDevice::Chance(double p) {
  if (p <= 0) {
    return false;
  }
  if (p >= 1) {
    return true;
  }
  // 53-bit draw, same discipline as FaultyNetwork::Chance.
  const double draw =
      static_cast<double>(prng_.NextU64() >> 11) / static_cast<double>(1ull << 53);
  return draw < p;
}

void SimDevice::Fold(uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    digest_ ^= (v >> (8 * i)) & 0xff;
    digest_ *= 0x100000001b3ull;
  }
}

void SimDevice::FoldName(const std::string& name) {
  for (unsigned char c : name) {
    digest_ ^= c;
    digest_ *= 0x100000001b3ull;
  }
}

SimDevice::File& SimDevice::Open(const std::string& name) {
  auto [it, inserted] = files_.try_emplace(name);
  if (inserted) {
    it->second.name = name;
  }
  return it->second;
}

void SimDevice::Appended(const File& file, size_t size) {
  Fold(kOpAppend);
  FoldName(file.name);
  Fold(size);
  kobs::EmitNow(kobs::kSrcStore, kobs::Ev::kStoreDevWrite, size);
}

void SimDevice::WriteAtomic(const std::string& file, kerb::BytesView data) {
  WriteAtomic(file, kerb::Bytes(data.begin(), data.end()));
}

void SimDevice::WriteAtomic(const std::string& file, kerb::Bytes&& data) {
  File& state = Open(file);
  // A staged replacement subsumes any volatile tail: the caller is
  // replacing the whole file.
  state.data.resize(state.durable);
  const size_t size = data.size();
  state.staged = std::move(data);
  Fold(kOpWriteAtomic);
  FoldName(file);
  Fold(size);
  kobs::EmitNow(kobs::kSrcStore, kobs::Ev::kStoreDevWrite, size);
}

void SimDevice::Flush(const std::string& file) {
  auto it = files_.find(file);
  if (it != files_.end()) {
    Flush(it->second);
  }
}

void SimDevice::Flush(File& state) {
  size_t hardened = 0;
  // A flushed rename is a barrier: it either already happened or the crash
  // reverts it wholesale. The lost-flush fault models a lying append-path
  // cache, so it applies only to tail hardening — otherwise a silently
  // failed snapshot install could strand a truncated WAL with no
  // recoverable base, which is not a failure mode rename-based stores have.
  if (state.staged.has_value()) {
    hardened += state.staged->size();
    state.data = std::move(*state.staged);
    state.durable = state.data.size();
    state.staged.reset();
  }
  const size_t tail = state.data.size() - state.durable;
  if (tail != 0 && Chance(plan_.lost_flush)) {
    ++flushes_lost_;
    Fold(kOpFlushLost);
    FoldName(state.name);
  } else {
    hardened += tail;
    state.durable = state.data.size();
  }
  Fold(kOpFlush);
  FoldName(state.name);
  Fold(hardened);
  kobs::EmitNow(kobs::kSrcStore, kobs::Ev::kStoreDevFlush, hardened);
}

kerb::Bytes SimDevice::ReadAll(const std::string& file) const {
  auto it = files_.find(file);
  if (it == files_.end()) {
    return {};
  }
  // A staged replacement cleared the tail, so it is the whole file.
  const File& state = it->second;
  return state.staged.has_value() ? *state.staged : state.data;
}

size_t SimDevice::size(const std::string& file) const {
  auto it = files_.find(file);
  if (it == files_.end()) {
    return 0;
  }
  const File& state = it->second;
  return state.staged.has_value() ? state.staged->size() : state.data.size();
}

size_t SimDevice::durable_size(const std::string& file) const {
  auto it = files_.find(file);
  return it == files_.end() ? 0 : it->second.durable;
}

void SimDevice::Crash() {
  uint64_t files_affected = 0;
  uint64_t bytes_lost = 0;
  Fold(kOpCrash);
  for (auto& [name, state] : files_) {
    if (state.staged.has_value()) {
      // The rename never happened: old content survives intact.
      bytes_lost += state.staged->size();
      state.staged.reset();
      ++files_affected;
    }
    const size_t tail = state.data.size() - state.durable;
    if (tail != 0) {
      ++files_affected;
      size_t keep = 0;
      if (Chance(plan_.torn_tail)) {
        // A prefix of the in-flight append made it to the platter.
        keep = static_cast<size_t>(prng_.NextBelow(tail));
        ++tails_torn_;
        Fold(kOpTear);
        FoldName(name);
        Fold(keep);
      }
      bytes_lost += tail - keep;
      state.durable += keep;
      state.data.resize(state.durable);
    }
  }
  Fold(files_affected);
  Fold(bytes_lost);
  kobs::EmitNow(kobs::kSrcStore, kobs::Ev::kStoreCrash, files_affected, bytes_lost);
}

}  // namespace kstore
