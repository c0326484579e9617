#include "src/crypto/prng.h"

#include <cassert>

namespace kcrypto {

uint64_t Prng::NextU64() {
  // SplitMix64 (Steele, Lea, Flood 2014).
  state_ += 0x9e3779b97f4a7c15ull;
  uint64_t z = state_;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

uint64_t Prng::NextBelow(uint64_t bound) {
  assert(bound != 0);
  // Rejection sampling to avoid modulo bias.
  uint64_t limit = UINT64_MAX - (UINT64_MAX % bound);
  uint64_t v;
  do {
    v = NextU64();
  } while (v >= limit);
  return v % bound;
}

kerb::Bytes Prng::NextBytes(size_t n) {
  kerb::Bytes out(n);
  Fill(out.data(), n);
  return out;
}

void Prng::Fill(uint8_t* out, size_t n) {
  size_t pos = 0;
  while (pos < n) {
    uint64_t v = NextU64();
    for (int i = 0; i < 8 && pos < n; ++i) {
      out[pos++] = static_cast<uint8_t>(v & 0xff);
      v >>= 8;
    }
  }
}

DesKey Prng::NextDesKey() { return DesKey(NextDesKeyBytes()); }

DesBlock Prng::NextDesKeyBytes() {
  for (;;) {
    DesBlock raw;
    uint64_t v = NextU64();
    for (int i = 0; i < 8; ++i) {
      raw[i] = static_cast<uint8_t>(v & 0xff);
      v >>= 8;
    }
    DesBlock key = FixParity(raw);
    if (!IsWeakKey(key)) {
      return key;
    }
  }
}

Prng Prng::Fork() { return Prng(NextU64() ^ 0xa5a5a5a5a5a5a5a5ull); }

}  // namespace kcrypto
