// Deterministic pseudo-random source used throughout the simulation.
//
// Everything in this repository is reproducible: key generation, nonces,
// confounders, workload generation, and adversarial choices all draw from
// an explicitly seeded Prng. (The paper notes that "user workstations are
// not particularly good sources of random keys" and proposes a network
// random-number service; src/hsm/keystore.h models that service on top of
// this generator.)
//
// The generator is SplitMix64 — not cryptographically strong, which is fine
// here: no experiment in this repository attacks the generator itself, and
// determinism is what makes the attack demonstrations checkable.

#ifndef SRC_CRYPTO_PRNG_H_
#define SRC_CRYPTO_PRNG_H_

#include <cstdint>

#include "src/common/bytes.h"
#include "src/crypto/des.h"

namespace kcrypto {

class Prng {
 public:
  explicit Prng(uint64_t seed) : state_(seed) {}

  uint64_t NextU64();
  uint32_t NextU32() { return static_cast<uint32_t>(NextU64() >> 32); }

  // Uniform in [0, bound). bound must be nonzero (asserted).
  uint64_t NextBelow(uint64_t bound);

  kerb::Bytes NextBytes(size_t n);

  // Same byte stream as NextBytes, written into caller storage — the
  // allocation-free encode path draws confounders this way.
  void Fill(uint8_t* out, size_t n);

  // A fresh DES key: random 56 bits, odd parity, never weak/semi-weak.
  DesKey NextDesKey();

  // The same draw as NextDesKey, as key bytes with no subkey schedule — for
  // keys that are only sent, never encrypted under (the KDC's session keys).
  DesBlock NextDesKeyBytes();

  // Forks an independent stream (for per-host generators).
  Prng Fork();

 private:
  uint64_t state_;
};

}  // namespace kcrypto

#endif  // SRC_CRYPTO_PRNG_H_
