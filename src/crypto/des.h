// From-scratch implementation of the Data Encryption Standard (FIPS 46).
//
// Kerberos V4 and the V5 Draft 3 model in this repository are built on DES,
// exactly as the original systems were. This is the production path: a
// classic table-driven core in which IP/FP are eight byte-indexed lookups,
// the round function is eight fused S-box+P lookups, and each round subkey
// is stored as the eight 6-bit chunks those lookups consume. Every table is
// derived at compile time from the canonical FIPS tables (des_tables.h).
//
// A clarity-first bit-permutation transcription of the same standard is kept
// in src/crypto/des_ref.h as a reference oracle; the two are cross-checked
// on published test vectors and tens of thousands of randomized (key, block)
// pairs in tests/crypto/des_fastref_test.cc. The benchmark suite
// (bench_b1_desmodes, bench_b4_crack) measures this fast path; comparative
// results in EXPERIMENTS.md are ratios between modes of this same core, so
// the shape of the paper's cost claims is preserved.

#ifndef SRC_CRYPTO_DES_H_
#define SRC_CRYPTO_DES_H_

#include <array>
#include <cstdint>

#include "src/common/bytes.h"
#include "src/common/result.h"

namespace kcrypto {

// One 64-bit DES block as raw bytes, big-endian bit numbering per FIPS 46.
using DesBlock = std::array<uint8_t, 8>;

// Big-endian (FIPS bit order) load/store of one block. These are the bridge
// between byte buffers and the uint64_t block form all the fast paths use.
inline uint64_t LoadU64BE(const uint8_t* p) {
  return (static_cast<uint64_t>(p[0]) << 56) | (static_cast<uint64_t>(p[1]) << 48) |
         (static_cast<uint64_t>(p[2]) << 40) | (static_cast<uint64_t>(p[3]) << 32) |
         (static_cast<uint64_t>(p[4]) << 24) | (static_cast<uint64_t>(p[5]) << 16) |
         (static_cast<uint64_t>(p[6]) << 8) | static_cast<uint64_t>(p[7]);
}

inline void StoreU64BE(uint8_t* p, uint64_t v) {
  p[0] = static_cast<uint8_t>(v >> 56);
  p[1] = static_cast<uint8_t>(v >> 48);
  p[2] = static_cast<uint8_t>(v >> 40);
  p[3] = static_cast<uint8_t>(v >> 32);
  p[4] = static_cast<uint8_t>(v >> 24);
  p[5] = static_cast<uint8_t>(v >> 16);
  p[6] = static_cast<uint8_t>(v >> 8);
  p[7] = static_cast<uint8_t>(v);
}

uint64_t BlockToU64(const DesBlock& b);
DesBlock U64ToBlock(uint64_t v);

// The initial and final permutations, for chained modes that run in the IP
// domain. IP and FP are bit permutations and each other's inverse, so
// IP(FP(y) ^ p) = y ^ IP(p): a CBC chain can carry y_i = R(IP(p_i) ^ y_{i-1})
// from y_0 = IP(iv) and output c_i = FP(y_i), where R is the sixteen rounds
// and the final swap (DesKey::EncryptRounds). IP of the next plaintext and FP
// of each output then sit off the chain's serial path.
uint64_t InitialPermutation(uint64_t block);
uint64_t FinalPermutation(uint64_t block);

// A DES key with its 16-round subkey schedule precomputed.
//
// Keys are 8 bytes; the low bit of each byte is an odd-parity bit per the
// standard. Construction does not reject bad parity (Kerberos historically
// fixed parity rather than failing) — use FixParity()/HasOddParity() to
// manage it explicitly.
class DesKey {
 public:
  DesKey() = default;
  explicit DesKey(const DesBlock& key_bytes);
  explicit DesKey(uint64_t key);

  const DesBlock& bytes() const { return bytes_; }
  uint64_t AsU64() const { return BlockToU64(bytes_); }

  // Encrypts / decrypts one 64-bit block.
  uint64_t EncryptBlock(uint64_t plaintext) const;
  uint64_t DecryptBlock(uint64_t ciphertext) const;

  // R alone, on a block already through IP: EncryptBlock(x) ==
  // FinalPermutation(EncryptRounds(InitialPermutation(x))).
  uint64_t EncryptRounds(uint64_t y) const;

  // EncryptRounds under two keys at once (they may be the same key), the
  // rounds of the two blocks interleaved so that one chain's S-box loads
  // overlap the other's arithmetic.
  static void EncryptRoundsPair(const DesKey& key_a, uint64_t& ya, const DesKey& key_b,
                                uint64_t& yb);

  // Bulk ECB over a span, two blocks in flight per step so the S-box table
  // loads of one block overlap the XOR/rotate arithmetic of the other —
  // byte-identical to calling EncryptBlock/DecryptBlock per element but
  // meaningfully faster on the bulk paths (ECB, CBC/PCBC decrypt, sweeps).
  // in == out is allowed.
  void EncryptBlocks2(const uint64_t* in, uint64_t* out, size_t n) const;
  void DecryptBlocks2(const uint64_t* in, uint64_t* out, size_t n) const;

  DesBlock EncryptBlock(const DesBlock& plaintext) const;

  // Derives a "variant" key by XORing every byte with `mask`. Draft 3 uses
  // variant keys for its encrypted-checksum types so that a checksum key is
  // never identical to the message-encryption key.
  DesKey Variant(uint8_t mask) const;

  bool operator==(const DesKey& other) const { return bytes_ == other.bytes_; }

 private:
  void Schedule();

  DesBlock bytes_{};
  // Each 48-bit round key as two 32-bit words: [0] holds the even S-box
  // chunks (boxes 0/2/4/6) and [1] the odd ones, each 6-bit chunk placed at
  // bits 31..26 / 23..18 / 15..10 / 7..2 — the positions where the matching
  // E-expansion window sits in a rotated copy of R, so the round function
  // applies the whole subkey with two word XORs instead of eight byte XORs.
  std::array<std::array<uint32_t, 2>, 16> roundkeys_{};
};

// Sets each byte of `key` to odd parity (modifying only bit 0 of each byte).
DesBlock FixParity(const DesBlock& key);

// True when every byte of `key` has odd parity.
bool HasOddParity(const DesBlock& key);

// True for the four weak and twelve semi-weak DES keys (parity-adjusted
// comparison, O(log n) over a sorted table). Kerberos key generation must
// reject these.
bool IsWeakKey(const DesBlock& key);

}  // namespace kcrypto

#endif  // SRC_CRYPTO_DES_H_
