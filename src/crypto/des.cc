#include "src/crypto/des.h"

#include <algorithm>
#include <array>
#include <bit>

#include "src/crypto/des_tables.h"

namespace kcrypto {

namespace {

using destables::Permute;

// ---------------------------------------------------------------------------
// Compile-time derivation of the fused lookup tables from the FIPS tables.
//
// The fast path never walks a permutation bit by bit. Instead:
//   * IP and FP are applied as eight byte-indexed lookups ORed together
//     (kIpTab/kFpTab: contribution of input byte i having value v).
//   * The round function fuses E, the S-boxes, and P into eight 64-entry
//     tables (kSp): E is just overlapping 6-bit windows of R, so each window,
//     XORed with its 6-bit subkey chunk, indexes a table whose entries are
//     already P-permuted S-box outputs placed in their final positions.
//   * PC-1 and PC-2 of the key schedule get the same byte-indexed treatment;
//     PC-2's table also places each 6-bit subkey chunk where the round
//     function XORs it (kPc2SplitTab), so a round key is seven lookups.
// All tables are constexpr-generated from the canonical FIPS tables in
// des_tables.h, so there is exactly one source of truth for the standard.
// ---------------------------------------------------------------------------

// Byte-indexed form of a 1-based-from-MSB permutation: entry [i][v] is the
// permuted contribution of input byte i (0 = most significant) holding v.
template <int kInBytes>
constexpr std::array<std::array<uint64_t, 256>, kInBytes> MakeByteTable(
    const uint8_t* table, int in_bits, int out_bits) {
  std::array<std::array<uint64_t, 256>, kInBytes> out{};
  for (int i = 0; i < kInBytes; ++i) {
    for (uint32_t v = 0; v < 256; ++v) {
      uint64_t placed = static_cast<uint64_t>(v) << (in_bits - 8 * (i + 1));
      out[i][v] = Permute(placed, in_bits, table, out_bits);
    }
  }
  return out;
}

constexpr auto kIpTab = MakeByteTable<8>(destables::kIp, 64, 64);
constexpr auto kFpTab = MakeByteTable<8>(destables::kFp, 64, 64);
constexpr auto kPc1Tab = MakeByteTable<8>(destables::kPc1, 64, 56);

// PC-2 in the split form DesKey keeps its round keys in: entry [i][v] is
// the PC-2 contribution of C||D byte i holding v, its even S-box chunks
// (boxes 0/2/4/6) in the high word and its odd ones in the low word, each
// chunk at bits 31..26 / 23..18 / 15..10 / 7..2 of its word. PC-2 sends
// every bit to one place, so the split of an OR of contributions is the OR
// of their splits.
constexpr std::array<std::array<uint64_t, 256>, 7> MakePc2SplitTable() {
  const auto pc2 = MakeByteTable<7>(destables::kPc2, 56, 48);
  std::array<std::array<uint64_t, 256>, 7> out{};
  for (int i = 0; i < 7; ++i) {
    for (int v = 0; v < 256; ++v) {
      const uint64_t subkey48 = pc2[i][v];
      for (int chunk = 0; chunk < 4; ++chunk) {
        const int shift = 26 - 8 * chunk;
        out[i][v] |= ((subkey48 >> (42 - 12 * chunk)) & 0x3f) << (32 + shift);
        out[i][v] |= ((subkey48 >> (36 - 12 * chunk)) & 0x3f) << shift;
      }
    }
  }
  return out;
}

constexpr auto kPc2SplitTab = MakePc2SplitTable();

// Fused S-box/P tables: kSp[box][six] is P(S_box(six)) with the 4-bit S-box
// output already placed in its nibble of the 32-bit pre-P word.
constexpr std::array<std::array<uint32_t, 64>, 8> MakeSpTables() {
  std::array<std::array<uint32_t, 64>, 8> out{};
  for (int box = 0; box < 8; ++box) {
    for (uint32_t six = 0; six < 64; ++six) {
      // Row is the outer two bits, column the inner four (FIPS 46).
      uint32_t row = ((six & 0x20) >> 4) | (six & 0x01);
      uint32_t col = (six >> 1) & 0x0f;
      uint32_t sbox_out = static_cast<uint32_t>(destables::kSBox[box][row * 16 + col])
                          << (28 - 4 * box);
      out[box][six] = static_cast<uint32_t>(Permute(sbox_out, 32, destables::kP, 32));
    }
  }
  return out;
}

constexpr auto kSp = MakeSpTables();

inline uint64_t ApplyIp(uint64_t x) {
  return kIpTab[0][(x >> 56) & 0xff] | kIpTab[1][(x >> 48) & 0xff] |
         kIpTab[2][(x >> 40) & 0xff] | kIpTab[3][(x >> 32) & 0xff] |
         kIpTab[4][(x >> 24) & 0xff] | kIpTab[5][(x >> 16) & 0xff] |
         kIpTab[6][(x >> 8) & 0xff] | kIpTab[7][x & 0xff];
}

inline uint64_t ApplyFp(uint64_t x) {
  return kFpTab[0][(x >> 56) & 0xff] | kFpTab[1][(x >> 48) & 0xff] |
         kFpTab[2][(x >> 40) & 0xff] | kFpTab[3][(x >> 32) & 0xff] |
         kFpTab[4][(x >> 24) & 0xff] | kFpTab[5][(x >> 16) & 0xff] |
         kFpTab[6][(x >> 8) & 0xff] | kFpTab[7][x & 0xff];
}

// The round function. The E expansion is eight overlapping 6-bit windows of
// R at stride 4; the even-numbered windows are non-overlapping 6-bit fields
// of rotr(R, 1) and the odd ones the same fields of rotl(R, 3), so two
// rotations materialise all of E, and the 48-bit subkey — stored as chunks
// pre-placed at those field positions — is applied with two word XORs.
inline uint32_t FeistelFast(uint32_t r, const uint32_t* k) {
  const uint32_t u = std::rotr(r, 1) ^ k[0];
  const uint32_t t = std::rotl(r, 3) ^ k[1];
  return kSp[0][(u >> 26) & 0x3f] ^ kSp[1][(t >> 26) & 0x3f] ^
         kSp[2][(u >> 18) & 0x3f] ^ kSp[3][(t >> 18) & 0x3f] ^
         kSp[4][(u >> 10) & 0x3f] ^ kSp[5][(t >> 10) & 0x3f] ^
         kSp[6][(u >> 2) & 0x3f] ^ kSp[7][(t >> 2) & 0x3f];
}

using RoundKeys = std::array<std::array<uint32_t, 2>, 16>;

// R: the sixteen rounds and the final swap, on a block already through IP.
// Two rounds per step keep L and R in registers without a swap; the output
// is R16 || L16.
inline uint64_t Rounds(const RoundKeys& k, uint64_t y) {
  uint32_t l = static_cast<uint32_t>(y >> 32);
  uint32_t r = static_cast<uint32_t>(y);
  for (int round = 0; round < 16; round += 2) {
    l ^= FeistelFast(r, k[round].data());
    r ^= FeistelFast(l, k[round + 1].data());
  }
  return (static_cast<uint64_t>(r) << 32) | l;
}

// Rounds on two independent blocks, interleaved round by round.
inline void RoundsPair(const RoundKeys& ka, uint64_t& ya, const RoundKeys& kb, uint64_t& yb) {
  uint32_t la = static_cast<uint32_t>(ya >> 32);
  uint32_t ra = static_cast<uint32_t>(ya);
  uint32_t lb = static_cast<uint32_t>(yb >> 32);
  uint32_t rb = static_cast<uint32_t>(yb);
  for (int round = 0; round < 16; round += 2) {
    la ^= FeistelFast(ra, ka[round].data());
    lb ^= FeistelFast(rb, kb[round].data());
    ra ^= FeistelFast(la, ka[round + 1].data());
    rb ^= FeistelFast(lb, kb[round + 1].data());
  }
  ya = (static_cast<uint64_t>(ra) << 32) | la;
  yb = (static_cast<uint64_t>(rb) << 32) | lb;
}

uint32_t RotateLeft28(uint32_t v, int n) {
  return ((v << n) | (v >> (28 - n))) & 0x0fffffff;
}

}  // namespace

uint64_t BlockToU64(const DesBlock& b) { return LoadU64BE(b.data()); }

DesBlock U64ToBlock(uint64_t v) {
  DesBlock b;
  StoreU64BE(b.data(), v);
  return b;
}

uint64_t InitialPermutation(uint64_t block) { return ApplyIp(block); }

uint64_t FinalPermutation(uint64_t block) { return ApplyFp(block); }

DesKey::DesKey(const DesBlock& key_bytes) : bytes_(key_bytes) { Schedule(); }

DesKey::DesKey(uint64_t key) : bytes_(U64ToBlock(key)) { Schedule(); }

void DesKey::Schedule() {
  uint64_t key = BlockToU64(bytes_);
  uint64_t key56 = kPc1Tab[0][(key >> 56) & 0xff] | kPc1Tab[1][(key >> 48) & 0xff] |
                   kPc1Tab[2][(key >> 40) & 0xff] | kPc1Tab[3][(key >> 32) & 0xff] |
                   kPc1Tab[4][(key >> 24) & 0xff] | kPc1Tab[5][(key >> 16) & 0xff] |
                   kPc1Tab[6][(key >> 8) & 0xff] | kPc1Tab[7][key & 0xff];
  uint32_t c = static_cast<uint32_t>(key56 >> 28) & 0x0fffffff;
  uint32_t d = static_cast<uint32_t>(key56) & 0x0fffffff;
  for (int round = 0; round < 16; ++round) {
    c = RotateLeft28(c, destables::kShifts[round]);
    d = RotateLeft28(d, destables::kShifts[round]);
    const uint64_t cd = (static_cast<uint64_t>(c) << 28) | d;
    const uint64_t split =
        kPc2SplitTab[0][(cd >> 48) & 0xff] | kPc2SplitTab[1][(cd >> 40) & 0xff] |
        kPc2SplitTab[2][(cd >> 32) & 0xff] | kPc2SplitTab[3][(cd >> 24) & 0xff] |
        kPc2SplitTab[4][(cd >> 16) & 0xff] | kPc2SplitTab[5][(cd >> 8) & 0xff] |
        kPc2SplitTab[6][cd & 0xff];
    roundkeys_[round][0] = static_cast<uint32_t>(split >> 32);
    roundkeys_[round][1] = static_cast<uint32_t>(split);
  }
}

uint64_t DesKey::EncryptBlock(uint64_t plaintext) const {
  return ApplyFp(Rounds(roundkeys_, ApplyIp(plaintext)));
}

uint64_t DesKey::EncryptRounds(uint64_t y) const { return Rounds(roundkeys_, y); }

void DesKey::EncryptRoundsPair(const DesKey& key_a, uint64_t& ya, const DesKey& key_b,
                               uint64_t& yb) {
  RoundsPair(key_a.roundkeys_, ya, key_b.roundkeys_, yb);
}

uint64_t DesKey::DecryptBlock(uint64_t ciphertext) const {
  uint64_t block = ApplyIp(ciphertext);
  uint32_t l = static_cast<uint32_t>(block >> 32);
  uint32_t r = static_cast<uint32_t>(block);
  for (int round = 15; round >= 0; round -= 2) {
    l ^= FeistelFast(r, roundkeys_[round].data());
    r ^= FeistelFast(l, roundkeys_[round - 1].data());
  }
  uint64_t preout = (static_cast<uint64_t>(r) << 32) | l;
  return ApplyFp(preout);
}

void DesKey::EncryptBlocks2(const uint64_t* in, uint64_t* out, size_t n) const {
  size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    uint64_t b0 = ApplyIp(in[i]);
    uint64_t b1 = ApplyIp(in[i + 1]);
    RoundsPair(roundkeys_, b0, roundkeys_, b1);
    out[i] = ApplyFp(b0);
    out[i + 1] = ApplyFp(b1);
  }
  if (i < n) {
    out[i] = EncryptBlock(in[i]);
  }
}

void DesKey::DecryptBlocks2(const uint64_t* in, uint64_t* out, size_t n) const {
  size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    uint64_t b0 = ApplyIp(in[i]);
    uint64_t b1 = ApplyIp(in[i + 1]);
    uint32_t l0 = static_cast<uint32_t>(b0 >> 32);
    uint32_t r0 = static_cast<uint32_t>(b0);
    uint32_t l1 = static_cast<uint32_t>(b1 >> 32);
    uint32_t r1 = static_cast<uint32_t>(b1);
    for (int round = 15; round >= 0; round -= 2) {
      l0 ^= FeistelFast(r0, roundkeys_[round].data());
      l1 ^= FeistelFast(r1, roundkeys_[round].data());
      r0 ^= FeistelFast(l0, roundkeys_[round - 1].data());
      r1 ^= FeistelFast(l1, roundkeys_[round - 1].data());
    }
    out[i] = ApplyFp((static_cast<uint64_t>(r0) << 32) | l0);
    out[i + 1] = ApplyFp((static_cast<uint64_t>(r1) << 32) | l1);
  }
  if (i < n) {
    out[i] = DecryptBlock(in[i]);
  }
}

DesBlock DesKey::EncryptBlock(const DesBlock& plaintext) const {
  return U64ToBlock(EncryptBlock(BlockToU64(plaintext)));
}

DesKey DesKey::Variant(uint8_t mask) const {
  DesBlock v = bytes_;
  for (auto& b : v) {
    b = static_cast<uint8_t>(b ^ mask);
  }
  return DesKey(FixParity(v));
}

DesBlock FixParity(const DesBlock& key) {
  // All eight parity bits at once: fold the seven key bits of every byte
  // down to bit 0 with three XOR-shifts, then set each low bit to the
  // complement of that fold (odd parity). This sits inside string-to-key and
  // the weak-key check, i.e. in the cracking inner loop.
  const uint64_t k = LoadU64BE(key.data());
  uint64_t x = (k >> 1) & 0x7f7f7f7f7f7f7f7full;  // the 7 key bits, per byte
  x ^= x >> 4;
  x ^= x >> 2;
  x ^= x >> 1;
  const uint64_t parity = (x ^ 0x0101010101010101ull) & 0x0101010101010101ull;
  return U64ToBlock((k & 0xfefefefefefefefeull) | parity);
}

bool HasOddParity(const DesBlock& key) {
  for (uint8_t byte : key) {
    if ((std::popcount(byte) & 1) == 0) {
      return false;
    }
  }
  return true;
}

bool IsWeakKey(const DesBlock& key) {
  // Weak and semi-weak keys, parity-corrected, from FIPS 74 / Davies & Price,
  // pre-sorted so membership is a binary search (this sits inside the
  // string-to-key weak-key rejection, i.e. in the cracking inner loop).
  static constexpr std::array<uint64_t, 16> kWeakSorted = [] {
    std::array<uint64_t, 16> keys = {
        0x0101010101010101ull, 0xfefefefefefefefeull, 0x1f1f1f1f0e0e0e0eull,
        0xe0e0e0e0f1f1f1f1ull,
        // Semi-weak pairs.
        0x011f011f010e010eull, 0x1f011f010e010e01ull, 0x01e001e001f101f1ull,
        0xe001e001f101f101ull, 0x01fe01fe01fe01feull, 0xfe01fe01fe01fe01ull,
        0x1fe01fe00ef10ef1ull, 0xe01fe01ff10ef10eull, 0x1ffe1ffe0efe0efeull,
        0xfe1ffe1ffe0efe0eull, 0xe0fee0fef1fef1feull, 0xfee0fee0fef1fef1ull,
    };
    std::sort(keys.begin(), keys.end());
    return keys;
  }();
  uint64_t k = BlockToU64(FixParity(key));
  return std::binary_search(kWeakSorted.begin(), kWeakSorted.end(), k);
}

}  // namespace kcrypto
