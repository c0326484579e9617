#include "src/crypto/crc32.h"

namespace kcrypto {

namespace {

struct Tables {
  uint32_t fwd[256];
  // ahead[k][i] is fwd[i] carried through k + 1 more zero bytes, so eight
  // input bytes fold into the register with eight independent lookups
  // (slicing-by-8): byte j of a group of eight uses ahead[6 - j], and the
  // last byte fwd.
  uint32_t ahead[7][256];
  uint8_t top_index[256];  // maps (fwd[i] >> 24) -> i; a bijection for this polynomial
};

constexpr Tables MakeTables() {
  Tables t{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1) ? (0xedb88320u ^ (c >> 1)) : (c >> 1);
    }
    t.fwd[i] = c;
  }
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t c = t.fwd[i];
    for (int k = 0; k < 7; ++k) {
      c = (c >> 8) ^ t.fwd[c & 0xff];
      t.ahead[k][i] = c;
    }
    t.top_index[t.fwd[i] >> 24] = static_cast<uint8_t>(i);
  }
  return t;
}

constexpr Tables kTables = MakeTables();

// Little-endian word from bytes: the register is reflected, so the first
// byte is its low byte on every host.
inline uint32_t LoadU32LE(const uint8_t* p) {
  return static_cast<uint32_t>(p[0]) | (static_cast<uint32_t>(p[1]) << 8) |
         (static_cast<uint32_t>(p[2]) << 16) | (static_cast<uint32_t>(p[3]) << 24);
}

}  // namespace

void Crc32State::Update(kerb::BytesView data) {
  const Tables& t = kTables;
  const uint8_t* p = data.data();
  size_t n = data.size();
  uint32_t reg = reg_;
  for (; n >= 8; p += 8, n -= 8) {
    const uint32_t lo = reg ^ LoadU32LE(p);
    const uint32_t hi = LoadU32LE(p + 4);
    reg = t.ahead[6][lo & 0xff] ^ t.ahead[5][(lo >> 8) & 0xff] ^
          t.ahead[4][(lo >> 16) & 0xff] ^ t.ahead[3][lo >> 24] ^ t.ahead[2][hi & 0xff] ^
          t.ahead[1][(hi >> 8) & 0xff] ^ t.ahead[0][(hi >> 16) & 0xff] ^ t.fwd[hi >> 24];
  }
  for (; n > 0; ++p, --n) {
    reg = (reg >> 8) ^ t.fwd[(reg ^ *p) & 0xff];
  }
  reg_ = reg;
}

uint32_t Crc32(kerb::BytesView data) {
  Crc32State state;
  state.Update(data);
  return state.Final();
}

std::array<uint8_t, 4> ForgePatch(kerb::BytesView prefix, uint32_t target_crc) {
  const Tables& t = kTables;

  // Internal register value we must reach after consuming the patch.
  uint32_t want = target_crc ^ 0xffffffffu;

  // Walk backwards from `want`, recovering the table index used at each of
  // the four byte steps. The low bytes of `cur` become unknown as we walk,
  // but each step's lookup only depends on bits that are still determined.
  uint32_t cur = want;
  std::array<uint8_t, 4> idxs{};
  for (int i = 3; i >= 0; --i) {
    uint8_t idx = t.top_index[cur >> 24];
    idxs[i] = idx;
    cur = (cur ^ t.fwd[idx]) << 8;
  }

  // Forward pass: force each step to use the recovered index by choosing the
  // patch byte accordingly.
  Crc32State state;
  state.Update(prefix);
  uint32_t reg = state.reg_;
  std::array<uint8_t, 4> patch{};
  for (int i = 0; i < 4; ++i) {
    patch[i] = static_cast<uint8_t>((reg ^ idxs[i]) & 0xff);
    reg = (reg >> 8) ^ t.fwd[idxs[i]];
  }
  return patch;
}

}  // namespace kcrypto
