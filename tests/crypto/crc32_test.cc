#include "src/crypto/crc32.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "src/common/bytes.h"
#include "src/crypto/prng.h"

namespace kcrypto {
namespace {

using kerb::Bytes;
using kerb::ToBytes;

TEST(Crc32Test, KnownVectors) {
  // CRC-32/ISO-HDLC standard vectors, including the canonical "123456789"
  // check value.
  EXPECT_EQ(Crc32(ToBytes("")), 0x00000000u);
  EXPECT_EQ(Crc32(ToBytes("123456789")), 0xCBF43926u);
  EXPECT_EQ(Crc32(ToBytes("The quick brown fox jumps over the lazy dog")), 0x414FA339u);
  EXPECT_EQ(Crc32(Bytes{0x00}), 0xD202EF8Du);
  EXPECT_EQ(Crc32(ToBytes("a")), 0xE8B7BE43u);
  EXPECT_EQ(Crc32(ToBytes("abc")), 0x352441C2u);
  EXPECT_EQ(Crc32(ToBytes("message digest")), 0x20159D7Fu);
  EXPECT_EQ(Crc32(ToBytes("abcdefghijklmnopqrstuvwxyz")), 0x4C2750BDu);
  EXPECT_EQ(Crc32(Bytes{0xFF, 0xFF, 0xFF, 0xFF}), 0xFFFFFFFFu);
}

TEST(Crc32Test, IncrementalMatchesOneShot) {
  Prng prng(1);
  Bytes data = prng.NextBytes(1000);
  Crc32State state;
  state.Update(kerb::BytesView(data.data(), 100));
  state.Update(kerb::BytesView(data.data() + 100, 900));
  EXPECT_EQ(state.Final(), Crc32(data));
}

// The weakness the paper exploits: CRC-32 is forgeable. Four attacker-chosen
// bytes steer the checksum to any target value.
TEST(Crc32Test, ForgePatchHitsArbitraryTargets) {
  Prng prng(2);
  for (int i = 0; i < 200; ++i) {
    Bytes prefix = prng.NextBytes(prng.NextBelow(64));
    uint32_t target = prng.NextU32();
    auto patch = ForgePatch(prefix, target);
    Bytes forged = prefix;
    forged.insert(forged.end(), patch.begin(), patch.end());
    EXPECT_EQ(Crc32(forged), target);
  }
}

// The textbook one-byte-at-a-time CRC-32, the reference for the sliced
// Update: reflected polynomial 0xEDB88320, bit by bit.
uint32_t BitwiseCrc32(const uint8_t* data, size_t n) {
  uint32_t reg = 0xffffffffu;
  for (size_t i = 0; i < n; ++i) {
    reg ^= data[i];
    for (int k = 0; k < 8; ++k) {
      reg = (reg & 1) ? (0xedb88320u ^ (reg >> 1)) : (reg >> 1);
    }
  }
  return reg ^ 0xffffffffu;
}

// Every length across the 8-byte slicing boundary, at every start alignment.
TEST(Crc32Test, SlicedMatchesReferenceAtEveryLengthAndOffset) {
  Prng prng(4);
  Bytes buffer = prng.NextBytes(80);
  for (size_t offset = 0; offset < 8; ++offset) {
    for (size_t len = 0; len <= 70; ++len) {
      EXPECT_EQ(Crc32(kerb::BytesView(buffer.data() + offset, len)),
                BitwiseCrc32(buffer.data() + offset, len))
          << "offset " << offset << ", length " << len;
    }
  }
}

// Any split of the input into Update calls gives the one-shot value.
TEST(Crc32Test, RandomSplitsMatchOneShot) {
  Prng prng(5);
  for (int trial = 0; trial < 200; ++trial) {
    Bytes data = prng.NextBytes(prng.NextBelow(160));
    Crc32State state;
    size_t pos = 0;
    while (pos < data.size()) {
      const size_t step = std::min<size_t>(data.size() - pos, prng.NextBelow(20));
      state.Update(kerb::BytesView(data.data() + pos, step));
      pos += step;
    }
    EXPECT_EQ(state.Final(), BitwiseCrc32(data.data(), data.size())) << "trial " << trial;
  }
}

// ForgePatch runs its prefix through the sliced Update: prefixes long
// enough to take the 8-byte path must still land on the target.
TEST(Crc32Test, ForgePatchOnSlicedPrefixes) {
  Prng prng(6);
  for (size_t len = 8; len <= 70; ++len) {
    Bytes prefix = prng.NextBytes(len);
    const uint32_t target = prng.NextU32();
    auto patch = ForgePatch(prefix, target);
    kerb::Append(prefix, kerb::BytesView(patch.data(), patch.size()));
    EXPECT_EQ(BitwiseCrc32(prefix.data(), prefix.size()), target) << "prefix " << len;
  }
}

TEST(Crc32Test, ForgeCanMatchAnotherMessagesCrc) {
  // The concrete cut-and-paste scenario: make a *different* message carry
  // the CRC of the original, so a CRC check cannot tell them apart.
  Bytes original = ToBytes("TGS request: ticket for service S, no options");
  Bytes tampered = ToBytes("TGS request: ticket for service S, ENC-TKT-IN-SKEY");
  uint32_t original_crc = Crc32(original);
  auto patch = ForgePatch(tampered, original_crc);
  kerb::Append(tampered, kerb::BytesView(patch.data(), patch.size()));
  EXPECT_EQ(Crc32(tampered), original_crc);
  EXPECT_NE(tampered, original);
}

TEST(Crc32Test, ForgeOnEmptyPrefix) {
  auto patch = ForgePatch(Bytes{}, 0xDEADBEEFu);
  EXPECT_EQ(Crc32(Bytes(patch.begin(), patch.end())), 0xDEADBEEFu);
}

TEST(Crc32Test, CrcIsLinearInXorDifference) {
  // CRC(a) ^ CRC(b) == CRC(a ^ b) ^ CRC(0...0) for equal-length inputs —
  // the affine structure that makes forgery possible.
  Prng prng(3);
  for (int i = 0; i < 50; ++i) {
    size_t len = 1 + prng.NextBelow(64);
    Bytes a = prng.NextBytes(len);
    Bytes b = prng.NextBytes(len);
    Bytes zero(len, 0);
    uint32_t lhs = Crc32(a) ^ Crc32(b);
    uint32_t rhs = Crc32(kerb::Xor(a, b)) ^ Crc32(zero);
    EXPECT_EQ(lhs, rhs);
  }
}

}  // namespace
}  // namespace kcrypto
