#include "src/crypto/modes.h"

#include <gtest/gtest.h>

#include "src/common/hex.h"
#include "src/crypto/prng.h"

namespace kcrypto {
namespace {

using kerb::Bytes;
using kerb::MustHexDecode;

const DesKey kFipsKey(0x0123456789abcdefull);
const DesBlock kFipsIv = U64ToBlock(0x1234567890abcdefull);
// "Now is the time for all " — the FIPS 81 sample plaintext.
const char* kFipsPlain = "4e6f77206973207468652074696d6520666f7220616c6c20";

TEST(ModesTest, Fips81EcbVector) {
  Bytes ct = EncryptEcb(kFipsKey, MustHexDecode(kFipsPlain));
  EXPECT_EQ(kerb::HexEncode(ct), "3fa40e8a984d48156a271787ab8883f9893d51ec4b563b53");
  EXPECT_EQ(DecryptEcb(kFipsKey, ct), MustHexDecode(kFipsPlain));
}

TEST(ModesTest, Fips81CbcVector) {
  Bytes ct = EncryptCbc(kFipsKey, kFipsIv, MustHexDecode(kFipsPlain));
  EXPECT_EQ(kerb::HexEncode(ct), "e5c7cdde872bf27c43e934008c389c0f683788499a7c05f6");
  EXPECT_EQ(DecryptCbc(kFipsKey, kFipsIv, ct), MustHexDecode(kFipsPlain));
}

TEST(ModesTest, PcbcRoundTrip) {
  Prng prng(9);
  for (int i = 0; i < 50; ++i) {
    DesKey key = prng.NextDesKey();
    DesBlock iv = U64ToBlock(prng.NextU64());
    Bytes pt = prng.NextBytes(8 * (1 + prng.NextBelow(10)));
    Bytes ct = EncryptPcbc(key, iv, pt);
    EXPECT_EQ(DecryptPcbc(key, iv, ct), pt);
  }
}

TEST(ModesTest, CbcRoundTripRandom) {
  Prng prng(10);
  for (int i = 0; i < 50; ++i) {
    DesKey key = prng.NextDesKey();
    DesBlock iv = U64ToBlock(prng.NextU64());
    Bytes pt = prng.NextBytes(8 * (1 + prng.NextBelow(10)));
    Bytes ct = EncryptCbc(key, iv, pt);
    EXPECT_EQ(DecryptCbc(key, iv, ct), pt);
  }
}

// The property the chosen-plaintext attack (E7) exploits: with a fixed IV, a
// prefix of a CBC encryption is the encryption of the plaintext prefix.
TEST(ModesTest, CbcPrefixProperty) {
  Prng prng(11);
  DesKey key = prng.NextDesKey();
  Bytes pt = prng.NextBytes(64);
  Bytes full = EncryptCbc(key, kZeroIv, pt);
  for (size_t blocks = 1; blocks < 8; ++blocks) {
    Bytes prefix_pt(pt.begin(), pt.begin() + 8 * blocks);
    Bytes prefix_ct = EncryptCbc(key, kZeroIv, prefix_pt);
    Bytes truncated(full.begin(), full.begin() + 8 * blocks);
    EXPECT_EQ(prefix_ct, truncated) << "CBC prefix property must hold at block " << blocks;
  }
}

// PCBC does NOT have the error-containment of CBC: flipping ciphertext block
// i garbles every plaintext block from i onward.
TEST(ModesTest, PcbcErrorPropagatesToEnd) {
  Prng prng(12);
  DesKey key = prng.NextDesKey();
  Bytes pt = prng.NextBytes(48);
  DesBlock iv = U64ToBlock(prng.NextU64());
  Bytes ct = EncryptPcbc(key, iv, pt);
  ct[8] ^= 0x01;  // corrupt block 1
  Bytes bad = DecryptPcbc(key, iv, ct);
  EXPECT_EQ(Bytes(bad.begin(), bad.begin() + 8), Bytes(pt.begin(), pt.begin() + 8));
  for (size_t block = 1; block < 6; ++block) {
    EXPECT_NE(Bytes(bad.begin() + 8 * block, bad.begin() + 8 * block + 8),
              Bytes(pt.begin() + 8 * block, pt.begin() + 8 * block + 8))
        << "block " << block << " should be garbled";
  }
}

// The paper's §Encryption Layer observation (E8): interchanging two adjacent
// PCBC ciphertext blocks garbles only those blocks; later blocks decrypt
// correctly. CBC by contrast recovers after one block.
TEST(ModesTest, PcbcBlockSwapGarblesOnlySwappedBlocks) {
  Prng prng(13);
  DesKey key = prng.NextDesKey();
  Bytes pt = prng.NextBytes(64);  // 8 blocks
  DesBlock iv = U64ToBlock(prng.NextU64());
  Bytes ct = EncryptPcbc(key, iv, pt);
  // Swap ciphertext blocks 2 and 3.
  for (int i = 0; i < 8; ++i) {
    std::swap(ct[16 + i], ct[24 + i]);
  }
  Bytes out = DecryptPcbc(key, iv, ct);
  // Blocks 0..1 intact.
  EXPECT_EQ(Bytes(out.begin(), out.begin() + 16), Bytes(pt.begin(), pt.begin() + 16));
  // Blocks 2..3 garbled.
  EXPECT_NE(Bytes(out.begin() + 16, out.begin() + 32), Bytes(pt.begin() + 16, pt.begin() + 32));
  // Blocks 4..7 intact again — the flaw the paper highlights.
  EXPECT_EQ(Bytes(out.begin() + 32, out.end()), Bytes(pt.begin() + 32, pt.end()));
}

TEST(ModesTest, Pkcs5PadRoundTrip) {
  Prng prng(14);
  for (size_t len = 0; len < 40; ++len) {
    Bytes data = prng.NextBytes(len);
    Bytes padded = Pkcs5Pad(data);
    EXPECT_EQ(padded.size() % 8, 0u);
    EXPECT_GT(padded.size(), data.size());
    auto unpadded = Pkcs5Unpad(padded);
    ASSERT_TRUE(unpadded.ok());
    EXPECT_EQ(unpadded.value(), data);
  }
}

TEST(ModesTest, Pkcs5UnpadRejectsGarbage) {
  EXPECT_FALSE(Pkcs5Unpad(Bytes{}).ok());
  EXPECT_FALSE(Pkcs5Unpad(Bytes{1, 2, 3}).ok());  // not multiple of 8
  Bytes bad(8, 0);
  bad[7] = 9;  // pad length out of range
  EXPECT_FALSE(Pkcs5Unpad(bad).ok());
  Bytes inconsistent{0, 0, 0, 0, 0, 0, 7, 2};  // pad bytes don't match
  EXPECT_FALSE(Pkcs5Unpad(inconsistent).ok());
}

TEST(ModesTest, ZeroPadTo8) {
  EXPECT_EQ(ZeroPadTo8(Bytes{}).size(), 0u);
  EXPECT_EQ(ZeroPadTo8(Bytes{1}).size(), 8u);
  EXPECT_EQ(ZeroPadTo8(Bytes(8, 1)).size(), 8u);
  EXPECT_EQ(ZeroPadTo8(Bytes(9, 1)).size(), 16u);
}

TEST(ModesTest, CbcMacDeterministicAndKeyed) {
  Prng prng(15);
  DesKey k1 = prng.NextDesKey();
  DesKey k2 = prng.NextDesKey();
  Bytes data = prng.NextBytes(33);
  EXPECT_EQ(CbcMac(k1, kZeroIv, data), CbcMac(k1, kZeroIv, data));
  EXPECT_NE(CbcMac(k1, kZeroIv, data), CbcMac(k2, kZeroIv, data));
  Bytes tweaked = data;
  tweaked[0] ^= 1;
  EXPECT_NE(CbcMac(k1, kZeroIv, data), CbcMac(k1, kZeroIv, tweaked));
}

// Regression: CbcMac on empty input must not return the (public) IV — it
// processes one zero block, so the MAC is always at least one encryption.
TEST(ModesTest, CbcMacEmptyInputIsEncrypted) {
  Prng prng(22);
  DesKey key = prng.NextDesKey();
  DesBlock iv = U64ToBlock(prng.NextU64());
  DesBlock mac = CbcMac(key, iv, Bytes{});
  EXPECT_NE(mac, iv);
  // One zero block XORed into the chain is the chain itself: MAC == E(IV).
  EXPECT_EQ(BlockToU64(mac), key.EncryptBlock(BlockToU64(iv)));
  // And padding equivalence still holds for nonempty data: a 3-byte message
  // MACs the same as its zero-padded 8-byte form.
  Bytes short_msg{0xde, 0xad, 0xbe};
  EXPECT_EQ(CbcMac(key, iv, short_msg), CbcMac(key, iv, ZeroPadTo8(short_msg)));
}

// The uint64_t-span bulk primitives and the in-place byte transforms must
// agree exactly with the allocating wrappers (which the seed pinned to
// FIPS 81 vectors above).
TEST(ModesTest, BulkPrimitivesMatchWrappers) {
  Prng prng(23);
  for (int i = 0; i < 20; ++i) {
    DesKey key = prng.NextDesKey();
    DesBlock iv = U64ToBlock(prng.NextU64());
    size_t nblocks = 1 + prng.NextBelow(12);
    Bytes pt = prng.NextBytes(8 * nblocks);

    std::vector<uint64_t> blocks(nblocks);
    for (size_t b = 0; b < nblocks; ++b) {
      blocks[b] = LoadU64BE(pt.data() + 8 * b);
    }

    auto as_bytes = [&](const std::vector<uint64_t>& v) {
      Bytes out(8 * v.size());
      for (size_t b = 0; b < v.size(); ++b) {
        StoreU64BE(out.data() + 8 * b, v[b]);
      }
      return out;
    };

    std::vector<uint64_t> tmp(nblocks);
    EcbEncryptBlocks(key, blocks.data(), tmp.data(), nblocks);
    EXPECT_EQ(as_bytes(tmp), EncryptEcb(key, pt));
    CbcEncryptBlocks(key, BlockToU64(iv), blocks.data(), tmp.data(), nblocks);
    EXPECT_EQ(as_bytes(tmp), EncryptCbc(key, iv, pt));
    PcbcEncryptBlocks(key, BlockToU64(iv), blocks.data(), tmp.data(), nblocks);
    EXPECT_EQ(as_bytes(tmp), EncryptPcbc(key, iv, pt));
    EXPECT_EQ(CbcMacBlocks(key, BlockToU64(iv), blocks.data(), nblocks),
              BlockToU64(CbcMac(key, iv, pt)));

    // In-place aliasing (in == out) for the decrypt direction, which must
    // stash the previous ciphertext before overwriting it.
    std::vector<uint64_t> alias = tmp;  // PCBC ciphertext from above
    PcbcDecryptBlocks(key, BlockToU64(iv), alias.data(), alias.data(), nblocks);
    EXPECT_EQ(as_bytes(alias), pt);
    CbcEncryptBlocks(key, BlockToU64(iv), blocks.data(), tmp.data(), nblocks);
    alias = tmp;
    CbcDecryptBlocks(key, BlockToU64(iv), alias.data(), alias.data(), nblocks);
    EXPECT_EQ(as_bytes(alias), pt);

    Bytes inplace = pt;
    EncryptCbcInPlace(key, iv, inplace.data(), inplace.size());
    EXPECT_EQ(inplace, EncryptCbc(key, iv, pt));
    DecryptCbcInPlace(key, iv, inplace.data(), inplace.size());
    EXPECT_EQ(inplace, pt);
    EncryptPcbcInPlace(key, iv, inplace.data(), inplace.size());
    EXPECT_EQ(inplace, EncryptPcbc(key, iv, pt));
    DecryptPcbcInPlace(key, iv, inplace.data(), inplace.size());
    EXPECT_EQ(inplace, pt);
    EncryptEcbInPlace(key, inplace.data(), inplace.size());
    EXPECT_EQ(inplace, EncryptEcb(key, pt));
    DecryptEcbInPlace(key, inplace.data(), inplace.size());
    EXPECT_EQ(inplace, pt);
  }
}

std::vector<uint64_t> ToBlocks(const Bytes& bytes) {
  std::vector<uint64_t> blocks(bytes.size() / 8);
  for (size_t b = 0; b < blocks.size(); ++b) {
    blocks[b] = LoadU64BE(bytes.data() + 8 * b);
  }
  return blocks;
}

Bytes FromBlocks(const std::vector<uint64_t>& blocks) {
  Bytes out(8 * blocks.size());
  for (size_t b = 0; b < blocks.size(); ++b) {
    StoreU64BE(out.data() + 8 * b, blocks[b]);
  }
  return out;
}

// The in-place chains run in the IP domain; the span primitives step block
// by block through EncryptBlock. They must agree at every length, from the
// empty message on, and CbcMac's zero-padded partial tail and empty input
// must be the span MAC of the padded blocks.
TEST(ModesTest, IpDomainChainsMatchSerialReferences) {
  Prng prng(25);
  for (size_t nblocks = 0; nblocks <= 33; ++nblocks) {
    DesKey key = prng.NextDesKey();
    DesBlock iv = U64ToBlock(prng.NextU64());
    Bytes pt = prng.NextBytes(8 * nblocks);
    std::vector<uint64_t> blocks = ToBlocks(pt);
    std::vector<uint64_t> ref(nblocks);

    Bytes inplace = pt;
    EncryptCbcInPlace(key, iv, inplace.data(), inplace.size());
    CbcEncryptBlocks(key, BlockToU64(iv), blocks.data(), ref.data(), nblocks);
    EXPECT_EQ(inplace, FromBlocks(ref)) << "CBC, " << nblocks << " blocks";

    inplace = pt;
    EncryptPcbcInPlace(key, iv, inplace.data(), inplace.size());
    PcbcEncryptBlocks(key, BlockToU64(iv), blocks.data(), ref.data(), nblocks);
    EXPECT_EQ(inplace, FromBlocks(ref)) << "PCBC, " << nblocks << " blocks";

    if (nblocks > 0) {
      EXPECT_EQ(BlockToU64(CbcMac(key, iv, pt)),
                CbcMacBlocks(key, BlockToU64(iv), blocks.data(), nblocks))
          << "MAC, " << nblocks << " blocks";
      // Drop 1..7 bytes: the tail is zero-padded back to the same blocks.
      const size_t cut = 1 + prng.NextBelow(7);
      Bytes ragged(pt.begin(), pt.end() - static_cast<ptrdiff_t>(cut));
      std::vector<uint64_t> padded = ToBlocks(ZeroPadTo8(ragged));
      EXPECT_EQ(BlockToU64(CbcMac(key, iv, ragged)),
                CbcMacBlocks(key, BlockToU64(iv), padded.data(), padded.size()))
          << "MAC with a " << 8 - cut << "-byte tail, " << nblocks << " blocks";
    } else {
      const uint64_t zero_block = 0;
      EXPECT_EQ(BlockToU64(CbcMac(key, iv, pt)),
                CbcMacBlocks(key, BlockToU64(iv), &zero_block, 1));
    }
  }
}

// The lockstep pair is two independent zero-IV CBC encryptions: for every
// pair of lengths, with two keys and with one key for both messages.
TEST(ModesTest, CbcPairMatchesTwoSerialChains) {
  Prng prng(26);
  for (size_t na = 0; na <= 24; ++na) {
    for (size_t nb = 0; nb <= 24; ++nb) {
      for (bool same_key : {false, true}) {
        DesKey key_a = prng.NextDesKey();
        DesKey key_b = same_key ? key_a : prng.NextDesKey();
        Bytes a = prng.NextBytes(8 * na);
        Bytes b = prng.NextBytes(8 * nb);
        Bytes want_a = a;
        Bytes want_b = b;
        EncryptCbcInPlace(key_a, kZeroIv, want_a.data(), want_a.size());
        EncryptCbcInPlace(key_b, kZeroIv, want_b.data(), want_b.size());
        EncryptCbcPairInPlace(key_a, a.data(), a.size(), key_b, b.data(), b.size());
        EXPECT_EQ(a, want_a) << na << "+" << nb << " blocks, same key " << same_key;
        EXPECT_EQ(b, want_b) << na << "+" << nb << " blocks, same key " << same_key;
      }
    }
  }
}

// The nested lockstep seal is the inner range's PCBC encryption followed by
// the whole buffer's: for every outer size up to 32 blocks, every inner byte
// offset from 8 on and every inner size that fits (up to 31 blocks), with
// two keys and with one key for both chains.
TEST(ModesTest, PcbcNestedMatchesInnerThenOuterChains) {
  Prng prng(27);
  for (size_t n_out = 1; n_out <= 32; ++n_out) {
    const size_t size = 8 * n_out;
    for (size_t offset = 8; offset <= size; ++offset) {
      for (size_t inner_size = 0; offset + inner_size <= size; inner_size += 8) {
        const bool same_key = prng.NextBelow(8) == 0;
        DesKey inner_key = prng.NextDesKey();
        DesKey outer_key = same_key ? inner_key : prng.NextDesKey();
        Bytes data = prng.NextBytes(size);
        Bytes want = data;
        EncryptPcbcInPlace(inner_key, kZeroIv, want.data() + offset, inner_size);
        EncryptPcbcInPlace(outer_key, kZeroIv, want.data(), want.size());
        EncryptPcbcNestedInPlace(inner_key, offset, inner_size, outer_key, data.data(),
                                 data.size());
        ASSERT_EQ(data, want) << inner_size / 8 << " inner blocks at byte " << offset << " of "
                              << n_out << " outer blocks, same key " << same_key;
      }
    }
  }
}

TEST(ModesTest, Pkcs5PadInPlaceMatchesCopy) {
  Prng prng(24);
  for (size_t len = 0; len < 20; ++len) {
    Bytes data = prng.NextBytes(len);
    Bytes copied = Pkcs5Pad(data);
    Pkcs5PadInPlace(data);
    EXPECT_EQ(data, copied);
  }
}

TEST(ModesTest, DifferentIvDifferentCiphertext) {
  Prng prng(16);
  DesKey key = prng.NextDesKey();
  Bytes pt = prng.NextBytes(24);
  Bytes c1 = EncryptCbc(key, kZeroIv, pt);
  Bytes c2 = EncryptCbc(key, U64ToBlock(1), pt);
  EXPECT_NE(c1, c2);
}

}  // namespace
}  // namespace kcrypto
