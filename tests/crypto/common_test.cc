#include <gtest/gtest.h>

#include <map>

#include "src/common/bytes.h"
#include "src/common/flat_table.h"
#include "src/common/hex.h"
#include "src/common/result.h"

namespace kerb {
namespace {

// Keys that share a handful of hashes: every probe run is long, and
// erases in arbitrary order exercise the backward shift. The table must
// answer exactly like a std::map throughout.
TEST(FlatTableTest, CollidingHashesMatchAMap) {
  struct Slot {
    uint64_t hash = 0;
    uint64_t key = 0;
    uint64_t value = 0;
  };
  FlatTable<Slot> table;
  std::map<uint64_t, uint64_t> model;
  auto hash_of = [](uint64_t key) { return key % 5 == 0 ? 1 : NonzeroHash(key % 7); };
  auto find = [&](uint64_t key) {
    return table.Find(hash_of(key), [key](const Slot& s) { return s.key == key; });
  };
  uint64_t x = 12345;
  for (int i = 0; i < 20000; ++i) {
    x = x * 6364136223846793005ull + 1442695040888963407ull;
    const uint64_t key = (x >> 33) % 300;
    Slot* slot = find(key);
    ASSERT_EQ(slot != nullptr, model.count(key) == 1) << "key " << key;
    if (slot == nullptr) {
      Slot& fresh = table.Insert(hash_of(key));
      fresh.key = key;
      fresh.value = x;
      model[key] = x;
    } else {
      ASSERT_EQ(slot->value, model[key]);
      table.Erase(slot);
      model.erase(key);
    }
    ASSERT_EQ(table.size(), model.size());
  }
  for (const auto& [key, value] : model) {
    const Slot* slot = find(key);
    ASSERT_NE(slot, nullptr);
    EXPECT_EQ(slot->value, value);
  }
}

TEST(BytesTest, ToBytesToStringRoundTrip) {
  std::string s = "kerberos";
  EXPECT_EQ(ToString(ToBytes(s)), s);
  EXPECT_TRUE(ToBytes("").empty());
}

TEST(BytesTest, Concat) {
  Bytes a{1, 2}, b{3}, c{};
  EXPECT_EQ(Concat({a, b, c}), (Bytes{1, 2, 3}));
  EXPECT_EQ(Concat({}), Bytes{});
}

TEST(BytesTest, AppendGrows) {
  Bytes a{1};
  Append(a, Bytes{2, 3});
  EXPECT_EQ(a, (Bytes{1, 2, 3}));
}

TEST(BytesTest, XorBasics) {
  Bytes a{0xff, 0x00, 0xaa};
  Bytes b{0x0f, 0xf0, 0xaa};
  EXPECT_EQ(Xor(a, b), (Bytes{0xf0, 0xf0, 0x00}));
  Bytes c = a;
  XorInto(c, b);
  EXPECT_EQ(c, (Bytes{0xf0, 0xf0, 0x00}));
}

TEST(BytesTest, ConstantTimeEqual) {
  EXPECT_TRUE(ConstantTimeEqual(Bytes{1, 2, 3}, Bytes{1, 2, 3}));
  EXPECT_FALSE(ConstantTimeEqual(Bytes{1, 2, 3}, Bytes{1, 2, 4}));
  EXPECT_FALSE(ConstantTimeEqual(Bytes{1, 2}, Bytes{1, 2, 3}));
  EXPECT_TRUE(ConstantTimeEqual(Bytes{}, Bytes{}));
}

TEST(BytesTest, ContainsSubsequence) {
  Bytes hay{1, 2, 3, 4, 5};
  EXPECT_TRUE(ContainsSubsequence(hay, Bytes{3, 4}));
  EXPECT_TRUE(ContainsSubsequence(hay, Bytes{1}));
  EXPECT_TRUE(ContainsSubsequence(hay, Bytes{1, 2, 3, 4, 5}));
  EXPECT_FALSE(ContainsSubsequence(hay, Bytes{4, 3}));
  EXPECT_FALSE(ContainsSubsequence(hay, Bytes{}));
  EXPECT_FALSE(ContainsSubsequence(hay, Bytes{1, 2, 3, 4, 5, 6}));
}

TEST(BytesTest, SecureWipeZeroes) {
  Bytes b{1, 2, 3, 4};
  SecureWipe(b);
  EXPECT_EQ(b, (Bytes{0, 0, 0, 0}));
}

TEST(HexTest, EncodeDecodeRoundTrip) {
  Bytes data{0x00, 0x01, 0xab, 0xcd, 0xef, 0xff};
  EXPECT_EQ(HexEncode(data), "0001abcdefff");
  auto decoded = HexDecode("0001abcdefff");
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded.value(), data);
}

TEST(HexTest, DecodeAcceptsWhitespaceAndCase) {
  auto r = HexDecode("AB cd\nEF");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), (Bytes{0xab, 0xcd, 0xef}));
}

TEST(HexTest, DecodeRejectsBadInput) {
  EXPECT_EQ(HexDecode("xyz").error().code, ErrorCode::kBadFormat);
  EXPECT_EQ(HexDecode("abc").error().code, ErrorCode::kBadFormat);  // odd length
}

TEST(ResultTest, ValueAndError) {
  Result<int> ok(42);
  EXPECT_TRUE(ok.ok());
  EXPECT_EQ(ok.value(), 42);
  EXPECT_EQ(ok.code(), ErrorCode::kOk);

  Result<int> err(MakeError(ErrorCode::kReplay, "seen before"));
  EXPECT_FALSE(err.ok());
  EXPECT_EQ(err.code(), ErrorCode::kReplay);
  EXPECT_EQ(err.error().ToString(), "REPLAY: seen before");
}

TEST(ResultTest, StatusBasics) {
  Status ok;
  EXPECT_TRUE(ok.ok());
  Status bad(MakeError(ErrorCode::kSkew, "clock off"));
  EXPECT_FALSE(bad.ok());
  EXPECT_EQ(bad.code(), ErrorCode::kSkew);
}

TEST(ResultTest, ErrorCodeNamesAllDistinct) {
  for (int i = 0; i <= static_cast<int>(ErrorCode::kInternal); ++i) {
    EXPECT_STRNE(ErrorCodeName(static_cast<ErrorCode>(i)), "UNKNOWN");
  }
}

}  // namespace
}  // namespace kerb
