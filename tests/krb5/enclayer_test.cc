#include "src/krb5/enclayer.h"

#include <gtest/gtest.h>

#include "src/crypto/modes.h"
#include "src/krb5/messages.h"
#include "src/obs/kobs.h"

namespace krb5 {
namespace {

EncLayerConfig Crc32Config() { return EncLayerConfig{kcrypto::ChecksumType::kCrc32, true}; }
EncLayerConfig Md4Config() { return EncLayerConfig{kcrypto::ChecksumType::kMd4Des, true}; }

kenc::TlvMessage SampleMessage() {
  kenc::TlvMessage msg(kMsgEncAsRepPart);
  msg.SetU64(tag::kNonce, 12345);
  msg.SetString(tag::kErrorText, "payload");
  return msg;
}

class EncLayerParamTest : public ::testing::TestWithParam<kcrypto::ChecksumType> {};

TEST_P(EncLayerParamTest, SealUnsealRoundTrip) {
  kcrypto::Prng prng(1);
  kcrypto::DesKey key = prng.NextDesKey();
  EncLayerConfig config{GetParam(), true};
  kerb::Bytes sealed = Seal(key, SampleMessage(), config, prng);
  auto opened = Unseal(key, kMsgEncAsRepPart, sealed, config);
  ASSERT_TRUE(opened.ok());
  EXPECT_EQ(opened.value().GetU64(tag::kNonce).value(), 12345u);
}

TEST_P(EncLayerParamTest, WrongKeyRejected) {
  kcrypto::Prng prng(2);
  kcrypto::DesKey key = prng.NextDesKey();
  EncLayerConfig config{GetParam(), true};
  kerb::Bytes sealed = Seal(key, SampleMessage(), config, prng);
  EXPECT_FALSE(Unseal(prng.NextDesKey(), kMsgEncAsRepPart, sealed, config).ok());
}

TEST_P(EncLayerParamTest, WrongTypeRejected) {
  // "All encrypted data is labeled with the message type prior to
  // encryption" — the sealed blob cannot be replayed into another context.
  kcrypto::Prng prng(3);
  kcrypto::DesKey key = prng.NextDesKey();
  EncLayerConfig config{GetParam(), true};
  kerb::Bytes sealed = Seal(key, SampleMessage(), config, prng);
  auto as_ticket = Unseal(key, kMsgTicket, sealed, config);
  EXPECT_FALSE(as_ticket.ok());
}

TEST_P(EncLayerParamTest, RandomBitFlipsDetected) {
  kcrypto::Prng prng(4);
  kcrypto::DesKey key = prng.NextDesKey();
  EncLayerConfig config{GetParam(), true};
  kerb::Bytes sealed = Seal(key, SampleMessage(), config, prng);
  int undetected = 0;
  for (size_t i = 0; i < sealed.size(); ++i) {
    kerb::Bytes tampered = sealed;
    tampered[i] ^= 0x01;
    if (Unseal(key, kMsgEncAsRepPart, tampered, config).ok()) {
      ++undetected;
    }
  }
  EXPECT_EQ(undetected, 0);
}

INSTANTIATE_TEST_SUITE_P(Checksums, EncLayerParamTest,
                         ::testing::Values(kcrypto::ChecksumType::kCrc32,
                                           kcrypto::ChecksumType::kMd4,
                                           kcrypto::ChecksumType::kMd4Des));

TEST(EncLayerTest, ConfounderRandomizesCiphertext) {
  // "In order to ensure that duplicate messages have different encryptions,
  // random initial confounders are added."
  kcrypto::Prng prng(5);
  kcrypto::DesKey key = prng.NextDesKey();
  kerb::Bytes a = Seal(key, SampleMessage(), Crc32Config(), prng);
  kerb::Bytes b = Seal(key, SampleMessage(), Crc32Config(), prng);
  EXPECT_NE(a, b);
}

TEST(EncLayerTest, WithoutConfounderCiphertextRepeats) {
  kcrypto::Prng prng(6);
  kcrypto::DesKey key = prng.NextDesKey();
  EncLayerConfig config{kcrypto::ChecksumType::kMd4, false};
  kerb::Bytes a = Seal(key, SampleMessage(), config, prng);
  kerb::Bytes b = Seal(key, SampleMessage(), config, prng);
  EXPECT_EQ(a, b);  // identical plaintext, identical ciphertext — traffic leak
}

TEST(EncLayerTest, TruncationRejectedEvenWithCrc32) {
  // The ASN.1-style length means truncation cannot yield a valid message —
  // "it is no longer possible for an attacker to truncate a message".
  kcrypto::Prng prng(7);
  kcrypto::DesKey key = prng.NextDesKey();
  kenc::TlvMessage big(kMsgEncAsRepPart);
  big.SetBytes(tag::kEData, prng.NextBytes(64));
  big.SetU64(tag::kNonce, 1);
  kerb::Bytes sealed = Seal(key, big, Crc32Config(), prng);
  for (size_t blocks = 1; blocks * 8 < sealed.size(); ++blocks) {
    kerb::Bytes truncated(sealed.begin(), sealed.begin() + 8 * blocks);
    EXPECT_FALSE(Unseal(key, kMsgEncAsRepPart, truncated, Crc32Config()).ok());
  }
}

TEST(EncLayerTest, Md4ConfigRejectsCrc32Sealed) {
  kcrypto::Prng prng(8);
  kcrypto::DesKey key = prng.NextDesKey();
  kerb::Bytes sealed = Seal(key, SampleMessage(), Crc32Config(), prng);
  EXPECT_FALSE(Unseal(key, kMsgEncAsRepPart, sealed, Md4Config()).ok());
}

// A Draft 3 plaintext built by hand: confounder || checksum type byte ||
// checksum || body, then PKCS#5 padding. The checksum is computed the way
// the layer does it (over everything before the padding, its own field
// zeroed) and then truncated to `checksum_len` bytes, or flipped.
struct Craft {
  bool confounder = true;
  uint8_t type_byte = static_cast<uint8_t>(kcrypto::ChecksumType::kCrc32);
  size_t checksum_len = 4;
  bool flip_checksum = false;
  kerb::Bytes body = SampleMessage().Encode();
};

kerb::Bytes CraftPlaintext(const kcrypto::DesKey& key, const Craft& c) {
  kerb::Bytes plain;
  if (c.confounder) {
    plain.assign(8, 0x5a);
  }
  plain.push_back(c.type_byte);
  const size_t checksum_offset = plain.size();
  plain.resize(plain.size() + c.checksum_len, 0);
  kerb::Append(plain, c.body);
  kerb::Bytes sum = kcrypto::ComputeChecksum(kcrypto::ChecksumType::kCrc32, plain, key);
  sum.resize(c.checksum_len);
  std::copy(sum.begin(), sum.end(), plain.begin() + checksum_offset);
  if (c.flip_checksum) {
    plain[checksum_offset] ^= 0x01;
  }
  return kcrypto::Pkcs5Pad(plain);
}

kerb::Bytes HandSeal(const kcrypto::DesKey& key, const kerb::Bytes& padded_plaintext) {
  return kcrypto::EncryptCbc(key, kcrypto::kZeroIv, padded_plaintext);
}

// Every rejection Unseal can give, each from a ciphertext sealed by hand,
// with its error code and exactly one kUnsealFail event.
TEST(EncLayerTest, UnsealRejectionsPinned) {
  kcrypto::Prng prng(12);
  const kcrypto::DesKey key = prng.NextDesKey();
  const EncLayerConfig config = Crc32Config();
  kobs::ScopedTrace trace;

  auto expect_rejected = [&](kerb::BytesView sealed, kerb::ErrorCode code, const char* what) {
    const uint64_t fails = trace->Count(kobs::Ev::kUnsealFail);
    auto opened = Unseal(key, kMsgEncAsRepPart, sealed, config);
    EXPECT_EQ(opened.code(), code) << what;
    EXPECT_EQ(trace->Count(kobs::Ev::kUnsealFail), fails + 1) << what;
  };

  // The crafting itself is the layer's format: left alone, it unseals.
  {
    auto opened = Unseal(key, kMsgEncAsRepPart, HandSeal(key, CraftPlaintext(key, {})),
                            config);
    ASSERT_TRUE(opened.ok());
    EXPECT_EQ(opened.value(), SampleMessage());
    EXPECT_EQ(trace->Count(kobs::Ev::kUnsealOk), 1u);
  }

  expect_rejected(kerb::Bytes{}, kerb::ErrorCode::kBadFormat, "empty");
  expect_rejected(kerb::Bytes(12, 0), kerb::ErrorCode::kBadFormat, "misaligned");

  kerb::Bytes zero_pad(16, 0x11);
  zero_pad[15] = 0;
  expect_rejected(HandSeal(key, zero_pad), kerb::ErrorCode::kIntegrity, "pad length 0");
  kerb::Bytes long_pad(16, 0x11);
  long_pad[15] = 9;
  expect_rejected(HandSeal(key, long_pad), kerb::ErrorCode::kIntegrity, "pad length 9");
  kerb::Bytes mixed_pad(16, 0x11);
  mixed_pad[15] = 3;
  mixed_pad[14] = 3;
  expect_rejected(HandSeal(key, mixed_pad), kerb::ErrorCode::kIntegrity, "inconsistent pad");

  expect_rejected(HandSeal(key, kcrypto::Pkcs5Pad(kerb::Bytes(5, 0x11))),
                  kerb::ErrorCode::kIntegrity, "confounder missing");
  expect_rejected(HandSeal(key, kcrypto::Pkcs5Pad(kerb::Bytes(8, 0x11))),
                  kerb::ErrorCode::kIntegrity, "type byte missing");

  Craft wrong_type;
  wrong_type.type_byte = static_cast<uint8_t>(kcrypto::ChecksumType::kMd4);
  expect_rejected(HandSeal(key, CraftPlaintext(key, wrong_type)), kerb::ErrorCode::kIntegrity,
                  "wrong type byte");

  Craft truncated;
  truncated.checksum_len = 2;
  truncated.body.clear();
  expect_rejected(HandSeal(key, CraftPlaintext(key, truncated)), kerb::ErrorCode::kIntegrity,
                  "truncated checksum");

  Craft mismatch;
  mismatch.flip_checksum = true;
  expect_rejected(HandSeal(key, CraftPlaintext(key, mismatch)), kerb::ErrorCode::kIntegrity,
                  "checksum mismatch");

  // Past the checksum, the body's own decode errors come through as is.
  Craft not_tlv;
  not_tlv.body = kerb::Bytes{0x00, 0x01};
  expect_rejected(HandSeal(key, CraftPlaintext(key, not_tlv)), kerb::ErrorCode::kBadFormat,
                  "body not a TLV message");
  Craft other_type;
  other_type.body = kenc::TlvMessage(kMsgTicket).Encode();
  expect_rejected(HandSeal(key, CraftPlaintext(key, other_type)), kerb::ErrorCode::kBadFormat,
                  "body of another message type");

  EXPECT_EQ(trace->Count(kobs::Ev::kUnsealOk), 1u);
}

// --------------------------------------------------------------------------- Draft 2 KRB_PRIV

TEST(Draft2PrivTest, RoundTrip) {
  kcrypto::Prng prng(9);
  kcrypto::DesKey key = prng.NextDesKey();
  Draft2Priv msg;
  msg.data = kerb::ToBytes("mail body");
  msg.timestamp = 42 * ksim::kSecond;
  msg.direction = 1;
  msg.host_address = 0x0a000001;
  auto opened = Draft2PrivUnseal(key, Draft2PrivSeal(key, msg));
  ASSERT_TRUE(opened.ok());
  EXPECT_EQ(opened.value().data, msg.data);
  EXPECT_EQ(opened.value().timestamp, msg.timestamp);
  EXPECT_EQ(opened.value().direction, msg.direction);
  EXPECT_EQ(opened.value().host_address, msg.host_address);
}

TEST(Draft2PrivTest, PrefixTruncationYieldsValidMessage_TheE7Property) {
  // The chosen-plaintext attack precondition: an attacker who controls DATA
  // can make a ciphertext PREFIX decode as a complete valid message with
  // attacker-chosen content.
  kcrypto::Prng prng(10);
  kcrypto::DesKey key = prng.NextDesKey();

  // Attacker-chosen spoof content, formatted as a full Draft 2 plaintext
  // (data || trailer || PKCS5 pad) occupying exactly 5 blocks.
  kerb::Bytes spoof_plain;
  {
    kenc::Writer w;
    w.PutBytes(kerb::ToBytes("rm -rf /archive/tax-records"));  // 27 bytes
    w.PutU64(static_cast<uint64_t>(77 * ksim::kSecond));
    w.PutU8(1);
    w.PutU32(0x0a000010);
    spoof_plain = w.Take();  // 40 bytes = 5 blocks exactly
    ASSERT_EQ(spoof_plain.size() % 8, 0u);
  }

  // The attacker submits DATA = spoof_plain || full pad block || filler, so
  // the server's encryption of its own message contains, as a prefix, the
  // encryption of (spoof_plain || valid-pad).
  kerb::Bytes chosen_data = spoof_plain;
  chosen_data.insert(chosen_data.end(), 8, 0x08);  // a full PKCS5 pad block
  kerb::Append(chosen_data, kerb::ToBytes("harmless remainder"));

  Draft2Priv victim;
  victim.data = chosen_data;
  victim.timestamp = 100 * ksim::kSecond;
  victim.direction = 1;
  victim.host_address = 0x0a000010;
  kerb::Bytes full_ct = Draft2PrivSeal(key, victim);

  // Truncate to the prefix covering spoof_plain + the pad block.
  kerb::Bytes forged(full_ct.begin(), full_ct.begin() + spoof_plain.size() + 8);
  auto opened = Draft2PrivUnseal(key, forged);
  ASSERT_TRUE(opened.ok()) << "prefix should decode as a valid message";
  EXPECT_EQ(kerb::ToString(opened.value().data), "rm -rf /archive/tax-records");
  EXPECT_EQ(opened.value().direction, 1);
}

TEST(Draft2PrivTest, V4FormatResistsTheSameTruncation) {
  // Contrast (also in tests/krb4/krbpriv4_test.cc): the V4 leading length
  // field makes every truncation invalid. Here we just confirm the Draft 2
  // format is the odd one out by checking its trailer carries no binding.
  kcrypto::Prng prng(11);
  kcrypto::DesKey key = prng.NextDesKey();
  Draft2Priv msg;
  msg.data = prng.NextBytes(100);
  kerb::Bytes sealed = Draft2PrivSeal(key, msg);
  // At least one shorter prefix decodes "successfully" (data garbage but
  // structurally valid) with non-negligible probability is NOT asserted —
  // only the attacker-steered case above is deterministic. What we assert:
  // the full message still round-trips.
  EXPECT_TRUE(Draft2PrivUnseal(key, sealed).ok());
}

}  // namespace
}  // namespace krb5
