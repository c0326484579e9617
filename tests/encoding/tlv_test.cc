#include "src/encoding/tlv.h"

#include <gtest/gtest.h>

namespace kenc {
namespace {

constexpr uint16_t kTypeTicket = 10;
constexpr uint16_t kTypeAuthenticator = 11;

TEST(TlvTest, RoundTripAllFieldKinds) {
  TlvMessage msg(kTypeTicket);
  msg.SetU32(1, 0xdeadbeef);
  msg.SetU64(2, 0x0123456789abcdefull);
  msg.SetString(3, "rlogin.myhost");
  msg.SetBytes(4, kerb::Bytes{9, 9, 9});

  auto decoded = TlvMessage::Decode(msg.Encode());
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded.value().type(), kTypeTicket);
  EXPECT_EQ(decoded.value().GetU32(1).value(), 0xdeadbeefu);
  EXPECT_EQ(decoded.value().GetU64(2).value(), 0x0123456789abcdefull);
  EXPECT_EQ(decoded.value().GetString(3).value(), "rlogin.myhost");
  EXPECT_EQ(decoded.value().GetBytes(4).value(), (kerb::Bytes{9, 9, 9}));
  EXPECT_TRUE(decoded.value() == msg);
}

TEST(TlvTest, MessageTypeDistinguishesContexts) {
  // The paper: "a ticket should never be interpretable as an authenticator,
  // or vice versa."
  TlvMessage ticket(kTypeTicket);
  ticket.SetString(1, "payload");
  kerb::Bytes wire = ticket.Encode();

  EXPECT_TRUE(TlvMessage::DecodeExpecting(kTypeTicket, wire).ok());
  auto as_auth = TlvMessage::DecodeExpecting(kTypeAuthenticator, wire);
  EXPECT_FALSE(as_auth.ok());
  EXPECT_EQ(as_auth.error().code, kerb::ErrorCode::kBadFormat);
}

TEST(TlvTest, TruncationRejected) {
  // "it is no longer possible for an attacker to truncate a message and
  // present the shortened form as a valid encrypted message."
  TlvMessage msg(kTypeTicket);
  msg.SetBytes(1, kerb::Bytes(32, 0xaa));
  msg.SetBytes(2, kerb::Bytes(32, 0xbb));
  kerb::Bytes wire = msg.Encode();
  for (size_t cut = 1; cut < wire.size(); ++cut) {
    kerb::Bytes truncated(wire.begin(), wire.begin() + cut);
    EXPECT_FALSE(TlvMessage::Decode(truncated).ok()) << "cut=" << cut;
  }
}

TEST(TlvTest, TrailingGarbageRejected) {
  TlvMessage msg(kTypeTicket);
  msg.SetU32(1, 7);
  kerb::Bytes wire = msg.Encode();
  wire.push_back(0x00);
  EXPECT_FALSE(TlvMessage::Decode(wire).ok());
}

TEST(TlvTest, DuplicateTagRejectedOnDecode) {
  // Hand-craft a message with the same tag twice.
  TlvMessage msg(kTypeTicket);
  msg.SetU32(1, 7);
  kerb::Bytes wire = msg.Encode();
  // Bump the field count and append a second copy of the tag-1 field.
  wire[3] = 2;
  kerb::Bytes field(wire.begin() + 4, wire.end());
  kerb::Append(wire, field);
  EXPECT_FALSE(TlvMessage::Decode(wire).ok());
}

// Optional fields of typed messages are the table codec's (codec5_test);
// the raw map only says what is there.
TEST(TlvTest, OptionalFields) {
  TlvMessage msg(kTypeTicket);
  msg.SetU32(5, 99);
  EXPECT_TRUE(msg.Has(5));
  EXPECT_EQ(msg.GetU32(5).value(), 99u);
  EXPECT_FALSE(msg.Has(6));
  EXPECT_FALSE(msg.GetBytes(6).ok());
  EXPECT_FALSE(msg.GetU32(6).ok());
}

TEST(TlvTest, RemoveAndOverwrite) {
  TlvMessage msg(kTypeTicket);
  msg.SetU32(1, 1);
  msg.SetU32(1, 2);  // overwrite
  EXPECT_EQ(msg.GetU32(1).value(), 2u);
  EXPECT_EQ(msg.field_count(), 1u);
  msg.Remove(1);
  EXPECT_FALSE(msg.Has(1));
}

TEST(TlvTest, MisSizedIntegerFieldRejected) {
  TlvMessage msg(kTypeTicket);
  msg.SetBytes(1, kerb::Bytes{1, 2, 3});  // 3 bytes, not 4
  EXPECT_FALSE(msg.GetU32(1).ok());
  EXPECT_FALSE(msg.GetU64(1).ok());
}

TEST(TlvTest, EmptyMessageRoundTrips) {
  TlvMessage msg(kTypeAuthenticator);
  auto decoded = TlvMessage::Decode(msg.Encode());
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded.value().type(), kTypeAuthenticator);
  EXPECT_EQ(decoded.value().field_count(), 0u);
}

TEST(TlvTest, DecodeRejectsEmptyBuffer) {
  EXPECT_FALSE(TlvMessage::Decode(kerb::Bytes{}).ok());
}

}  // namespace
}  // namespace kenc
