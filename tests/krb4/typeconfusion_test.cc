// Message-encoding ambiguity: the paper's §Message Encoding and
// Cut-and-Paste Attacks — "a ticket should never be interpretable as an
// authenticator, or vice versa. Such an analysis depends on redundancy in
// the pre-encryption binary encodings... This repetitive and often
// intricate analysis would be unnecessary if standard encodings were used."
//
// Demonstrated here concretely: two *different* V4 reply structures share a
// byte layout and cross-decode silently, while the V5 tagged encoding
// rejects every cross-interpretation by type.

#include <gtest/gtest.h>

#include "src/crypto/prng.h"
#include "src/krb4/messages.h"
#include "src/krb5/messages.h"

namespace {

TEST(TypeConfusionTest, V4AsAndTgsReplyBodiesAreIndistinguishable) {
  // The AS and TGS reply bodies have the same field layout (key, blob,
  // times) — so the same struct, ReplyBody4. A V4 decoder cannot tell which
  // one it holds — the ambiguity a type tag would remove.
  kcrypto::Prng prng(1);
  krb4::ReplyBody4 tgs_body;
  tgs_body.session_key = prng.NextDesKey().bytes();
  tgs_body.sealed_ticket = prng.NextBytes(48);
  tgs_body.issued_at = 100;
  tgs_body.lifetime = 200;

  auto as_view = kenc::Decode<krb4::ReplyBody4>(kenc::Encode(tgs_body));
  ASSERT_TRUE(as_view.ok()) << "V4 happily decodes a TGS body as an AS body";
  EXPECT_EQ(as_view.value().session_key, tgs_body.session_key);
  EXPECT_EQ(as_view.value().sealed_ticket, tgs_body.sealed_ticket);
}

TEST(TypeConfusionTest, V5TypeTagsRejectEveryCrossInterpretation) {
  kcrypto::Prng prng(2);
  krb5::EncTgsRepPart5 part;
  part.session_key = prng.NextDesKey().bytes();
  part.nonce = 7;
  const kerb::Bytes wire = kenc::Encode(part);
  // The same bytes refuse to parse as anything but what they are.
  EXPECT_TRUE(kenc::Decode<krb5::EncTgsRepPart5>(wire).ok());
  EXPECT_FALSE(kenc::Decode<krb5::EncAsRepPart5>(wire).ok());
  EXPECT_FALSE(kenc::Decode<krb5::Ticket5>(wire).ok());
  EXPECT_FALSE(kenc::Decode<krb5::Authenticator5>(wire).ok());
  EXPECT_FALSE(kenc::Decode<krb5::ApRequest5>(wire).ok());
  EXPECT_FALSE(kenc::Decode<krb5::KrbError5>(wire).ok());
}

TEST(TypeConfusionTest, V5SealedBlobsCarryTypeThroughEncryption) {
  // "All encrypted data is labeled with the message type prior to
  // encryption" — the check survives the encryption layer.
  kcrypto::Prng prng(3);
  kcrypto::DesKey key = prng.NextDesKey();
  krb5::EncLayerConfig enc;
  krb5::Ticket5 ticket;
  ticket.service = krb4::Principal::Service("nfs", "fs", "R");
  ticket.client = krb4::Principal::User("alice", "R");
  ticket.session_key = prng.NextDesKey().bytes();
  kerb::Bytes sealed = krb5::Seal(key, ticket, enc, prng);

  EXPECT_TRUE(krb5::Unseal<krb5::Ticket5>(key, sealed, enc).ok());
  EXPECT_FALSE(krb5::Unseal<krb5::Authenticator5>(key, sealed, enc).ok());
  EXPECT_FALSE(krb5::Unseal(key, krb5::kMsgEncAsRepPart, sealed, enc).ok());
  EXPECT_FALSE(krb5::Unseal(key, krb5::kMsgPriv, sealed, enc).ok());
}

TEST(TypeConfusionTest, V4SealedAuthenticatorIsNotATicketOnlyByLuck) {
  // The V4 structures differ in field count, so the magic+length check plus
  // field parsing happens to reject this pair — but it is structural luck,
  // not a type system. We record the current behaviour.
  kcrypto::Prng prng(4);
  kcrypto::DesKey key = prng.NextDesKey();
  krb4::Authenticator4 auth;
  auth.client = krb4::Principal::User("alice", "R");
  auth.timestamp = 1;
  auto unsealed = krb4::Unseal4(key, krb4::Seal(key, auth));
  ASSERT_TRUE(unsealed.ok());
  EXPECT_FALSE(kenc::Decode<krb4::Ticket4>(unsealed.value()).ok());
}

}  // namespace
