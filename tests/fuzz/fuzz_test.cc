// Adversarial-input sweeps: decoders must never crash and protocol
// verifiers must never accept corrupted input. "Systems must be subjected
// to the strongest scrutiny possible."

#include <gtest/gtest.h>

#include "src/attacks/testbed.h"
#include "src/attacks/testbed5.h"
#include "src/crypto/prng.h"
#include "src/encoding/tlv.h"
#include "src/krb4/krbpriv.h"
#include "src/krb4/messages.h"
#include "src/krb5/enclayer.h"

namespace {

using kattack::Testbed4;
using kattack::Testbed5;

TEST(FuzzTest, TlvDecodeNeverCrashesOnRandomBytes) {
  kcrypto::Prng prng(1);
  int decoded_ok = 0;
  for (int i = 0; i < 5000; ++i) {
    kerb::Bytes garbage = prng.NextBytes(prng.NextBelow(128));
    auto result = kenc::TlvMessage::Decode(garbage);
    if (result.ok()) {
      ++decoded_ok;
    }
  }
  // Random bytes essentially never form a valid message (requires a
  // consistent field count and exact length accounting).
  EXPECT_LT(decoded_ok, 5);
}

TEST(FuzzTest, V4DecodersNeverCrashOnRandomBytes) {
  kcrypto::Prng prng(2);
  for (int i = 0; i < 2000; ++i) {
    kerb::Bytes garbage = prng.NextBytes(prng.NextBelow(96));
    (void)kenc::Decode<krb4::Ticket4>(garbage);
    (void)kenc::Decode<krb4::Authenticator4>(garbage);
    (void)kenc::Decode<krb4::AsRequest4>(garbage);
    (void)kenc::Decode<krb4::ReplyBody4>(garbage);
    (void)kenc::Decode<krb4::TgsRequest4>(garbage);
    (void)kenc::Decode<krb4::ApRequest4>(garbage);
    (void)krb4::Unframe4(garbage);
  }
  SUCCEED();
}

TEST(FuzzTest, EncLayerRejectsRandomCiphertext) {
  kcrypto::Prng prng(3);
  kcrypto::DesKey key = prng.NextDesKey();
  krb5::EncLayerConfig enc;
  int accepted = 0;
  for (int i = 0; i < 1000; ++i) {
    kerb::Bytes garbage = prng.NextBytes(8 * (1 + prng.NextBelow(12)));
    if (krb5::Unseal(key, krb5::kMsgTicket, garbage, enc).ok()) {
      ++accepted;
    }
  }
  EXPECT_EQ(accepted, 0);
}

TEST(FuzzTest, EveryBitFlipInV4ApRequestIsRejected) {
  // Flip each byte of a valid AP request; the server must reject every
  // mutation that touches sealed material and never crash on any.
  Testbed4 bed;
  ASSERT_TRUE(bed.alice().Login(Testbed4::kAlicePassword).ok());
  auto request = bed.alice().MakeApRequest(bed.mail_principal(), false);
  ASSERT_TRUE(request.ok());

  auto framed = krb4::Unframe4(request.value());
  ASSERT_TRUE(framed.ok());
  auto req = kenc::Decode<krb4::ApRequest4>(framed.value().second);
  ASSERT_TRUE(req.ok());

  int accepted_mutations = 0;
  for (size_t i = 0; i < req.value().sealed_ticket.size(); ++i) {
    krb4::ApRequest4 mutated = req.value();
    mutated.sealed_ticket[i] ^= 0x40;
    if (bed.mail_server().VerifyApRequest(mutated, Testbed4::kAliceAddr.host).ok()) {
      ++accepted_mutations;
    }
  }
  for (size_t i = 0; i < req.value().sealed_auth.size(); ++i) {
    krb4::ApRequest4 mutated = req.value();
    mutated.sealed_auth[i] ^= 0x40;
    if (bed.mail_server().VerifyApRequest(mutated, Testbed4::kAliceAddr.host).ok()) {
      ++accepted_mutations;
    }
  }
  EXPECT_EQ(accepted_mutations, 0);
}

TEST(FuzzTest, EveryBitFlipInV5ApRequestIsRejected) {
  Testbed5 bed;
  ASSERT_TRUE(bed.alice().Login(Testbed5::kAlicePassword).ok());
  auto request = bed.alice().MakeApRequest(bed.mail_principal(), false);
  ASSERT_TRUE(request.ok());
  auto req = kenc::Decode<krb5::ApRequest5>(request.value());
  ASSERT_TRUE(req.ok());

  int accepted_mutations = 0;
  for (size_t i = 0; i < req.value().sealed_ticket.size(); ++i) {
    krb5::ApRequest5 mutated = req.value();
    mutated.sealed_ticket[i] ^= 0x40;
    if (bed.mail_server()
            .VerifyApRequest(mutated, Testbed5::kAliceAddr.host, nullptr)
            .ok()) {
      ++accepted_mutations;
    }
  }
  EXPECT_EQ(accepted_mutations, 0);
}

TEST(FuzzTest, Seal4TamperSweepDocumentsV4IntegrityLimits) {
  // V4's seal is magic + length + PCBC — NOT a MAC, as the paper stresses.
  // PCBC error propagation runs FORWARD only: corrupting ciphertext block j
  // garbles plaintext blocks j..end but leaves blocks before j intact. The
  // magic and length live in block 0, so only block-0 corruption is caught
  // structurally; any later corruption hands the application garbled
  // payload with no alarm. This test pins down that boundary — the gap the
  // paper's checksum recommendations exist to close.
  kcrypto::Prng prng(4);
  kcrypto::DesKey key = prng.NextDesKey();
  kerb::Bytes payload = prng.NextBytes(40);
  kerb::Bytes sealed = krb4::Seal4(key, payload);  // 48 bytes, 6 blocks
  int header_block_undetected = 0;
  int later_blocks_undetected = 0;
  int silent_payload_corruptions = 0;
  for (size_t i = 0; i < sealed.size(); ++i) {
    for (uint8_t mask : {0x01, 0x80}) {
      kerb::Bytes tampered = sealed;
      tampered[i] ^= mask;
      auto opened = krb4::Unseal4(key, tampered);
      if (opened.ok()) {
        (i < 8 ? header_block_undetected : later_blocks_undetected) += 1;
        if (opened.value() != payload) {
          ++silent_payload_corruptions;
        }
      }
    }
  }
  EXPECT_EQ(header_block_undetected, 0) << "magic/length corruption must be caught";
  EXPECT_GT(later_blocks_undetected, 0) << "V4 has no payload integrity — by design flaw";
  EXPECT_EQ(silent_payload_corruptions, later_blocks_undetected)
      << "every structurally-accepted mutation silently corrupted the payload";
  // The V5 layer with a sealed checksum has no such gap (see
  // EncLayerParamTest.RandomBitFlipsDetected).
}

TEST(FuzzTest, DesAvalancheProperty) {
  // One flipped input bit flips ~half the output bits — a sanity property
  // of the round function across many random keys/blocks.
  kcrypto::Prng prng(5);
  int64_t total_flips = 0;
  constexpr int kTrials = 200;
  for (int i = 0; i < kTrials; ++i) {
    kcrypto::DesKey key = prng.NextDesKey();
    uint64_t pt = prng.NextU64();
    uint64_t flipped = pt ^ (1ull << prng.NextBelow(64));
    total_flips += __builtin_popcountll(key.EncryptBlock(pt) ^ key.EncryptBlock(flipped));
  }
  double average = static_cast<double>(total_flips) / kTrials;
  EXPECT_GT(average, 28.0);
  EXPECT_LT(average, 36.0);
}

TEST(FuzzTest, RandomCiphertextNeverOpensAsPriv4) {
  kcrypto::Prng prng(6);
  kcrypto::DesKey key = prng.NextDesKey();
  int accepted = 0;
  for (int i = 0; i < 1000; ++i) {
    kerb::Bytes garbage = prng.NextBytes(8 * (2 + prng.NextBelow(10)));
    if (krb4::PrivMessage4::Unseal(key, garbage).ok()) {
      ++accepted;
    }
  }
  EXPECT_EQ(accepted, 0);
}

}  // namespace
