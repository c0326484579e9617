// The Version 5 Draft 3 encryption layer.
//
// The paper pressed for exactly this separation: "mechanisms such as random
// initial vectors (in place of confounders), block chaining and message
// authentication codes should be left to a separate encryption layer, whose
// information-hiding requirements are clearly explicated."
//
// Draft 3 sealed data is:  CBC_k( confounder || checksum || tlv-message )
// where the checksum (type configurable — CRC-32, MD4, or MD4-DES) is
// computed over the whole plaintext with the checksum field zeroed. The
// message type inside the TLV plaintext gives context separation.
//
// Seal and Unseal are templated on the body: any table-driven message of
// src/krb5/messages.h, encoded straight into the plaintext buffer and
// decoded straight out of it, or a raw kenc::TlvMessage (the attack code's
// and the tests' field-editing tool), which Unseal takes with the type it
// must carry. Unseal decrypts one copy, into a stack buffer when it fits,
// and checks it in place; a checksum never leaves a fixed 16-byte array.
//
// The weakness under study is the checksum choice: with CRC-32 the layer
// detects noise but not adversaries. Both are offered because Draft 3
// offered both; the hardened policy (src/hardened/policy.h) forbids CRC-32.
//
// Draft2PrivSeal/Unseal reproduce the *Draft 2* KRB_PRIV layout —
// (DATA, timestamp+direction, hostaddress, PAD) in plain CBC, no length
// field, no checksum — the format the paper's chosen-plaintext prefix
// attack defeats (experiment E7).

#ifndef SRC_KRB5_ENCLAYER_H_
#define SRC_KRB5_ENCLAYER_H_

#include "src/common/bytes.h"
#include "src/common/result.h"
#include "src/crypto/checksum.h"
#include "src/crypto/des.h"
#include "src/crypto/modes.h"
#include "src/crypto/prng.h"
#include "src/encoding/tlv.h"
#include "src/sim/clock.h"

namespace krb5 {

struct EncLayerConfig {
  kcrypto::ChecksumType checksum = kcrypto::ChecksumType::kCrc32;  // Draft 3 default
  bool use_confounder = true;
};

namespace enclayer {

// Sealed plaintexts up to this size are opened in a stack buffer.
constexpr size_t kStackPlaintext = 512;

// Resizes `out` to the padded plaintext of a `body_size`-byte body, writes
// the confounder (drawn from `prng`), checksum type and zeroed checksum, and
// returns where the body goes.
uint8_t* BeginPlaintext(const EncLayerConfig& config, kcrypto::Prng& prng, size_t body_size,
                        kerb::Bytes& out);
// Fills in the checksum over everything before the padding, and the padding.
void FinishPlaintext(const kcrypto::DesKey& key, const EncLayerConfig& config, size_t body_size,
                     kerb::Bytes& out);
// Encrypts finished plaintexts in place and emits their kSeal events.
void EncryptPlaintext(const kcrypto::DesKey& key, const kcrypto::DesBlock& iv,
                      const EncLayerConfig& config, kerb::Bytes& out);
void EncryptPlaintextPair(const kcrypto::DesKey& first_key, kerb::Bytes& first,
                          const kcrypto::DesKey& second_key, kerb::Bytes& second,
                          const EncLayerConfig& config);
// Decrypts `sealed` into `stack` (or `heap` when it does not fit) and checks
// padding, confounder, checksum type and checksum; returns the TLV body.
kerb::Result<kerb::BytesView> Open(const kcrypto::DesKey& key, const kcrypto::DesBlock& iv,
                                   kerb::BytesView sealed, const EncLayerConfig& config,
                                   uint8_t (&stack)[kStackPlaintext], kerb::Bytes& heap);
// The kUnsealOk/kUnsealFail event for one unseal.
void EmitUnseal(bool ok, size_t sealed_size, const EncLayerConfig& config);

template <typename Body, typename DecodeBody>
kerb::Result<Body> UnsealWith(const kcrypto::DesKey& key, const kcrypto::DesBlock& iv,
                              kerb::BytesView sealed, const EncLayerConfig& config,
                              DecodeBody&& decode) {
  uint8_t stack[kStackPlaintext];  // Open writes before it reads
  kerb::Bytes heap;
  auto body = Open(key, iv, sealed, config, stack, heap);
  kerb::Result<Body> out = body.ok() ? decode(body.value()) : kerb::Result<Body>(body.error());
  EmitUnseal(out.ok(), sealed.size(), config);
  return out;
}

}  // namespace enclayer

// Seals `body` into `out` (capacity kept). `prng` supplies the confounder.
// A non-zero `iv` is the explicit-IV variant below.
template <typename Body>
void SealInto(const kcrypto::DesKey& key, const Body& body, const EncLayerConfig& config,
              kcrypto::Prng& prng, kerb::Bytes& out,
              const kcrypto::DesBlock& iv = kcrypto::kZeroIv) {
  const size_t body_size = kenc::EncodedSize(body);
  kenc::EncodeTo(body, enclayer::BeginPlaintext(config, prng, body_size, out));
  enclayer::FinishPlaintext(key, config, body_size, out);
  enclayer::EncryptPlaintext(key, iv, config, out);
}

template <typename Body>
kerb::Bytes Seal(const kcrypto::DesKey& key, const Body& body, const EncLayerConfig& config,
                 kcrypto::Prng& prng, const kcrypto::DesBlock& iv = kcrypto::kZeroIv) {
  kerb::Bytes out;
  SealInto(key, body, config, prng, out, iv);
  return out;
}

// Seals `first` under `first_key` into `first_out` and `second` under
// `second_key` into `second_out`. Byte-identical to sealing `first` and then
// `second` one at a time: the first confounder is drawn first and the first
// kSeal event emitted first. The two CBC chains run in lockstep
// (kcrypto::EncryptCbcPairInPlace). The KDC seals every V5 reply's ticket
// and enc-part through here.
template <typename First, typename Second>
void SealPairInto(const kcrypto::DesKey& first_key, const First& first, kerb::Bytes& first_out,
                  const kcrypto::DesKey& second_key, const Second& second,
                  kerb::Bytes& second_out, const EncLayerConfig& config, kcrypto::Prng& prng) {
  const size_t first_size = kenc::EncodedSize(first);
  kenc::EncodeTo(first, enclayer::BeginPlaintext(config, prng, first_size, first_out));
  enclayer::FinishPlaintext(first_key, config, first_size, first_out);
  const size_t second_size = kenc::EncodedSize(second);
  kenc::EncodeTo(second, enclayer::BeginPlaintext(config, prng, second_size, second_out));
  enclayer::FinishPlaintext(second_key, config, second_size, second_out);
  enclayer::EncryptPlaintextPair(first_key, first_out, second_key, second_out, config);
}

// Unseals and verifies `sealed`, then decodes its body as `Body`, whose
// message type it must carry.
template <typename Body>
kerb::Result<Body> Unseal(const kcrypto::DesKey& key, kerb::BytesView sealed,
                          const EncLayerConfig& config,
                          const kcrypto::DesBlock& iv = kcrypto::kZeroIv) {
  return enclayer::UnsealWith<Body>(key, iv, sealed, config,
                                    [](kerb::BytesView body) { return kenc::Decode<Body>(body); });
}

// The raw variant: any well-formed TLV body of message type `type`.
inline kerb::Result<kenc::TlvMessage> Unseal(const kcrypto::DesKey& key, uint16_t type,
                                             kerb::BytesView sealed, const EncLayerConfig& config,
                                             const kcrypto::DesBlock& iv = kcrypto::kZeroIv) {
  return enclayer::UnsealWith<kenc::TlvMessage>(
      key, iv, sealed, config,
      [type](kerb::BytesView body) { return kenc::TlvMessage::DecodeExpecting(type, body); });
}

// Explicit IVs (the `iv` arguments above) are the paper's recommendation
// that "the IV be used as intended, and be incremented or otherwise altered
// after each message", rather than holding it constant and compensating
// with confounders. A receiver decrypting with the wrong position's IV gets
// garbage that fails the checksum, so per-message IV chaining detects
// replays, reorderings, and deletions with no timestamp cache and no extra
// field.
//
// The per-message IV schedule: iv_n = E_k(iv_{n-1} + 1). Deterministic for
// both ends from the negotiated initial IV.
kcrypto::DesBlock NextChainedIv(const kcrypto::DesKey& key, const kcrypto::DesBlock& iv);

// ---------------------------------------------------------------------------
// Draft 2 KRB_PRIV (vulnerable): encrypted portion is
//   (DATA, timestamp + direction, hostaddress, PAD)
// under plain CBC with a fixed IV. Prefixes of encryptions are encryptions
// of prefixes, and nothing marks where DATA ends.
struct Draft2Priv {
  kerb::Bytes data;
  ksim::Time timestamp = 0;
  uint8_t direction = 0;
  uint32_t host_address = 0;
};

kerb::Bytes Draft2PrivSeal(const kcrypto::DesKey& key, const Draft2Priv& msg);

// The format carries no leading length: the receiver strips trailing
// padding, reads the 13-byte trailer, and treats everything before it as
// DATA. Because nothing inside the plaintext marks where DATA was supposed
// to end, any block-aligned ciphertext prefix whose final bytes happen to
// look like padding + trailer is accepted as a complete, authentic message
// — the ambiguity experiment E7 exploits.
kerb::Result<Draft2Priv> Draft2PrivUnseal(const kcrypto::DesKey& key, kerb::BytesView sealed);

}  // namespace krb5

#endif  // SRC_KRB5_ENCLAYER_H_
