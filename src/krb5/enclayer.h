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
#include "src/crypto/prng.h"
#include "src/encoding/tlv.h"
#include "src/sim/clock.h"

namespace krb5 {

struct EncLayerConfig {
  kcrypto::ChecksumType checksum = kcrypto::ChecksumType::kCrc32;  // Draft 3 default
  bool use_confounder = true;
};

// Seals a TLV message. `prng` supplies the confounder.
kerb::Bytes SealTlv(const kcrypto::DesKey& key, const kenc::TlvMessage& msg,
                    const EncLayerConfig& config, kcrypto::Prng& prng);

// Same bytes as SealTlv, built in a caller-owned buffer (cleared first,
// capacity kept) with no intermediate allocations.
void SealTlvInto(const kcrypto::DesKey& key, const kenc::TlvMessage& msg,
                 const EncLayerConfig& config, kcrypto::Prng& prng, kerb::Bytes& out);

// Seals two messages already encoded into flat buffers (e.g. via
// kenc::TlvFieldWriter), `first` under `first_key` into `first_out` and
// `second` under `second_key` into `second_out` (each cleared, capacity
// kept). Byte-identical to sealing `first` and then `second` one at a time:
// the first confounder is drawn first and the first kSeal event emitted
// first. The two CBC chains run in lockstep (kcrypto::EncryptCbcPairInPlace).
// The KDC seals every V5 reply's ticket and enc-part through here.
void SealEncodedPairInto(const kcrypto::DesKey& first_key, kerb::BytesView first,
                         kerb::Bytes& first_out, const kcrypto::DesKey& second_key,
                         kerb::BytesView second, kerb::Bytes& second_out,
                         const EncLayerConfig& config, kcrypto::Prng& prng);

// Unseals and verifies; also checks the embedded message type.
kerb::Result<kenc::TlvMessage> UnsealTlv(const kcrypto::DesKey& key, uint16_t expected_type,
                                         kerb::BytesView sealed, const EncLayerConfig& config);

// Explicit-IV variants — the paper's recommendation that "the IV be used as
// intended, and be incremented or otherwise altered after each message",
// rather than holding it constant and compensating with confounders. A
// receiver decrypting with the wrong position's IV gets garbage that fails
// the checksum, so per-message IV chaining detects replays, reorderings,
// and deletions with no timestamp cache and no extra field.
kerb::Bytes SealTlvWithIv(const kcrypto::DesKey& key, const kcrypto::DesBlock& iv,
                          const kenc::TlvMessage& msg, const EncLayerConfig& config,
                          kcrypto::Prng& prng);
kerb::Result<kenc::TlvMessage> UnsealTlvWithIv(const kcrypto::DesKey& key,
                                               const kcrypto::DesBlock& iv,
                                               uint16_t expected_type, kerb::BytesView sealed,
                                               const EncLayerConfig& config);

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
