// The Draft 3 checksum suite: CRC-32, RSA-MD4, and RSA-MD4-DES.
//
// The paper's central observation about this suite (Appendix, "Weak
// Checksums and Cut-and-Paste Attacks"): the useful classification is not
// "cryptographic" vs. not, but *collision-proof* vs. not. CRC-32 is not
// collision-proof; encrypting a CRC-32 over public data adds almost nothing,
// because the adversary can compute the checksum of a substitute message
// herself and splice it in. MD4 is (was, in 1991) collision-proof.
//
// `IsCollisionProof` encodes that classification, and the protocol variants
// in src/hardened consult it when enforcing recommendation (c') — "strong
// checksums ... should be used to assure integrity of the basic Kerberos
// messages."

#ifndef SRC_CRYPTO_CHECKSUM_H_
#define SRC_CRYPTO_CHECKSUM_H_

#include <cstdint>
#include <optional>

#include "src/common/bytes.h"
#include "src/common/result.h"
#include "src/crypto/des.h"

namespace kcrypto {

enum class ChecksumType : uint8_t {
  kCrc32 = 1,    // unkeyed, NOT collision-proof
  kMd4 = 2,      // unkeyed, collision-proof (1991 model)
  kMd4Des = 3,   // MD4 sealed with a DES variant key: keyed AND collision-proof
};

const char* ChecksumTypeName(ChecksumType type);

// Output size in bytes.
size_t ChecksumSize(ChecksumType type);

// The largest ChecksumSize.
constexpr size_t kMaxChecksumSize = 16;

// Whether an adversary can construct a second preimage / forced value.
// This is the property the paper says must drive protocol decisions.
// False for a value outside the enum.
bool IsCollisionProof(ChecksumType type);

// Whether verification requires the key.
bool IsKeyed(ChecksumType type);

// Computes the checksum. `key` is required for kMd4Des (asserted) and
// ignored otherwise. For kMd4Des the digest is DES-CBC encrypted under the
// 0xF0 variant of `key`, per the Draft 3 scheme of separating checksum keys
// from message keys.
kerb::Bytes ComputeChecksum(ChecksumType type, kerb::BytesView data,
                            const std::optional<DesKey>& key = std::nullopt);

// The same checksum written to `out` (kMaxChecksumSize bytes of room)
// without allocating; returns ChecksumSize(type). `key` as above, or null.
size_t ComputeChecksumInto(ChecksumType type, kerb::BytesView data, uint8_t* out,
                           const DesKey* key = nullptr);

// Verifies `expected` against `data`. Always false for a value outside the
// enum.
bool VerifyChecksum(ChecksumType type, kerb::BytesView data, kerb::BytesView expected,
                    const std::optional<DesKey>& key = std::nullopt);

}  // namespace kcrypto

#endif  // SRC_CRYPTO_CHECKSUM_H_
