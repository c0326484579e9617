#include "src/crypto/checksum.h"

#include <algorithm>
#include <cassert>

#include "src/crypto/crc32.h"
#include "src/crypto/md4.h"
#include "src/crypto/modes.h"

namespace kcrypto {

const char* ChecksumTypeName(ChecksumType type) {
  switch (type) {
    case ChecksumType::kCrc32:
      return "crc32";
    case ChecksumType::kMd4:
      return "rsa-md4";
    case ChecksumType::kMd4Des:
      return "rsa-md4-des";
  }
  return "unknown";
}

size_t ChecksumSize(ChecksumType type) {
  switch (type) {
    case ChecksumType::kCrc32:
      return 4;
    case ChecksumType::kMd4:
    case ChecksumType::kMd4Des:
      return 16;
  }
  return 0;
}

bool IsCollisionProof(ChecksumType type) {
  return type == ChecksumType::kMd4 || type == ChecksumType::kMd4Des;
}

bool IsKeyed(ChecksumType type) { return type == ChecksumType::kMd4Des; }

size_t ComputeChecksumInto(ChecksumType type, kerb::BytesView data, uint8_t* out,
                           const DesKey* key) {
  switch (type) {
    case ChecksumType::kCrc32: {
      uint32_t c = Crc32(data);
      for (int i = 0; i < 4; ++i) {
        out[i] = static_cast<uint8_t>(c >> (8 * i));
      }
      return 4;
    }
    case ChecksumType::kMd4: {
      Md4Digest d = Md4(data);
      std::copy(d.begin(), d.end(), out);
      return d.size();
    }
    case ChecksumType::kMd4Des: {
      assert(key != nullptr);
      Md4Digest d = Md4(data);
      std::copy(d.begin(), d.end(), out);
      EncryptCbcInPlace(key->Variant(0xf0), kZeroIv, out, d.size());
      return d.size();
    }
  }
  return 0;
}

kerb::Bytes ComputeChecksum(ChecksumType type, kerb::BytesView data,
                            const std::optional<DesKey>& key) {
  uint8_t out[kMaxChecksumSize];
  const size_t size = ComputeChecksumInto(type, data, out, key.has_value() ? &*key : nullptr);
  return kerb::Bytes(out, out + size);
}

bool VerifyChecksum(ChecksumType type, kerb::BytesView data, kerb::BytesView expected,
                    const std::optional<DesKey>& key) {
  // An unknown type computes to no bytes, which must not match an empty
  // claimed checksum.
  if (ChecksumSize(type) == 0) {
    return false;
  }
  uint8_t computed[kMaxChecksumSize];
  const size_t size =
      ComputeChecksumInto(type, data, computed, key.has_value() ? &*key : nullptr);
  return kerb::ConstantTimeEqual(kerb::BytesView(computed, size), expected);
}

}  // namespace kcrypto
