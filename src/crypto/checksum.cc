#include "src/crypto/checksum.h"

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

kerb::Bytes ComputeChecksum(ChecksumType type, kerb::BytesView data,
                            const std::optional<DesKey>& key) {
  switch (type) {
    case ChecksumType::kCrc32: {
      uint32_t c = Crc32(data);
      return kerb::Bytes{
          static_cast<uint8_t>(c & 0xff),
          static_cast<uint8_t>((c >> 8) & 0xff),
          static_cast<uint8_t>((c >> 16) & 0xff),
          static_cast<uint8_t>((c >> 24) & 0xff),
      };
    }
    case ChecksumType::kMd4: {
      Md4Digest d = Md4(data);
      return kerb::Bytes(d.begin(), d.end());
    }
    case ChecksumType::kMd4Des: {
      assert(key.has_value());
      Md4Digest d = Md4(data);
      DesKey variant = key->Variant(0xf0);
      return EncryptCbc(variant, kZeroIv, kerb::BytesView(d.data(), d.size()));
    }
  }
  return {};
}

bool VerifyChecksum(ChecksumType type, kerb::BytesView data, kerb::BytesView expected,
                    const std::optional<DesKey>& key) {
  // An unknown type computes to no bytes, which must not match an empty
  // claimed checksum.
  if (ChecksumSize(type) == 0) {
    return false;
  }
  kerb::Bytes computed = ComputeChecksum(type, data, key);
  return kerb::ConstantTimeEqual(computed, expected);
}

}  // namespace kcrypto
