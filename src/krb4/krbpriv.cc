#include "src/krb4/krbpriv.h"

#include <algorithm>

#include "src/crypto/modes.h"

namespace krb4 {

kerb::Bytes PrivMessage4::Seal(const kcrypto::DesKey& session_key) const {
  kerb::Bytes padded((kenc::EncodedSize(*this) + 7) & ~size_t{7});
  kenc::EncodeTo(*this, padded.data());
  kcrypto::EncryptPcbcInPlace(session_key, kcrypto::kZeroIv, padded.data(), padded.size());
  return padded;
}

kerb::Result<PrivMessage4> PrivMessage4::Unseal(const kcrypto::DesKey& session_key,
                                                kerb::BytesView sealed) {
  if (sealed.empty() || sealed.size() % 8 != 0) {
    return kerb::MakeError(kerb::ErrorCode::kBadFormat, "sealed data not block-aligned");
  }
  kerb::Bytes plain(sealed.begin(), sealed.end());
  kcrypto::DecryptPcbcInPlace(session_key, kcrypto::kZeroIv, plain.data(), plain.size());
  kenc::Reader r(plain);
  PrivMessage4 msg;
  if (!kenc::Get(r, msg)) {
    return kerb::MakeError(kerb::ErrorCode::kIntegrity, "KRB_PRIV truncated");
  }
  // Remaining bytes must be zero padding.
  const size_t padding = r.remaining();
  const uint8_t* rest = r.Skip(padding);
  if (std::any_of(rest, rest + padding, [](uint8_t b) { return b != 0; })) {
    return kerb::MakeError(kerb::ErrorCode::kIntegrity, "KRB_PRIV padding nonzero");
  }
  return msg;
}

}  // namespace krb4
