#include "src/admin/messages.h"

#include "src/crypto/checksum.h"

namespace kadmin {

krb4::Principal AdminPrincipal(const std::string& realm) {
  return krb4::Principal::Service("changepw", "kerberos", realm);
}

void PutChecksum(kerb::BytesView fields, uint8_t* out) {
  out = kenc::PutBe(out, 16, 4);
  kcrypto::ComputeChecksumInto(kcrypto::ChecksumType::kMd4, fields, out);
}

kerb::Status CheckChecksum(kenc::Reader& r, kerb::BytesView fields) {
  auto sum = r.GetLengthPrefixedView();
  if (!sum.ok()) {
    return sum.error();
  }
  if (!r.AtEnd()) {
    return kerb::MakeError(kerb::ErrorCode::kBadFormat, "trailing bytes in admin body");
  }
  if (!kcrypto::VerifyChecksum(kcrypto::ChecksumType::kMd4, fields, sum.value())) {
    return kerb::MakeError(kerb::ErrorCode::kIntegrity, "admin body checksum mismatch");
  }
  return kerb::Status::Ok();
}

}  // namespace kadmin
