#include "src/admin/messages.h"

#include <utility>

#include "src/crypto/checksum.h"
#include "src/encoding/io.h"
#include "src/krb4/messages.h"

namespace kadmin {

krb4::Principal AdminPrincipal(const std::string& realm) {
  return krb4::Principal::Service("changepw", "kerberos", realm);
}

kerb::Bytes AdminRequest::Encode() const {
  kerb::Bytes body;
  body.reserve(12 + sealed_ticket.size() + sealed_auth.size() + sealed_req.size());
  kenc::Writer w(&body);
  w.PutLengthPrefixed(sealed_ticket);
  w.PutLengthPrefixed(sealed_auth);
  w.PutLengthPrefixed(sealed_req);
  return krb4::Frame4(krb4::MsgType::kAdminRequest, body);
}

kerb::Result<AdminRequest> AdminRequest::Decode(kerb::BytesView body) {
  kenc::Reader r(body);
  AdminRequest req;
  auto ticket = r.GetLengthPrefixed();
  if (!ticket.ok()) {
    return ticket.error();
  }
  auto auth = r.GetLengthPrefixed();
  if (!auth.ok()) {
    return auth.error();
  }
  auto sealed = r.GetLengthPrefixed();
  if (!sealed.ok()) {
    return sealed.error();
  }
  if (!r.AtEnd()) {
    return kerb::MakeError(kerb::ErrorCode::kBadFormat, "trailing bytes in admin request");
  }
  req.sealed_ticket = std::move(ticket.value());
  req.sealed_auth = std::move(auth.value());
  req.sealed_req = std::move(sealed.value());
  return req;
}

// Appends `w`'s current contents' MD4 to `w` itself, length-prefixed.
static void AppendChecksum(kenc::Writer& w) {
  uint8_t sum[kcrypto::kMaxChecksumSize];
  const size_t size = kcrypto::ComputeChecksumInto(kcrypto::ChecksumType::kMd4, w.Peek(), sum);
  w.PutLengthPrefixed(kerb::BytesView(sum, size));
}

// Room for a body's fixed fields, one principal and its checksum, so an
// encode allocates once.
constexpr size_t kBodyReserve = 128;

// Verifies the trailing length-prefixed MD4 over everything before it.
// `body_len` is where the checksum's length prefix begins.
static kerb::Status VerifyTrailingChecksum(kerb::BytesView data, size_t body_len,
                                           kerb::BytesView sum) {
  if (!kcrypto::VerifyChecksum(kcrypto::ChecksumType::kMd4,
                               kerb::BytesView(data.data(), body_len), sum)) {
    return kerb::MakeError(kerb::ErrorCode::kIntegrity, "admin body checksum mismatch");
  }
  return kerb::Status::Ok();
}

kerb::Bytes AdminReqBody::Encode() const {
  kerb::Bytes out;
  out.reserve(kBodyReserve + payload.size());
  kenc::Writer w(&out);
  w.PutU8(static_cast<uint8_t>(op));
  target.EncodeTo(w);
  w.PutU64(nonce);
  w.PutU64(static_cast<uint64_t>(timestamp));
  w.PutU32(sender_addr);
  w.PutU8(direction);
  w.PutLengthPrefixed(payload);
  AppendChecksum(w);
  return out;
}

kerb::Result<AdminReqBody> AdminReqBody::Decode(kerb::BytesView data) {
  kenc::Reader r(data);
  AdminReqBody body;
  auto op = r.GetU8();
  if (!op.ok()) {
    return op.error();
  }
  if (op.value() < static_cast<uint8_t>(AdminOp::kChangePassword) ||
      op.value() > static_cast<uint8_t>(AdminOp::kGetKvno)) {
    return kerb::MakeError(kerb::ErrorCode::kBadFormat, "unknown admin op");
  }
  body.op = static_cast<AdminOp>(op.value());
  auto target = krb4::Principal::DecodeFrom(r);
  if (!target.ok()) {
    return target.error();
  }
  body.target = std::move(target.value());
  auto nonce = r.GetU64();
  if (!nonce.ok()) {
    return nonce.error();
  }
  body.nonce = nonce.value();
  auto ts = r.GetU64();
  if (!ts.ok()) {
    return ts.error();
  }
  body.timestamp = static_cast<ksim::Time>(ts.value());
  auto addr = r.GetU32();
  if (!addr.ok()) {
    return addr.error();
  }
  body.sender_addr = addr.value();
  auto dir = r.GetU8();
  if (!dir.ok()) {
    return dir.error();
  }
  body.direction = dir.value();
  auto payload = r.GetLengthPrefixed();
  if (!payload.ok()) {
    return payload.error();
  }
  body.payload = std::move(payload.value());
  const size_t body_len = data.size() - r.remaining();
  auto sum = r.GetLengthPrefixed();
  if (!sum.ok()) {
    return sum.error();
  }
  if (!r.AtEnd()) {
    return kerb::MakeError(kerb::ErrorCode::kBadFormat, "trailing bytes in admin body");
  }
  auto verified = VerifyTrailingChecksum(data, body_len, sum.value());
  if (!verified.ok()) {
    return verified.error();
  }
  return body;
}

kerb::Bytes AdminReplyBody::Encode() const {
  kerb::Bytes out;
  out.reserve(kBodyReserve + detail.size());
  kenc::Writer w(&out);
  w.PutU64(nonce_plus_one);
  w.PutU64(static_cast<uint64_t>(timestamp));
  w.PutU8(direction);
  w.PutU32(code);
  w.PutU32(kvno);
  w.PutLengthPrefixed(detail);
  AppendChecksum(w);
  return out;
}

kerb::Result<AdminReplyBody> AdminReplyBody::Decode(kerb::BytesView data) {
  kenc::Reader r(data);
  AdminReplyBody body;
  auto nonce = r.GetU64();
  if (!nonce.ok()) {
    return nonce.error();
  }
  body.nonce_plus_one = nonce.value();
  auto ts = r.GetU64();
  if (!ts.ok()) {
    return ts.error();
  }
  body.timestamp = static_cast<ksim::Time>(ts.value());
  auto dir = r.GetU8();
  if (!dir.ok()) {
    return dir.error();
  }
  body.direction = dir.value();
  auto code = r.GetU32();
  if (!code.ok()) {
    return code.error();
  }
  body.code = code.value();
  auto kvno = r.GetU32();
  if (!kvno.ok()) {
    return kvno.error();
  }
  body.kvno = kvno.value();
  auto detail = r.GetLengthPrefixed();
  if (!detail.ok()) {
    return detail.error();
  }
  body.detail = std::move(detail.value());
  const size_t body_len = data.size() - r.remaining();
  auto sum = r.GetLengthPrefixed();
  if (!sum.ok()) {
    return sum.error();
  }
  if (!r.AtEnd()) {
    return kerb::MakeError(kerb::ErrorCode::kBadFormat, "trailing bytes in admin reply");
  }
  auto verified = VerifyTrailingChecksum(data, body_len, sum.value());
  if (!verified.ok()) {
    return verified.error();
  }
  return body;
}

}  // namespace kadmin
