// Wire messages for the online administration protocol (kadmin).
//
// The 1991 paper's Kerberos had no protected administration channel: password
// changes rode an ad-hoc protocol with its own weaknesses, and key rotation
// meant taking the KDC down and re-propagating the whole database. This
// subsystem models the fix the paper's framework implies: an admin service
// ("changepw.kerberos@REALM") reached through the ordinary AS/TGS machinery,
// with every request and reply sealed krb_priv-style under the ticket's
// session key and carrying the full anti-replay envelope the paper demands
// for application messages — timestamp, direction flag, sender address,
// nonce, and a collision-proof checksum over the plaintext.
//
// Wire shape (all inside Frame4 with the new MsgType values):
//
//   AdminRequest  = kAdminRequest {
//       {T_c,changepw}K_changepw   sealed ticket   (service-key sealed)
//       {A_c}K_session             sealed auth     (fresh per attempt)
//       {AdminReqBody}K_session    sealed body     (same nonce per attempt)
//   }
//   AdminReply    = kAdminReply { {AdminReplyBody}K_session }
//
// Retries resend a *fresh* authenticator with the *same* nonce: the server's
// nonce-ack cache makes mutations exactly-once across retransmissions, while
// the fresh timestamp keeps the authenticator replay cache honest.

#ifndef SRC_ADMIN_MESSAGES_H_
#define SRC_ADMIN_MESSAGES_H_

#include <cstdint>
#include <string>
#include <tuple>

#include "src/common/bytes.h"
#include "src/common/result.h"
#include "src/crypto/des.h"
#include "src/encoding/layout.h"
#include "src/krb4/principal.h"
#include "src/sim/clock.h"

namespace kadmin {

// The admin service listens on the primary KDC host at this port (the
// historical kpasswd/kadmin port).
constexpr uint16_t kAdminPort = 751;

// The well-known admin service principal for a realm.
krb4::Principal AdminPrincipal(const std::string& realm);

enum class AdminOp : uint8_t {
  kChangePassword = 1,  // payload: new password bytes; self or admin
  kRotateKey = 2,       // payload: empty (server draws a random key); admin
  kGetKey = 3,          // payload: empty; reply detail: current key; admin
  kAddPrincipal = 4,    // payload: u8 kind | password bytes (users); admin
  kDelPrincipal = 5,    // payload: empty; admin
  kGetKvno = 6,         // payload: empty; self or admin
};

// Each message below lists its fields in wire order in Layout()
// (src/encoding/layout.h); all three must be exact, with no trailing bytes.

// The top-level request: three sealed blobs, each length-prefixed, framed
// as MsgType::kAdminRequest (krb4::Frame4).
struct AdminRequest {
  kerb::Bytes sealed_ticket;  // {T_c,changepw}K_changepw
  kerb::Bytes sealed_auth;    // {A_c}K_session
  kerb::Bytes sealed_req;     // {AdminReqBody}K_session

  static constexpr auto Layout() {
    return std::tuple{&AdminRequest::sealed_ticket, &AdminRequest::sealed_auth,
                      &AdminRequest::sealed_req};
  }
};

// The sealed request body. EncodeChecked appends an MD4 checksum over the
// encoded fields; DecodeChecked verifies and strips it — tampering anywhere
// in the plaintext (including a cut-and-paste of fields between two sealed
// bodies) fails closed with kIntegrity.
struct AdminReqBody {
  AdminOp op = AdminOp::kGetKvno;  // an undefined op fails the decode
  krb4::Principal target;
  uint64_t nonce = 0;          // echoed + 1 in the reply
  ksim::Time timestamp = 0;    // client clock; bounded by server skew check
  uint32_t sender_addr = 0;    // must match the network source address
  uint8_t direction = 0;       // 0 = client→server; rejects reflections
  kerb::Bytes payload;         // op-specific (see AdminOp)

  static constexpr auto Layout() {
    return std::tuple{&AdminReqBody::op,          &AdminReqBody::target,
                      &AdminReqBody::nonce,       &AdminReqBody::timestamp,
                      &AdminReqBody::sender_addr, &AdminReqBody::direction,
                      &AdminReqBody::payload};
  }
};

// The sealed reply body, same checksum treatment. `code` is 0 for success
// or a kerb::ErrorCode the client re-raises; the body is sealed either way,
// so a denial verdict cannot be forged or replayed into a later exchange.
struct AdminReplyBody {
  uint64_t nonce_plus_one = 0;
  ksim::Time timestamp = 0;   // server clock at apply time
  uint8_t direction = 1;      // 1 = server→client
  uint32_t code = 0;          // 0 = applied; else kerb::ErrorCode
  uint32_t kvno = 0;          // key version after the op (when meaningful)
  kerb::Bytes detail;         // op-specific (kGetKey: key bytes; denials: text)

  static constexpr auto Layout() {
    return std::tuple{&AdminReplyBody::nonce_plus_one, &AdminReplyBody::timestamp,
                      &AdminReplyBody::direction,      &AdminReplyBody::code,
                      &AdminReplyBody::kvno,           &AdminReplyBody::detail};
  }
};

// The checksum trailer of a sealed body: the u32 length and the MD4 of the
// fields before it.
constexpr size_t kChecksumTrailer = 4 + 16;
void PutChecksum(kerb::BytesView fields, uint8_t* out);
// Reads the trailer at `r`, which must end the body, and checks it over
// `fields`: kBadFormat when it is malformed, kIntegrity on a mismatch.
kerb::Status CheckChecksum(kenc::Reader& r, kerb::BytesView fields);

// The plaintext of a sealed body: its layout, then the trailer. One
// allocation.
template <typename Body>
kerb::Bytes EncodeChecked(const Body& body) {
  const size_t size = kenc::EncodedSize(body);
  kerb::Bytes out(size + kChecksumTrailer);
  kenc::EncodeTo(body, out.data());
  PutChecksum(kerb::BytesView(out.data(), size), out.data() + size);
  return out;
}

// The body of such a plaintext, its trailer verified.
template <typename Body>
kerb::Result<Body> DecodeChecked(kerb::BytesView plain) {
  Body body;
  kenc::Reader r(plain);
  if (!kenc::Get(r, body)) {
    return kerb::MakeError(kerb::ErrorCode::kBadFormat, "truncated or invalid admin body");
  }
  auto checked = CheckChecksum(r, plain.first(plain.size() - r.remaining()));
  if (!checked.ok()) {
    return checked.error();
  }
  return body;
}

}  // namespace kadmin

// An AdminOp travels as its u8; a value outside the defined ops is an
// invalid field.
template <>
struct kenc::Form<kadmin::AdminOp> {
  static constexpr size_t kMinSize = 1;
  static size_t Size(kadmin::AdminOp) { return 1; }
  static uint8_t* Put(kadmin::AdminOp op, uint8_t* out) {
    return Form<uint8_t>::Put(static_cast<uint8_t>(op), out);
  }
  static bool Get(Reader& r, kadmin::AdminOp& op) {
    uint8_t value = 0;
    if (!Form<uint8_t>::Get(r, value) ||
        value < static_cast<uint8_t>(kadmin::AdminOp::kChangePassword) ||
        value > static_cast<uint8_t>(kadmin::AdminOp::kGetKvno)) {
      return false;
    }
    op = static_cast<kadmin::AdminOp>(value);
    return true;
  }
};

#endif  // SRC_ADMIN_MESSAGES_H_
