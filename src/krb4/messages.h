// Kerberos Version 4 wire messages.
//
// Faithful to the protocol shape the paper analyses (Table 1 notation):
//
//   {T_c,s}K_s  = {s, c, addr, timestamp, lifetime, K_c,s} K_s      (ticket)
//   {A_c}K_c,s  = {c, addr, timestamp} K_c,s                 (authenticator)
//   AS exchange:   c  →  { K_c,tgs, {T_c,tgs}K_tgs } K_c
//   TGS exchange:  s, {T_c,tgs}K_tgs, {A_c}K_c,tgs  →  { {T_c,s}K_s, K_c,s } K_c,tgs
//   AP exchange:   {T_c,s}K_s, {A_c}K_c,s  →  { timestamp + 1 } K_c,s
//
// Deliberately preserved weaknesses (each is an experiment):
//   * The AS request is plaintext and unauthenticated — anyone can fetch a
//     reply encrypted in any user's password key (E4, E5).
//   * Authenticators prove freshness by timestamp alone (E1, E2, E3).
//   * The session key in the ticket is a multi-session key (E11).
//   * Tickets bind an IP address that the network cannot verify (E12).
//
// Encryption framing: Seal4/Unseal4 wrap a plaintext in magic + length,
// zero-pad, and encrypt with DES-PCBC and a fixed zero IV, as V4 did. The
// recognizable magic is what makes offline password guessing confirmable.

#ifndef SRC_KRB4_MESSAGES_H_
#define SRC_KRB4_MESSAGES_H_

#include <cstdint>
#include <string>
#include <tuple>
#include <utility>
#include <variant>

#include "src/common/bytes.h"
#include "src/common/result.h"
#include "src/crypto/des.h"
#include "src/encoding/layout.h"
#include "src/krb4/principal.h"
#include "src/sim/clock.h"

namespace krb4 {

// Protocol constants.
constexpr uint8_t kProtocolVersion = 4;

// V4 carried ticket lifetimes as a single byte counting five-minute units,
// capping every ticket at 255 × 5 min = 21h15m — the concrete form of "the
// longer a ticket is in use, the greater the risk". The KDC quantizes every
// granted lifetime through this encoding.
constexpr ksim::Duration kV4LifetimeUnit = 5 * ksim::kMinute;
constexpr ksim::Duration kV4MaxLifetime = 255 * kV4LifetimeUnit;

// Rounds up to the next representable unit, saturating at 255 units.
uint8_t LifetimeToV4Units(ksim::Duration lifetime);
ksim::Duration V4UnitsToLifetime(uint8_t units);

enum class MsgType : uint8_t {
  kAsRequest = 1,
  kAsReply = 2,
  kTgsRequest = 3,
  kTgsReply = 4,
  kApRequest = 5,
  kApReply = 6,
  kError = 7,
  kPriv = 8,
  // Public-key preauthenticated AS exchange (the paper's "exponential
  // key exchange" fix for offline password guessing, §6.3).
  kAsPkRequest = 9,
  kAsPkReply = 10,
  // Online administration protocol (src/admin): principal CRUD and the
  // protected password-change exchange, krb_priv-sealed over an
  // AS/TGS-obtained admin-service ticket.
  kAdminRequest = 11,
  kAdminReply = 12,
  // Clustered serving (src/cluster): "this KDC node does not own the
  // requested principal's hash range" — the reply body is an unencrypted
  // kcluster::ReferralBody teaching the client the owning node and the
  // current ring. Plaintext by design: it names public topology only, and
  // a forged referral can at worst redirect a client to a node that will
  // itself refer or refuse (the credential path stays end-to-end keyed).
  kClusterReferral = 13,
};

// Seals `plaintext` under `key`: MAGIC || u32 length || plaintext, zero-
// padded to a block boundary, DES-PCBC, zero IV. Unseal verifies the magic
// — the structural check V4 relied on (and that password-guessers exploit).
kerb::Bytes Seal4(const kcrypto::DesKey& key, kerb::BytesView plaintext);
kerb::Result<kerb::Bytes> Unseal4(const kcrypto::DesKey& key, kerb::BytesView ciphertext);

// Appends the sealed form of `plaintext` to `out` (same bytes Seal4 would
// produce), encrypting in place in the destination buffer — the
// allocation-free serving path reuses `out` across requests. `plaintext`
// must not alias `out`.
void Seal4Into(const kcrypto::DesKey& key, kerb::BytesView plaintext, kerb::Bytes& out);

// The two halves of a seal, for a plaintext encoded in place: the first
// appends the magic, the length of an n-byte plaintext, room for it and the
// zero padding to `out`, and returns where the plaintext goes; the second
// encrypts the seal that starts at `start` and emits its kSeal event.
uint8_t* AppendSealFrame4(size_t n, kerb::Bytes& out);
void EncryptSeal4(const kcrypto::DesKey& key, kerb::Bytes& out, size_t start);

// Seal4 of a message's layout, encoded in place: one allocation.
template <kenc::LayoutMessage Msg>
kerb::Bytes Seal(const kcrypto::DesKey& key, const Msg& msg) {
  kerb::Bytes out;
  kenc::EncodeTo(msg, AppendSealFrame4(kenc::EncodedSize(msg), out));
  EncryptSeal4(key, out, 0);
  return out;
}

// Decrypts and checks a seal, into `stack` when the ciphertext fits its
// `stack_size` bytes and into `heap` otherwise; returns the plaintext the
// seal carries, within that buffer. Errors and kobs events are Unseal4's.
kerb::Result<kerb::BytesView> Open4(const kcrypto::DesKey& key, kerb::BytesView ciphertext,
                                    uint8_t* stack, size_t stack_size, kerb::Bytes& heap);

// Unseal4, then the message decoded straight out of the plaintext, which
// for a seal of up to 256 bytes never leaves the stack.
template <kenc::LayoutMessage Msg>
kerb::Result<Msg> Unseal(const kcrypto::DesKey& key, kerb::BytesView sealed) {
  uint8_t stack[256];
  kerb::Bytes heap;
  auto body = Open4(key, sealed, stack, sizeof stack, heap);
  if (!body.ok()) {
    return body.error();
  }
  return kenc::Decode<Msg>(body.value());
}

// ---------------------------------------------------------------------------
// Framing: every V4 message on the wire is version byte + type byte + body.
kerb::Bytes Frame4(MsgType type, kerb::BytesView body);
// The frame's type and a view of its body, within `data`.
kerb::Result<std::pair<MsgType, kerb::BytesView>> Unframe4(kerb::BytesView data);

// Frame4 of a message's layout, encoded in place: one allocation.
template <kenc::LayoutMessage Msg>
kerb::Bytes Frame4(MsgType type, const Msg& msg) {
  kerb::Bytes out(2 + kenc::EncodedSize(msg));
  out[0] = kProtocolVersion;
  out[1] = static_cast<uint8_t>(type);
  kenc::EncodeTo(msg, out.data() + 2);
  return out;
}

// Each message below lists its fields in wire order in Layout()
// (src/encoding/layout.h). The requests, the reply bodies, the AP request
// and the error body end in kenc::kIgnoreRest: V4 read their fields and
// ignored whatever followed. Tickets and authenticators must be exact.

// ---------------------------------------------------------------------------
// Ticket: encrypted in the *service's* key.
struct Ticket4 {
  Principal service;
  Principal client;
  uint32_t client_addr = 0;      // the address binding the paper criticises
  ksim::Time issued_at = 0;
  ksim::Duration lifetime = 0;
  kcrypto::DesBlock session_key{};  // K_c,s — a multi-session key in truth

  static constexpr auto Layout() {
    return std::tuple{&Ticket4::service,   &Ticket4::client,   &Ticket4::client_addr,
                      &Ticket4::issued_at, &Ticket4::lifetime, &Ticket4::session_key};
  }

  bool Expired(ksim::Time now) const { return now > issued_at + lifetime; }
};

// Authenticator: encrypted in the session key from the ticket.
struct Authenticator4 {
  Principal client;
  uint32_t client_addr = 0;
  ksim::Time timestamp = 0;

  static constexpr auto Layout() {
    return std::tuple{&Authenticator4::client, &Authenticator4::client_addr,
                      &Authenticator4::timestamp};
  }
};

// ---------------------------------------------------------------------------
// AS exchange (initial ticket-granting ticket).
struct AsRequest4 {
  Principal client;            // plaintext: the paper's harvesting attack
  std::string service_realm;   // realm whose TGT is requested
  ksim::Duration lifetime = 0;

  static constexpr auto Layout() {
    return std::tuple{&AsRequest4::client, &AsRequest4::service_realm, &AsRequest4::lifetime,
                      kenc::kIgnoreRest};
  }
};

// Body of the AS reply, sealed under K_c (the password-derived key), and of
// the TGS reply, sealed under K_c,tgs: the new session key, the ticket
// sealed in the service's key (opaque to the client) and its times. The
// KDC writes the same layout through AppendSealedReply4, with the ticket
// sealed in place.
struct ReplyBody4 {
  kcrypto::DesBlock session_key{};  // K_c,tgs (AS) or K_c,s (TGS)
  kerb::Bytes sealed_ticket;        // {T_c,tgs}K_tgs or {T_c,s}K_s
  ksim::Time issued_at = 0;
  ksim::Duration lifetime = 0;

  static constexpr auto Layout() {
    return std::tuple{&ReplyBody4::session_key, &ReplyBody4::sealed_ticket,
                      &ReplyBody4::issued_at, &ReplyBody4::lifetime, kenc::kIgnoreRest};
  }
};

// ---------------------------------------------------------------------------
// Public-key preauthenticated AS exchange. The client contributes a fresh
// DH public value plus a proof of possession of K_c that *binds* that
// public value; the KDC wraps the ordinary AS reply body in one extra
// layer keyed by the negotiated secret:
//
//   c → KDC:  c, realm, lifetime, g^a mod p, {timestamp, md4(g^a)}K_c
//   KDC → c:  g^b mod p, { {ReplyBody4}K_c } K_dh
//
// The double seal alone only defends against *passive* eavesdroppers: an
// active attacker could otherwise request a ticket for any principal with
// their own ephemeral key, strip the outer DH layer, and grind the inner
// {...}K_c offline. The sealed padata closes that oracle — only the key
// holder can produce it, and because it covers md4(g^a) the DH public
// cannot be substituted without re-sealing under K_c.
struct AsPkRequest4 {
  Principal client;
  std::string service_realm;
  ksim::Duration lifetime = 0;
  kerb::Bytes client_pub;      // big-endian g^a mod p
  // {timestamp u64, md4(client_pub)}K_c — mandatory; the KDC refuses PK
  // requests whose padata is missing, stale, or bound to a different public.
  kerb::Bytes sealed_padata;

  static constexpr auto Layout() {
    return std::tuple{&AsPkRequest4::client,     &AsPkRequest4::service_realm,
                      &AsPkRequest4::lifetime,   &AsPkRequest4::client_pub,
                      &AsPkRequest4::sealed_padata, kenc::kIgnoreRest};
  }
};

// Body of the PK AS reply frame: the KDC's public value (plaintext — it is
// ephemeral and self-authenticating via the inner K_c layer) plus the
// doubly-sealed reply.
struct AsPkReply4 {
  kerb::Bytes server_pub;     // big-endian g^b mod p
  kerb::Bytes sealed_reply;   // { {ReplyBody4}K_c } K_dh

  static constexpr auto Layout() {
    return std::tuple{&AsPkReply4::server_pub, &AsPkReply4::sealed_reply, kenc::kIgnoreRest};
  }
};

// ---------------------------------------------------------------------------
// TGS exchange.
struct TgsRequest4 {
  Principal service;        // what we want a ticket for
  kerb::Bytes sealed_tgt;   // {T_c,tgs}K_tgs
  kerb::Bytes sealed_auth;  // {A_c}K_c,tgs
  ksim::Duration lifetime = 0;

  static constexpr auto Layout() {
    return std::tuple{&TgsRequest4::service, &TgsRequest4::sealed_tgt, &TgsRequest4::sealed_auth,
                      &TgsRequest4::lifetime, kenc::kIgnoreRest};
  }
};

// ---------------------------------------------------------------------------
// A KDC request, decoded by the type its frame names, whichever port it
// arrived on: the KDC core and the cluster router read this one decode.
using KdcRequest4 = std::variant<AsRequest4, AsPkRequest4, TgsRequest4>;

// Unframe4, then the body decoded in place as the request the frame type
// names; kBadFormat for any other frame and for a malformed body.
kerb::Result<KdcRequest4> DecodeKdcRequest4(kerb::BytesView frame);

// ---------------------------------------------------------------------------
// AP exchange (client to application server).
struct ApRequest4 {
  kerb::Bytes sealed_ticket;  // {T_c,s}K_s
  kerb::Bytes sealed_auth;    // {A_c}K_c,s
  bool want_mutual = false;
  kerb::Bytes app_data;       // application payload, delivered after auth
  // Second leg of the optional challenge/response dialog (recommendation a,
  // retrofitted to V4 as the paper proposes): {server nonce + 1}K_c,s.
  kerb::Bytes challenge_response;  // empty = absent

  static constexpr auto Layout() {
    return std::tuple{&ApRequest4::sealed_ticket, &ApRequest4::sealed_auth,
                      &ApRequest4::want_mutual,   &ApRequest4::app_data,
                      &ApRequest4::challenge_response, kenc::kIgnoreRest};
  }
};

// Mutual-authentication reply: {timestamp + 1}K_c,s.
kerb::Bytes MakeApReply4(const kcrypto::DesKey& session_key, ksim::Time authenticator_time);
kerb::Result<ksim::Time> VerifyApReply4(const kcrypto::DesKey& session_key,
                                        kerb::BytesView reply,
                                        ksim::Time authenticator_time);

// ---------------------------------------------------------------------------
// KRB_ERROR body: code + opaque e-data. Code 48 signals "use another
// authentication method" and carries the sealed challenge.
constexpr uint32_t kErrMethod4 = 48;

struct Error4 {
  uint32_t code = 0;
  kerb::Bytes e_data;

  static constexpr auto Layout() {
    return std::tuple{&Error4::code, &Error4::e_data, kenc::kIgnoreRest};
  }
};

// Appends Seal4(reply_key, body) to `out`, where body is the ReplyBody4
// that carries `ticket`: the ticket's session key, the sealed ticket
// Seal(ticket_key, ticket), and the ticket's issue time and lifetime — the
// shape of every AS and TGS reply. The ticket is encoded at its final
// offset, and its PCBC chain runs in lockstep with the reply's
// (kcrypto::EncryptPcbcNestedInPlace): the bytes, and the two kSeal events
// in their order, are those of sealing the ticket and then the body.
void AppendSealedReply4(const Ticket4& ticket, const kcrypto::DesKey& ticket_key,
                        const kcrypto::DesKey& reply_key, kerb::Bytes& out);

}  // namespace krb4

#endif  // SRC_KRB4_MESSAGES_H_
