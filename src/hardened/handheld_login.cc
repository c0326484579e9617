#include "src/hardened/handheld_login.h"

#include "src/encoding/io.h"

namespace khard {

namespace {

constexpr uint8_t kOpChallenge = 1;
constexpr uint8_t kOpTicket = 2;

}  // namespace

HandheldLoginServer::HandheldLoginServer(ksim::Network* net, const ksim::NetAddress& addr,
                                         ksim::HostClock clock, std::string realm,
                                         krb4::KdcDatabase db, kcrypto::Prng prng,
                                         ksim::Duration challenge_lifetime)
    : clock_(clock),
      realm_(std::move(realm)),
      db_(std::move(db)),
      prng_(prng),
      challenge_lifetime_(challenge_lifetime) {
  net->Bind(addr, [this](const ksim::Message& msg) { return Handle(msg); });
}

kcrypto::DesKey KeyFromDeviceResponse(uint64_t response) {
  return kcrypto::DesKey(kcrypto::FixParity(kcrypto::U64ToBlock(response)));
}

kerb::Result<kerb::Bytes> HandheldLoginServer::Handle(const ksim::Message& msg) {
  kenc::Reader r(msg.payload);
  auto op = r.GetU8();
  if (!op.ok()) {
    return op.error();
  }
  krb4::Principal principal;
  if (!kenc::Get(r, principal)) {
    return kerb::MakeError(kerb::ErrorCode::kBadFormat, "truncated principal");
  }
  auto user_key = db_.Lookup(principal);
  if (!user_key.ok()) {
    return user_key.error();
  }
  ksim::Time now = clock_.Now();

  if (op.value() == kOpChallenge) {
    uint64_t challenge = prng_.NextU64();
    outstanding_[principal.ToString()] = {challenge, now};
    ++challenges_issued_;
    kenc::Writer w;
    w.PutU64(challenge);  // R travels in the clear
    return w.Take();
  }
  if (op.value() != kOpTicket) {
    return kerb::MakeError(kerb::ErrorCode::kBadFormat, "unknown login op");
  }

  auto it = outstanding_.find(principal.ToString());
  if (it == outstanding_.end() || now - it->second.second > challenge_lifetime_) {
    return kerb::MakeError(kerb::ErrorCode::kAuthFailed, "no live challenge");
  }
  uint64_t challenge = it->second.first;
  outstanding_.erase(it);  // single use

  // K' = {R}K_c — only the device holder can compute it.
  kcrypto::DesKey reply_key =
      KeyFromDeviceResponse(user_key.value().EncryptBlock(challenge));

  auto tgs_key = db_.Lookup(krb4::TgsPrincipal(realm_));
  if (!tgs_key.ok()) {
    return tgs_key.error();
  }
  krb4::Ticket4 tgt;
  tgt.service = krb4::TgsPrincipal(realm_);
  tgt.client = principal;
  tgt.client_addr = msg.src.host;
  tgt.issued_at = now;
  tgt.lifetime = 8 * ksim::kHour;
  tgt.session_key = prng_.NextDesKeyBytes();
  kerb::Bytes reply;
  krb4::AppendSealedReply4(tgt, tgs_key.value(), reply_key, reply);
  return reply;
}

kerb::Result<uint64_t> RequestLoginChallenge(ksim::Network* net,
                                             const ksim::NetAddress& client_addr,
                                             const ksim::NetAddress& login_addr,
                                             const krb4::Principal& user) {
  kenc::Writer w;
  w.PutU8(kOpChallenge);
  kenc::Put(w, user);
  auto reply = net->Call(client_addr, login_addr, w.Peek());
  if (!reply.ok()) {
    return reply.error();
  }
  kenc::Reader r(reply.value());
  auto challenge = r.GetU64();
  if (!challenge.ok()) {
    return challenge.error();
  }
  return challenge.value();
}

kerb::Result<HandheldLoginResult> CompleteLoginWithResponse(
    ksim::Network* net, const ksim::NetAddress& client_addr,
    const ksim::NetAddress& login_addr, const krb4::Principal& user, uint64_t response) {
  kenc::Writer w;
  w.PutU8(kOpTicket);
  kenc::Put(w, user);
  auto reply = net->Call(client_addr, login_addr, w.Peek());
  if (!reply.ok()) {
    return reply.error();
  }
  kcrypto::DesKey reply_key = KeyFromDeviceResponse(response);
  auto plain = krb4::Unseal4(reply_key, reply.value());
  if (!plain.ok()) {
    return kerb::MakeError(kerb::ErrorCode::kAuthFailed,
                           "cannot decrypt login reply (stale device response?)");
  }
  auto body = kenc::Decode<krb4::ReplyBody4>(plain.value());
  if (!body.ok()) {
    return body.error();
  }
  HandheldLoginResult result;
  result.tgs_session_key = kcrypto::DesKey(body.value().session_key);
  result.sealed_tgt = body.value().sealed_ticket;
  return result;
}

kerb::Result<HandheldLoginResult> HandheldLogin(ksim::Network* net,
                                                const ksim::NetAddress& client_addr,
                                                const ksim::NetAddress& login_addr,
                                                const krb4::Principal& user,
                                                const khsm::HandheldAuthenticator& device) {
  auto challenge = RequestLoginChallenge(net, client_addr, login_addr, user);
  if (!challenge.ok()) {
    return challenge.error();
  }
  // The user reads R off the screen, keys it into the device, and types the
  // device's answer back.
  uint64_t response = device.Respond(challenge.value());
  return CompleteLoginWithResponse(net, client_addr, login_addr, user, response);
}

}  // namespace khard
