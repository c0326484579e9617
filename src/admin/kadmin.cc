#include "src/admin/kadmin.h"

#include <algorithm>
#include <charconv>
#include <cstdlib>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "src/krb4/messages.h"
#include "src/krb4/principal_store.h"
#include "src/obs/kobs.h"

namespace kadmin {

bool IsAdminPrincipal(const krb4::Principal& p) { return p.instance == "admin"; }

KadminServer::KadminServer(ksim::Network* net, const ksim::NetAddress& addr, std::string realm,
                           krb4::KdcDatabase* db, ksim::HostClock clock, kcrypto::Prng prng,
                           AdminPolicy policy)
    : realm_(std::move(realm)),
      self_(AdminPrincipal(realm_)),
      db_(db),
      addr_(addr),
      clock_(clock),
      prng_(prng),
      policy_(policy) {
  net->Bind(addr, [this](const ksim::Message& msg) { return Handle(msg); });
}

kerb::Result<kerb::Bytes> KadminServer::Handle(const ksim::Message& msg) {
  ++requests_;
  const ksim::Time now = clock_.Now();
  kobs::Emit(kobs::kSrcAdmin, kobs::Ev::kAdminRequest, now, msg.src.host, msg.payload.size());

  // Layer 1: byte-identical duplicates earn the byte-identical reply —
  // never a second pass through the state machine.
  const size_t slot = krb4::KdcReplyCache::Slot(msg.src, msg.payload);
  const kerb::Bytes* cached =
      replies_.Get(slot, msg.src, msg.payload, now, policy_.reply_cache_window);
  if (cached != nullptr) {
    ++reply_cache_hits_;
    kobs::Emit(kobs::kSrcAdmin, kobs::Ev::kAdminReplayServe, now, msg.src.host, 0);
    return *cached;
  }

  auto reply = Process(msg, now);
  if (reply.ok()) {
    replies_.Put(slot, msg.src, msg.payload, reply.value(), now);
  }
  return reply;
}

kerb::Error KadminServer::Deny(uint8_t op, kerb::ErrorCode code, const char* what) {
  ++denied_;
  kobs::Emit(kobs::kSrcAdmin, kobs::Ev::kAdminDeny, clock_.Now(), op,
             static_cast<uint64_t>(code));
  return kerb::MakeError(code, what);
}

kerb::Result<const KadminServer::UnsealedTicket*> KadminServer::UnsealTicket(
    kerb::BytesView sealed, ksim::Time now) {
  if (!db_->store().LookupEntry(self_, &self_entry_)) {
    return kerb::MakeError(kerb::ErrorCode::kInternal, "changepw service key missing");
  }
  const size_t slot = unseals_.Slot(sealed);
  for (const krb4::KeyVersion& kv : self_entry_.keys) {
    if (kv.not_after != 0 && now > kv.not_after) {
      continue;  // drain window closed
    }
    if (const UnsealedTicket* memo = unseals_.Get(slot, kv.key, sealed)) {
      return memo;
    }
    auto ticket = krb4::Unseal<krb4::Ticket4>(kcrypto::DesKey(kv.key), sealed);
    if (ticket.ok()) {
      return unseals_.Put(slot, kv.key, sealed, std::move(ticket).value());
    }
  }
  return kerb::MakeError(kerb::ErrorCode::kAuthFailed, "ticket not sealed with changepw key");
}

namespace {

uint64_t AckHash(uint64_t client, uint64_t nonce) {
  return kerb::NonzeroHash(client ^ (nonce * 0x9e3779b97f4a7c15ull));
}

}  // namespace

void KadminServer::AckCache::Expire(ksim::Time now, ksim::Duration window) {
  while (!queue_.empty() && now - std::get<0>(queue_.front()) > window) {
    table_.Erase(Lookup(std::get<1>(queue_.front()), std::get<2>(queue_.front())));
    std::pop_heap(queue_.begin(), queue_.end(), std::greater<>());
    queue_.pop_back();
  }
}

KadminServer::AckCache::Slot* KadminServer::AckCache::Lookup(uint64_t client, uint64_t nonce) {
  return table_.Find(AckHash(client, nonce),
                     [&](const Slot& s) { return s.client == client && s.nonce == nonce; });
}

const kerb::Bytes* KadminServer::AckCache::Find(uint64_t client, uint64_t nonce) {
  const Slot* slot = Lookup(client, nonce);
  return slot != nullptr ? &slot->reply : nullptr;
}

void KadminServer::AckCache::Store(uint64_t client, uint64_t nonce, kerb::Bytes reply,
                                   ksim::Time now) {
  Slot& slot = table_.Insert(AckHash(client, nonce));
  slot.client = client;
  slot.nonce = nonce;
  slot.reply = std::move(reply);
  queue_.emplace_back(now, client, nonce);
  std::push_heap(queue_.begin(), queue_.end(), std::greater<>());
}

kerb::Bytes KadminServer::SealReply(const kcrypto::DesKey& session_key,
                                    const AdminReplyBody& body) {
  return krb4::Frame4(krb4::MsgType::kAdminReply, krb4::Seal4(session_key, EncodeChecked(body)));
}

kerb::Result<kerb::Bytes> KadminServer::Process(const ksim::Message& msg, ksim::Time now) {
  auto framed = krb4::Unframe4(msg.payload);
  if (!framed.ok() || framed.value().first != krb4::MsgType::kAdminRequest) {
    return Deny(0, kerb::ErrorCode::kBadFormat, "expected admin request");
  }
  auto req = kenc::Decode<AdminRequest>(framed.value().second);
  if (!req.ok()) {
    return Deny(0, req.error().code, "malformed admin request");
  }

  auto unsealed = UnsealTicket(req.value().sealed_ticket, now);
  if (!unsealed.ok()) {
    return Deny(0, unsealed.error().code, "admin ticket rejected");
  }
  const krb4::Ticket4& ticket = unsealed.value()->ticket;
  if (!(ticket.service == self_)) {
    return Deny(0, kerb::ErrorCode::kAuthFailed, "ticket names a different service");
  }
  if (ticket.Expired(now)) {
    return Deny(0, kerb::ErrorCode::kExpired, "admin ticket expired");
  }

  const kcrypto::DesKey& session_key = unsealed.value()->session_key;
  auto auth = krb4::Unseal<krb4::Authenticator4>(session_key, req.value().sealed_auth);
  if (!auth.ok()) {
    return Deny(0, kerb::ErrorCode::kAuthFailed, "authenticator undecryptable");
  }
  const krb4::Principal& client = auth.value().client;
  if (!(client == ticket.client)) {
    return Deny(0, kerb::ErrorCode::kAuthFailed, "authenticator/ticket client mismatch");
  }
  // The address binding is load-bearing here: an interceptor re-sending a
  // captured exchange from its own host fails this check even with the
  // sealed blobs intact.
  if (ticket.client_addr != msg.src.host || auth.value().client_addr != ticket.client_addr) {
    return Deny(0, kerb::ErrorCode::kAuthFailed, "address mismatch");
  }
  if (std::llabs(auth.value().timestamp - now) > policy_.clock_skew_limit) {
    return Deny(0, kerb::ErrorCode::kSkew, "authenticator outside skew window");
  }

  auto plain = krb4::Unseal4(session_key, req.value().sealed_req);
  if (!plain.ok()) {
    return Deny(0, plain.error().code, "request body undecryptable");
  }
  auto body = DecodeChecked<AdminReqBody>(plain.value());
  if (!body.ok()) {
    return Deny(0, body.error().code, "request body malformed");
  }
  const uint8_t op = static_cast<uint8_t>(body.value().op);
  if (body.value().direction != 0) {
    return Deny(op, kerb::ErrorCode::kAuthFailed, "reflected message direction");
  }
  if (body.value().sender_addr != msg.src.host) {
    return Deny(op, kerb::ErrorCode::kAuthFailed, "sender address mismatch");
  }
  if (std::llabs(body.value().timestamp - now) > policy_.clock_skew_limit) {
    return Deny(op, kerb::ErrorCode::kSkew, "request body outside skew window");
  }
  if (client.realm != realm_ || body.value().target.realm != realm_) {
    return Deny(op, kerb::ErrorCode::kPolicy, "cross-realm administration refused");
  }

  // Layer 2: replayed authenticators inside the window. The request nonce
  // joins the identity so two DISTINCT operations issued at the same
  // virtual instant do not collide — the nonce rides inside the sealed
  // body, so minting a fresh one requires the session key, and a verbatim
  // replay (same timestamp, same nonce) still trips the cache.
  char nonce[20];
  identity_.clear();
  client.AppendToString(identity_);
  identity_ += '#';
  identity_.append(nonce, std::to_chars(nonce, nonce + sizeof(nonce), body.value().nonce).ptr);
  if (!seen_authenticators_.CheckAndInsert(identity_, auth.value().client_addr,
                                           auth.value().timestamp, now,
                                           policy_.clock_skew_limit)) {
    ++auth_replays_;
    return Deny(op, kerb::ErrorCode::kReplay, "authenticator replayed");
  }

  // Layer 3: an applied nonce's verdict is served from the ack cache — a
  // retry with a fresh authenticator (or a splice reusing the nonce with a
  // different body) never applies twice.
  // The expired verdicts are exactly the oldest stored ones, whatever order
  // the clock stored them in.
  acks_.Expire(now, policy_.nonce_window);
  const uint64_t client_hash = krb4::PrincipalStore::Hash(client);
  if (const kerb::Bytes* ack = acks_.Find(client_hash, body.value().nonce)) {
    ++ack_replays_;
    kobs::Emit(kobs::kSrcAdmin, kobs::Ev::kAdminReplayServe, now, msg.src.host, 1);
    return *ack;
  }

  AdminReplyBody verdict = Apply(client, body.value(), now);
  kerb::Bytes reply = SealReply(session_key, verdict);
  if (verdict.code == 0) {
    ++applied_;
    kobs::Emit(kobs::kSrcAdmin, kobs::Ev::kAdminApply, now, op, verdict.kvno);
    acks_.Store(client_hash, body.value().nonce, reply, now);
  } else {
    ++denied_;
    kobs::Emit(kobs::kSrcAdmin, kobs::Ev::kAdminDeny, now, op, verdict.code);
  }
  return reply;
}

kerb::Status KadminServer::CheckPassword(const krb4::Principal& target,
                                         std::string_view password) const {
  if (password.size() < kMinPasswordLength) {
    return kerb::MakeError(kerb::ErrorCode::kPolicy, "password below minimum length");
  }
  if (!target.name.empty() && password.find(target.name) != std::string_view::npos) {
    return kerb::MakeError(kerb::ErrorCode::kPolicy, "password contains principal name");
  }
  return kerb::Status::Ok();
}

AdminReplyBody KadminServer::Apply(const krb4::Principal& client, const AdminReqBody& req,
                                   ksim::Time now) {
  AdminReplyBody out;
  out.nonce_plus_one = req.nonce + 1;
  out.timestamp = now;
  out.direction = 1;
  auto verdict = [&out](kerb::ErrorCode code, std::string_view what) -> AdminReplyBody& {
    out.code = static_cast<uint32_t>(code);
    out.detail.assign(what.begin(), what.end());
    return out;
  };

  const bool self_serve =
      req.op == AdminOp::kChangePassword || req.op == AdminOp::kGetKvno;
  if (!IsAdminPrincipal(client) && !(self_serve && client == req.target)) {
    return verdict(kerb::ErrorCode::kPolicy, "not authorized for this operation");
  }

  const ksim::Time retain_until = now + policy_.old_key_retain;
  switch (req.op) {
    case AdminOp::kChangePassword: {
      std::string_view password(reinterpret_cast<const char*>(req.payload.data()),
                                req.payload.size());
      auto quality = CheckPassword(req.target, password);
      if (!quality.ok()) {
        return verdict(quality.error().code, quality.error().detail);
      }
      auto kvno = db_->ChangePassword(req.target, password, now, retain_until);
      if (!kvno.ok()) {
        return verdict(kvno.error().code, kvno.error().detail);
      }
      out.kvno = kvno.value();
      return out;
    }
    case AdminOp::kRotateKey: {
      auto kvno = db_->RotateKey(req.target, prng_.NextDesKey(), now, retain_until);
      if (!kvno.ok()) {
        return verdict(kvno.error().code, kvno.error().detail);
      }
      out.kvno = kvno.value();
      return out;
    }
    case AdminOp::kGetKey: {
      auto entry = db_->LookupEntry(req.target);
      if (!entry.ok()) {
        return verdict(entry.error().code, entry.error().detail);
      }
      out.kvno = entry.value().kvno();
      const kcrypto::DesBlock& key_bytes = entry.value().keys.front().key;
      out.detail.assign(key_bytes.begin(), key_bytes.end());
      return out;
    }
    case AdminOp::kAddPrincipal: {
      kenc::Reader r(req.payload);
      auto kind = r.GetU8();
      if (!kind.ok() || kind.value() > static_cast<uint8_t>(krb4::PrincipalKind::kService)) {
        return verdict(kerb::ErrorCode::kBadFormat, "bad principal kind");
      }
      if (db_->Kvno(req.target) != 0) {
        return verdict(kerb::ErrorCode::kPolicy, "principal already exists");
      }
      if (static_cast<krb4::PrincipalKind>(kind.value()) == krb4::PrincipalKind::kUser) {
        kerb::Bytes rest = r.Rest();
        std::string_view password(reinterpret_cast<const char*>(rest.data()), rest.size());
        auto quality = CheckPassword(req.target, password);
        if (!quality.ok()) {
          return verdict(quality.error().code, quality.error().detail);
        }
        db_->AddUser(req.target, password);
      } else {
        db_->AddServiceWithRandomKey(req.target, prng_);
      }
      out.kvno = 1;
      return out;
    }
    case AdminOp::kDelPrincipal: {
      if (req.target == krb4::TgsPrincipal(realm_) || req.target == self_) {
        return verdict(kerb::ErrorCode::kPolicy, "protected principal");
      }
      if (!db_->Remove(req.target)) {
        return verdict(kerb::ErrorCode::kNotFound, "unknown principal");
      }
      return out;
    }
    case AdminOp::kGetKvno: {
      uint32_t kvno = db_->Kvno(req.target);
      if (kvno == 0) {
        return verdict(kerb::ErrorCode::kNotFound, "unknown principal");
      }
      out.kvno = kvno;
      return out;
    }
  }
  return verdict(kerb::ErrorCode::kUnsupported, "unknown admin op");
}

// ---------------------------------------------------------------------------

AdminClient::AdminClient(krb4::Client4* client, ksim::Network* net, ksim::HostClock clock,
                         ksim::NetAddress admin_addr, kcrypto::Prng prng)
    : client_(client), net_(net), clock_(clock), admin_addr_(admin_addr), prng_(prng) {}

void AdminClient::ConfigureRetry(ksim::SimClock* sim_clock, const ksim::RetryPolicy& policy,
                                 uint64_t jitter_seed) {
  exchanger_.emplace(net_, sim_clock, kcrypto::Prng(jitter_seed), policy);
}

kerb::Result<const krb4::ServiceCredentials*> AdminClient::Credentials() {
  return client_->ServiceTicket(AdminPrincipal(client_->user().realm));
}

kerb::Result<kerb::Bytes> AdminClient::BuildRequest(AdminOp op, const krb4::Principal& target,
                                                    kerb::BytesView payload, uint64_t nonce) {
  auto creds = Credentials();
  if (!creds.ok()) {
    return creds.error();
  }
  return BuildRequest(*creds.value(), op, target, payload, nonce);
}

kerb::Bytes AdminClient::BuildRequest(const krb4::ServiceCredentials& creds, AdminOp op,
                                      const krb4::Principal& target, kerb::BytesView payload,
                                      uint64_t nonce) {
  krb4::Authenticator4 auth;
  auth.client = client_->user();
  auth.client_addr = client_->address().host;
  auth.timestamp = clock_.Now();

  AdminReqBody body;
  body.op = op;
  body.target = target;
  body.nonce = nonce;
  body.timestamp = clock_.Now();
  body.sender_addr = client_->address().host;
  body.direction = 0;
  body.payload.assign(payload.begin(), payload.end());

  AdminRequest req;
  req.sealed_ticket = creds.sealed_ticket;
  req.sealed_auth = krb4::Seal(creds.session_key, auth);
  req.sealed_req = krb4::Seal4(creds.session_key, EncodeChecked(body));
  return krb4::Frame4(krb4::MsgType::kAdminRequest, req);
}

kerb::Result<AdminClient::Ack> AdminClient::ParseReply(const kcrypto::DesKey& session_key,
                                                       uint64_t nonce,
                                                       kerb::BytesView reply_frame) {
  auto framed = krb4::Unframe4(reply_frame);
  if (!framed.ok()) {
    return framed.error();
  }
  if (framed.value().first != krb4::MsgType::kAdminReply) {
    return kerb::MakeError(kerb::ErrorCode::kBadFormat, "expected admin reply");
  }
  auto plain = krb4::Unseal4(session_key, framed.value().second);
  if (!plain.ok()) {
    return plain.error();
  }
  auto body = DecodeChecked<AdminReplyBody>(plain.value());
  if (!body.ok()) {
    return body.error();
  }
  if (body.value().direction != 1) {
    return kerb::MakeError(kerb::ErrorCode::kAuthFailed, "reply direction mismatch");
  }
  if (body.value().nonce_plus_one != nonce + 1) {
    return kerb::MakeError(kerb::ErrorCode::kAuthFailed, "reply nonce mismatch");
  }
  if (std::llabs(body.value().timestamp - clock_.Now()) > ksim::kDefaultClockSkewLimit) {
    return kerb::MakeError(kerb::ErrorCode::kSkew, "reply timestamp outside skew window");
  }
  if (body.value().code != 0) {
    uint32_t code = body.value().code;
    if (code > static_cast<uint32_t>(kerb::ErrorCode::kInternal)) {
      code = static_cast<uint32_t>(kerb::ErrorCode::kInternal);
    }
    return kerb::MakeError(static_cast<kerb::ErrorCode>(code),
                           std::string(body.value().detail.begin(), body.value().detail.end()));
  }
  Ack ack;
  ack.kvno = body.value().kvno;
  ack.detail = std::move(body.value().detail);
  return ack;
}

kerb::Result<AdminClient::Ack> AdminClient::Execute(AdminOp op, const krb4::Principal& target,
                                                    kerb::BytesView payload) {
  const uint64_t nonce = prng_.NextU64();
  // One credentials fetch per write, made by the first attempt's build;
  // later attempts and the reply reuse it.
  const krb4::ServiceCredentials* creds = nullptr;
  auto build = [&]() -> kerb::Result<kerb::Bytes> {
    if (creds == nullptr) {
      auto fetched = Credentials();
      if (!fetched.ok()) {
        return fetched.error();
      }
      creds = fetched.value();
    }
    return BuildRequest(*creds, op, target, payload, nonce);
  };
  kerb::Result<kerb::Bytes> reply = kerb::MakeError(kerb::ErrorCode::kInternal, "unsent");
  if (exchanger_.has_value()) {
    reply = exchanger_->Exchange(client_->address(), {admin_addr_}, build);
  } else {
    auto wire = build();
    if (!wire.ok()) {
      return wire.error();
    }
    reply = net_->Call(client_->address(), admin_addr_, wire.value());
  }
  if (!reply.ok()) {
    return reply.error();
  }
  return ParseReply(creds->session_key, nonce, reply.value());
}

kerb::Result<AdminClient::Ack> AdminClient::ChangePassword(const krb4::Principal& target,
                                                           std::string_view new_password) {
  return Execute(AdminOp::kChangePassword, target,
                 kerb::BytesView(reinterpret_cast<const uint8_t*>(new_password.data()),
                                 new_password.size()));
}

kerb::Result<AdminClient::Ack> AdminClient::RotateKey(const krb4::Principal& target) {
  return Execute(AdminOp::kRotateKey, target, {});
}

kerb::Result<AdminClient::Ack> AdminClient::GetKey(const krb4::Principal& target) {
  return Execute(AdminOp::kGetKey, target, {});
}

kerb::Result<AdminClient::Ack> AdminClient::GetKvno(const krb4::Principal& target) {
  return Execute(AdminOp::kGetKvno, target, {});
}

kerb::Result<AdminClient::Ack> AdminClient::AddUser(const krb4::Principal& target,
                                                    std::string_view password) {
  kenc::Writer w;
  w.PutU8(static_cast<uint8_t>(krb4::PrincipalKind::kUser));
  w.PutBytes(kerb::BytesView(reinterpret_cast<const uint8_t*>(password.data()),
                             password.size()));
  return Execute(AdminOp::kAddPrincipal, target, w.Peek());
}

kerb::Result<AdminClient::Ack> AdminClient::AddService(const krb4::Principal& target) {
  kenc::Writer w;
  w.PutU8(static_cast<uint8_t>(krb4::PrincipalKind::kService));
  return Execute(AdminOp::kAddPrincipal, target, w.Peek());
}

kerb::Result<AdminClient::Ack> AdminClient::DelPrincipal(const krb4::Principal& target) {
  return Execute(AdminOp::kDelPrincipal, target, {});
}

}  // namespace kadmin
