#include "src/krb4/kdccore.h"

#include <algorithm>
#include <cstdlib>
#include <utility>

#include "src/crypto/checksum.h"
#include "src/encoding/io.h"
#include "src/obs/kobs.h"

namespace krb4 {

KdcServeFrame::KdcServeFrame(kobs::Source source, ksim::HostClock clock, std::string realm,
                             KdcDatabase db)
    : source_(source),
      clock_(clock),
      realm_(std::move(realm)),
      tgs_principal_(TgsPrincipal(realm_)),
      db_(std::move(db)) {}

void KdcServeFrame::EnablePkPreauth(kcrypto::DhGroup group) {
  kcrypto::EnsureEngine(group);
  pk_group_ = std::move(group);
}

kerb::Result<const kcrypto::DhGroup*> KdcServeFrame::PkGroup() {
  if (!pk_group_.has_value()) {
    return kerb::MakeError(kerb::ErrorCode::kUnsupported, "PK preauth not enabled");
  }
  pk_as_requests_.fetch_add(1, std::memory_order_relaxed);
  return &*pk_group_;
}

kerb::Result<kcrypto::DesKey> KdcServeFrame::CachedLookup(const Principal& principal,
                                                          KdcContext& ctx) const {
  const uint64_t hash = PrincipalStore::Hash(principal);
  const uint64_t generation = db_.generation();
  kcrypto::DesKey key;
  if (ctx.keys.Get(generation, hash, principal, &key)) {
    if (kobs::Enabled()) {
      kobs::Emit(source_, kobs::Ev::kKdcKeyCacheHit, clock_.Now(), hash);
    }
    return key;
  }
  if (kobs::Enabled()) {
    kobs::Emit(source_, kobs::Ev::kKdcKeyCacheMiss, clock_.Now(), hash);
  }
  auto looked_up = db_.Lookup(principal);
  if (looked_up.ok()) {
    ctx.keys.Put(generation, hash, principal, looked_up.value());
  }
  return looked_up;
}

const kerb::Bytes* KdcServeFrame::CachedReply(const ksim::Message& msg, KdcContext& ctx,
                                              ksim::Duration window) {
  if (window <= 0) {
    return nullptr;
  }
  const kerb::Bytes* cached = ctx.replies.Get(msg.src, msg.payload, clock_.Now(), window);
  if (cached != nullptr) {
    reply_cache_hits_.fetch_add(1, std::memory_order_relaxed);
    if (kobs::Enabled()) {
      kobs::Emit(source_, kobs::Ev::kKdcReplyCacheHit, clock_.Now(), msg.src.host,
                 cached->size());
    }
  }
  return cached;
}

void KdcServeFrame::RememberReply(const ksim::Message& msg, const kerb::Bytes& reply,
                                  KdcContext& ctx, ksim::Duration window) {
  if (window <= 0) {
    return;
  }
  ctx.replies.Put(msg.src, msg.payload, reply, clock_.Now());
  if (kobs::Enabled()) {
    kobs::Emit(source_, kobs::Ev::kKdcReplyCacheStore, clock_.Now(), msg.src.host, reply.size());
  }
}

KdcCore4::KdcCore4(ksim::HostClock clock, std::string realm, KdcDatabase db, KdcOptions options)
    : KdcServeFrame(kobs::kSrcKdc4, clock, std::move(realm), std::move(db)), options_(options) {}

kerb::Result<kerb::Bytes> KdcCore4::HandleAs(const ksim::Message& msg, KdcContext& ctx) {
  return Serve(false, msg, ctx, options_.reply_cache_window, [&]() -> kerb::Result<kerb::Bytes> {
    auto framed = Unframe4(msg.payload);
    if (framed.ok() && framed.value().first == MsgType::kAsPkRequest) {
      auto pk_req = AsPkRequest4::Decode(framed.value().second);
      if (!pk_req.ok()) {
        return pk_req.error();
      }
      return ServeAsPk(msg, pk_req.value(), ctx);
    }
    if (!framed.ok() || framed.value().first != MsgType::kAsRequest) {
      return kerb::MakeError(kerb::ErrorCode::kBadFormat, "expected AS request");
    }
    auto req = AsRequest4::Decode(framed.value().second);
    if (!req.ok()) {
      return req.error();
    }
    return ServeAs(msg, req.value(), ctx);
  });
}

kerb::Result<kerb::Bytes> KdcCore4::HandleTgs(const ksim::Message& msg, KdcContext& ctx) {
  return Serve(true, msg, ctx, options_.reply_cache_window, [&]() -> kerb::Result<kerb::Bytes> {
    auto framed = Unframe4(msg.payload);
    if (!framed.ok() || framed.value().first != MsgType::kTgsRequest) {
      return kerb::MakeError(kerb::ErrorCode::kBadFormat, "expected TGS request");
    }
    auto req = TgsRequest4::Decode(framed.value().second);
    if (!req.ok()) {
      return req.error();
    }
    return ServeTgs(msg, req.value(), ctx);
  });
}

template <typename AsReq>
void KdcCore4::MintTgt(const ksim::Message& msg, const AsReq& req, ksim::Time now,
                       const kcrypto::DesKey& tgs_key, KdcContext& ctx) {
  // V4 quantization: the grant is whatever fits a one-byte 5-minute count.
  ksim::Duration lifetime = V4UnitsToLifetime(
      LifetimeToV4Units(std::min(req.lifetime, options_.max_ticket_lifetime)));

  kcrypto::DesKey session_key = ctx.prng.NextDesKey();
  Ticket4 tgt;
  tgt.service = tgs_principal_;
  tgt.client = req.client;
  tgt.client_addr = msg.src.host;  // trusts the claimed source address
  tgt.issued_at = now;
  tgt.lifetime = lifetime;
  tgt.session_key = session_key.bytes();

  // Assembled through the context's scratch buffers instead of
  // AsReplyBody4 temporaries.
  kenc::Writer ticket_writer(&ctx.scratch.ticket_plain);
  tgt.AppendTo(ticket_writer);
  ctx.scratch.ticket_sealed.clear();
  Seal4Into(tgs_key, ctx.scratch.ticket_plain, ctx.scratch.ticket_sealed);

  kenc::Writer body_writer(&ctx.scratch.body_plain);
  AppendReplyBody4(body_writer, session_key.bytes(), ctx.scratch.ticket_sealed, now, lifetime);
}

kerb::Result<kerb::Bytes> KdcCore4::ServeAs(const ksim::Message& msg, const AsRequest4& req,
                                            KdcContext& ctx) {
  // V4: no preauthentication. Whoever asked, for whatever principal,
  // receives a reply encrypted in that principal's key.
  auto client_key = CachedLookup(req.client, ctx);
  if (!client_key.ok()) {
    return client_key.error();
  }
  auto tgs_key = CachedLookup(tgs_principal_, ctx);
  if (!tgs_key.ok()) {
    return tgs_key.error();
  }

  // The reply is {K_c,tgs, {T_c,tgs}K_tgs, times}K_c.
  MintTgt(msg, req, clock_.Now(), tgs_key.value(), ctx);
  SealedFrame4Into(MsgType::kAsReply, client_key.value(), ctx.scratch.body_plain,
                   ctx.scratch.reply);
  return ctx.scratch.reply;
}

kerb::Result<kerb::Bytes> KdcCore4::ServeAsPk(const ksim::Message& msg, const AsPkRequest4& req,
                                              KdcContext& ctx) {
  auto pk_group = PkGroup();
  if (!pk_group.ok()) {
    return pk_group.error();
  }
  const kcrypto::DhGroup& group = *pk_group.value();
  kcrypto::BigInt client_pub = kcrypto::BigInt::FromBytes(req.client_pub);
  // Fail closed on degenerate publics before any exponent touches them.
  if (auto valid = kcrypto::ValidateDhPublic(group, client_pub); !valid.ok()) {
    return valid.error();
  }
  auto client_key = CachedLookup(req.client, ctx);
  if (!client_key.ok()) {
    return client_key.error();
  }

  ksim::Time now = clock_.Now();

  // Proof of possession, checked before any exponentiation: the double seal
  // below only hides the inner {...}K_c layer from passive eavesdroppers.
  // Without this check an active attacker could request a ticket for any
  // principal under their own ephemeral key, strip the outer DH layer, and
  // grind the password layer offline. The padata must unseal under K_c and
  // must be bound (via md4) to the DH public actually in this request, so
  // neither a forger nor a replaying key-substituter gets a reply.
  auto padata = Unseal4(client_key.value(), req.sealed_padata);
  if (!padata.ok()) {
    return kerb::MakeError(kerb::ErrorCode::kAuthFailed, "PK preauth proof invalid");
  }
  kenc::Reader pa(padata.value());
  auto pa_time = pa.GetU64();
  auto pa_bind = pa.GetLengthPrefixed();
  if (!pa_time.ok() || !pa_bind.ok()) {
    return kerb::MakeError(kerb::ErrorCode::kAuthFailed, "PK preauth proof malformed");
  }
  if (!kcrypto::VerifyChecksum(kcrypto::ChecksumType::kMd4, req.client_pub, pa_bind.value())) {
    return kerb::MakeError(kerb::ErrorCode::kAuthFailed,
                           "PK preauth proof not bound to the DH public");
  }
  if (std::llabs(static_cast<ksim::Time>(pa_time.value()) - now) > options_.clock_skew_limit) {
    return kerb::MakeError(kerb::ErrorCode::kAuthFailed, "PK preauth proof stale");
  }

  auto tgs_key = CachedLookup(tgs_principal_, ctx);
  if (!tgs_key.ok()) {
    return tgs_key.error();
  }

  // Our half of the exchange: g^b by the group's fixed-base comb table, the
  // shared secret by the cached sliding-window context.
  kcrypto::DhKeyPair server_pair = kcrypto::DhGenerate(group, ctx.prng);
  kcrypto::DesKey dh_key = kcrypto::DhDeriveKey(
      kcrypto::DhSharedSecret(group, server_pair.private_key, client_pub));

  MintTgt(msg, req, now, tgs_key.value(), ctx);

  // Inner layer {body}K_c, then the DH layer over the inner ciphertext —
  // the password-keyed blob never appears bare on the wire.
  ctx.scratch.body_sealed.clear();
  Seal4Into(client_key.value(), ctx.scratch.body_plain, ctx.scratch.body_sealed);
  ctx.scratch.pk_outer.clear();
  Seal4Into(dh_key, ctx.scratch.body_sealed, ctx.scratch.pk_outer);

  kenc::Writer w(&ctx.scratch.reply);
  w.PutU8(kProtocolVersion);
  w.PutU8(static_cast<uint8_t>(MsgType::kAsPkReply));
  w.PutLengthPrefixed(server_pair.public_key.ToBytes());
  w.PutLengthPrefixed(ctx.scratch.pk_outer);
  return ctx.scratch.reply;
}

kerb::Result<kerb::Bytes> KdcCore4::ServeTgs(const ksim::Message& msg, const TgsRequest4& req,
                                             KdcContext& ctx) {
  auto tgs_key = CachedLookup(tgs_principal_, ctx);
  if (!tgs_key.ok()) {
    return tgs_key.error();
  }
  const ksim::Time now = clock_.Now();
  auto unsealed_tgt = UnsealTgt<Ticket4>(tgs_key.value(), req.sealed_tgt,
                                         /*ring_fallback=*/true, now, ctx, Ticket4::Unseal);
  if (!unsealed_tgt.ok()) {
    return unsealed_tgt.error();
  }
  const Ticket4* tgt = unsealed_tgt.value();

  if (tgt->Expired(now)) {
    return kerb::MakeError(kerb::ErrorCode::kExpired, "ticket-granting ticket expired");
  }

  kcrypto::DesKey tgs_session(tgt->session_key);
  auto auth = Authenticator4::Unseal(tgs_session, req.sealed_auth);
  if (!auth.ok()) {
    return kerb::MakeError(kerb::ErrorCode::kAuthFailed, "authenticator undecryptable");
  }
  if (!(auth.value().client == tgt->client)) {
    return kerb::MakeError(kerb::ErrorCode::kAuthFailed, "authenticator/ticket client mismatch");
  }
  // The time-based freshness check the paper criticises: any copy of this
  // authenticator replayed within the window passes.
  if (std::llabs(auth.value().timestamp - now) > options_.clock_skew_limit) {
    return kerb::MakeError(kerb::ErrorCode::kSkew, "authenticator outside skew window");
  }
  // Address binding (V4 semantics): ticket addr must match both the claimed
  // packet source and the authenticator.
  if (tgt->client_addr != msg.src.host ||
      auth.value().client_addr != tgt->client_addr) {
    return kerb::MakeError(kerb::ErrorCode::kAuthFailed, "address mismatch");
  }

  auto service_key = CachedLookup(req.service, ctx);
  if (!service_key.ok()) {
    return service_key.error();
  }

  // An issued ticket must not outlive the TGT that vouched for it, and the
  // grant is quantized to V4's one-byte five-minute units (rounded down
  // here so quantization can never extend past the TGT).
  ksim::Duration tgt_remaining = tgt->issued_at + tgt->lifetime - now;
  ksim::Duration requested =
      std::min({req.lifetime, options_.max_ticket_lifetime, tgt_remaining});
  ksim::Duration lifetime = (requested / kV4LifetimeUnit) * kV4LifetimeUnit;
  kcrypto::DesKey session_key = ctx.prng.NextDesKey();

  Ticket4 ticket;
  ticket.service = req.service;
  ticket.client = tgt->client;
  ticket.client_addr = tgt->client_addr;
  ticket.issued_at = now;
  ticket.lifetime = lifetime;
  ticket.session_key = session_key.bytes();

  kenc::Writer ticket_writer(&ctx.scratch.ticket_plain);
  ticket.AppendTo(ticket_writer);
  ctx.scratch.ticket_sealed.clear();
  Seal4Into(service_key.value(), ctx.scratch.ticket_plain, ctx.scratch.ticket_sealed);

  kenc::Writer body_writer(&ctx.scratch.body_plain);
  AppendReplyBody4(body_writer, session_key.bytes(), ctx.scratch.ticket_sealed, now, lifetime);

  SealedFrame4Into(MsgType::kTgsReply, tgs_session, ctx.scratch.body_plain, ctx.scratch.reply);
  return ctx.scratch.reply;
}

}  // namespace krb4
