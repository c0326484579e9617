#include "src/krb5/kdccore.h"

#include <algorithm>
#include <cstdlib>
#include <utility>
#include <variant>

#include "src/obs/kobs.h"

namespace krb5 {

namespace {

// The tail every TGS issue branch shares: `ticket` sealed under
// `ticket_key` and its reply part under the TGT's session key, the two
// chains in lockstep, then encoded around views of the two as the reply.
kerb::Bytes& SealTgsReplyInto(const kcrypto::DesKey& ticket_key, const Ticket5& ticket,
                              const kcrypto::DesKey& tgs_session, uint64_t nonce,
                              const EncLayerConfig& config, KdcContext& ctx) {
  EncTgsRepPart5 part;
  part.session_key = ticket.session_key;
  part.nonce = nonce;
  part.issued_at = ticket.issued_at;
  part.lifetime = ticket.lifetime;
  SealPairInto(ticket_key, ticket, ctx.scratch.ticket_sealed, tgs_session, part,
               ctx.scratch.body_sealed, config, ctx.prng);
  kenc::EncodeInto(
      BasicTgsReply5<kerb::BytesView>{ctx.scratch.ticket_sealed, ctx.scratch.body_sealed},
      ctx.scratch.reply);
  return ctx.scratch.reply;
}

}  // namespace

KdcCore5::KdcCore5(ksim::HostClock clock, std::string realm, KdcDatabase db, KdcPolicy5 policy)
    : KdcServeFrame(kobs::kSrcKdc5, clock, std::move(realm), std::move(db)), policy_(policy) {}

void KdcCore5::AddInterRealmKey(const std::string& other_realm, const kcrypto::DesKey& key) {
  interrealm_keys_.insert_or_assign(other_realm, key);
}

void KdcCore5::AddRealmRoute(const std::string& target_realm, const std::string& via_neighbor) {
  realm_routes_.insert_or_assign(target_realm, via_neighbor);
}

std::string KdcCore5::RouteToward(const std::string& target) const {
  if (interrealm_keys_.count(target) != 0) {
    return target;  // direct neighbor
  }
  auto it = realm_routes_.find(target);
  return it != realm_routes_.end() ? it->second : std::string();
}

kerb::Status KdcCore5::AdmitAs(uint32_t host, ksim::Time now) {
  if (policy_.as_rate_limit_per_minute == 0) {
    return kerb::Status::Ok();
  }
  std::lock_guard lock(rate_mu_);
  auto& times = as_request_times_[host];
  std::erase_if(times, [&](ksim::Time t) { return t < now - ksim::kMinute; });
  if (times.size() >= policy_.as_rate_limit_per_minute) {
    as_rate_limited_.fetch_add(1, std::memory_order_relaxed);
    return kerb::MakeError(kerb::ErrorCode::kRateLimited, "AS request rate exceeded");
  }
  times.push_back(now);
  return kerb::Status::Ok();
}

kerb::Result<kerb::Bytes> KdcCore5::Handle(bool tgs, const ksim::Message& msg,
                                           const kerb::Result<KdcRequest5>& decoded,
                                           KdcContext& ctx) {
  return Serve(tgs, msg, ctx, policy_.reply_cache_window, [&]() -> kerb::Result<kerb::Bytes> {
    if (!decoded.ok()) {
      return decoded.error();
    }
    const KdcRequest5& req = decoded.value();
    if (tgs != std::holds_alternative<TgsRequest5>(req)) {
      return kerb::MakeError(kerb::ErrorCode::kBadFormat,
                             tgs ? "expected TGS request" : "expected AS request");
    }
    if (const auto* as_req = std::get_if<AsRequest5>(&req)) {
      return ServeAs(msg, *as_req, ctx);
    }
    if (const auto* pk_req = std::get_if<AsPkRequest5>(&req)) {
      return ServeAsPk(msg, *pk_req, ctx);
    }
    return ServeTgs(msg, std::get<TgsRequest5>(req), ctx);
  });
}

template <typename AsReq>
void KdcCore5::MintTgt(const ksim::Message& msg, const AsReq& req, ksim::Time now,
                       const kcrypto::DesKey& tgs_key, const kcrypto::DesKey& client_key,
                       KdcContext& ctx) {
  ksim::Duration lifetime = std::min(req.lifetime, policy_.max_ticket_lifetime);
  // Session keys are only sent, never used here: draw them unscheduled.
  const kcrypto::DesBlock session_key = ctx.prng.NextDesKeyBytes();

  Ticket5 tgt;
  tgt.service = tgs_principal_;
  tgt.client = req.client;
  tgt.flags = kFlagForwardable;
  // V5 permits tickets without addresses when the client asks.
  if (!(req.options & kOptOmitAddress)) {
    tgt.client_addr = msg.src.host;
  }
  tgt.issued_at = now;
  tgt.lifetime = lifetime;
  tgt.session_key = session_key;

  EncAsRepPart5 part;
  part.tgs_session_key = session_key;
  part.nonce = req.nonce;  // Draft 3's challenge/response to the client
  part.issued_at = now;
  part.lifetime = lifetime;

  SealPairInto(tgs_key, tgt, ctx.scratch.ticket_sealed, client_key, part, ctx.scratch.body_sealed,
               policy_.enc, ctx.prng);
  // The client presents this TGT on every TGS request of its session:
  // remember it now, so the first of them skips the unseal too.
  const kerb::BytesView sealed = ctx.scratch.ticket_sealed;
  ctx.tgts5.Put(ctx.tgts5.Slot(sealed), tgs_key.bytes(), sealed, std::move(tgt));
}

kerb::Result<kerb::Bytes> KdcCore5::ServeAs(const ksim::Message& msg, const AsRequest5& req,
                                            KdcContext& ctx) {
  ksim::Time now = clock_.Now();

  // Rate limiting (the paper: "an enhancement to the server, to limit the
  // rate of requests from a single source, may be useful").
  if (auto admitted = AdmitAs(msg.src.host, now); !admitted.ok()) {
    return admitted.error();
  }

  auto client_key = CachedLookup(req.client, ctx);
  if (!client_key.ok()) {
    return client_key.error();
  }

  // Preauthentication (recommendation g): the request must carry
  // {nonce, timestamp}K_c, so only the key holder can obtain the reply —
  // and eavesdropping is required to harvest guessable material.
  if (policy_.require_preauth) {
    if (!req.padata.has_value()) {
      return kerb::MakeError(kerb::ErrorCode::kAuthFailed, "preauthentication required");
    }
    auto padata = Unseal<Preauth5>(client_key.value(), *req.padata, policy_.enc);
    if (!padata.ok()) {
      return kerb::MakeError(kerb::ErrorCode::kAuthFailed, "preauthentication invalid");
    }
    if (padata.value().nonce != req.nonce) {
      return kerb::MakeError(kerb::ErrorCode::kAuthFailed, "preauthentication nonce mismatch");
    }
    if (std::llabs(padata.value().timestamp - now) > policy_.clock_skew_limit) {
      return kerb::MakeError(kerb::ErrorCode::kAuthFailed, "preauthentication stale");
    }
  }

  auto tgs_key = CachedLookup(tgs_principal_, ctx);
  if (!tgs_key.ok()) {
    return tgs_key.error();
  }

  MintTgt(msg, req, now, tgs_key.value(), client_key.value(), ctx);
  kenc::EncodeInto(
      BasicAsReply5<kerb::BytesView>{ctx.scratch.ticket_sealed, ctx.scratch.body_sealed},
      ctx.scratch.reply);
  return ctx.scratch.reply;
}

kerb::Result<kerb::Bytes> KdcCore5::ServeAsPk(const ksim::Message& msg, const AsPkRequest5& req,
                                              KdcContext& ctx) {
  auto pk_group = PkGroup();
  if (!pk_group.ok()) {
    return pk_group.error();
  }
  ksim::Time now = clock_.Now();

  // PK requests share the AS rate-limit budget: they are still unsolicited
  // work, and heavier per request than the password path.
  if (auto admitted = AdmitAs(msg.src.host, now); !admitted.ok()) {
    return admitted.error();
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

  // Proof of possession, mandatory on this path regardless of
  // policy_.require_preauth and checked before any exponentiation: the
  // double seal below only hides {EncAsRepPart5}K_c from passive
  // eavesdroppers. Without it an active attacker could supply their own
  // ephemeral key, strip the outer DH layer, and grind the password layer
  // offline — exactly the oracle preauthentication exists to close. The
  // padata must carry the request nonce, a fresh timestamp, and an md4
  // binding of the DH public actually in this request, all sealed under
  // K_c, so the public cannot be substituted without knowing the key.
  if (!req.padata.has_value()) {
    return kerb::MakeError(kerb::ErrorCode::kAuthFailed, "PK preauth proof required");
  }
  auto padata = Unseal<Preauth5>(client_key.value(), *req.padata, policy_.enc);
  if (!padata.ok()) {
    return kerb::MakeError(kerb::ErrorCode::kAuthFailed, "PK preauth proof invalid");
  }
  const Preauth5& proof = padata.value();
  if (!proof.pub_checksum.has_value() || proof.nonce != req.nonce) {
    return kerb::MakeError(kerb::ErrorCode::kAuthFailed, "PK preauth proof malformed");
  }
  if (!kcrypto::VerifyChecksum(kcrypto::ChecksumType::kMd4, req.client_pub,
                               *proof.pub_checksum)) {
    return kerb::MakeError(kerb::ErrorCode::kAuthFailed,
                           "PK preauth proof not bound to the DH public");
  }
  if (std::llabs(proof.timestamp - now) > policy_.clock_skew_limit) {
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

  // Inner layer {EncAsRepPart5}K_c, then the DH wrapper over the inner
  // ciphertext — the password-keyed blob never appears bare on the wire.
  MintTgt(msg, req, now, tgs_key.value(), client_key.value(), ctx);
  SealInto(dh_key, BasicPkEncWrap5<kerb::BytesView>{ctx.scratch.body_sealed}, policy_.enc,
           ctx.prng, ctx.scratch.pk_outer);
  const kerb::Bytes server_pub = server_pair.public_key.ToBytes();
  kenc::EncodeInto(
      BasicAsPkReply5<kerb::BytesView>{server_pub, ctx.scratch.ticket_sealed, ctx.scratch.pk_outer},
      ctx.scratch.reply);
  return ctx.scratch.reply;
}

kerb::Result<kerb::Bytes> KdcCore5::ServeTgs(const ksim::Message& msg, const TgsRequest5& req,
                                             KdcContext& ctx) {
  ksim::Time now = clock_.Now();

  // Which key seals the presented TGT? A TGT of this realm is sealed under
  // the krbtgt key; one from a neighbour under the key shared with it. A
  // realm we share no key with has no TGT we could verify: refuse it here,
  // never fall back to a default key anyone can seal under.
  kcrypto::DesKey tgt_key;
  const bool local_tgt = req.tgt_realm == realm_;
  if (local_tgt) {
    auto krbtgt_key = CachedLookup(tgs_principal_, ctx);
    if (!krbtgt_key.ok()) {
      return krbtgt_key.error();
    }
    tgt_key = krbtgt_key.value();
  } else {
    auto it = interrealm_keys_.find(req.tgt_realm);
    if (it == interrealm_keys_.end()) {
      return kerb::MakeError(kerb::ErrorCode::kAuthFailed, "ticket-granting ticket invalid");
    }
    tgt_key = it->second;
  }

  // The kvno-ring fallback is same-realm only: inter-realm keys are
  // pairwise config, not database entries.
  auto unsealed_tgt = UnsealTgt(tgt_key, req.sealed_tgt, /*ring_fallback=*/local_tgt, now,
                                ctx.tgts5,
                                [this](const kcrypto::DesKey& key, kerb::BytesView sealed) {
                                  return Unseal<Ticket5>(key, sealed, policy_.enc);
                                });
  if (!unsealed_tgt.ok()) {
    return unsealed_tgt.error();
  }
  const Ticket5* tgt = &unsealed_tgt.value()->ticket;
  if ((*tgt).Expired(now)) {
    return kerb::MakeError(kerb::ErrorCode::kExpired, "ticket-granting ticket expired");
  }
  // A TGT must name a ticket-granting service for this realm.
  if ((*tgt).service.name != "krbtgt" || (*tgt).service.instance != realm_) {
    return kerb::MakeError(kerb::ErrorCode::kAuthFailed, "enclosed ticket is not a TGT for us");
  }

  const kcrypto::DesKey& tgs_session = unsealed_tgt.value()->session_key;
  auto auth = Unseal<Authenticator5>(tgs_session, req.sealed_authenticator, policy_.enc);
  if (!auth.ok()) {
    return kerb::MakeError(kerb::ErrorCode::kAuthFailed, "authenticator undecryptable");
  }
  if (!(auth.value().client == (*tgt).client)) {
    return kerb::MakeError(kerb::ErrorCode::kAuthFailed, "authenticator/ticket client mismatch");
  }
  if (std::llabs(auth.value().timestamp - now) > policy_.clock_skew_limit) {
    return kerb::MakeError(kerb::ErrorCode::kSkew, "authenticator outside skew window");
  }
  if ((*tgt).client_addr.has_value() && *(*tgt).client_addr != msg.src.host) {
    return kerb::MakeError(kerb::ErrorCode::kAuthFailed, "address mismatch");
  }

  // Verify the request checksum sealed in the authenticator. This is the
  // integrity protection for every unencrypted request field.
  if (!auth.value().checksum_type.has_value() || !auth.value().request_checksum.has_value()) {
    return kerb::MakeError(kerb::ErrorCode::kAuthFailed, "request checksum missing");
  }
  kcrypto::ChecksumType checksum_type = *auth.value().checksum_type;
  if (policy_.require_collision_proof_checksum && !kcrypto::IsCollisionProof(checksum_type)) {
    return kerb::MakeError(kerb::ErrorCode::kPolicy,
                           "collision-proof request checksum required");
  }
  if (!kcrypto::VerifyChecksum(checksum_type, req.ChecksumInput(),
                               *auth.value().request_checksum, tgs_session)) {
    return kerb::MakeError(kerb::ErrorCode::kIntegrity, "request checksum mismatch");
  }

  // Transited path: the serving TGS, not the client, appends the realm the
  // TGT came from.
  std::vector<std::string> transited = (*tgt).transited;
  if (req.tgt_realm != realm_) {
    transited.push_back(req.tgt_realm);
  }

  // An issued ticket must not outlive the credentials that vouched for it.
  ksim::Duration tgt_remaining = (*tgt).issued_at + (*tgt).lifetime - now;
  ksim::Duration lifetime =
      std::min({req.lifetime, policy_.max_ticket_lifetime, tgt_remaining});

  // Ticket forwarding (kOptForward): reissue the TGT, flagged FORWARDED,
  // bound to no address if requested. "Kerberos has a flag bit to indicate
  // that a ticket was forwarded, but does not include the original source."
  if (req.options & kOptForward) {
    if (!((*tgt).flags & kFlagForwardable)) {
      return kerb::MakeError(kerb::ErrorCode::kPolicy, "TGT not forwardable");
    }
    Ticket5 forwarded = (*tgt);
    forwarded.flags |= kFlagForwarded;
    forwarded.session_key = ctx.prng.NextDesKeyBytes();
    forwarded.issued_at = now;
    forwarded.lifetime = lifetime;
    if (req.options & kOptOmitAddress) {
      forwarded.client_addr.reset();
    } else {
      forwarded.client_addr = msg.src.host;
    }
    return SealTgsReplyInto(tgt_key, forwarded, tgs_session, req.nonce, policy_.enc, ctx);
  }

  // Cross-realm: route toward the service's realm.
  if (req.service.realm != realm_) {
    std::string neighbor = RouteToward(req.service.realm);
    if (neighbor.empty()) {
      return kerb::MakeError(kerb::ErrorCode::kNotFound,
                             "no route to realm " + req.service.realm);
    }
    const kcrypto::DesKey& hop_key = interrealm_keys_.at(neighbor);

    Ticket5 hop_tgt;
    hop_tgt.service = krb4::Principal{"krbtgt", neighbor, realm_};
    hop_tgt.client = (*tgt).client;
    hop_tgt.flags = (*tgt).flags;
    hop_tgt.client_addr = (*tgt).client_addr;
    hop_tgt.issued_at = now;
    hop_tgt.lifetime = lifetime;
    hop_tgt.session_key = ctx.prng.NextDesKeyBytes();
    hop_tgt.transited = transited;  // path so far; next hop appends us
    return SealTgsReplyInto(hop_key, hop_tgt, tgs_session, req.nonce, policy_.enc, ctx);
  }

  // Which key will seal the new ticket, and which session key goes inside?
  kcrypto::DesKey sealing_key;
  kcrypto::DesBlock session_key = ctx.prng.NextDesKeyBytes();

  if (req.options & kOptEncTktInSkey) {
    if (!policy_.allow_enc_tkt_in_skey) {
      return kerb::MakeError(kerb::ErrorCode::kPolicy, "ENC-TKT-IN-SKEY disabled");
    }
    // The enclosed ticket must be a TGT of this realm; the new ticket is
    // sealed in ITS session key rather than the service's key.
    auto tgs_db_key = CachedLookup(tgs_principal_, ctx);
    if (!tgs_db_key.ok()) {
      return tgs_db_key.error();
    }
    auto enclosed = Unseal<Ticket5>(tgs_db_key.value(), req.additional_ticket, policy_.enc);
    if (!enclosed.ok()) {
      return kerb::MakeError(kerb::ErrorCode::kAuthFailed, "additional ticket invalid");
    }
    if (policy_.enforce_enc_tkt_cname_match) {
      // The requirement the Draft omitted: the enclosed ticket's client must
      // BE the service the new ticket is requested for (user-to-user).
      if (!(enclosed.value().client == req.service)) {
        return kerb::MakeError(kerb::ErrorCode::kPolicy,
                               "additional ticket cname does not match requested service");
      }
    }
    sealing_key = kcrypto::DesKey(enclosed.value().session_key);
  } else if (req.options & kOptReuseSkey) {
    if (!policy_.allow_reuse_skey) {
      return kerb::MakeError(kerb::ErrorCode::kPolicy, "REUSE-SKEY disabled");
    }
    // Multicast-style issuance: the new ticket carries the SAME session key
    // as the enclosed ticket. (Draft 3 warns servers about DUPLICATE-SKEY
    // tickets; the option nevertheless overloads the basic protocol.)
    if (!req.additional_ticket_service.has_value()) {
      return kerb::MakeError(kerb::ErrorCode::kBadFormat,
                             "REUSE-SKEY needs the additional ticket's service");
    }
    auto donor_key = CachedLookup(*req.additional_ticket_service, ctx);
    if (!donor_key.ok()) {
      return donor_key.error();
    }
    auto donor = Unseal<Ticket5>(donor_key.value(), req.additional_ticket, policy_.enc);
    if (!donor.ok()) {
      return kerb::MakeError(kerb::ErrorCode::kAuthFailed, "additional ticket invalid");
    }
    if (!(donor.value().client == (*tgt).client)) {
      return kerb::MakeError(kerb::ErrorCode::kAuthFailed,
                             "additional ticket belongs to another client");
    }
    session_key = donor.value().session_key;
    auto service_key = CachedLookup(req.service, ctx);
    if (!service_key.ok()) {
      return service_key.error();
    }
    sealing_key = service_key.value();
  } else {
    if (!policy_.allow_tickets_for_user_principals &&
        db_.Kind(req.service) == krb4::PrincipalKind::kUser) {
      return kerb::MakeError(kerb::ErrorCode::kPolicy,
                             "tickets for user principals are not issued; register a "
                             "service instance with a random key");
    }
    auto service_key = CachedLookup(req.service, ctx);
    if (!service_key.ok()) {
      return service_key.error();
    }
    sealing_key = service_key.value();
  }

  Ticket5 ticket;
  ticket.service = req.service;
  ticket.client = (*tgt).client;
  ticket.flags = (*tgt).flags & ~kFlagForwardable;
  ticket.client_addr = (*tgt).client_addr;
  if (req.options & kOptOmitAddress) {
    ticket.client_addr.reset();
  }
  ticket.issued_at = now;
  ticket.lifetime = lifetime;
  ticket.session_key = session_key;
  ticket.transited = transited;
  return SealTgsReplyInto(sealing_key, ticket, tgs_session, req.nonce, policy_.enc, ctx);
}

}  // namespace krb5
