#include "src/krb5/client.h"

#include "src/crypto/str2key.h"

namespace krb5 {

namespace {

std::optional<kerb::Result<kerb::Bytes>> DecodeReferral5(kerb::BytesView reply) {
  auto tlv = kenc::TlvMessage::Decode(reply);
  if (!tlv.ok() || tlv.value().type() != kMsgClusterReferral) {
    return std::nullopt;
  }
  return tlv.value().GetBytes(tag::kClusterBody);
}

}  // namespace

Client5::Client5(ksim::Network* net, const ksim::NetAddress& self, ksim::HostClock clock,
                 Principal user, ksim::NetAddress as_addr, kcrypto::Prng prng,
                 Client5Options options)
    : krb4::KdcLink(net, self, as_addr, DecodeReferral5),
      clock_(clock),
      user_(std::move(user)),
      prng_(prng),
      options_(options) {}

void Client5::AddRealmTgs(const std::string& realm, const ksim::NetAddress& tgs_addr) {
  realm_tgs_.insert_or_assign(realm, tgs_addr);
}

kerb::Status Client5::Login(std::string_view password, ksim::Duration lifetime) {
  return LoginWithKey(kcrypto::StringToKey(password, user_.Salt()), lifetime);
}

kerb::Status Client5::LoginWithKey(const kcrypto::DesKey& client_key,
                                   ksim::Duration lifetime) {
  AsRequest5 req;
  req.client = user_;
  req.service_realm = user_.realm;
  req.lifetime = lifetime;
  req.options = options_.omit_address ? kOptOmitAddress : 0;
  req.nonce = prng_.NextU64();
  if (options_.use_preauth) {
    kenc::TlvMessage preauth(kMsgPreauth);
    preauth.SetU64(tag::kNonce, req.nonce);
    preauth.SetU64(tag::kTimestamp, static_cast<uint64_t>(clock_.Now()));
    req.padata = SealTlv(client_key, preauth, options_.enc, prng_);
  }

  auto reply = RoutedKdcExchange(user_, false, as_endpoints(), req.ToTlv().Encode());
  if (!reply.ok()) {
    return reply.error();
  }
  auto tlv = kenc::TlvMessage::DecodeExpecting(kMsgAsRep, reply.value());
  if (!tlv.ok()) {
    return tlv.error();
  }
  auto rep = AsReply5::FromTlv(tlv.value());
  if (!rep.ok()) {
    return rep.error();
  }

  auto part_tlv =
      UnsealTlv(client_key, kMsgEncAsRepPart, rep.value().sealed_enc_part, options_.enc);
  if (!part_tlv.ok()) {
    return kerb::MakeError(kerb::ErrorCode::kAuthFailed,
                           "cannot decrypt AS reply (wrong password?)");
  }
  auto part = EncAsRepPart5::FromTlv(part_tlv.value());
  if (!part.ok()) {
    return part.error();
  }
  // Draft 3: the echoed nonce authenticates the KDC to us without trusting
  // our clock.
  if (part.value().nonce != req.nonce) {
    return kerb::MakeError(kerb::ErrorCode::kAuthFailed, "AS reply nonce mismatch");
  }

  TgsCredentials5 creds;
  creds.realm = user_.realm;
  creds.session_key = kcrypto::DesKey(part.value().tgs_session_key);
  creds.sealed_tgt = rep.value().sealed_tgt;
  creds.issued_at = part.value().issued_at;
  creds.lifetime = part.value().lifetime;
  tgs_creds_ = creds;
  return kerb::Status::Ok();
}

kerb::Result<TgsReply5> Client5::RawTgsRequest(const std::string& tgs_realm, TgsRequest5 req) {
  auto tgs_it = realm_tgs_.find(tgs_realm);
  if (tgs_it == realm_tgs_.end()) {
    return kerb::MakeError(kerb::ErrorCode::kNotFound, "no TGS known for realm " + tgs_realm);
  }
  const TgsCredentials5* creds = nullptr;
  if (tgs_creds_.has_value() && tgs_creds_->realm == tgs_realm) {
    creds = &*tgs_creds_;
  } else {
    auto it = foreign_tgts_.find(tgs_realm);
    if (it != foreign_tgts_.end()) {
      creds = &it->second;
    }
  }
  if (creds == nullptr) {
    return kerb::MakeError(kerb::ErrorCode::kAuthFailed, "no TGT for realm " + tgs_realm);
  }

  // Which realm's key seals the TGT we present: home TGTs are sealed by the
  // serving realm itself; foreign TGTs by the hop that issued them.
  req.tgt_realm = creds->realm == tgs_realm ? tgs_realm : creds->realm;
  req.sealed_tgt = creds->sealed_tgt;
  if (req.nonce == 0) {
    req.nonce = prng_.NextU64();
  }

  Authenticator5 auth;
  auth.client = user_;
  auth.timestamp = clock_.Now();
  auth.checksum_type = options_.request_checksum;
  auth.request_checksum = kcrypto::ComputeChecksum(options_.request_checksum,
                                                   req.ChecksumInput(), creds->session_key);
  req.sealed_authenticator = auth.Seal(creds->session_key, options_.enc, prng_);

  // Home-realm TGS requests fail over to the realm's slaves and go through
  // the cluster router; cross-realm hops keep their one configured TGS
  // (replication and clustering are per realm).
  auto reply = tgs_realm == user_.realm
                   ? RoutedKdcExchange(req.service, true, TgsEndpoints(tgs_it->second),
                                       req.ToTlv().Encode())
                   : KdcExchange({tgs_it->second}, req.ToTlv().Encode());
  if (!reply.ok()) {
    return reply.error();
  }
  auto tlv = kenc::TlvMessage::DecodeExpecting(kMsgTgsRep, reply.value());
  if (!tlv.ok()) {
    return tlv.error();
  }
  return TgsReply5::FromTlv(tlv.value());
}

kerb::Result<TgsCredentials5> Client5::GetTgtForRealm(const std::string& target_realm,
                                                      ksim::Duration lifetime) {
  if (!tgs_creds_.has_value()) {
    return kerb::MakeError(kerb::ErrorCode::kAuthFailed, "not logged in");
  }
  if (target_realm == tgs_creds_->realm) {
    return *tgs_creds_;
  }
  auto cached = foreign_tgts_.find(target_realm);
  if (cached != foreign_tgts_.end() &&
      clock_.Now() < cached->second.issued_at + cached->second.lifetime) {
    return cached->second;
  }

  // Walk from the home realm toward the target, at most 8 hops.
  std::string current = tgs_creds_->realm;
  for (int hop = 0; hop < 8; ++hop) {
    TgsRequest5 req;
    req.service = Principal{"krbtgt", target_realm, target_realm};
    req.service.realm = target_realm;
    req.lifetime = lifetime;

    auto reply = RawTgsRequest(current, req);
    if (!reply.ok()) {
      return reply.error();
    }

    // Decrypt the enc part with the session key of the TGT we used.
    const TgsCredentials5& used =
        current == tgs_creds_->realm ? *tgs_creds_ : foreign_tgts_.at(current);
    auto part_tlv = UnsealTlv(used.session_key, kMsgEncTgsRepPart,
                              reply.value().sealed_enc_part, options_.enc);
    if (!part_tlv.ok()) {
      return part_tlv.error();
    }
    auto part = EncTgsRepPart5::FromTlv(part_tlv.value());
    if (!part.ok()) {
      return part.error();
    }

    // The KDC issued a TGT for some next-hop realm (possibly the target).
    // We cannot see inside the sealed ticket; the KDC's routing determines
    // the hop. We track the hop realm via the service instance convention:
    // the reply ticket is for krbtgt.<hop>@<current>. We must learn <hop> —
    // the enc part does not carry it, so we try the target first, falling
    // back to known realms. For the simulation's directory-based routing we
    // simply ask the KDC's route: the ticket is usable at whichever realm's
    // TGS accepts it. We record it under the target if this hop reached it.
    TgsCredentials5 hop_creds;
    hop_creds.realm = current;  // sealed by `current`'s inter-realm key
    hop_creds.session_key = kcrypto::DesKey(part.value().session_key);
    hop_creds.sealed_tgt = reply.value().sealed_ticket;
    hop_creds.issued_at = part.value().issued_at;
    hop_creds.lifetime = part.value().lifetime;

    // Determine the next realm: the first realm on the path from current to
    // target that current's KDC routes to. The client's realm directory
    // orders the walk; in this model the KDC grants a ticket for exactly
    // one hop, so we probe each known realm's TGS until one accepts. To
    // keep the protocol honest (no oracle probing), clients are configured
    // with the same static routes as the KDC via realm_tgs_ ordering; the
    // convention here: a hop ticket is always for the next realm in the
    // dotted-hierarchy path, which we can compute locally.
    std::string next = [&]() -> std::string {
      // If current and target share a direct key, the hop IS the target.
      // Otherwise move up toward the root or down into the target's tree,
      // using dotted-suffix hierarchy (X.Y is a child of Y).
      auto is_suffix = [](const std::string& child, const std::string& parent) {
        return child.size() > parent.size() + 1 &&
               child.compare(child.size() - parent.size() - 1, parent.size() + 1,
                             "." + parent) == 0;
      };
      if (is_suffix(target_realm, current)) {
        // Descend: next hop is the ancestor of target directly below us.
        std::string next_down = target_realm;
        while (true) {
          size_t dot = next_down.find('.');
          if (dot == std::string::npos) {
            break;
          }
          std::string parent = next_down.substr(dot + 1);
          if (parent == current) {
            return next_down;
          }
          next_down = parent;
        }
        return target_realm;
      }
      if (is_suffix(current, target_realm) || is_suffix(target_realm, current)) {
        size_t dot = current.find('.');
        return dot == std::string::npos ? target_realm : current.substr(dot + 1);
      }
      // Disjoint subtrees: go up until we can descend.
      size_t dot = current.find('.');
      return dot == std::string::npos ? target_realm : current.substr(dot + 1);
    }();

    foreign_tgts_.insert_or_assign(next, hop_creds);
    if (next == target_realm) {
      return hop_creds;
    }
    current = next;
  }
  return kerb::MakeError(kerb::ErrorCode::kNotFound, "realm walk exceeded hop limit");
}

kerb::Result<ServiceCredentials5> Client5::GetServiceTicket(const Principal& service,
                                                            ksim::Duration lifetime) {
  auto cached = service_creds_.find(service);
  if (cached != service_creds_.end() &&
      clock_.Now() < cached->second.issued_at + cached->second.lifetime) {
    return cached->second;
  }

  auto tgt = GetTgtForRealm(service.realm, lifetime);
  if (!tgt.ok()) {
    return tgt.error();
  }

  TgsRequest5 req;
  req.service = service;
  req.lifetime = lifetime;
  if (options_.omit_address) {
    req.options |= kOptOmitAddress;
  }

  auto reply = RawTgsRequest(service.realm, req);
  if (!reply.ok()) {
    return reply.error();
  }
  auto part_tlv = UnsealTlv(tgt.value().session_key, kMsgEncTgsRepPart,
                            reply.value().sealed_enc_part, options_.enc);
  if (!part_tlv.ok()) {
    return kerb::MakeError(kerb::ErrorCode::kAuthFailed, "cannot decrypt TGS reply");
  }
  auto part = EncTgsRepPart5::FromTlv(part_tlv.value());
  if (!part.ok()) {
    return part.error();
  }

  ServiceCredentials5 creds;
  creds.service = service;
  creds.session_key = kcrypto::DesKey(part.value().session_key);
  creds.sealed_ticket = reply.value().sealed_ticket;
  creds.issued_at = part.value().issued_at;
  creds.lifetime = part.value().lifetime;
  service_creds_[service] = creds;
  return creds;
}

kerb::Result<TgsCredentials5> Client5::ForwardTgt(bool omit_address) {
  if (!tgs_creds_.has_value()) {
    return kerb::MakeError(kerb::ErrorCode::kAuthFailed, "not logged in");
  }
  TgsRequest5 req;
  req.service = krb4::TgsPrincipal(tgs_creds_->realm);
  req.lifetime = tgs_creds_->lifetime;
  req.options = kOptForward | (omit_address ? kOptOmitAddress : 0);

  auto reply = RawTgsRequest(tgs_creds_->realm, req);
  if (!reply.ok()) {
    return reply.error();
  }
  auto part_tlv = UnsealTlv(tgs_creds_->session_key, kMsgEncTgsRepPart,
                            reply.value().sealed_enc_part, options_.enc);
  if (!part_tlv.ok()) {
    return part_tlv.error();
  }
  auto part = EncTgsRepPart5::FromTlv(part_tlv.value());
  if (!part.ok()) {
    return part.error();
  }
  TgsCredentials5 forwarded;
  forwarded.realm = tgs_creds_->realm;
  forwarded.session_key = kcrypto::DesKey(part.value().session_key);
  forwarded.sealed_tgt = reply.value().sealed_ticket;
  forwarded.issued_at = part.value().issued_at;
  forwarded.lifetime = part.value().lifetime;
  return forwarded;
}

kerb::Result<kerb::Bytes> Client5::MakeApRequest(const Principal& service, bool want_mutual,
                                                 kerb::BytesView app_data,
                                                 std::optional<kerb::Bytes> challenge_response) {
  auto creds = GetServiceTicket(service);
  if (!creds.ok()) {
    return creds.error();
  }

  Authenticator5 auth;
  auth.client = user_;
  auth.timestamp = clock_.Now();
  if (options_.send_subkey) {
    auth.subkey = prng_.NextDesKey().bytes();
    last_subkey_ = auth.subkey;
  }
  if (options_.send_service_name_check) {
    auth.service_name_check = service.ToString();
  }

  ApRequest5 req;
  req.sealed_ticket = creds.value().sealed_ticket;
  req.sealed_authenticator = auth.Seal(creds.value().session_key, options_.enc, prng_);
  req.want_mutual = want_mutual;
  req.app_data = kerb::Bytes(app_data.begin(), app_data.end());
  req.challenge_response = std::move(challenge_response);
  return req.ToTlv().Encode();
}

kerb::Result<ServiceCallResult> Client5::CallService(const ksim::NetAddress& service_addr,
                                                     const Principal& service, bool want_mutual,
                                                     kerb::BytesView app_data) {
  auto creds = GetServiceTicket(service);
  if (!creds.ok()) {
    return creds.error();
  }

  std::optional<kerb::Bytes> challenge_response;
  for (int attempt = 0; attempt < 2; ++attempt) {
    ksim::Time auth_time = 0;
    // Built fresh per send — and per retry: a retransmitted AP request
    // carries a new authenticator, so the server's replay cache never
    // mistakes a legitimate retry for an attack (the paper's E16 fix).
    auto reply = ServiceExchange(service_addr, [&]() -> kerb::Result<kerb::Bytes> {
      auth_time = clock_.Now();
      return MakeApRequest(service, want_mutual, app_data, challenge_response);
    });
    if (!reply.ok()) {
      return reply.error();
    }

    auto tlv = kenc::TlvMessage::Decode(reply.value());
    if (!tlv.ok()) {
      if (want_mutual) {
        // Fail closed: we demanded proof of the server's identity, so an
        // undecodable reply (e.g. corrupted in flight) is a failure, not an
        // application payload.
        return kerb::MakeError(kerb::ErrorCode::kBadFormat,
                               "expected mutual-auth reply, got undecodable bytes");
      }
      // Bare application payload — no mutual auth or negotiation requested.
      ServiceCallResult result;
      result.channel_key = creds.value().session_key;
      result.app_reply = reply.value();
      return result;
    }

    if (tlv.value().type() == kMsgError) {
      auto err = KrbError5::FromTlv(tlv.value());
      if (err.ok() && err.value().code == kErrMethod && attempt == 0) {
        // Server demands challenge/response: decrypt the nonce, answer +1.
        auto challenge = UnsealTlv(creds.value().session_key, kMsgChallenge,
                                   err.value().e_data, options_.enc);
        if (!challenge.ok()) {
          return challenge.error();
        }
        auto nonce = challenge.value().GetU64(tag::kNonce);
        if (!nonce.ok()) {
          return nonce.error();
        }
        kenc::TlvMessage response(kMsgChallenge);
        response.SetU64(tag::kNonce, nonce.value() + 1);
        challenge_response =
            SealTlv(creds.value().session_key, response, options_.enc, prng_);
        continue;
      }
      return kerb::MakeError(kerb::ErrorCode::kAuthFailed,
                             err.ok() ? err.value().text : "server error");
    }

    ServiceCallResult result;
    result.channel_key = creds.value().session_key;

    if (tlv.value().type() == kMsgApRep) {
      auto sealed_part = tlv.value().GetBytes(tag::kSealedPart);
      if (!sealed_part.ok()) {
        return sealed_part.error();
      }
      auto part_tlv = UnsealTlv(creds.value().session_key, kMsgEncApRepPart,
                                sealed_part.value(), options_.enc);
      if (!part_tlv.ok()) {
        return kerb::MakeError(kerb::ErrorCode::kAuthFailed, "mutual auth reply invalid");
      }
      auto part = EncApRepPart5::FromTlv(part_tlv.value());
      if (!part.ok()) {
        return part.error();
      }
      if (want_mutual && part.value().timestamp != auth_time) {
        return kerb::MakeError(kerb::ErrorCode::kAuthFailed,
                               "mutual auth timestamp mismatch");
      }
      if (part.value().subkey.has_value()) {
        kcrypto::DesBlock client_subkey = last_subkey_.value_or(kcrypto::DesBlock{});
        kcrypto::DesBlock channel;
        const kcrypto::DesBlock& multi = creds.value().session_key.bytes();
        for (size_t i = 0; i < 8; ++i) {
          channel[i] =
              static_cast<uint8_t>(multi[i] ^ client_subkey[i] ^ (*part.value().subkey)[i]);
        }
        result.channel_key = kcrypto::DesKey(kcrypto::FixParity(channel));
      }
      result.app_reply = tlv.value().GetOptionalBytes(tag::kAppData).value_or(kerb::Bytes{});
      return result;
    }

    // Bare application reply.
    if (want_mutual) {
      return kerb::MakeError(kerb::ErrorCode::kAuthFailed,
                             "expected mutual-auth reply, got bare payload");
    }
    result.app_reply = reply.value();
    return result;
  }
  return kerb::MakeError(kerb::ErrorCode::kAuthFailed, "challenge/response failed");
}

void Client5::Logout() {
  tgs_creds_.reset();
  foreign_tgts_.clear();
  service_creds_.clear();
  last_subkey_.reset();
}

}  // namespace krb5
