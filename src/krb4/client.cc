#include "src/krb4/client.h"

#include "src/crypto/str2key.h"

namespace krb4 {

namespace {

std::optional<kerb::Result<kerb::Bytes>> DecodeReferral4(kerb::BytesView reply) {
  auto framed = Unframe4(reply);
  if (!framed.ok() || framed.value().first != MsgType::kClusterReferral) {
    return std::nullopt;
  }
  const kerb::BytesView body = framed.value().second;
  return kerb::Bytes(body.begin(), body.end());
}

}  // namespace

Client4::Client4(ksim::Network* net, const ksim::NetAddress& self, ksim::HostClock clock,
                 Principal user, ksim::NetAddress as_addr, ksim::NetAddress tgs_addr)
    : KdcLink(net, self, as_addr, DecodeReferral4),
      clock_(clock),
      user_(std::move(user)),
      tgs_addr_(tgs_addr) {}

kerb::Status Client4::Login(std::string_view password, ksim::Duration lifetime) {
  return LoginWithKey(kcrypto::StringToKey(password, user_.Salt()), lifetime);
}

kerb::Status Client4::LoginWithKey(const kcrypto::DesKey& client_key,
                                   ksim::Duration lifetime) {
  AsRequest4 req;
  req.client = user_;
  req.service_realm = user_.realm;
  req.lifetime = lifetime;

  auto reply =
      RoutedKdcExchange(user_, false, as_endpoints(), Frame4(MsgType::kAsRequest, req));
  if (!reply.ok()) {
    return reply.error();
  }
  auto framed = Unframe4(reply.value());
  if (!framed.ok() || framed.value().first != MsgType::kAsReply) {
    return kerb::MakeError(kerb::ErrorCode::kBadFormat, "expected AS reply");
  }

  auto plain = Unseal4(client_key, framed.value().second);
  if (!plain.ok()) {
    return kerb::MakeError(kerb::ErrorCode::kAuthFailed,
                           "cannot decrypt AS reply (wrong password?)");
  }
  auto body = kenc::Decode<ReplyBody4>(plain.value());
  if (!body.ok()) {
    return body.error();
  }

  TgsCredentials creds;
  creds.session_key = kcrypto::DesKey(body.value().session_key);
  creds.sealed_tgt = body.value().sealed_ticket;
  creds.issued_at = body.value().issued_at;
  creds.lifetime = body.value().lifetime;
  tgs_creds_ = creds;
  return kerb::Status::Ok();
}

kerb::Result<ServiceCredentials> Client4::GetServiceTicket(const Principal& service,
                                                           ksim::Duration lifetime) {
  auto creds = ServiceTicket(service, lifetime);
  if (!creds.ok()) {
    return creds.error();
  }
  return *creds.value();
}

kerb::Result<const ServiceCredentials*> Client4::ServiceTicket(const Principal& service,
                                                               ksim::Duration lifetime) {
  if (!tgs_creds_.has_value()) {
    return kerb::MakeError(kerb::ErrorCode::kAuthFailed, "not logged in");
  }
  auto cached = service_creds_.find(service);
  if (cached != service_creds_.end() &&
      clock_.Now() < cached->second.issued_at + cached->second.lifetime) {
    return &cached->second;
  }

  Authenticator4 auth;
  auth.client = user_;
  auth.client_addr = address().host;
  auth.timestamp = clock_.Now();

  TgsRequest4 req;
  req.service = service;
  req.sealed_tgt = tgs_creds_->sealed_tgt;
  req.sealed_auth = Seal(tgs_creds_->session_key, auth);
  req.lifetime = lifetime;

  auto reply = RoutedKdcExchange(service, true, TgsEndpoints(tgs_addr_),
                                 Frame4(MsgType::kTgsRequest, req));
  if (!reply.ok()) {
    return reply.error();
  }
  auto framed = Unframe4(reply.value());
  if (!framed.ok() || framed.value().first != MsgType::kTgsReply) {
    return kerb::MakeError(kerb::ErrorCode::kBadFormat, "expected TGS reply");
  }
  auto plain = Unseal4(tgs_creds_->session_key, framed.value().second);
  if (!plain.ok()) {
    return kerb::MakeError(kerb::ErrorCode::kAuthFailed, "cannot decrypt TGS reply");
  }
  auto body = kenc::Decode<ReplyBody4>(plain.value());
  if (!body.ok()) {
    return body.error();
  }

  ServiceCredentials& creds = service_creds_[service];
  creds.service = service;
  creds.session_key = kcrypto::DesKey(body.value().session_key);
  creds.sealed_ticket = std::move(body.value().sealed_ticket);
  creds.issued_at = body.value().issued_at;
  creds.lifetime = body.value().lifetime;
  return &creds;
}

kerb::Result<kerb::Bytes> Client4::MakeApRequest(const Principal& service, bool want_mutual,
                                                 kerb::BytesView app_data,
                                                 kerb::BytesView challenge_response) {
  auto creds = ServiceTicket(service);
  if (!creds.ok()) {
    return creds.error();
  }

  Authenticator4 auth;
  auth.client = user_;
  auth.client_addr = address().host;
  auth.timestamp = clock_.Now();

  ApRequest4 req;
  req.sealed_ticket = creds.value()->sealed_ticket;
  req.sealed_auth = Seal(creds.value()->session_key, auth);
  req.want_mutual = want_mutual;
  req.app_data = kerb::Bytes(app_data.begin(), app_data.end());
  req.challenge_response =
      kerb::Bytes(challenge_response.begin(), challenge_response.end());
  return Frame4(MsgType::kApRequest, req);
}

kerb::Result<kerb::Bytes> Client4::CallService(const ksim::NetAddress& service_addr,
                                               const Principal& service, bool want_mutual,
                                               kerb::BytesView app_data) {
  kerb::Bytes challenge_response;
  ksim::Time auth_time = 0;
  kerb::Result<kerb::Bytes> reply =
      kerb::MakeError(kerb::ErrorCode::kInternal, "no attempt made");
  for (int attempt = 0; attempt < 2; ++attempt) {
    // Built fresh per send — and per retry: a retransmitted AP request
    // carries a new authenticator, so the server's replay cache never
    // mistakes a legitimate retry for an attack (the paper's E16 fix).
    reply = ServiceExchange(service_addr, [&]() -> kerb::Result<kerb::Bytes> {
      // Fetch the ticket before reading the clock: an uncached ticket costs
      // a TGS exchange, and in-flight latency would otherwise advance time
      // between `auth_time` and the authenticator's own timestamp.
      auto creds = GetServiceTicket(service);
      if (!creds.ok()) {
        return creds.error();
      }
      auth_time = clock_.Now();
      return MakeApRequest(service, want_mutual, app_data, challenge_response);
    });
    if (!reply.ok()) {
      return reply.error();
    }
    auto error_frame = Unframe4(reply.value());
    if (error_frame.ok() && error_frame.value().first == MsgType::kError && attempt == 0) {
      auto parsed = kenc::Decode<Error4>(error_frame.value().second);
      if (!parsed.ok() || parsed.value().code != kErrMethod4) {
        return kerb::MakeError(kerb::ErrorCode::kAuthFailed, "server error");
      }
      // Decrypt the nonce and answer with nonce + 1 under the session key.
      auto creds = GetServiceTicket(service);
      if (!creds.ok()) {
        return creds.error();
      }
      auto nonce_plain = Unseal4(creds.value().session_key, parsed.value().e_data);
      if (!nonce_plain.ok()) {
        return nonce_plain.error();
      }
      kenc::Reader r(nonce_plain.value());
      auto nonce = r.GetU64();
      if (!nonce.ok()) {
        return nonce.error();
      }
      kenc::Writer w;
      w.PutU64(nonce.value() + 1);
      challenge_response = Seal4(creds.value().session_key, w.Peek());
      continue;
    }
    break;
  }
  if (!want_mutual) {
    return reply;
  }

  auto framed = Unframe4(reply.value());
  if (!framed.ok() || framed.value().first != MsgType::kApReply) {
    return kerb::MakeError(kerb::ErrorCode::kBadFormat, "expected AP reply");
  }
  kenc::Reader r(framed.value().second);
  auto mutual = r.GetLengthPrefixed();
  if (!mutual.ok()) {
    return mutual.error();
  }
  auto creds = GetServiceTicket(service);
  if (!creds.ok()) {
    return creds.error();
  }
  auto verified = VerifyApReply4(creds.value().session_key, mutual.value(), auth_time);
  if (!verified.ok()) {
    return verified.error();
  }
  return r.Rest();  // application payload follows the mutual-auth proof
}

void Client4::Logout() {
  // Best effort key destruction, as the paper describes: "leaving the
  // attacker to sift through the debris".
  tgs_creds_.reset();
  service_creds_.clear();
}

}  // namespace krb4
