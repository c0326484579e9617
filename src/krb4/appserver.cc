#include "src/krb4/appserver.h"

#include <cstdlib>
#include <utility>

#include "src/krb4/principal_store.h"
#include "src/obs/kobs.h"

namespace krb4 {

AppServer4::AppServer4(ksim::Network* net, const ksim::NetAddress& addr, Principal self,
                       kcrypto::DesKey service_key, ksim::HostClock clock, AppHandler app,
                       AppServerOptions options)
    : self_(std::move(self)),
      service_key_(service_key),
      clock_(clock),
      app_(std::move(app)),
      options_(options),
      challenge_prng_(service_key.AsU64() ^ 0xc4a11e46e5ull) {
  net->Bind(addr, [this](const ksim::Message& msg) { return Handle(msg); });
}

kerb::Result<VerifiedSession> AppServer4::VerifyApRequest(const ApRequest4& req,
                                                          uint32_t src_addr,
                                                          kerb::Bytes* challenge_out) {
  auto fail = [this](kerb::ErrorCode code, const char* what) -> kerb::Error {
    ++rejected_;
    return kerb::MakeError(code, what);
  };

  ksim::Time now = clock_.Now();
  auto ticket = Unseal<Ticket4>(service_key_, req.sealed_ticket);
  if (!ticket.ok()) {
    // kvno drain window: tickets sealed under a rotated-out key keep
    // verifying until that key's deadline passes (see Rekey).
    for (size_t i = 0; i < old_keys_.size(); ++i) {
      const auto& [old_key, not_after] = old_keys_[i];
      if (not_after != 0 && now > not_after) {
        continue;
      }
      auto old_ticket = Unseal<Ticket4>(old_key, req.sealed_ticket);
      if (old_ticket.ok()) {
        ticket = std::move(old_ticket);
        ++old_key_accepts_;
        kobs::Emit(kobs::kSrcApp4, kobs::Ev::kKvnoOldKeyAccept, now, 0, i + 1);
        break;
      }
    }
  }
  if (!ticket.ok()) {
    return fail(kerb::ErrorCode::kAuthFailed, "ticket not sealed with our key");
  }
  if (!(ticket.value().service == self_)) {
    return fail(kerb::ErrorCode::kAuthFailed, "ticket names a different service");
  }
  if (ticket.value().Expired(now)) {
    return fail(kerb::ErrorCode::kExpired, "ticket expired");
  }

  kcrypto::DesKey session_key(ticket.value().session_key);
  auto auth = Unseal<Authenticator4>(session_key, req.sealed_auth);
  if (!auth.ok()) {
    return fail(kerb::ErrorCode::kAuthFailed, "authenticator undecryptable");
  }
  if (!(auth.value().client == ticket.value().client)) {
    return fail(kerb::ErrorCode::kAuthFailed, "authenticator/ticket client mismatch");
  }
  if (options_.check_address) {
    if (ticket.value().client_addr != src_addr ||
        auth.value().client_addr != ticket.value().client_addr) {
      return fail(kerb::ErrorCode::kAuthFailed, "address mismatch");
    }
  }
  if (options_.challenge_response) {
    // Freshness from our nonce, not their clock.
    std::erase_if(challenges_, [&](const auto& entry) {
      return entry.second < now - options_.clock_skew_limit;
    });
    bool answered = false;
    if (!req.challenge_response.empty()) {
      auto response = Unseal4(session_key, req.challenge_response);
      if (response.ok()) {
        kenc::Reader r(response.value());
        auto value = r.GetU64();
        if (value.ok()) {
          auto it = challenges_.find(value.value() - 1);
          if (it != challenges_.end()) {
            challenges_.erase(it);  // single use
            answered = true;
          }
        }
      }
    }
    if (!answered) {
      uint64_t nonce = challenge_prng_.NextU64();
      challenges_.emplace(nonce, now);
      if (challenge_out != nullptr) {
        kenc::Writer w;
        w.PutU64(nonce);
        *challenge_out = Seal4(session_key, w.Peek());
      }
      return fail(kerb::ErrorCode::kAuthFailed, "challenge issued");
    }
  } else if (std::llabs(auth.value().timestamp - now) > options_.clock_skew_limit) {
    return fail(kerb::ErrorCode::kSkew, "authenticator outside skew window");
  }

  if (options_.replay_cache) {
    if (!seen_authenticators_.CheckAndInsert(auth.value().client.ToString(),
                                             auth.value().client_addr, auth.value().timestamp,
                                             now, options_.clock_skew_limit)) {
      return fail(kerb::ErrorCode::kReplay, "authenticator replayed");
    }
  }

  ++accepted_;
  VerifiedSession session;
  session.client = auth.value().client;
  session.client_addr = auth.value().client_addr;
  session.session_key = session_key;
  session.authenticator_time = auth.value().timestamp;
  return session;
}

void AppServer4::Rekey(const kcrypto::DesKey& new_key, ksim::Time old_not_after) {
  const ksim::Time now = clock_.Now();
  if (old_not_after > now) {
    old_keys_.insert(old_keys_.begin(), {service_key_, old_not_after});
  }
  // Prune keys whose drain window has already closed, and cap the ring to
  // the same depth the database keeps (current + kRingCap - 1 retained).
  std::erase_if(old_keys_, [now](const auto& entry) { return now > entry.second; });
  if (old_keys_.size() > PrincipalEntry::kRingCap - 1) {
    old_keys_.resize(PrincipalEntry::kRingCap - 1);
  }
  service_key_ = new_key;
}

kerb::Result<kerb::Bytes> AppServer4::Handle(const ksim::Message& msg) {
  auto framed = Unframe4(msg.payload);
  if (!framed.ok() || framed.value().first != MsgType::kApRequest) {
    return kerb::MakeError(kerb::ErrorCode::kBadFormat, "expected AP request");
  }
  auto req = kenc::Decode<ApRequest4>(framed.value().second);
  if (!req.ok()) {
    return req.error();
  }
  kerb::Bytes challenge;
  auto session = VerifyApRequest(req.value(), msg.src.host, &challenge);
  if (!session.ok()) {
    if (!challenge.empty()) {
      return Frame4(MsgType::kError, Error4{kErrMethod4, std::move(challenge)});
    }
    return session.error();
  }

  kerb::Bytes app_reply = app_ ? app_(session.value(), req.value().app_data) : kerb::Bytes{};
  if (!req.value().want_mutual) {
    return app_reply;
  }
  kenc::Writer w;
  w.PutLengthPrefixed(
      MakeApReply4(session.value().session_key, session.value().authenticator_time));
  w.PutBytes(app_reply);
  return Frame4(MsgType::kApReply, w.Peek());
}

}  // namespace krb4
