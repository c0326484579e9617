#include "src/krb5/appserver.h"

#include <cstdlib>

namespace krb5 {

AppServer5::AppServer5(ksim::Network* net, const ksim::NetAddress& addr, Principal self,
                       kcrypto::DesKey service_key, ksim::HostClock clock, kcrypto::Prng prng,
                       AppHandler app, AppServer5Options options)
    : self_(std::move(self)),
      service_key_(service_key),
      clock_(clock),
      prng_(prng),
      app_(std::move(app)),
      options_(options) {
  net->Bind(addr, [this](const ksim::Message& msg) { return Handle(msg); });
}

kerb::Result<VerifiedSession5> AppServer5::VerifyApRequest(const ApRequest5& req,
                                                           uint32_t src_addr,
                                                           kerb::Bytes* challenge_out) {
  auto fail = [this](kerb::ErrorCode code, const char* what) -> kerb::Error {
    ++rejected_;
    return kerb::MakeError(code, what);
  };

  auto ticket = Unseal<Ticket5>(service_key_, req.sealed_ticket, options_.enc);
  if (!ticket.ok()) {
    return fail(kerb::ErrorCode::kAuthFailed, "ticket not sealed with our key");
  }
  if (!(ticket.value().service == self_)) {
    return fail(kerb::ErrorCode::kAuthFailed, "ticket names a different service");
  }
  ksim::Time now = clock_.Now();
  if (ticket.value().Expired(now)) {
    return fail(kerb::ErrorCode::kExpired, "ticket expired");
  }
  if (options_.transited_policy && !options_.transited_policy(ticket.value())) {
    return fail(kerb::ErrorCode::kPolicy, "transited path rejected");
  }

  kcrypto::DesKey session_key(ticket.value().session_key);
  auto auth = Unseal<Authenticator5>(session_key, req.sealed_authenticator, options_.enc);
  if (!auth.ok()) {
    return fail(kerb::ErrorCode::kAuthFailed, "authenticator undecryptable");
  }
  if (!(auth.value().client == ticket.value().client)) {
    return fail(kerb::ErrorCode::kAuthFailed, "authenticator/ticket client mismatch");
  }
  if (options_.check_address && ticket.value().client_addr.has_value() &&
      *ticket.value().client_addr != src_addr) {
    return fail(kerb::ErrorCode::kAuthFailed, "address mismatch");
  }
  if (options_.verify_service_name_check) {
    if (!auth.value().service_name_check.has_value() ||
        *auth.value().service_name_check != self_.ToString()) {
      return fail(kerb::ErrorCode::kAuthFailed,
                  "authenticator not bound to this service");
    }
  }

  if (options_.mode == ApAuthMode::kTimestamp) {
    if (std::llabs(auth.value().timestamp - now) > options_.clock_skew_limit) {
      return fail(kerb::ErrorCode::kSkew, "authenticator outside skew window");
    }
    if (options_.replay_cache) {
      if (!seen_authenticators_.CheckAndInsert(auth.value().client.ToString(), 0,
                                               auth.value().timestamp, now,
                                               options_.clock_skew_limit)) {
        return fail(kerb::ErrorCode::kReplay, "authenticator replayed");
      }
    }
  } else {
    // Challenge/response: freshness comes from our nonce, not their clock.
    std::erase_if(challenges_, [&](const auto& entry) {
      return entry.second < now - options_.clock_skew_limit;
    });
    bool answered = false;
    if (req.challenge_response.has_value()) {
      auto response = Unseal<Challenge5>(session_key, *req.challenge_response, options_.enc);
      if (response.ok()) {
        // The response must be (outstanding nonce) + 1. Single use.
        auto it = challenges_.find(response.value().nonce - 1);
        if (it != challenges_.end()) {
          challenges_.erase(it);
          answered = true;
        }
      }
    }
    if (!answered) {
      uint64_t nonce = prng_.NextU64();
      challenges_.emplace(nonce, now);
      if (challenge_out != nullptr) {
        *challenge_out = Seal(session_key, Challenge5{nonce}, options_.enc, prng_);
      }
      ++rejected_;
      return kerb::MakeError(kerb::ErrorCode::kAuthFailed, "challenge issued");
    }
  }

  ++accepted_;
  VerifiedSession5 session;
  session.client = auth.value().client;
  session.multi_session_key = session_key;
  session.channel_key = session_key;
  session.authenticator_time = auth.value().timestamp;
  session.client_initial_seq = auth.value().initial_seq;
  session.client_subkey = auth.value().subkey;
  session.transited = ticket.value().transited;
  return session;
}

kerb::Result<kerb::Bytes> AppServer5::Handle(const ksim::Message& msg) {
  auto req = kenc::Decode<ApRequest5>(msg.payload);
  if (!req.ok()) {
    return req.error();
  }

  kerb::Bytes challenge;
  auto session = VerifyApRequest(req.value(), msg.src.host, &challenge);
  if (!session.ok()) {
    if (!challenge.empty()) {
      // KRB_AP_ERR_METHOD: signal the client to use challenge/response.
      KrbError5 err;
      err.code = kErrMethod;
      err.text = "challenge/response required";
      err.e_data = challenge;
      return kenc::Encode(err);
    }
    return session.error();
  }

  // Session-key negotiation (recommendation e): channel key is the XOR of
  // the multi-session key with both parties' random subkeys.
  std::optional<kcrypto::DesBlock> server_subkey;
  if (options_.negotiate_subkey) {
    const kcrypto::DesBlock client_subkey =
        session.value().client_subkey.value_or(kcrypto::DesBlock{});
    server_subkey = prng_.NextDesKey().bytes();
    kcrypto::DesBlock channel;
    const kcrypto::DesBlock& multi = session.value().multi_session_key.bytes();
    for (size_t i = 0; i < 8; ++i) {
      channel[i] = static_cast<uint8_t>(multi[i] ^ client_subkey[i] ^ (*server_subkey)[i]);
    }
    session.value().channel_key = kcrypto::DesKey(kcrypto::FixParity(channel));
  }

  kerb::Bytes app_reply =
      app_ ? app_(session.value(), req.value().app_data) : kerb::Bytes{};

  if (!req.value().want_mutual && !options_.negotiate_subkey) {
    return app_reply;
  }

  EncApRepPart5 part;
  part.timestamp = session.value().authenticator_time;
  part.subkey = server_subkey;
  ApReply5 reply;
  reply.app_data = std::move(app_reply);
  reply.sealed_part = Seal(session.value().multi_session_key, part, options_.enc, prng_);
  return kenc::Encode(reply);
}

}  // namespace krb5
