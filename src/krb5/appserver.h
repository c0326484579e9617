// A Version 5 application server with the paper's optional mechanisms.
//
// Authentication modes:
//   * kTimestamp — Draft 3 default: authenticator freshness by clock, with
//     an optional replay cache. Vulnerable to the replay family (E1–E3).
//   * kChallengeResponse — the paper's recommendation (a): "the client
//     would present a ticket, though without [relying on] an authenticator.
//     The server would respond with a nonce identifier encrypted with the
//     session key; the client would respond with some function of that
//     identifier." Requires retained state (outstanding challenges) — the
//     cost the paper prices out — and is immune to clock games.
//
// Optional features (each one of the paper's recommendations):
//   * verify_service_name_check — reject authenticators naming another
//     service (the REUSE-SKEY redirection fix, E10);
//   * negotiate_subkey — true session keys: channel key =
//     multi-session ⊕ client-subkey ⊕ server-subkey (recommendation e);
//   * transited_policy — cross-realm path evaluation (E13).

#ifndef SRC_KRB5_APPSERVER_H_
#define SRC_KRB5_APPSERVER_H_

#include <functional>
#include <map>

#include "src/krb5/messages.h"
#include "src/sim/network.h"
#include "src/sim/replaycache.h"

namespace krb5 {

enum class ApAuthMode {
  kTimestamp,
  kChallengeResponse,
};

struct AppServer5Options {
  ApAuthMode mode = ApAuthMode::kTimestamp;
  bool replay_cache = false;
  bool check_address = true;
  bool verify_service_name_check = false;
  bool negotiate_subkey = false;
  // Returns true if the ticket's transited path is acceptable. Null accepts
  // everything (the Draft 3 reality the paper criticises).
  std::function<bool(const Ticket5&)> transited_policy;
  ksim::Duration clock_skew_limit = ksim::kDefaultClockSkewLimit;
  EncLayerConfig enc;
};

struct VerifiedSession5 {
  Principal client;
  kcrypto::DesKey multi_session_key;  // from the ticket
  kcrypto::DesKey channel_key;        // negotiated true session key (or the above)
  ksim::Time authenticator_time = 0;
  std::optional<uint32_t> client_initial_seq;
  std::optional<kcrypto::DesBlock> client_subkey;  // from the authenticator
  std::vector<std::string> transited;
};

class AppServer5 {
 public:
  using AppHandler =
      std::function<kerb::Bytes(const VerifiedSession5&, const kerb::Bytes& app_data)>;

  AppServer5(ksim::Network* net, const ksim::NetAddress& addr, Principal self,
             kcrypto::DesKey service_key, ksim::HostClock clock, kcrypto::Prng prng,
             AppHandler app, AppServer5Options options = {});

  // Verifies an AP request. In challenge/response mode a first presentation
  // yields kAuthFailed with `challenge_out` set — the caller must relay the
  // sealed challenge to the client and retry with its response.
  kerb::Result<VerifiedSession5> VerifyApRequest(const ApRequest5& req, uint32_t src_addr,
                                                 kerb::Bytes* challenge_out);

  const Principal& principal() const { return self_; }
  AppServer5Options& options() { return options_; }

  uint64_t accepted_requests() const { return accepted_; }
  uint64_t rejected_requests() const { return rejected_; }
  size_t outstanding_challenges() const { return challenges_.size(); }
  size_t replay_cache_size() const { return seen_authenticators_.size(); }

 private:
  kerb::Result<kerb::Bytes> Handle(const ksim::Message& msg);

  Principal self_;
  kcrypto::DesKey service_key_;
  ksim::HostClock clock_;
  kcrypto::Prng prng_;
  AppHandler app_;
  AppServer5Options options_;

  // Outstanding challenge nonces with issue times (challenge/response mode).
  std::map<uint64_t, ksim::Time> challenges_;
  ksim::ShardedReplayCache seen_authenticators_;
  uint64_t accepted_ = 0;
  uint64_t rejected_ = 0;
};

}  // namespace krb5

#endif  // SRC_KRB5_APPSERVER_H_
