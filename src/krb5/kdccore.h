// Thread-safe Version 5 Draft 3 KDC serving core.
//
// Same split as src/krb4/kdccore.h, on the same serve frame
// (krb4::KdcServeFrame): the Kdc5 host drives this core with
// one KdcContext on the simulation thread (byte-identical replies, pinned
// by tests/integration/kdc_capture_test.cc); the parallel bench harness
// drives it with a KERB_KDC_THREADS pool of contexts.
//
// Shared state and its protection:
//   * principal store — shard reader/writer locks inside PrincipalStore;
//   * policy, inter-realm keys, realm routes — configured at setup time,
//     before any parallel serving starts, and read-only afterwards (the
//     sim's single thread may still mutate them between calls, exactly as
//     before the split);
//   * AS rate-limiter table — its own mutex, taken only when the policy
//     enables rate limiting;
//   * request counters — atomics.

#ifndef SRC_KRB5_KDCCORE_H_
#define SRC_KRB5_KDCCORE_H_

#include <atomic>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "src/krb4/database.h"
#include "src/krb4/kdccore.h"
#include "src/krb5/messages.h"
#include "src/sim/network.h"

namespace krb5 {

using krb4::KdcContext;
using krb4::KdcDatabase;

struct KdcPolicy5 {
  EncLayerConfig enc;  // checksum defaults to CRC-32, per Draft 3
  bool allow_enc_tkt_in_skey = true;
  bool allow_reuse_skey = true;
  // "the designers intended to require that the cname in the additional
  // ticket match the name of the server for which the new ticket is being
  // requested ... the requirement was inadvertently omitted from Draft 3."
  bool enforce_enc_tkt_cname_match = false;
  // Recommendation (g): authenticate the user to Kerberos in the initial
  // exchange (padata = {nonce}K_c).
  bool require_preauth = false;
  // Require a collision-proof checksum on TGS request integrity.
  bool require_collision_proof_checksum = false;
  // AS requests per source host per minute; 0 = unlimited.
  uint32_t as_rate_limit_per_minute = 0;
  ksim::Duration max_ticket_lifetime = 8 * ksim::kHour;
  ksim::Duration clock_skew_limit = ksim::kDefaultClockSkewLimit;
  // Retransmit-safe reply cache (see krb4::KdcOptions::reply_cache_window):
  // a duplicated request returns the stored reply instead of minting a
  // second ticket. Zero disables; the chaos testbeds enable it.
  ksim::Duration reply_cache_window = 0;
  // Draft-era behaviour: "Clients may be treated as services, and tickets
  // to the client, encrypted by K_c, may be obtained by any user." When
  // false, service tickets naming user principals are refused (E15); the
  // supported alternative is registering separate instances with truly
  // random keys (the keystore supplies them).
  bool allow_tickets_for_user_principals = true;
};

class KdcCore5 : public krb4::KdcServeFrame {
 public:
  using Options = KdcPolicy5;

  KdcCore5(ksim::HostClock clock, std::string realm, KdcDatabase db, KdcPolicy5 policy);

  // Serves `decoded`, the DecodeKdcRequest5 of msg.payload, which arrived on
  // the AS (`tgs` false) or the TGS port: a decode failure is the answer,
  // and a request of the other port's kind gets kBadFormat.
  kerb::Result<kerb::Bytes> Handle(bool tgs, const ksim::Message& msg,
                                   const kerb::Result<KdcRequest5>& decoded, KdcContext& ctx);
  kerb::Result<kerb::Bytes> HandleAs(const ksim::Message& msg, KdcContext& ctx) {
    return Handle(false, msg, DecodeKdcRequest5(msg.payload), ctx);
  }
  kerb::Result<kerb::Bytes> HandleTgs(const ksim::Message& msg, KdcContext& ctx) {
    return Handle(true, msg, DecodeKdcRequest5(msg.payload), ctx);
  }

  KdcPolicy5& policy() { return policy_; }

  void AddInterRealmKey(const std::string& other_realm, const kcrypto::DesKey& key);
  void AddRealmRoute(const std::string& target_realm, const std::string& via_neighbor);

  uint64_t as_requests_rate_limited() const {
    return as_rate_limited_.load(std::memory_order_relaxed);
  }

 private:
  // Protocol checks and reply encoding, on a request Handle has decoded.
  kerb::Result<kerb::Bytes> ServeAs(const ksim::Message& msg, const AsRequest5& req,
                                    KdcContext& ctx);
  kerb::Result<kerb::Bytes> ServeAsPk(const ksim::Message& msg, const AsPkRequest5& req,
                                      KdcContext& ctx);
  kerb::Result<kerb::Bytes> ServeTgs(const ksim::Message& msg, const TgsRequest5& req,
                                     KdcContext& ctx);

  // The TGT both AS paths issue: mints it for `req`'s client (bound to the
  // source address unless the client asks to omit it), then seals
  // the ticket under `tgs_key` into ctx.scratch.ticket_sealed and its
  // EncAsRepPart5 under `client_key` into ctx.scratch.body_sealed, and puts
  // the sealed ticket in the context's TGT memo. Draws the session key, then
  // each seal's confounder, from the context PRNG.
  template <typename AsReq>
  void MintTgt(const ksim::Message& msg, const AsReq& req, ksim::Time now,
               const kcrypto::DesKey& tgs_key, const kcrypto::DesKey& client_key,
               KdcContext& ctx);

  // The per-source AS rate limit, shared by the password and PK paths.
  kerb::Status AdmitAs(uint32_t host, ksim::Time now);

  // Which neighbor realm leads toward `target`; empty if unknown.
  std::string RouteToward(const std::string& target) const;

  KdcPolicy5 policy_;

  std::map<std::string, kcrypto::DesKey> interrealm_keys_;
  std::map<std::string, std::string> realm_routes_;

  // Sliding-window rate limiter state per source host.
  std::mutex rate_mu_;
  std::map<uint32_t, std::vector<ksim::Time>> as_request_times_;
  std::atomic<uint64_t> as_rate_limited_{0};
};

}  // namespace krb5

#endif  // SRC_KRB5_KDCCORE_H_
