// The online administration plane: KadminServer and AdminClient.
//
// The paper's Kerberos had no protected way to administer the KDC database
// while it served: password changes used a bolt-on protocol and key changes
// required re-propagating the whole database. This subsystem supplies the
// missing piece under the paper's own rules — the admin channel is just
// another Kerberos service, authenticated with an AS/TGS-obtained ticket,
// and every message carries the full anti-replay envelope the paper demands
// (timestamp, direction, sender address, nonce, collision-proof checksum).
//
// Server defense ordering (each layer catches what the previous cannot):
//   1. Byte-identical reply cache — absorbs network duplicates so the same
//      wire bytes always earn the same wire reply (never a second apply).
//   2. Authenticator replay cache — rejects replayed authenticators inside
//      the skew window even when the rest of the request was re-sealed.
//   3. Nonce ack cache — a retry with a *fresh* authenticator but the same
//      nonce gets the stored verdict, making mutations exactly-once across
//      client retransmissions. A spliced request reusing an applied nonce
//      with a different body also gets the stored verdict — and no apply.
//
// Mutations go through KdcDatabase journal-first: one WAL record carries the
// whole post-rotation key ring, so replicas apply a rotation atomically or
// not at all (the chaos harness in src/attacks/rotation.h verifies this).

#ifndef SRC_ADMIN_KADMIN_H_
#define SRC_ADMIN_KADMIN_H_

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <utility>

#include "src/admin/messages.h"
#include "src/crypto/prng.h"
#include "src/krb4/client.h"
#include "src/krb4/database.h"
#include "src/krb4/kdccore.h"
#include "src/sim/clock.h"
#include "src/sim/network.h"
#include "src/sim/replaycache.h"
#include "src/sim/retry.h"

namespace kadmin {

struct AdminPolicy {
  // Password quality floor for kChangePassword / kAddPrincipal(user).
  size_t min_password_length = 8;
  bool reject_name_in_password = true;
  // Authenticator freshness bound; also bounds the request-body timestamp.
  ksim::Duration clock_skew_limit = ksim::kDefaultClockSkewLimit;
  // Byte-identical duplicate absorption window.
  ksim::Duration reply_cache_window = 2 * ksim::kMinute;
  // How long an applied nonce's verdict stays servable to retries.
  ksim::Duration nonce_window = 10 * ksim::kMinute;
  // Drain window granted to the outgoing key on every rotation: old-kvno
  // tickets keep working this long (default = the default ticket lifetime,
  // so no unexpired ticket is ever orphaned by a rotation).
  ksim::Duration old_key_retain = 8 * ksim::kHour;
};

// Authorization rule: principals with instance "admin" may do everything;
// everyone may change their own password and read their own kvno.
bool IsAdminPrincipal(const krb4::Principal& p);

class KadminServer {
 public:
  // `db` is the primary KDC's database — mutations journal into its WAL and
  // ride the existing kprop machinery to the slaves. The changepw service
  // principal must already exist in `db` (the testbed registers it).
  KadminServer(ksim::Network* net, const ksim::NetAddress& addr, std::string realm,
               krb4::KdcDatabase* db, ksim::HostClock clock, kcrypto::Prng prng,
               AdminPolicy policy = {});

  // Exposed for direct-drive tests; the network binding calls this.
  kerb::Result<kerb::Bytes> Handle(const ksim::Message& msg);

  AdminPolicy& policy() { return policy_; }
  const ksim::NetAddress& address() const { return addr_; }
  ksim::HostClock& clock() { return clock_; }

  uint64_t requests() const { return requests_; }
  uint64_t applied() const { return applied_; }
  uint64_t denied() const { return denied_; }
  uint64_t auth_replays() const { return auth_replays_; }
  uint64_t ack_replays() const { return ack_replays_; }
  uint64_t reply_cache_hits() const { return reply_cache_hits_; }

 private:
  // Everything after the duplicate-reply cache.
  kerb::Result<kerb::Bytes> Process(const ksim::Message& msg, ksim::Time now);
  // Unseals the ticket under the changepw key ring (current first, then
  // unexpired retained versions — the server's own key rotates too).
  kerb::Result<krb4::Ticket4> UnsealTicket(kerb::BytesView sealed, ksim::Time now);
  // Applies an authorized op; returns the reply body (code 0 or a verdict).
  AdminReplyBody Apply(const krb4::Principal& client, const AdminReqBody& req, ksim::Time now);
  // Seals a reply body into a framed kAdminReply.
  kerb::Bytes SealReply(const kcrypto::DesKey& session_key, const AdminReplyBody& body);
  kerb::Error Deny(uint8_t op, kerb::ErrorCode code, const char* what);
  kerb::Status CheckPassword(const krb4::Principal& target, std::string_view password) const;

  std::string realm_;
  krb4::Principal self_;  // changepw.kerberos@realm
  krb4::KdcDatabase* db_;
  ksim::NetAddress addr_;
  ksim::HostClock clock_;
  kcrypto::Prng prng_;
  AdminPolicy policy_;

  krb4::KdcReplyCache replies_;
  ksim::ShardedReplayCache seen_authenticators_;
  // (client hash, nonce) → (stored framed reply, stored_at). Only applied
  // verdicts are stored; denials recompute deterministically.
  std::map<std::pair<uint64_t, uint64_t>, std::pair<kerb::Bytes, ksim::Time>> acks_;

  uint64_t requests_ = 0;
  uint64_t applied_ = 0;
  uint64_t denied_ = 0;
  uint64_t auth_replays_ = 0;
  uint64_t ack_replays_ = 0;
  uint64_t reply_cache_hits_ = 0;
};

class AdminClient {
 public:
  // Wraps a logged-in Client4: the changepw ticket comes from the ordinary
  // TGS exchange (and is cached there). `prng` draws nonces.
  AdminClient(krb4::Client4* client, ksim::Network* net, ksim::HostClock clock,
              ksim::NetAddress admin_addr, kcrypto::Prng prng);

  // Retransmission with a fresh authenticator and the *same* nonce per
  // attempt — the server's ack cache makes the retried mutation
  // exactly-once.
  void ConfigureRetry(ksim::SimClock* sim_clock, const ksim::RetryPolicy& policy,
                      uint64_t jitter_seed);

  struct Ack {
    uint32_t kvno = 0;
    kerb::Bytes detail;
  };

  kerb::Result<Ack> ChangePassword(const krb4::Principal& target, std::string_view new_password);
  kerb::Result<Ack> RotateKey(const krb4::Principal& target);
  kerb::Result<Ack> GetKey(const krb4::Principal& target);
  kerb::Result<Ack> GetKvno(const krb4::Principal& target);
  kerb::Result<Ack> AddUser(const krb4::Principal& target, std::string_view password);
  kerb::Result<Ack> AddService(const krb4::Principal& target);
  kerb::Result<Ack> DelPrincipal(const krb4::Principal& target);

  // Attack-surface hooks: one raw request frame with a caller-chosen nonce
  // (fresh authenticator each call), and the matching reply parser. The
  // replay/interception probes in src/attacks/rotation.cc splice and resend
  // these without going through Execute's retry loop.
  kerb::Result<kerb::Bytes> BuildRequest(AdminOp op, const krb4::Principal& target,
                                         kerb::BytesView payload, uint64_t nonce);
  kerb::Result<Ack> ParseReply(uint64_t nonce, kerb::BytesView reply_frame);

  krb4::Client4& client() { return *client_; }

 private:
  kerb::Result<Ack> Execute(AdminOp op, const krb4::Principal& target, kerb::BytesView payload);
  kerb::Result<kcrypto::DesKey> SessionKey();

  krb4::Client4* client_;
  ksim::Network* net_;
  ksim::HostClock clock_;
  ksim::NetAddress admin_addr_;
  kcrypto::Prng prng_;
  std::optional<ksim::Exchanger> exchanger_;
};

}  // namespace kadmin

#endif  // SRC_ADMIN_KADMIN_H_
