// The Kerberos V4 key distribution center: authentication server (AS) and
// ticket-granting server (TGS).
//
// Protocol behaviour is V4-faithful, including the weaknesses under study:
// the AS answers any plaintext request with material encrypted in the named
// user's password key (no preauthentication, no rate limiting), and the TGS
// trusts timestamps within the configured skew window.
//
// KdcHost is the network-facing KDC of either protocol: a serving core
// (KdcCore4 here, krb5::KdcCore5 in src/krb5/kdc.h) plus its bindings. It
// binds the AS/TGS addresses and drives the core with a single KdcContext,
// so the deterministic simulation sees exactly the single-threaded
// behaviour it always has. The parallel serving harness drives the same
// core with one context per worker instead. Everything else — realm,
// database, counters, policy — is the core's own, reached through the host.

#ifndef SRC_KRB4_KDC_H_
#define SRC_KRB4_KDC_H_

#include <string>
#include <utility>

#include "src/krb4/database.h"
#include "src/krb4/kdccore.h"
#include "src/krb4/messages.h"
#include "src/sim/clock.h"
#include "src/sim/network.h"

namespace krb4 {

template <class Core>
class KdcHost : public Core {
 public:
  KdcHost(ksim::Network* net, const ksim::NetAddress& as_addr, const ksim::NetAddress& tgs_addr,
          ksim::HostClock clock, std::string realm, KdcDatabase db, kcrypto::Prng prng,
          typename Core::Options options = {})
      : Core(clock, std::move(realm), std::move(db), options), ctx_(prng) {
    net->Bind(as_addr, [this](const ksim::Message& msg) { return this->HandleAs(msg, ctx_); });
    net->Bind(tgs_addr, [this](const ksim::Message& msg) { return this->HandleTgs(msg, ctx_); });
  }

 private:
  KdcContext ctx_;
};

using Kdc4 = KdcHost<KdcCore4>;

}  // namespace krb4

#endif  // SRC_KRB4_KDC_H_
