// The Version 5 Draft 3 key distribution center.
//
// Policy knobs expose both the Draft 3 defaults the paper attacks and the
// countermeasures it recommends:
//   * checksum type for the encryption layer (Draft 3 default: CRC-32);
//   * ENC-TKT-IN-SKEY and REUSE-SKEY options (on by default, as drafted);
//   * the cname-match rule the designers "inadvertently omitted";
//   * preauthentication of the initial exchange (recommendation g);
//   * per-source rate limiting of AS requests;
//   * hierarchical inter-realm ticket granting with a transited list the
//     serving TGS (not the client) extends.
//
// This class is the network-facing wrapper around KdcCore5
// (src/krb5/kdccore.h): the deterministic sim drives the core through one
// KdcContext here; the parallel serving harness drives the same core with
// one context per worker.

#ifndef SRC_KRB5_KDC_H_
#define SRC_KRB5_KDC_H_

#include <string>

#include "src/krb4/database.h"
#include "src/krb5/kdccore.h"
#include "src/krb5/messages.h"
#include "src/sim/network.h"

namespace krb5 {

class Kdc5 {
 public:
  Kdc5(ksim::Network* net, const ksim::NetAddress& as_addr, const ksim::NetAddress& tgs_addr,
       ksim::HostClock clock, std::string realm, KdcDatabase db, kcrypto::Prng prng,
       KdcPolicy5 policy = {});

  const std::string& realm() const { return core_.realm(); }
  KdcDatabase& database() { return core_.database(); }
  KdcPolicy5& policy() { return core_.policy(); }
  const ksim::NetAddress& as_address() const { return as_addr_; }
  const ksim::NetAddress& tgs_address() const { return tgs_addr_; }

  KdcCore5& core() { return core_; }

  // Registers the inter-realm key shared with `other_realm`. Both realms
  // must register the same key. `next_hop_toward` routes non-neighbor
  // realms: target realm prefix → neighbor realm to forward through.
  void AddInterRealmKey(const std::string& other_realm, const kcrypto::DesKey& key) {
    core_.AddInterRealmKey(other_realm, key);
  }
  void AddRealmRoute(const std::string& target_realm, const std::string& via_neighbor) {
    core_.AddRealmRoute(target_realm, via_neighbor);
  }

  uint64_t as_requests_served() const { return core_.as_requests_served(); }
  uint64_t as_requests_rate_limited() const { return core_.as_requests_rate_limited(); }
  uint64_t tgs_requests_served() const { return core_.tgs_requests_served(); }

 private:
  ksim::NetAddress as_addr_;
  ksim::NetAddress tgs_addr_;
  KdcCore5 core_;
  KdcContext ctx_;
};

}  // namespace krb5

#endif  // SRC_KRB5_KDC_H_
