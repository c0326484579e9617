// The client side of the deployment, shared by the V4 and V5 clients: how
// a client reaches its KDCs and services.
//
// The paper's deployment is a master KDC with "several slave Kerberos
// servers which can respond to ticket requests"; clients retransmit and
// fail over among them. KdcLink owns that plumbing once for both protocols:
// the network and the client's own address, the optional retry/failover
// Exchanger (src/sim/retry.h), the failover lists (the AS list primary
// first, and the home realm's TGS slaves, which each client puts behind its
// home TGS), and the cluster-routing hooks with their referral loop.
//
// The protocols differ only in how a reply is recognised as a cluster
// referral — a V4 kClusterReferral frame, or a V5 TLV carrying a
// kClusterBody — so each client hands its decoder to the constructor.

#ifndef SRC_KRB4_KDCLINK_H_
#define SRC_KRB4_KDCLINK_H_

#include <functional>
#include <optional>
#include <utility>
#include <vector>

#include "src/krb4/principal.h"
#include "src/sim/clock.h"
#include "src/sim/network.h"
#include "src/sim/retry.h"

namespace krb4 {

class KdcLink {
 public:
  // Opts into resilient exchanges: every KDC and service call retries per
  // `policy`, charging timeouts and backoff to the shared SimClock so
  // retransmitted authenticators carry fresh timestamps. KDC retries resend
  // identical bytes (the KDC reply cache absorbs them); AP retries rebuild
  // the authenticator — the paper's retransmission fix. Without this call
  // the client sends exactly one packet per exchange.
  void ConfigureRetry(ksim::SimClock* sim_clock, const ksim::RetryPolicy& policy,
                      uint64_t jitter_seed);

  // Appends a home-realm slave KDC to the failover lists; exchanges try the
  // primary first, slaves in registration order. Cross-realm hops keep
  // their single configured TGS: replication is per realm.
  void AddSlaveKdc(const ksim::NetAddress& as_addr, const ksim::NetAddress& tgs_addr);

  // Cluster routing hooks, installed by kcluster::ClientRouter (the client
  // libraries stay free of cluster types; the hooks speak only addresses
  // and opaque referral bytes). `endpoints` picks the KDC endpoint list for
  // a request routed by `principal` (the client principal for AS, the
  // service principal for TGS); empty means "use the configured failover
  // list". `on_referral` feeds a referral body back to the router — true
  // means the routing view changed and the exchange should re-route.
  // Clustering applies to the home realm only.
  struct ClusterRouting {
    std::function<std::vector<ksim::NetAddress>(const Principal& principal, bool tgs)>
        endpoints;
    std::function<bool(kerb::BytesView referral_body)> on_referral;
  };
  void SetClusterRouting(ClusterRouting routing) { routing_ = std::move(routing); }

  ksim::RetryStats retry_stats() const {
    return exchanger_.has_value() ? exchanger_->stats() : ksim::RetryStats{};
  }

  const ksim::NetAddress& address() const { return self_; }

 protected:
  // Recognises a KDC reply as a cluster referral: nullopt for a real KDC
  // answer, else the referral body, or an error when the referral carries
  // no usable body.
  using ReferralDecoder = std::optional<kerb::Result<kerb::Bytes>> (*)(kerb::BytesView reply);

  KdcLink(ksim::Network* net, const ksim::NetAddress& self, const ksim::NetAddress& as_addr,
          ReferralDecoder decode_referral);

  // Fixed request bytes through a failover list (retransmission); single
  // direct call when retry is not configured.
  kerb::Result<kerb::Bytes> KdcExchange(const std::vector<ksim::NetAddress>& endpoints,
                                        const kerb::Bytes& payload);
  // KdcExchange through the cluster routing hooks when installed: routes by
  // `routing_principal`, follows referrals (≤ kMaxReferralHops), falls back
  // to `fallback` endpoints when the router has no view yet. A referral the
  // router cannot act on (malformed body, stale view no newer than ours)
  // fails closed rather than spin.
  kerb::Result<kerb::Bytes> RoutedKdcExchange(const Principal& routing_principal, bool tgs,
                                              const std::vector<ksim::NetAddress>& fallback,
                                              const kerb::Bytes& payload);
  // Fresh request per attempt against one service address.
  kerb::Result<kerb::Bytes> ServiceExchange(const ksim::NetAddress& addr,
                                            const ksim::Exchanger::Builder& build);

  // AS failover list, primary first.
  const std::vector<ksim::NetAddress>& as_endpoints() const { return as_endpoints_; }
  // TGS failover list for the home realm: `home_tgs`, then the slaves.
  std::vector<ksim::NetAddress> TgsEndpoints(const ksim::NetAddress& home_tgs) const;

 private:
  // Referral hops a single exchange may follow before failing closed: one
  // stale view plus its correction, with slack for a concurrent rebalance.
  static constexpr int kMaxReferralHops = 4;

  ksim::Network* net_;
  ksim::NetAddress self_;
  ReferralDecoder decode_referral_;
  std::vector<ksim::NetAddress> as_endpoints_;
  std::vector<ksim::NetAddress> tgs_slaves_;
  std::optional<ksim::Exchanger> exchanger_;
  std::optional<ClusterRouting> routing_;
};

}  // namespace krb4

#endif  // SRC_KRB4_KDCLINK_H_
