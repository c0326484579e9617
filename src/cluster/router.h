// Client-side cluster routing: the cached ring view and the referral
// learning loop.
//
// A cold client knows only a bootstrap endpoint list (any subset of the
// cluster). Its first request lands on an arbitrary node; if that node does
// not own the principal it answers with a referral carrying its current
// ring view, the router adopts the view, and the retry goes straight to the
// owner. From then on the client hash-routes first — the referral rate
// decays to the rebalance rate, which is what the load harness reports as
// "cold referral rate".
//
// Invalidation is epoch-driven: a referral is applied only when it carries
// a strictly newer epoch than the cached view, or corrects the owner within
// the same epoch (the cached view itself was learned mid-rebalance). A
// referral that does neither is rejected and the exchange fails closed —
// two nodes pointing at each other with the same stale epoch must not spin
// the client.

#ifndef SRC_CLUSTER_ROUTER_H_
#define SRC_CLUSTER_ROUTER_H_

#include <cstdint>
#include <optional>
#include <vector>

#include "src/cluster/ring.h"
#include "src/cluster/wire.h"
#include "src/krb4/kdclink.h"
#include "src/sim/network.h"

namespace kcluster {

class ClientRouter {
 public:
  struct Stats {
    uint64_t direct_routes = 0;     // routed via the cached ring
    uint64_t fallback_routes = 0;   // cold — no view yet, bootstrap list used
    uint64_t referrals_followed = 0;
    uint64_t referrals_rejected = 0;
  };

  ClientRouter() = default;

  // Installs the routing hooks on a client of either protocol. The router
  // must outlive the client (the hooks capture `this`).
  void Attach(krb4::KdcLink& client);

  // Warm-starts the view (e.g. the harness hands freshly-created clients
  // the bootstrap ring so only deliberately-cold clients pay referrals).
  void AdoptView(const RingAnnounce& view);

  // Endpoint list for a request routed by `principal`: the owner first,
  // then the remaining members in ring order as failover — a dead owner
  // then costs one transport failure before a surviving node's referral
  // teaches the post-rebalance view. Empty when no view is cached (the
  // client falls back to its configured endpoints).
  std::vector<ksim::NetAddress> Endpoints(const krb4::Principal& principal, bool tgs);

  // Applies one referral body. True when the view changed (retry will
  // re-route); false when the referral is malformed or not newer.
  bool ApplyReferral(kerb::BytesView body);

  // Drops the cached view back to cold. The ring built from it is kept, so
  // re-adopting the same view costs no rebuild.
  void Invalidate();

  uint32_t epoch() const { return view_.has_value() ? view_->epoch : 0; }
  const Stats& stats() const { return stats_; }

 private:
  std::optional<RingAnnounce> view_;
  HashRing ring_;
  Stats stats_;
};

}  // namespace kcluster

#endif  // SRC_CLUSTER_ROUTER_H_
