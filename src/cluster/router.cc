#include "src/cluster/router.h"

#include "src/obs/kobs.h"

namespace kcluster {

void ClientRouter::Attach(krb4::KdcLink& client) {
  client.SetClusterRouting(
      {[this](const krb4::Principal& p, bool tgs) { return Endpoints(p, tgs); },
       [this](kerb::BytesView body) { return ApplyReferral(body); }});
}

void ClientRouter::AdoptView(const RingAnnounce& view) {
  view_ = view;
  // An invalidated client re-learns the view it dropped from its first
  // referral: rebuild the ring only when that view differs from the one
  // the ring was built from.
  if (ring_.config() != view.ring || ring_.epoch() != view.epoch ||
      ring_.members() != view.members) {
    ring_ = HashRing(view.ring);
    ring_.SetMembers(view.epoch, view.members);
  }
}

void ClientRouter::Invalidate() { view_.reset(); }

std::vector<ksim::NetAddress> ClientRouter::Endpoints(const krb4::Principal& principal,
                                                      bool tgs) {
  if (!view_.has_value() || ring_.empty()) {
    ++stats_.fallback_routes;
    return {};
  }
  const RingMember* owner = ring_.OwnerOfPrincipal(principal);
  const uint16_t port = tgs ? view_->tgs_port : view_->as_port;
  std::vector<ksim::NetAddress> endpoints;
  endpoints.reserve(view_->members.size());
  endpoints.push_back(ksim::NetAddress{owner->host, port});
  for (const RingMember& m : view_->members) {
    if (m.node_id != owner->node_id) {
      endpoints.push_back(ksim::NetAddress{m.host, port});
    }
  }
  ++stats_.direct_routes;
  kobs::EmitNow(kobs::kSrcCluster, kobs::Ev::kClusterRoute, owner->node_id, tgs ? 1 : 0);
  return endpoints;
}

bool ClientRouter::ApplyReferral(kerb::BytesView body) {
  auto referral = DecodeReferralBody(body);
  if (!referral.ok()) {
    ++stats_.referrals_rejected;
    return false;
  }
  const RingAnnounce& view = referral.value().view;
  // Newer epoch: unconditionally adopt. Same epoch: adopt only when it
  // actually changes something we can act on — with a deterministic ring a
  // same-epoch referral naming the owner we already route to means the two
  // views agree and a retry would loop.
  if (view_.has_value() && view.epoch <= view_->epoch) {
    const RingMember* current = nullptr;
    if (!ring_.empty()) {
      current = ring_.FindMember(referral.value().owner_node_id);
    }
    if (view.epoch < view_->epoch || current != nullptr) {
      ++stats_.referrals_rejected;
      return false;
    }
  }
  AdoptView(view);
  ++stats_.referrals_followed;
  return true;
}

}  // namespace kcluster
