#include "src/krb4/kdclink.h"

namespace krb4 {

KdcLink::KdcLink(ksim::Network* net, const ksim::NetAddress& self,
                 const ksim::NetAddress& as_addr, ReferralDecoder decode_referral)
    : net_(net), self_(self), decode_referral_(decode_referral), as_endpoints_{as_addr} {}

void KdcLink::ConfigureRetry(ksim::SimClock* sim_clock, const ksim::RetryPolicy& policy,
                             uint64_t jitter_seed) {
  exchanger_.emplace(net_, sim_clock, kcrypto::Prng(jitter_seed), policy);
}

void KdcLink::AddSlaveKdc(const ksim::NetAddress& as_addr, const ksim::NetAddress& tgs_addr) {
  as_endpoints_.push_back(as_addr);
  tgs_slaves_.push_back(tgs_addr);
}

std::vector<ksim::NetAddress> KdcLink::TgsEndpoints(const ksim::NetAddress& home_tgs) const {
  std::vector<ksim::NetAddress> endpoints{home_tgs};
  endpoints.insert(endpoints.end(), tgs_slaves_.begin(), tgs_slaves_.end());
  return endpoints;
}

kerb::Result<kerb::Bytes> KdcLink::KdcExchange(const std::vector<ksim::NetAddress>& endpoints,
                                               const kerb::Bytes& payload) {
  if (exchanger_.has_value()) {
    return exchanger_->Exchange(self_, endpoints,
                                [&]() -> kerb::Result<kerb::Bytes> { return payload; });
  }
  return net_->Call(self_, endpoints.front(), payload);
}

kerb::Result<kerb::Bytes> KdcLink::RoutedKdcExchange(const Principal& routing_principal,
                                                     bool tgs,
                                                     const std::vector<ksim::NetAddress>& fallback,
                                                     const kerb::Bytes& payload) {
  if (!routing_.has_value() || !routing_->endpoints) {
    return KdcExchange(fallback, payload);
  }
  for (int hop = 0; hop < kMaxReferralHops; ++hop) {
    std::vector<ksim::NetAddress> endpoints = routing_->endpoints(routing_principal, tgs);
    if (endpoints.empty()) {
      endpoints = fallback;
    }
    auto reply = KdcExchange(endpoints, payload);
    if (!reply.ok()) {
      return reply;
    }
    auto referral = decode_referral_(reply.value());
    if (!referral.has_value()) {
      return reply;  // a real KDC answer; the caller decodes it
    }
    // A node we asked does not own this principal and is teaching us who
    // does.
    if (!referral->ok() || !routing_->on_referral || !routing_->on_referral(referral->value())) {
      return kerb::MakeError(kerb::ErrorCode::kTransport, "cluster referral not actionable");
    }
  }
  return kerb::MakeError(kerb::ErrorCode::kTransport, "cluster referral loop");
}

kerb::Result<kerb::Bytes> KdcLink::ServiceExchange(const ksim::NetAddress& addr,
                                                   const ksim::Exchanger::Builder& build) {
  if (exchanger_.has_value()) {
    return exchanger_->Exchange(self_, {addr}, build);
  }
  auto payload = build();
  if (!payload.ok()) {
    return payload.error();
  }
  return net_->Call(self_, addr, payload.value());
}

}  // namespace krb4
