// Cluster routing on the decoded request, V4 and V5.
//
// A four-node cluster serves a small population; node 1 owns neither the
// user nor the service the probes name. Each AS, PK-AS and TGS request is
// sent raw, on both KDC ports:
//   * to node 1, which must refer it to the owner its referral body names
//     (an AS request by its client, a TGS request by its service);
//   * to the owner, which must answer with its core's verdict: the AS
//     request served, PK-AS kUnsupported (PK preauth is off), a junk TGT
//     kAuthFailed, and a request on the other kind's port kBadFormat;
//   * cut by one byte, to node 1, whose core must reject it with kBadFormat
//     — served, not referred: routing never masks a fail-closed parse.
// Each probe comes from its own source port, because a node's reply cache
// keys on source and bytes, not on the port a request arrived on.

#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/cluster/cluster.h"
#include "src/cluster/population.h"
#include "src/cluster/wire.h"
#include "src/krb4/messages.h"
#include "src/krb5/messages.h"
#include "src/sim/world.h"

namespace {

using kcluster::Protocol;

constexpr uint64_t kNonOwner = 1;
constexpr uint32_t kProbeHost = 0x0b000001;

// What the owner answers on each port.
struct Verdicts {
  kerb::ErrorCode as_port;
  kerb::ErrorCode tgs_port;
};

struct Probe {
  std::string name;
  kerb::Bytes wire;
  krb4::Principal routing;
  Verdicts owner;
};

class ClusterRoutingTest : public ::testing::TestWithParam<Protocol> {
 protected:
  ClusterRoutingTest()
      : world_(0x2007e), population_(SmallPopulation()), controller_(&world_, Config()) {
    population_.Install(controller_.logical_db());
    controller_.Bootstrap({{1, 0x0a000010}, {2, 0x0a000011}, {3, 0x0a000012}, {4, 0x0a000013}});
  }

  static kcluster::PopulationConfig SmallPopulation() {
    kcluster::PopulationConfig pc;
    pc.users = 64;
    pc.services = 16;
    return pc;
  }

  static kcluster::ClusterConfig Config() {
    kcluster::ClusterConfig cc;
    cc.protocol = GetParam();
    return cc;
  }

  bool v4() const { return GetParam() == Protocol::kV4; }
  const std::string& realm() const { return controller_.config().realm; }

  uint64_t OwnerOf(const krb4::Principal& p) const {
    return controller_.ring().OwnerOfPrincipal(p)->node_id;
  }

  // The first user or service node 1 does not own.
  krb4::Principal NotOnNonOwner(bool service) const {
    for (size_t i = 0;; ++i) {
      krb4::Principal p =
          service ? population_.ServicePrincipal(i) : population_.UserPrincipal(i);
      if (OwnerOf(p) != kNonOwner) {
        return p;
      }
    }
  }

  std::vector<Probe> Probes() const {
    const krb4::Principal user = NotOnNonOwner(/*service=*/false);
    const krb4::Principal service = NotOnNonOwner(/*service=*/true);
    const kerb::Bytes junk_tgt(16, 0x5a);
    const kerb::Bytes junk_auth(16, 0xa5);
    const kerb::Bytes junk_padata(8, 0x3c);
    const kerb::Bytes client_pub = {0x02};
    const auto kOk = kerb::ErrorCode::kOk;
    const auto kBadFormat = kerb::ErrorCode::kBadFormat;
    std::vector<Probe> probes;
    if (v4()) {
      krb4::AsRequest4 as{user, realm(), ksim::kHour};
      krb4::AsPkRequest4 pk{user, realm(), ksim::kHour, client_pub, junk_padata};
      krb4::TgsRequest4 tgs{service, junk_tgt, junk_auth, ksim::kHour};
      probes.push_back(
          {"as", krb4::Frame4(krb4::MsgType::kAsRequest, as), user, {kOk, kBadFormat}});
      probes.push_back({"pk_as", krb4::Frame4(krb4::MsgType::kAsPkRequest, pk), user,
                        {kerb::ErrorCode::kUnsupported, kBadFormat}});
      probes.push_back({"tgs", krb4::Frame4(krb4::MsgType::kTgsRequest, tgs), service,
                        {kBadFormat, kerb::ErrorCode::kAuthFailed}});
      return probes;
    }
    krb5::AsRequest5 as;
    as.client = user;
    as.service_realm = realm();
    as.lifetime = ksim::kHour;
    as.nonce = 0x1234;
    krb5::AsPkRequest5 pk;
    pk.client = user;
    pk.service_realm = realm();
    pk.lifetime = ksim::kHour;
    pk.nonce = 0x1235;
    pk.client_pub = client_pub;
    pk.padata = junk_padata;
    krb5::TgsRequest5 tgs;
    tgs.service = service;
    tgs.lifetime = ksim::kHour;
    tgs.nonce = 0x1236;
    tgs.tgt_realm = realm();
    tgs.sealed_tgt = junk_tgt;
    tgs.sealed_authenticator = junk_auth;
    probes.push_back({"as", kenc::Encode(as), user, {kOk, kBadFormat}});
    probes.push_back(
        {"pk_as", kenc::Encode(pk), user, {kerb::ErrorCode::kUnsupported, kBadFormat}});
    probes.push_back(
        {"tgs", kenc::Encode(tgs), service, {kBadFormat, kerb::ErrorCode::kAuthFailed}});
    return probes;
  }

  kerb::Result<kerb::Bytes> Send(uint64_t node, bool tgs_port, kerb::BytesView wire) {
    const kcluster::ClusterConfig& cc = controller_.config();
    return world_.network().Call({kProbeHost, next_port_++},
                                 {controller_.node(node)->host(),
                                  tgs_port ? cc.tgs_port : cc.as_port},
                                 wire);
  }

  // The owner a referral reply names; 0 when the reply is not a referral.
  uint64_t ReferredOwner(kerb::BytesView reply) const {
    kerb::Bytes body;
    if (v4()) {
      auto framed = krb4::Unframe4(reply);
      if (!framed.ok() || framed.value().first != krb4::MsgType::kClusterReferral) {
        return 0;
      }
      body.assign(framed.value().second.begin(), framed.value().second.end());
    } else {
      auto referral = kenc::Decode<krb5::ClusterReferral5>(reply);
      if (!referral.ok()) {
        return 0;
      }
      body = referral.value().body;
    }
    auto decoded = kcluster::DecodeReferralBody(body);
    return decoded.ok() ? decoded.value().owner_node_id : 0;
  }

  bool IsAsReply(kerb::BytesView reply) const {
    if (v4()) {
      return reply.size() >= 2 && reply[0] == krb4::kProtocolVersion &&
             reply[1] == static_cast<uint8_t>(krb4::MsgType::kAsReply);
    }
    return kenc::PeekType(reply) == krb5::kMsgAsRep;
  }

  ksim::World world_;
  kcluster::Population population_;
  kcluster::ClusterController controller_;
  uint16_t next_port_ = 5000;
};

TEST_P(ClusterRoutingTest, NonOwnerRefersEachRequestOnEitherPort) {
  kcluster::ClusterNode& node = *controller_.node(kNonOwner);
  for (const Probe& probe : Probes()) {
    for (bool tgs_port : {false, true}) {
      SCOPED_TRACE(probe.name + (tgs_port ? " on the TGS port" : " on the AS port"));
      const uint64_t served = node.requests_served();
      const uint64_t referred = node.referrals_sent();
      auto reply = Send(kNonOwner, tgs_port, probe.wire);
      ASSERT_TRUE(reply.ok()) << reply.error().ToString();
      EXPECT_EQ(ReferredOwner(reply.value()), OwnerOf(probe.routing));
      EXPECT_EQ(node.referrals_sent(), referred + 1);
      EXPECT_EQ(node.requests_served(), served);
    }
  }
}

TEST_P(ClusterRoutingTest, OwnerAnswersWithItsCoresVerdict) {
  for (const Probe& probe : Probes()) {
    const uint64_t owner = OwnerOf(probe.routing);
    for (bool tgs_port : {false, true}) {
      SCOPED_TRACE(probe.name + (tgs_port ? " on the TGS port" : " on the AS port"));
      const kerb::ErrorCode want = tgs_port ? probe.owner.tgs_port : probe.owner.as_port;
      const uint64_t served = controller_.node(owner)->requests_served();
      auto reply = Send(owner, tgs_port, probe.wire);
      EXPECT_EQ(reply.code(), want) << (reply.ok() ? "" : reply.error().ToString());
      if (reply.ok()) {
        EXPECT_TRUE(IsAsReply(reply.value()));
      }
      EXPECT_EQ(controller_.node(owner)->requests_served(), served + 1);
    }
  }
}

TEST_P(ClusterRoutingTest, CutRequestIsRejectedByTheNonOwnersCore) {
  kcluster::ClusterNode& node = *controller_.node(kNonOwner);
  for (const Probe& probe : Probes()) {
    const kerb::BytesView cut(probe.wire.data(), probe.wire.size() - 1);
    for (bool tgs_port : {false, true}) {
      SCOPED_TRACE(probe.name + (tgs_port ? " on the TGS port" : " on the AS port"));
      const uint64_t served = node.requests_served();
      const uint64_t referred = node.referrals_sent();
      auto reply = Send(kNonOwner, tgs_port, cut);
      EXPECT_EQ(reply.code(), kerb::ErrorCode::kBadFormat);
      EXPECT_EQ(node.requests_served(), served + 1);
      EXPECT_EQ(node.referrals_sent(), referred);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Protocols, ClusterRoutingTest,
                         ::testing::Values(Protocol::kV4, Protocol::kV5),
                         [](const ::testing::TestParamInfo<Protocol>& param) {
                           return param.param == Protocol::kV4 ? "V4" : "V5";
                         });

}  // namespace
