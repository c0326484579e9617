#include "src/cluster/wire.h"

#include <algorithm>

#include "src/crypto/str2key.h"

namespace kcluster {

kcrypto::DesKey ClusterKey(const std::string& realm) {
  return kcrypto::StringToKey("kcluster/" + realm, realm);
}

kerb::Status CheckAnnounce(const RingAnnounce& announce) {
  const std::vector<RingMember>& members = announce.members;
  if (members.empty() || members.size() > kMaxClusterMembers || announce.ring.vnodes == 0 ||
      announce.ring.vnodes > kMaxRingVnodes) {
    return kerb::MakeError(kerb::ErrorCode::kBadFormat, "cluster: bad announce shape");
  }
  for (size_t i = 0; i < members.size(); ++i) {
    for (size_t j = 0; j < i; ++j) {
      if (members[j].node_id == members[i].node_id) {
        return kerb::MakeError(kerb::ErrorCode::kBadFormat, "cluster: duplicate member");
      }
    }
  }
  return kerb::Status::Ok();
}

kerb::Result<ReferralBody> DecodeReferralBody(kerb::BytesView data) {
  auto body = kenc::Decode<ReferralBody>(data);
  if (!body.ok()) {
    return body.error();
  }
  if (auto valid = CheckAnnounce(body.value().view); !valid.ok()) {
    return valid.error();
  }
  const std::vector<RingMember>& members = body.value().view.members;
  if (std::none_of(members.begin(), members.end(), [&](const RingMember& m) {
        return m.node_id == body.value().owner_node_id;
      })) {
    return kerb::MakeError(kerb::ErrorCode::kBadFormat, "cluster: referral owner not in view");
  }
  return body;
}

}  // namespace kcluster
