// Wire formats for the cluster layer: referral bodies (plaintext, embedded
// in protocol frames) and the 'KCL1' control-plane frames (DES CBC-MAC'd
// under a cluster key the nodes share).
//
// Two distinct trust treatments, deliberately:
//
//   * Referrals are PLAINTEXT. A referral only tells a client "ask that
//     node instead" — the credential path stays end-to-end keyed (the AS
//     reply is sealed under the client key, tickets under service keys), so
//     the worst a forged referral achieves is sending the client to a node
//     that cannot answer, which is indistinguishable from ordinary routing
//     staleness and bounded by the client's referral-hop cap. Authenticating
//     referrals would require clients to share a key with the cluster
//     before authenticating — exactly the circularity Kerberos exists to
//     avoid.
//
//   * Control frames (membership pings, ring updates, range loads) move
//     database state and membership decisions between nodes, so they are
//     sealed as kprop's are (kstore::SealFrame): an 8-byte DES CBC-MAC
//     (zero IV) trailer under a key derived from the realm. A network
//     adversary cannot forge a ring view or inject principals.
//
// Frames, big-endian, MAC over everything before the trailer:
//   ping     := u32 'KCL1' | u8 1 | u64 from_node | mac8
//   pong     := u32 'KCL1' | u8 2 | u64 node_id | u32 epoch | u64 lsn | mac8
//   ring     := u32 'KCL1' | u8 3 | announce | mac8
//   ring-ack := u32 'KCL1' | u8 4 | u64 node_id | u32 epoch | mac8
//   load     := u32 'KCL1' | u8 5 | u32 epoch | u32 count |
//               count * lp(entry_record) | mac8
//   load-ack := u32 'KCL1' | u8 6 | u32 count_applied | mac8
//   announce := u32 epoch | u64 seed | u32 vnodes | u16 as_port |
//               u16 tgs_port | u16 ctl_port | u32 n | n * (u64 id | u32 host)
//   referral := announce | u64 owner_node_id              (no MAC; see above)

#ifndef SRC_CLUSTER_WIRE_H_
#define SRC_CLUSTER_WIRE_H_

#include <cstdint>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "src/cluster/ring.h"
#include "src/common/bytes.h"
#include "src/common/result.h"
#include "src/crypto/des.h"
#include "src/encoding/layout.h"
#include "src/store/kprop.h"

namespace kcluster {

constexpr uint32_t kClusterMagic = 0x4b434c31;  // "KCL1"
constexpr uint16_t kClusterCtlPort = 751;       // control plane, per node host
constexpr uint8_t kCtlPing = 1;
constexpr uint8_t kCtlPong = 2;
constexpr uint8_t kCtlRing = 3;
constexpr uint8_t kCtlRingAck = 4;
constexpr uint8_t kCtlLoad = 5;
constexpr uint8_t kCtlLoadAck = 6;

// Decoder ceilings, checked after a body decodes. A count beyond what its
// bytes could hold fails the decode itself, before anything is allocated.
constexpr uint32_t kMaxClusterMembers = 256;
constexpr uint32_t kMaxRingVnodes = 4096;
constexpr uint32_t kMaxLoadEntries = 1u << 16;

// The control-plane key every node derives from the realm name, the same
// convention kprop uses for the propagation key.
kcrypto::DesKey ClusterKey(const std::string& realm);

// Each body below lists its fields in wire order in Layout()
// (src/encoding/layout.h); every one must be exact, with no trailing bytes.

// A complete routing view: ring parameters plus the member list at one
// epoch. This is what ring-update frames carry and what referrals teach
// clients, so client and node ownership math agree bit-for-bit.
struct RingAnnounce {
  uint32_t epoch = 0;
  RingConfig ring;
  uint16_t as_port = 0;
  uint16_t tgs_port = 0;
  uint16_t ctl_port = kClusterCtlPort;
  std::vector<RingMember> members;

  static constexpr auto Layout() {
    return std::tuple{&RingAnnounce::epoch,    &RingAnnounce::ring,     &RingAnnounce::as_port,
                      &RingAnnounce::tgs_port, &RingAnnounce::ctl_port, &RingAnnounce::members};
  }
};

// A view with no members, an absurd vnode count or a member listed twice
// cannot describe a serving cluster: kBadFormat rather than a degenerate
// ring (a duplicate id would double the node's points and make ownership
// depend on list order).
kerb::Status CheckAnnounce(const RingAnnounce& announce);

// The body of a kClusterReferral (V4) frame / kMsgClusterReferral (V5)
// kClusterBody field: the referring node's current view plus who it
// believes owns the requested principal.
struct ReferralBody {
  RingAnnounce view;
  uint64_t owner_node_id = 0;

  static constexpr auto Layout() {
    return std::tuple{&ReferralBody::view, &ReferralBody::owner_node_id};
  }
};

// kenc::Decode, then CheckAnnounce and the check that the named owner is in
// the view it rides with (or the client could not act on the referral).
kerb::Result<ReferralBody> DecodeReferralBody(kerb::BytesView data);

// --- Control frames (MAC'd) -------------------------------------------------

struct PingBody {
  uint64_t from_node = 0;

  static constexpr auto Layout() { return std::tuple{&PingBody::from_node}; }
};

struct PongBody {
  uint64_t node_id = 0;
  uint32_t epoch = 0;
  uint64_t applied_lsn = 0;

  static constexpr auto Layout() {
    return std::tuple{&PongBody::node_id, &PongBody::epoch, &PongBody::applied_lsn};
  }
};

struct RingAckBody {
  uint64_t node_id = 0;
  uint32_t epoch = 0;

  static constexpr auto Layout() { return std::tuple{&RingAckBody::node_id, &RingAckBody::epoch}; }
};

// Additive range-load records: encoded principal entries
// (krb4::EncodePrincipalEntry bytes), at most kMaxLoadEntries.
struct LoadBody {
  uint32_t epoch = 0;
  std::vector<kerb::Bytes> entries;

  static constexpr auto Layout() { return std::tuple{&LoadBody::epoch, &LoadBody::entries}; }
};

struct LoadAckBody {
  uint32_t count_applied = 0;

  static constexpr auto Layout() { return std::tuple{&LoadAckBody::count_applied}; }
};

// A 'KCL1' control frame of `type` carrying `body`, sealed by
// kstore::SealFrame; one allocation. The receiver opens it with
// kstore::OpenFrame(key, kClusterMagic, frame) — kIntegrity on a MAC
// mismatch, kBadFormat on framing damage — and decodes the body with
// kenc::Decode<Body>, so a malformed frame is a rejection, never a partial
// parse.
template <typename Body>
kerb::Bytes EncodeCtlFrame(const kcrypto::DesKey& key, uint8_t type, const Body& body) {
  const size_t size = kenc::EncodedSize(body);
  kerb::Bytes frame;
  frame.reserve(5 + size + 8);  // room for the MAC SealFrame appends
  frame.resize(5 + size);
  kenc::PutBe(frame.data(), kClusterMagic, 4);
  frame[4] = type;
  kenc::EncodeTo(body, frame.data() + 5);
  return kstore::SealFrame(key, std::move(frame));
}

}  // namespace kcluster

#endif  // SRC_CLUSTER_WIRE_H_
