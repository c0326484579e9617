// Authenticated incremental database propagation — the kprop/kpropd
// analogue.
//
// The paper: "The Kerberos master database resides on a single machine...
// copies of the database are distributed to slave servers", and the
// propagation channel is itself a target — a network adversary who can
// splice, replay, or reorder transfers controls what the slaves believe.
// This module ships WAL deltas (src/store/wal.h) from the primary to each
// slave over the simulated network, sealed so exactly those attacks fail:
//
//   * Every frame carries a DES CBC-MAC (zero IV) under a propagation key
//     shared by primary and slaves — fabrication and tampering are
//     kIntegrity rejections.
//   * Every delta names its (from_lsn, to_lsn] window. A slave applies a
//     delta only when from_lsn equals its applied LSN: replays and
//     reordered frames are stale (idempotently re-acked, no state change)
//     and gapped frames are kReplay rejections — a splice can therefore
//     remove only a SUFFIX of the history, never an interior chunk, so a
//     slave is always at a consistent prefix of the primary's history.
//   * When a slave is behind the primary's compaction horizon, the primary
//     falls back to a wholesale snapshot transfer, versioned by its LSN so
//     an old snapshot cannot roll a slave back.
//
// Frames, big-endian, sealed by SealFrame (MAC over everything before the
// 8-byte trailer):
//   delta     := u32 'KPR1' | u8 1 | u64 from_lsn | u64 to_lsn |
//                u32 count | count * (u8 op | lp(payload)) | mac8
//   ack       := u32 'KPR1' | u8 2 | u64 applied_lsn | mac8
//   wholesale := u32 'KPR1' | u8 3 | lp(snapshot_image) | mac8

#ifndef SRC_STORE_KPROP_H_
#define SRC_STORE_KPROP_H_

#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "src/common/bytes.h"
#include "src/common/result.h"
#include "src/crypto/des.h"
#include "src/sim/network.h"
#include "src/store/kstore.h"
#include "src/store/snapshot.h"
#include "src/store/wal.h"

namespace kstore {

constexpr uint32_t kPropMagic = 0x4b505231;  // "KPR1"
constexpr uint8_t kPropDelta = 1;
constexpr uint8_t kPropAck = 2;
constexpr uint8_t kPropWholesale = 3;
constexpr uint16_t kPropPort = 754;  // historical kprop service port
constexpr uint32_t kMaxPropRecords = 1u << 16;

// The propagation key primary and slaves derive from the realm name.
kcrypto::DesKey PropKey(const std::string& realm);

// The sealed frame every MAC'd channel here uses (kprop, and the cluster's
// 'KCL1' control plane): u32 magic | u8 type | body | 8-byte DES CBC-MAC
// (zero IV) over everything before it. SealFrame appends the MAC to an
// encoded (magic, type, body). OpenFrame verifies it and the magic and
// returns (type, body): kIntegrity on a MAC mismatch, kBadFormat on
// framing damage.
kerb::Bytes SealFrame(const kcrypto::DesKey& key, kerb::Bytes frame);
kerb::Result<std::pair<uint8_t, kerb::BytesView>> OpenFrame(const kcrypto::DesKey& key,
                                                            uint32_t magic,
                                                            kerb::BytesView frame);

kerb::Bytes EncodeDeltaFrame(const kcrypto::DesKey& key, uint64_t from_lsn,
                             uint64_t to_lsn, std::span<const WalRecord> records);
kerb::Bytes EncodeWholesaleFrame(const kcrypto::DesKey& key, kerb::BytesView snapshot_image);
kerb::Bytes EncodeAckFrame(const kcrypto::DesKey& key, uint64_t applied_lsn);

// MAC-checks and decodes an ack; the primary's view of a slave's reply.
kerb::Result<uint64_t> ParseAckFrame(const kcrypto::DesKey& key, kerb::BytesView frame);

// Slave-side endpoint: verifies, orders, and applies propagation frames.
// Database mutations go through the two callbacks so this layer stays free
// of protocol types:
//   applier(op, payload) applies one WAL record;
//   loader(snapshot)     replaces the database wholesale.
class PropagationSink {
 public:
  using Applier = std::function<kerb::Status(uint8_t op, kerb::BytesView payload)>;
  using Loader = std::function<kerb::Status(const Snapshot& snapshot)>;

  PropagationSink(kcrypto::DesKey key, uint64_t applied_lsn, Applier applier, Loader loader)
      : key_(key), applied_(applied_lsn), applier_(std::move(applier)),
        loader_(std::move(loader)) {}

  // Network handler body. Returns the ack frame on success; errors
  // propagate to the caller as the handler result. Atomic per frame: a
  // delta is fully parsed and verified before any record is applied.
  kerb::Result<kerb::Bytes> Handle(const ksim::Message& msg);

  uint64_t applied_lsn() const { return applied_; }

 private:
  kerb::Result<kerb::Bytes> HandleDelta(kenc::Reader& r);
  kerb::Result<kerb::Bytes> HandleWholesale(kenc::Reader& r);
  kerb::Bytes Ack() const;

  kcrypto::DesKey key_;
  uint64_t applied_;
  Applier applier_;
  Loader loader_;
};

// The primary side: one primary's feed of its journal to its replicas.
// The replica sets (krb4::ReplicaPropagation) and the cluster controller
// (kcluster::ClusterController) both ship through it; each keeps its own
// list of replicas and their acknowledged LSNs.
class Propagator {
 public:
  struct CycleReport {
    uint64_t bytes_sent = 0;
    uint64_t records_shipped = 0;
    uint64_t deltas_sealed = 0;  // delta frames encoded and MAC'd; the rest reused one
    uint64_t wholesale_transfers = 0;
    uint64_t wholesale_bytes = 0;
    uint64_t failures = 0;  // transport or rejection; cycle moved on
    bool slaves_converged = false;
  };

  // Produces the replica's full snapshot at `lsn` for a wholesale transfer.
  using SnapshotFn = std::function<Snapshot(uint64_t lsn)>;

  // Frames leave from `source`; a replica's endpoint is {host,
  // source.port}. Small delta chunks mean an interrupted catch-up still
  // lands complete prefixes on the replica.
  Propagator(ksim::Network* net, KStore* store, kcrypto::DesKey key, ksim::NetAddress source,
             uint32_t records_per_frame)
      : net_(net), store_(store), key_(key), source_(source),
        records_per_frame_(records_per_frame) {}

  // Drives the replica at `host` from *acked_lsn to the store's last_lsn():
  // chunked deltas, or one wholesale snapshot(last_lsn()) when `wholesale`
  // is set or *acked_lsn predates the compaction horizon. A forced
  // wholesale lands only when last_lsn() is above *acked_lsn (the replica
  // re-acks an older snapshot as stale); the caller appends a record first
  // if it is not. Emits kPropShip per frame and stops at the first failed
  // or regressive ack, leaving *acked_lsn at the last acknowledged prefix.
  // True once the replica acked last_lsn().
  bool CatchUp(uint32_t host, uint64_t* acked_lsn, bool wholesale, const SnapshotFn& snapshot,
               CycleReport& report);

 private:
  // The sealed delta frame for (from, records]: the last one sealed when
  // its window and the store's history match, else a fresh one that
  // replaces it. Replicas at the same position get the same bytes, so one
  // write propagated to N replicas is encoded and MAC'd once.
  const kerb::Bytes& SealDelta(uint64_t from, std::span<const WalRecord> records,
                               CycleReport& report);

  struct SealedDelta {
    uint64_t history = 0;  // KStore::history() when sealed
    uint64_t from = 0;
    uint64_t to = 0;       // 0: nothing sealed yet (a delta's `to` is >= 1)
    kerb::Bytes frame;
  };

  ksim::Network* net_;
  KStore* store_;
  kcrypto::DesKey key_;
  ksim::NetAddress source_;
  uint32_t records_per_frame_;
  SealedDelta last_delta_;
};

}  // namespace kstore

#endif  // SRC_STORE_KPROP_H_
