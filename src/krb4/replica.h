// KDC replica set, for either protocol: one primary plus N read-only slaves.
//
// The paper's availability story, made concrete: "there are several slave
// Kerberos servers which can respond to ticket requests", with database
// changes flowing master → slaves by periodic transfer (kprop). The primary
// owns the authoritative database, journaled through the kstore durability
// subsystem (src/store); each slave starts from a snapshot copy and serves
// AS/TGS requests at its own derived address (primary host + 1 + index,
// same ports). Registrations made on the primary after construction reach
// the slaves only through Propagate() — one kprop cycle shipping
// authenticated WAL deltas over the simulated network, exactly the real
// system's propagation lag, which several experiments depend on noticing.
//
// Propagation applies records through the slave store's shard locks, so a
// cycle is safe while serving workers read concurrently (the old wholesale
// database assignment raced them). A zero-slave set builds none of this
// machinery and is byte-identical to a standalone KDC.
//
// Clients fail over by endpoint order (primary first, slaves after), which
// AttachClient wires up. `Kdc` is a KdcHost (src/krb4/kdc.h): Kdc4 here,
// krb5::Kdc5 as krb5::KdcReplicaSet5.

#ifndef SRC_KRB4_REPLICA_H_
#define SRC_KRB4_REPLICA_H_

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/krb4/kdc.h"
#include "src/krb4/kdclink.h"
#include "src/krb4/kdcstore.h"

namespace krb4 {

template <class Kdc>
class KdcReplicaSet {
 public:
  // Forks one PRNG stream per slave off `prng` before seeding the primary
  // with what remains, so a zero-slave set drives the primary with the
  // exact stream a bare KDC would see.
  KdcReplicaSet(ksim::Network* net, const ksim::NetAddress& as_addr,
                const ksim::NetAddress& tgs_addr, ksim::HostClock clock, std::string realm,
                KdcDatabase db, kcrypto::Prng prng, int slaves,
                typename Kdc::Options options = {})
      : as_endpoints_{as_addr}, tgs_endpoints_{tgs_addr} {
    for (int i = 0; i < slaves; ++i) {
      const ksim::NetAddress slave_as{as_addr.host + 1 + static_cast<uint32_t>(i), as_addr.port};
      const ksim::NetAddress slave_tgs{tgs_addr.host + 1 + static_cast<uint32_t>(i),
                                       tgs_addr.port};
      as_endpoints_.push_back(slave_as);
      tgs_endpoints_.push_back(slave_tgs);
      slaves_.push_back(std::make_unique<Kdc>(net, slave_as, slave_tgs, clock, realm, db,
                                              prng.Fork(), options));
    }
    primary_ = std::make_unique<Kdc>(net, as_addr, tgs_addr, clock, std::move(realm),
                                     std::move(db), prng, options);
    if (!slaves_.empty()) {
      propagation_ = std::make_unique<ReplicaPropagation>(net, primary_->realm(),
                                                          &primary_->database(), as_addr.host);
      for (size_t i = 0; i < slaves_.size(); ++i) {
        propagation_->AddSlave(as_endpoints_[i + 1].host, &slaves_[i]->database());
      }
    }
  }

  Kdc& primary() { return *primary_; }
  Kdc& slave(int i) { return *slaves_.at(static_cast<size_t>(i)); }
  int slave_count() const { return static_cast<int>(slaves_.size()); }

  // One kprop cycle: ships the primary's WAL delta (or a wholesale
  // snapshot, when a slave predates the compaction horizon) to every
  // slave. No-op with zero slaves.
  void Propagate() {
    if (propagation_ != nullptr) {
      propagation_->Propagate();
    }
  }

  // Registers the slave endpoints on a client's failover lists (a Client4
  // or a krb5::Client5).
  void AttachClient(KdcLink& client) const {
    for (size_t i = 1; i < as_endpoints_.size(); ++i) {
      client.AddSlaveKdc(as_endpoints_[i], tgs_endpoints_[i]);
    }
  }

  // The durable-store machinery; null with zero slaves.
  ReplicaPropagation* propagation() { return propagation_.get(); }

 private:
  std::unique_ptr<Kdc> primary_;
  std::vector<std::unique_ptr<Kdc>> slaves_;
  std::vector<ksim::NetAddress> as_endpoints_;   // primary first
  std::vector<ksim::NetAddress> tgs_endpoints_;  // primary first
  std::unique_ptr<ReplicaPropagation> propagation_;
};

using KdcReplicaSet4 = KdcReplicaSet<Kdc4>;

}  // namespace krb4

#endif  // SRC_KRB4_REPLICA_H_
