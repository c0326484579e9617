// V5 KDC replica set: one primary plus N read-only slaves.
//
// The same template as the V4 set (krb4::KdcReplicaSet, src/krb4/replica.h;
// see that header for the paper context and the durability/propagation
// design) over Kdc5 hosts: slaves serve from a snapshot of the primary's
// database at derived addresses (primary host + 1 + index), Propagate()
// runs one authenticated kprop cycle over the simulated network, and
// clients fail over primary-first. Inter-realm keys and routes are part of
// policy-time setup, so configure them on every replica before traffic
// starts.

#ifndef SRC_KRB5_REPLICA_H_
#define SRC_KRB5_REPLICA_H_

#include "src/krb4/replica.h"
#include "src/krb5/kdc.h"

namespace krb5 {

using KdcReplicaSet5 = krb4::KdcReplicaSet<Kdc5>;

}  // namespace krb5

#endif  // SRC_KRB5_REPLICA_H_
