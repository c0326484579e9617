// Parallel KDC load harness.
//
// Drives a KdcCore handler from a pool of worker threads, one KdcContext
// per worker — the multi-threaded serving configuration the deterministic
// simulation never exercises (it owns a single context). Used by the
// bench_b11_kdcparallel benchmark and the threaded stress tests.
//
// Thread count comes from KERB_KDC_THREADS when set (mirroring the PR-1
// KERB_CRACK_THREADS convention for the cracking harness), else from
// hardware concurrency.

#ifndef SRC_ATTACKS_KDCLOAD_H_
#define SRC_ATTACKS_KDCLOAD_H_

#include <cstdint>
#include <functional>

#include "src/krb4/kdccore.h"
#include "src/sim/network.h"

namespace kattack {

// KERB_KDC_THREADS (≥ 1, capped at 256) when set, else hardware
// concurrency.
unsigned KdcWorkerThreads();

struct KdcLoadResult {
  uint64_t requests_ok = 0;
  uint64_t requests_failed = 0;
};

using KdcHandler =
    std::function<kerb::Result<kerb::Bytes>(const ksim::Message&, krb4::KdcContext&)>;

// Presents `requests_per_worker` copies of `request` to `handler` from
// `threads` workers, each with its own KdcContext whose PRNG is forked
// deterministically from `seed`. Returns aggregate accept/fail counts.
KdcLoadResult RunKdcLoad(const KdcHandler& handler, const ksim::Message& request,
                         unsigned threads, uint64_t requests_per_worker, uint64_t seed);

// ---------------------------------------------------------------------------
// Bulk public-key preauthenticated logins (V4 shape).

// One complete PK AS exchange against `handler`: generates a fresh client
// DH pair from `client_prng`, frames an AsPkRequest4 carrying the
// mandatory proof-of-possession padata ({timestamp, md4(g^a)}K_c, stamped
// with `now`, the client's view of KDC time), and verifies the reply end
// to end — server public validated, DH layer and password layer unsealed,
// reply body decoded. `src` is the claimed client address.
kerb::Result<krb4::ReplyBody4> DoPkLogin4(const KdcHandler& handler,
                                            const krb4::Principal& user,
                                            const kcrypto::DesKey& user_key,
                                            const kcrypto::DhGroup& group, ksim::Time now,
                                            krb4::KdcContext& kdc_ctx,
                                            kcrypto::Prng& client_prng,
                                            const ksim::NetAddress& src);

struct PkLoginLoadResult {
  uint64_t logins_ok = 0;
  uint64_t logins_failed = 0;
};

// Drives `logins_per_worker` full PK AS exchanges per worker through
// `handler` from `threads` workers. Each worker owns a KdcContext (the
// server side's per-thread state) and a client PRNG, both forked
// deterministically from `seed` on the calling thread. Every login is
// verified end to end as in DoPkLogin4; the result counts verified logins,
// so a throughput number from this harness is also a correctness check.
PkLoginLoadResult RunPkLoginLoad(const KdcHandler& handler, const krb4::Principal& user,
                                 const kcrypto::DesKey& user_key, const kcrypto::DhGroup& group,
                                 ksim::Time now, unsigned threads, uint64_t logins_per_worker,
                                 uint64_t seed);

}  // namespace kattack

#endif  // SRC_ATTACKS_KDCLOAD_H_
