#include "src/attacks/kdcload.h"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <thread>
#include <vector>

#include "src/crypto/checksum.h"
#include "src/encoding/io.h"

namespace kattack {

unsigned KdcWorkerThreads() {
  constexpr long kMaxThreads = 256;
  if (const char* env = std::getenv("KERB_KDC_THREADS")) {
    long v = std::strtol(env, nullptr, 10);
    if (v >= 1) {
      return static_cast<unsigned>(std::min(v, kMaxThreads));
    }
  }
  unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : hw;
}

namespace {

// The worker pool both load harnesses share. Each of `threads` workers
// (at least one; worker 0 runs on the calling thread) owns one state, made
// by make_state(master) on the calling thread in worker order, so every
// PRNG stream a state forks is a pure function of (seed, worker index), not
// of scheduling. Each worker then makes `per_worker` calls of op(t, state);
// the pool counts the calls that succeeded and those that failed.
template <typename MakeState, typename Op>
KdcLoadResult RunWorkerPool(unsigned threads, uint64_t per_worker, uint64_t seed,
                            MakeState make_state, Op op) {
  threads = std::max(threads, 1u);
  kcrypto::Prng master(seed);
  std::vector<decltype(make_state(master))> states;
  states.reserve(threads);
  for (unsigned t = 0; t < threads; ++t) {
    states.push_back(make_state(master));
  }

  std::atomic<uint64_t> ok{0};
  auto worker = [&](unsigned t) {
    uint64_t local_ok = 0;
    for (uint64_t i = 0; i < per_worker; ++i) {
      if (op(t, states[t])) {
        ++local_ok;
      }
    }
    ok.fetch_add(local_ok, std::memory_order_relaxed);
  };

  std::vector<std::thread> pool;
  pool.reserve(threads - 1);
  for (unsigned t = 1; t < threads; ++t) {
    pool.emplace_back(worker, t);
  }
  worker(0);
  for (auto& th : pool) {
    th.join();
  }
  return KdcLoadResult{ok.load(), threads * per_worker - ok.load()};
}

}  // namespace

KdcLoadResult RunKdcLoad(const KdcHandler& handler, const ksim::Message& request,
                         unsigned threads, uint64_t requests_per_worker, uint64_t seed) {
  return RunWorkerPool(
      threads, requests_per_worker, seed,
      [](kcrypto::Prng& master) { return krb4::KdcContext(master.Fork()); },
      [&](unsigned, krb4::KdcContext& ctx) { return handler(request, ctx).ok(); });
}

kerb::Result<krb4::ReplyBody4> DoPkLogin4(const KdcHandler& handler,
                                            const krb4::Principal& user,
                                            const kcrypto::DesKey& user_key,
                                            const kcrypto::DhGroup& group, ksim::Time now,
                                            krb4::KdcContext& kdc_ctx,
                                            kcrypto::Prng& client_prng,
                                            const ksim::NetAddress& src) {
  kcrypto::DhKeyPair client_pair = kcrypto::DhGenerate(group, client_prng);

  krb4::AsPkRequest4 req;
  req.client = user;
  req.service_realm = user.realm;
  req.lifetime = 8 * ksim::kHour;
  req.client_pub = client_pair.public_key.ToBytes();
  // Proof of possession: {timestamp, md4(g^a)}K_c. The KDC refuses PK
  // requests without it — see AsPkRequest4 in src/krb4/messages.h.
  kenc::Writer pa;
  pa.PutU64(static_cast<uint64_t>(now));
  pa.PutLengthPrefixed(
      kcrypto::ComputeChecksum(kcrypto::ChecksumType::kMd4, req.client_pub));
  req.sealed_padata = krb4::Seal4(user_key, pa.Take());

  ksim::Message msg;
  msg.src = src;
  msg.payload = krb4::Frame4(krb4::MsgType::kAsPkRequest, req);
  auto reply = handler(msg, kdc_ctx);
  if (!reply.ok()) {
    return reply.error();
  }

  auto framed = krb4::Unframe4(reply.value());
  if (!framed.ok() || framed.value().first != krb4::MsgType::kAsPkReply) {
    return kerb::MakeError(kerb::ErrorCode::kBadFormat, "expected PK AS reply");
  }
  auto rep = kenc::Decode<krb4::AsPkReply4>(framed.value().second);
  if (!rep.ok()) {
    return rep.error();
  }
  kcrypto::BigInt server_pub = kcrypto::BigInt::FromBytes(rep.value().server_pub);
  if (auto valid = kcrypto::ValidateDhPublic(group, server_pub); !valid.ok()) {
    return valid.error();
  }
  kcrypto::DesKey dh_key = kcrypto::DhDeriveKey(
      kcrypto::DhSharedSecret(group, client_pair.private_key, server_pub));
  auto inner = krb4::Unseal4(dh_key, rep.value().sealed_reply);
  if (!inner.ok()) {
    return kerb::MakeError(kerb::ErrorCode::kAuthFailed, "DH layer decryption failed");
  }
  auto plain = krb4::Unseal4(user_key, inner.value());
  if (!plain.ok()) {
    return kerb::MakeError(kerb::ErrorCode::kAuthFailed, "password layer decryption failed");
  }
  return kenc::Decode<krb4::ReplyBody4>(plain.value());
}

PkLoginLoadResult RunPkLoginLoad(const KdcHandler& handler, const krb4::Principal& user,
                                 const kcrypto::DesKey& user_key, const kcrypto::DhGroup& group,
                                 ksim::Time now, unsigned threads, uint64_t logins_per_worker,
                                 uint64_t seed) {
  // The server side's per-thread state and the client's PRNG, forked in
  // that order.
  struct Worker {
    explicit Worker(kcrypto::Prng& master) : ctx(master.Fork()), client_prng(master.Fork()) {}
    krb4::KdcContext ctx;
    kcrypto::Prng client_prng;
  };
  KdcLoadResult counts = RunWorkerPool(
      threads, logins_per_worker, seed, [](kcrypto::Prng& master) { return Worker(master); },
      [&](unsigned t, Worker& w) {
        // Distinct claimed sources per worker keep any reply cache honest.
        const ksim::NetAddress src{0x0a000000u + t, static_cast<uint16_t>(40000 + t)};
        return DoPkLogin4(handler, user, user_key, group, now, w.ctx, w.client_prng, src).ok();
      });
  return PkLoginLoadResult{counts.requests_ok, counts.requests_failed};
}

}  // namespace kattack
