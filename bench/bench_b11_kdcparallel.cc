// B11 — KDC serving fast path: handler-level throughput, single and parallel.
//
// Unlike B7, which times the full client round trip (client-side request
// encode + network hop + KDC + client-side reply decode), these benches
// pre-encode one valid request and hand it straight to the KdcCore5 handler,
// isolating the serving cost the PR-2 fast path optimises: sharded principal
// lookups, the per-context derived-key cache, and the allocation-free encode
// path. BM_KdcParallel{As,Tgs} then drive the same handler from a worker
// pool (one KdcContext per worker) to measure multi-threaded serving;
// the *Env variants size the pool from KERB_KDC_THREADS.
//
// Replaying one pre-encoded request is sound here: the simulation clock
// never advances during the loop (preauth timestamps stay fresh) and the
// Draft 3 TGS keeps no replay cache — itself one of the paper's points.

#include "bench/bench_util.h"
#include "src/attacks/kdcload.h"
#include "src/attacks/testbed5.h"
#include "src/crypto/checksum.h"
#include "src/crypto/str2key.h"
#include "src/krb5/enclayer.h"

namespace {

using kattack::Testbed5;
using kattack::Testbed5Config;

void PrintExperimentReport() {
  kbench::Header("B11", "KDC serving fast path: handler-level and parallel throughput");
  kbench::Line("  BM_Kdc{AsBare,AsPreauth,Tgs} time KdcCore5 handlers on pre-encoded");
  kbench::Line("  requests (no client-side work). BM_KdcParallel* add a worker pool;");
  kbench::Line("  the Env variants honour KERB_KDC_THREADS.");
}

// A testbed plus one pre-encoded request per exchange, built once. The
// request bytes are produced exactly the way Client5 produces them.
struct KdcBenchSetup {
  explicit KdcBenchSetup(bool preauth) : bed(MakeConfig(preauth)) {
    const ksim::Time now = bed.world().MakeHostClock().Now();
    const krb5::Principal alice = bed.alice_principal();
    const kcrypto::DesKey client_key =
        kcrypto::StringToKey(Testbed5::kAlicePassword, alice.Salt());
    kcrypto::Prng prng(0x5eedb11);

    krb5::AsRequest5 as_req;
    as_req.client = alice;
    as_req.service_realm = bed.realm;
    as_req.lifetime = 4 * ksim::kHour;
    as_req.nonce = prng.NextU64();
    if (preauth) {
      kenc::TlvMessage pre(krb5::kMsgPreauth);
      pre.SetU64(krb5::tag::kNonce, as_req.nonce);
      pre.SetU64(krb5::tag::kTimestamp, static_cast<uint64_t>(now));
      as_req.padata = krb5::SealTlv(client_key, pre, krb5::EncLayerConfig{}, prng);
    }
    as_request.src = Testbed5::kAliceAddr;
    as_request.dst = Testbed5::kAsAddr;
    as_request.payload = as_req.ToTlv().Encode();
    as_request.sent_at = now;

    // One real AS exchange yields the TGT and session key for the TGS request.
    krb4::KdcContext setup_ctx(prng.Fork());
    auto as_reply = bed.kdc().HandleAs(as_request, setup_ctx);
    auto as_tlv = kenc::TlvMessage::DecodeExpecting(krb5::kMsgAsRep, as_reply.value());
    auto rep = krb5::AsReply5::FromTlv(as_tlv.value());
    auto part_tlv = krb5::UnsealTlv(client_key, krb5::kMsgEncAsRepPart,
                                    rep.value().sealed_enc_part, krb5::EncLayerConfig{});
    auto part = krb5::EncAsRepPart5::FromTlv(part_tlv.value());
    kcrypto::DesKey tgs_session(part.value().tgs_session_key);

    krb5::TgsRequest5 tgs_req;
    tgs_req.service = bed.mail_principal();
    tgs_req.lifetime = ksim::kHour;
    tgs_req.nonce = prng.NextU64();
    tgs_req.tgt_realm = bed.realm;
    tgs_req.sealed_tgt = rep.value().sealed_tgt;
    krb5::Authenticator5 auth;
    auth.client = alice;
    auth.timestamp = now;
    auth.checksum_type = kcrypto::ChecksumType::kCrc32;
    auth.request_checksum = kcrypto::ComputeChecksum(
        kcrypto::ChecksumType::kCrc32, tgs_req.ChecksumInput(), tgs_session);
    tgs_req.sealed_authenticator =
        auth.Seal(tgs_session, krb5::EncLayerConfig{}, prng);
    tgs_request.src = Testbed5::kAliceAddr;
    tgs_request.dst = Testbed5::kTgsAddr;
    tgs_request.payload = tgs_req.ToTlv().Encode();
    tgs_request.sent_at = now;
  }

  static Testbed5Config MakeConfig(bool preauth) {
    Testbed5Config config;
    config.kdc_policy.require_preauth = preauth;
    config.client_options.use_preauth = preauth;
    return config;
  }

  Testbed5 bed;
  ksim::Message as_request;
  ksim::Message tgs_request;
};

KdcBenchSetup& BareSetup() {
  static KdcBenchSetup setup(false);
  return setup;
}

KdcBenchSetup& PreauthSetup() {
  static KdcBenchSetup setup(true);
  return setup;
}

void RunHandlerBenchmark(benchmark::State& state, KdcBenchSetup& setup,
                         const ksim::Message& request, bool tgs) {
  krb5::KdcCore5& core = setup.bed.kdc();
  krb4::KdcContext ctx(kcrypto::Prng(0xb11c0de));
  for (auto _ : state) {
    auto reply = tgs ? core.HandleTgs(request, ctx) : core.HandleAs(request, ctx);
    if (!reply.ok()) {
      state.SkipWithError(reply.error().detail.c_str());
      return;
    }
    benchmark::DoNotOptimize(reply.value().data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}

void BM_KdcAsBare(benchmark::State& state) {
  RunHandlerBenchmark(state, BareSetup(), BareSetup().as_request, false);
}
BENCHMARK(BM_KdcAsBare)->Unit(benchmark::kMicrosecond);

void BM_KdcAsPreauth(benchmark::State& state) {
  RunHandlerBenchmark(state, PreauthSetup(), PreauthSetup().as_request, false);
}
BENCHMARK(BM_KdcAsPreauth)->Unit(benchmark::kMicrosecond);

void BM_KdcTgs(benchmark::State& state) {
  RunHandlerBenchmark(state, BareSetup(), BareSetup().tgs_request, true);
}
BENCHMARK(BM_KdcTgs)->Unit(benchmark::kMicrosecond);

// Worker-pool variants. Each timed iteration dispatches a fixed batch per
// worker through RunKdcLoad; items/sec is computed against wall-clock time
// (UseRealTime) so the scaling curve reflects serving throughput, not
// summed CPU time. The per-worker count must dwarf the fixed thread-spawn
// cost (hundreds of µs on small boxes): at the old value of 64 the spawn
// overhead dominated and made every multi-worker point read slower than
// one worker regardless of serving cost.
constexpr uint64_t kRequestsPerWorker = 2048;

void RunParallelBenchmark(benchmark::State& state, unsigned threads, bool tgs) {
  KdcBenchSetup& setup = BareSetup();
  krb5::KdcCore5& core = setup.bed.kdc();
  const ksim::Message& request = tgs ? setup.tgs_request : setup.as_request;
  kattack::KdcHandler handler = [&core, tgs](const ksim::Message& msg,
                                             krb4::KdcContext& ctx) {
    return tgs ? core.HandleTgs(msg, ctx) : core.HandleAs(msg, ctx);
  };
  int64_t total = 0;
  for (auto _ : state) {
    auto result =
        kattack::RunKdcLoad(handler, request, threads, kRequestsPerWorker, 0x5eed + threads);
    if (result.requests_failed != 0) {
      state.SkipWithError("KDC rejected requests under load");
      return;
    }
    total += static_cast<int64_t>(result.requests_ok);
  }
  state.counters["threads"] = threads;
  state.SetItemsProcessed(total);
}

void BM_KdcParallelAs(benchmark::State& state) {
  RunParallelBenchmark(state, static_cast<unsigned>(state.range(0)), false);
}
BENCHMARK(BM_KdcParallelAs)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

void BM_KdcParallelTgs(benchmark::State& state) {
  RunParallelBenchmark(state, static_cast<unsigned>(state.range(0)), true);
}
BENCHMARK(BM_KdcParallelTgs)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

void BM_KdcParallelAsEnv(benchmark::State& state) {
  RunParallelBenchmark(state, kattack::KdcWorkerThreads(), false);
}
BENCHMARK(BM_KdcParallelAsEnv)->UseRealTime()->Unit(benchmark::kMillisecond);

void BM_KdcParallelTgsEnv(benchmark::State& state) {
  RunParallelBenchmark(state, kattack::KdcWorkerThreads(), true);
}
BENCHMARK(BM_KdcParallelTgsEnv)->UseRealTime()->Unit(benchmark::kMillisecond);

}  // namespace

KERB_BENCH_MAIN()
