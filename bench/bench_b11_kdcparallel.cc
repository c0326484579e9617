// B11 — KDC serving fast path: handler-level throughput, single and parallel.
//
// Unlike B7, which times the full client round trip (client-side request
// encode + network hop + KDC + client-side reply decode), these benches
// pre-encode one valid request and hand it straight to the KdcCore5 handler
// (the KdcCore4 one in BM_Kdc4{As,Tgs}), isolating the serving cost: sharded
// principal lookups, the per-context derived-key cache, the seals and the
// allocation-free encode path. BM_KdcParallel{As,Tgs} then drive the V5
// handler from a worker pool (one KdcContext per worker) to measure
// multi-threaded serving; the *Env variants size the pool from
// KERB_KDC_THREADS.
//
// Replaying one pre-encoded request is sound here: the simulation clock
// never advances during the loop (preauth timestamps stay fresh) and the
// Draft 3 TGS keeps no replay cache — itself one of the paper's points.

#include <cstdlib>
#include <span>
#include <vector>

#include "bench/bench_util.h"
#include "src/attacks/kdcload.h"
#include "src/attacks/testbed.h"
#include "src/attacks/testbed5.h"
#include "src/crypto/checksum.h"
#include "src/crypto/str2key.h"
#include "src/krb5/enclayer.h"

namespace {

using kattack::Testbed5;
using kattack::Testbed5Config;

void PrintExperimentReport() {
  kbench::Header("B11", "KDC serving fast path: handler-level and parallel throughput");
  kbench::Line("  BM_Kdc{AsBare,AsPreauth,Tgs,TgsUnsealed} time KdcCore5 handlers on pre-encoded");
  kbench::Line("  requests (no client-side work), BM_Kdc4{As,Tgs} the KdcCore4 ones.");
  kbench::Line("  BM_KdcParallel* add a worker pool; the Env variants honour");
  kbench::Line("  KERB_KDC_THREADS.");
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
      krb5::Preauth5 pre;
      pre.nonce = as_req.nonce;
      pre.timestamp = now;
      as_req.padata = krb5::Seal(client_key, pre, krb5::EncLayerConfig{}, prng);
    }
    as_request.src = Testbed5::kAliceAddr;
    as_request.dst = Testbed5::kAsAddr;
    as_request.payload = kenc::Encode(as_req);
    as_request.sent_at = now;

    krb4::KdcContext setup_ctx(prng.Fork());
    tgs_request = MintTgsRequest(setup_ctx, prng);
  }

  // One real AS exchange through `ctx` yields a TGT and its session key;
  // returns a TGS request for the mail service that presents them.
  ksim::Message MintTgsRequest(krb4::KdcContext& ctx, kcrypto::Prng& prng) {
    const ksim::Time now = bed.world().MakeHostClock().Now();
    const krb5::Principal alice = bed.alice_principal();
    const kcrypto::DesKey client_key =
        kcrypto::StringToKey(Testbed5::kAlicePassword, alice.Salt());
    auto as_reply = bed.kdc().HandleAs(as_request, ctx);
    auto rep = kenc::Decode<krb5::AsReply5>(as_reply.value());
    auto part = krb5::Unseal<krb5::EncAsRepPart5>(client_key, rep.value().sealed_enc_part,
                                                  krb5::EncLayerConfig{});
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
    tgs_req.sealed_authenticator = krb5::Seal(tgs_session, auth, krb5::EncLayerConfig{}, prng);
    ksim::Message request;
    request.src = Testbed5::kAliceAddr;
    request.dst = Testbed5::kTgsAddr;
    request.payload = kenc::Encode(tgs_req);
    request.sent_at = now;
    return request;
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

// TGS requests for eight times as many distinct TGTs as a context's memo
// has slots, all minted in a context the timing loop does not use.
const std::vector<ksim::Message>& UnsealedTgsRequests() {
  static const std::vector<ksim::Message> requests = [] {
    kcrypto::Prng prng(0x5eedb12);
    krb4::KdcContext mint_ctx(prng.Fork());
    std::vector<ksim::Message> out;
    for (size_t i = 0; i < 8 * decltype(krb4::KdcContext::tgts5)::kSlots; ++i) {
      out.push_back(BareSetup().MintTgsRequest(mint_ctx, prng));
    }
    return out;
  }();
  return requests;
}

// Serves `requests` round-robin, one per iteration.
void RunHandlerBenchmark(benchmark::State& state, KdcBenchSetup& setup,
                         std::span<const ksim::Message> requests, bool tgs) {
  krb5::KdcCore5& core = setup.bed.kdc();
  krb4::KdcContext ctx(kcrypto::Prng(0xb11c0de));
  size_t next = 0;
  for (auto _ : state) {
    const ksim::Message& request = requests[next];
    next = next + 1 == requests.size() ? 0 : next + 1;
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
  RunHandlerBenchmark(state, BareSetup(), {&BareSetup().as_request, 1}, false);
}
BENCHMARK(BM_KdcAsBare)->Unit(benchmark::kMicrosecond);

void BM_KdcAsPreauth(benchmark::State& state) {
  RunHandlerBenchmark(state, PreauthSetup(), {&PreauthSetup().as_request, 1}, false);
}
BENCHMARK(BM_KdcAsPreauth)->Unit(benchmark::kMicrosecond);

// One TGT, so every iteration after the first hits the context's TGT memo.
void BM_KdcTgs(benchmark::State& state) {
  RunHandlerBenchmark(state, BareSetup(), {&BareSetup().tgs_request, 1}, true);
}
BENCHMARK(BM_KdcTgs)->Unit(benchmark::kMicrosecond);

// More distinct TGTs than the memo holds, cycled: every iteration unseals
// its TGT, the cost a hit in BM_KdcTgs skips.
void BM_KdcTgsUnsealed(benchmark::State& state) {
  RunHandlerBenchmark(state, BareSetup(), UnsealedTgsRequests(), true);
}
BENCHMARK(BM_KdcTgsUnsealed)->Unit(benchmark::kMicrosecond);

// The same handler-level timing for the V4 core (KdcCore4 behind Testbed4's
// KDC): a bare AS request, and a TGS request presenting the TGT alice's
// login obtained. V4 has no AS nonce, and its TGS keeps no replay cache, so
// one pre-encoded request of each replays soundly.
struct Kdc4BenchSetup {
  Kdc4BenchSetup() {
    const ksim::Time now = bed.world().MakeHostClock().Now();
    krb4::AsRequest4 as_req;
    as_req.client = bed.alice_principal();
    as_req.service_realm = bed.realm;
    as_req.lifetime = 8 * ksim::kHour;
    as_request.src = kattack::Testbed4::kAliceAddr;
    as_request.dst = kattack::Testbed4::kAsAddr;
    as_request.payload = krb4::Frame4(krb4::MsgType::kAsRequest, as_req);
    as_request.sent_at = now;

    // Alice's login yields the TGT and session key, built the way Client4
    // builds them.
    if (!bed.alice().Login(kattack::Testbed4::kAlicePassword).ok()) {
      std::abort();
    }
    const krb4::TgsCredentials& creds = *bed.alice().tgs_credentials();
    krb4::Authenticator4 auth;
    auth.client = bed.alice_principal();
    auth.client_addr = kattack::Testbed4::kAliceAddr.host;
    auth.timestamp = now;
    krb4::TgsRequest4 tgs_req;
    tgs_req.service = bed.mail_principal();
    tgs_req.sealed_tgt = creds.sealed_tgt;
    tgs_req.sealed_auth = krb4::Seal(creds.session_key, auth);
    tgs_req.lifetime = ksim::kHour;
    tgs_request.src = kattack::Testbed4::kAliceAddr;
    tgs_request.dst = kattack::Testbed4::kTgsAddr;
    tgs_request.payload = krb4::Frame4(krb4::MsgType::kTgsRequest, tgs_req);
    tgs_request.sent_at = now;
  }

  kattack::Testbed4 bed;
  ksim::Message as_request;
  ksim::Message tgs_request;
};

void RunKdc4Benchmark(benchmark::State& state, bool tgs) {
  static Kdc4BenchSetup setup;
  krb4::KdcCore4& core = setup.bed.kdc();
  const ksim::Message& request = tgs ? setup.tgs_request : setup.as_request;
  krb4::KdcContext ctx(kcrypto::Prng(0xb11c0d4));
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

void BM_Kdc4As(benchmark::State& state) { RunKdc4Benchmark(state, false); }
BENCHMARK(BM_Kdc4As)->Unit(benchmark::kMicrosecond);

void BM_Kdc4Tgs(benchmark::State& state) { RunKdc4Benchmark(state, true); }
BENCHMARK(BM_Kdc4Tgs)->Unit(benchmark::kMicrosecond);

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
