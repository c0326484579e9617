// B13 — observability overhead: the kobs layer off, on, and under chaos.
//
// The contract is "zero-overhead when disabled": with no trace installed,
// every instrumented site costs one relaxed-ish atomic load and a predicted
// branch. BM_KdcAsObsOff / BM_KdcAsObsOn time the same handler-level AS
// exchange as B11 with tracing off and on; bench_baseline.py records both
// and the derived overhead percentage into BENCH_PR4.json (acceptance: the
// disabled path within 3% of the PR-2/PR-3 baseline, the enabled path
// whatever it honestly costs). BM_TracedChaos4 shows the layer earning its
// keep: one traced chaos study per iteration, with the trace's counters
// exported as benchmark counters.

#include "bench/bench_util.h"
#include "src/attacks/chaos.h"
#include "src/attacks/testbed5.h"
#include "src/crypto/str2key.h"
#include "src/obs/kobs.h"

namespace {

using kattack::Testbed5;

void PrintExperimentReport() {
  kbench::Header("B13", "kobs tracing overhead: disabled, enabled, and under chaos");
  kbench::Line("  BM_EmitDisabled times the uninstalled fast path (one atomic load).");
  kbench::Line("  BM_KdcAsObs{Off,On} repeat B11's handler-level AS exchange with");
  kbench::Line("  tracing absent vs installed; the delta is the full tracing cost.");
}

void BM_EmitDisabled(benchmark::State& state) {
  if (kobs::Enabled()) {
    state.SkipWithError("a trace is unexpectedly installed");
    return;
  }
  int64_t t = 0;
  for (auto _ : state) {
    kobs::Emit(kobs::kSrcNet, kobs::Ev::kNetCall, t, static_cast<uint64_t>(t), 0);
    benchmark::DoNotOptimize(t++);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_EmitDisabled);

// Testbed plus one pre-encoded AS request, built once (same shape as B11's
// bare setup; duplicated here so B13 stays self-contained).
struct ObsBenchSetup {
  ObsBenchSetup() {
    kcrypto::Prng prng(0x5eedb13);
    krb5::AsRequest5 as_req;
    as_req.client = bed.alice_principal();
    as_req.service_realm = bed.realm;
    as_req.lifetime = 4 * ksim::kHour;
    as_req.nonce = prng.NextU64();
    as_request.src = Testbed5::kAliceAddr;
    as_request.dst = Testbed5::kAsAddr;
    as_request.payload = as_req.ToTlv().Encode();
    as_request.sent_at = bed.world().MakeHostClock().Now();
  }

  Testbed5 bed;
  ksim::Message as_request;
};

ObsBenchSetup& Setup() {
  static ObsBenchSetup setup;
  return setup;
}

void RunAsBenchmark(benchmark::State& state, bool traced) {
  ObsBenchSetup& setup = Setup();
  krb5::KdcCore5& core = setup.bed.kdc();
  krb4::KdcContext ctx(kcrypto::Prng(0xb13c0de));
  kobs::Trace trace;
  if (traced) {
    trace.Install();
  }
  uint64_t since_clear = 0;
  for (auto _ : state) {
    auto reply = core.HandleAs(setup.as_request, ctx);
    if (!reply.ok()) {
      if (traced) {
        trace.Uninstall();
      }
      state.SkipWithError(reply.error().detail.c_str());
      return;
    }
    benchmark::DoNotOptimize(reply.value().data());
    // Bound trace memory: the events themselves are the cost being measured,
    // unbounded growth is not.
    if (traced && ++since_clear == 1024) {
      trace.Clear();
      since_clear = 0;
    }
  }
  if (traced) {
    trace.Uninstall();
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}

void BM_KdcAsObsOff(benchmark::State& state) { RunAsBenchmark(state, false); }
BENCHMARK(BM_KdcAsObsOff)->Unit(benchmark::kMicrosecond);

void BM_KdcAsObsOn(benchmark::State& state) { RunAsBenchmark(state, true); }
BENCHMARK(BM_KdcAsObsOn)->Unit(benchmark::kMicrosecond);

void BM_TracedChaos4(benchmark::State& state) {
  kattack::ChaosConfig config;
  config.exchanges = 20;
  config.drop = 0.05;
  config.duplicate = 0.05;
  uint64_t events = 0, issues = 0, drops = 0, seal_bytes = 0, runs = 0;
  for (auto _ : state) {
    kobs::ScopedTrace trace;
    kattack::ChaosReport report = kattack::RunChaosStudy4(config);
    benchmark::DoNotOptimize(report.succeeded);
    events += trace->events().size();
    issues += trace->Count(kobs::Ev::kKdcIssue);
    drops += trace->Count(kobs::Ev::kNetDropRequest) + trace->Count(kobs::Ev::kNetDropReply) +
             trace->Count(kobs::Ev::kNetDatagramDrop);
    seal_bytes += trace->SumA(kobs::Ev::kSeal);
    ++runs;
  }
  state.counters["trace_events"] = static_cast<double>(events) / runs;
  state.counters["kdc_issues"] = static_cast<double>(issues) / runs;
  state.counters["net_drops"] = static_cast<double>(drops) / runs;
  state.counters["seal_bytes"] = static_cast<double>(seal_bytes) / runs;
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * config.exchanges);
}
BENCHMARK(BM_TracedChaos4)->Unit(benchmark::kMillisecond);

}  // namespace

KERB_BENCH_MAIN()
