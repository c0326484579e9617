// B15 — the admin plane: protected password-change cost and rotation
// availability under chaos.
//
// Two quantitative questions about the PR-8 kadmin subsystem:
//
//   * What does one protected password change cost? The full sealed
//     round-trip — admin ticket, fresh authenticator, checksummed body,
//     sealed verdict — measured handler-to-handler on a clean simulated
//     network (BM_AdminChangePassword), with the read-only kvno query as
//     the floor (BM_AdminGetKvno).
//   * How much availability does live rotation cost the realm? The B15
//     rotation study (src/attacks/rotation.h) rotates service keys and
//     changes passwords WHILE serving traffic through a faulty network;
//     BM_RotationStudy sweeps the fault rate and exports old-ticket
//     goodput — the drain-window guarantee bench_baseline.py records.

#include <memory>
#include <string>

#include "bench/bench_util.h"
#include "src/admin/kadmin.h"
#include "src/attacks/rotation.h"
#include "src/attacks/testbed.h"

namespace {

using kattack::Testbed4;

struct AdminBench {
  AdminBench()
      : bed([] {
          kattack::TestbedConfig config;
          config.enable_kadmin = true;
          return config;
        }()) {
    oper = bed.MakeClient(bed.oper_principal(), Testbed4::kOperAddr);
    if (!oper->Login(Testbed4::kOperPassword).ok()) {
      std::abort();
    }
    admin = bed.MakeAdminClient(*oper);
  }

  Testbed4 bed;
  std::unique_ptr<krb4::Client4> oper;
  std::unique_ptr<kadmin::AdminClient> admin;
};

void PrintExperimentReport() {
  kbench::Header("B15", "admin plane under chaos: rotation with live traffic");
  kbench::Line("  Rotations and password changes run mid-sweep while an old-ticket");
  kbench::Line("  holder keeps calling the rotated service. Hard failures (a terminal");
  kbench::Line("  verdict against a valid old ticket, or a half-applied change) must");
  kbench::Line("  stay zero at every fault rate; corruption-rate payload hits are the");
  kbench::Line("  paper's plaintext-payload gap, counted separately.");
  kbench::Line("");
  kbench::Line("  rate   old-ticket ok   admin applied   drain unseals   hard   payload");
  kattack::RotationConfig config;
  config.retry.max_attempts = 8;
  for (double rate : {0.0, 0.10, 0.20, 0.30}) {
    config.drop = config.duplicate = rate;
    config.reorder = rate / 2;
    config.corrupt = rate / 3;
    kattack::RotationReport r = kattack::RunRotationStudy(config);
    char row[160];
    std::snprintf(row, sizeof(row),
                  "  %3.0f%%      %2llu/%llu           %llu/%llu            %4llu        %llu       %llu",
                  rate * 100, (unsigned long long)r.old_ticket_successes,
                  (unsigned long long)r.old_ticket_calls,
                  (unsigned long long)(r.changes_applied + r.rotations_applied),
                  (unsigned long long)(r.changes_attempted + r.rotations_attempted),
                  (unsigned long long)r.old_key_accepts,
                  (unsigned long long)(r.old_ticket_hard_failures + r.fresh_hard_failures +
                                       r.admin_hard_failures),
                  (unsigned long long)r.payload_corruptions);
    kbench::Line(row);
  }
}

// Virtual time between two admin calls, as cluster_churn spaces its writes
// (and BM_ClusterWrite in bench_b16): the server's replay and ack caches
// then expire entries and hold what a deployment's would, not every request
// of the run.
constexpr ksim::Duration kCallSpacing = 20 * ksim::kMillisecond;

// One protected password change: ticket + authenticator + checksummed body
// out, sealed verdict back, key ring rotated under the target.
void BM_AdminChangePassword(benchmark::State& state) {
  AdminBench b;
  const krb4::Principal bob = b.bed.bob_principal();
  uint64_t i = 0;
  for (auto _ : state) {
    const std::string pw = "Bench_Pw_" + std::to_string(i++) + "!";
    auto ack = b.admin->ChangePassword(bob, pw);
    if (!ack.ok()) {
      state.SkipWithError("password change denied");
      return;
    }
    benchmark::DoNotOptimize(ack.value().kvno);
    b.bed.world().clock().Advance(kCallSpacing);
  }
  state.SetItemsProcessed(static_cast<int64_t>(i));
}
BENCHMARK(BM_AdminChangePassword);

// The read-only floor: same sealed protocol, no database mutation.
void BM_AdminGetKvno(benchmark::State& state) {
  AdminBench b;
  const krb4::Principal bob = b.bed.bob_principal();
  uint64_t n = 0;
  for (auto _ : state) {
    auto ack = b.admin->GetKvno(bob);
    if (!ack.ok()) {
      state.SkipWithError("kvno query denied");
      return;
    }
    benchmark::DoNotOptimize(ack.value().kvno);
    b.bed.world().clock().Advance(kCallSpacing);
    ++n;
  }
  state.SetItemsProcessed(static_cast<int64_t>(n));
}
BENCHMARK(BM_AdminGetKvno);

// The full rotation study at one fault rate; exports old-ticket goodput
// (the drain-window availability number) and the admin-plane apply rate.
void BM_RotationStudy(benchmark::State& state) {
  kattack::RotationConfig config;
  const double rate = static_cast<double>(state.range(0)) / 100.0;
  config.drop = config.duplicate = rate;
  config.reorder = rate / 2;
  config.corrupt = rate / 3;
  config.retry.max_attempts = 8;

  uint64_t old_ok = 0;
  uint64_t old_calls = 0;
  uint64_t applied = 0;
  uint64_t attempted = 0;
  for (auto _ : state) {
    config.seed = 0xb15c0de + state.iterations();  // fresh schedule per run
    kattack::RotationReport report = kattack::RunRotationStudy(config);
    if (!kattack::RotationInvariantsHold(report)) {
      state.SkipWithError("rotation invariant violated");
      return;
    }
    old_ok += report.old_ticket_successes;
    old_calls += report.old_ticket_calls;
    applied += report.changes_applied + report.rotations_applied;
    attempted += report.changes_attempted + report.rotations_attempted;
  }
  state.counters["fault_pct"] = static_cast<double>(state.range(0));
  state.counters["old_ticket_goodput_pct"] =
      old_calls ? 100.0 * static_cast<double>(old_ok) / static_cast<double>(old_calls) : 0.0;
  state.counters["admin_applied_pct"] =
      attempted ? 100.0 * static_cast<double>(applied) / static_cast<double>(attempted) : 0.0;
  state.SetItemsProcessed(static_cast<int64_t>(old_ok));
}
BENCHMARK(BM_RotationStudy)
    ->Arg(0)
    ->Arg(10)
    ->Arg(20)
    ->Arg(30)
    ->Unit(benchmark::kMillisecond);

}  // namespace

KERB_BENCH_MAIN();
