#include "src/attacks/chaos.h"

#include <limits>
#include <string>

#include "src/attacks/testbed.h"
#include "src/attacks/testbed5.h"
#include "src/common/bytes.h"

namespace kattack {

namespace {

ksim::FaultPlan PlanFor(const ChaosConfig& config) {
  ksim::FaultPlan plan;
  plan.link.drop_request = config.drop;
  plan.link.drop_reply = config.drop;
  plan.link.duplicate_request = config.duplicate;
  plan.link.reorder_request = config.reorder;
  plan.link.corrupt_request = config.corrupt;
  plan.link.corrupt_reply = config.corrupt;
  plan.link.delay = config.delay;
  plan.link.delay_jitter = config.delay_jitter;
  return plan;
}

void Classify(kerb::ErrorCode code, ChaosReport& report) {
  if (code == kerb::ErrorCode::kInternal) {
    ++report.internal_errors;
  } else {
    ++report.failed_closed;
  }
}

// The study over either testbed (Testbed4 or Testbed5): alice logs in and
// makes `config.exchanges` mail calls through `call_mail`, each compared
// against the honest `expected` payload, while the primary KDC blacks out
// over the middle third of the schedule when configured. The loop index,
// not wall time, decides those boundaries, so a run is deterministic.
template <typename Bed, typename CallFn>
ChaosReport RunStudy(const ChaosConfig& config, Bed& bed, CallFn call_mail,
                     const std::string& expected) {
  ChaosReport report;
  ksim::SimClock& clock = bed.world().clock();
  ksim::FaultyNetwork* faults = bed.world().faults();
  const uint32_t kdc_host = Bed::kAsAddr.host;
  bool logged_in = false;
  for (int i = 0; i < config.exchanges; ++i) {
    if (config.primary_blackout && faults != nullptr) {
      if (i == config.exchanges / 3) {
        faults->plan().blackouts.push_back(
            ksim::Blackout{kdc_host, 0, std::numeric_limits<ksim::Time>::max()});
      } else if (i == 2 * config.exchanges / 3) {
        faults->plan().blackouts.clear();
      }
    }
    ++report.attempted;

    // Periodically start a fresh session so AS exchanges stay in the
    // workload (and exercise the reply cache) throughout the run.
    if (i > 0 && i % 5 == 0) logged_in = false;

    if (!logged_in) {
      ++report.logins;
      bed.alice().Logout();
      kerb::Status st = bed.alice().Login(Bed::kAlicePassword);
      if (!st.ok()) {
        // The whole exchange fails closed at the login step.
        Classify(st.code(), report);
        clock.Advance(2 * ksim::kSecond);
        continue;
      }
      logged_in = true;
    }

    kerb::Result<kerb::Bytes> reply = call_mail();
    if (reply.ok()) {
      if (kerb::ToString(reply.value()) == expected) {
        ++report.succeeded;
      } else {
        ++report.bad_successes;  // accepted bytes nobody honest sent
      }
    } else {
      Classify(reply.code(), report);
    }
    clock.Advance(2 * ksim::kSecond);
  }

  const int slaves = bed.kdc_replicas().slave_count();
  if (faults != nullptr) {
    report.net = faults->stats();
    report.schedule_digest = faults->schedule_digest();
    report.kdc_divergences = faults->divergences_at(kdc_host);
    for (int i = 0; i < slaves; ++i) {
      report.kdc_divergences += faults->divergences_at(kdc_host + 1 + static_cast<uint32_t>(i));
    }
  }
  report.kdc_reply_cache_hits = bed.kdc().reply_cache_hits();
  for (int i = 0; i < slaves; ++i) {
    report.kdc_reply_cache_hits += bed.kdc_replicas().slave(i).reply_cache_hits();
  }
  report.retry = bed.alice().retry_stats();
  return report;
}

}  // namespace

ChaosReport RunChaosStudy4(const ChaosConfig& config) {
  TestbedConfig tb;
  tb.seed = config.seed;
  tb.faults = PlanFor(config);
  tb.kdc_slaves = config.kdc_slaves;
  tb.client_retry = config.retry;
  tb.kdc_reply_cache_window = config.kdc_reply_cache_window;
  tb.server_replay_cache = config.server_replay_cache;
  Testbed4 bed(tb);
  return RunStudy(
      config, bed,
      [&] {
        return bed.alice().CallService(Testbed4::kMailAddr, bed.mail_principal(),
                                       /*want_mutual=*/true);
      },
      "You have 3 messages.");
}

ChaosReport RunChaosStudy5(const ChaosConfig& config) {
  Testbed5Config tb;
  tb.seed = config.seed;
  tb.faults = PlanFor(config);
  tb.kdc_slaves = config.kdc_slaves;
  tb.client_retry = config.retry;
  tb.kdc_policy.reply_cache_window = config.kdc_reply_cache_window;
  tb.server_options.replay_cache = config.server_replay_cache;
  Testbed5 bed(tb);
  return RunStudy(
      config, bed,
      [&]() -> kerb::Result<kerb::Bytes> {
        auto result = bed.alice().CallService(Testbed5::kMailAddr, bed.mail_principal(),
                                              /*want_mutual=*/true);
        if (!result.ok()) return result.error();
        return std::move(result).value().app_reply;
      },
      "mail-ok: mail-check");
}

}  // namespace kattack
