// The admin plane under chaos (experiment B15): live key rotation and
// password changes while the realm serves traffic over a faulty network,
// with kprop delayed or paused and the primary KDC blacking out mid-change.
//
// The invariants (see src/attacks/rotation.h): old-kvno tickets ride out
// rotations with zero hard failures, mutations apply exactly once or fail
// closed, no replica ever holds a half-applied key ring, and the whole run
// is a deterministic function of its config.

#include <gtest/gtest.h>

#include "src/attacks/rotation.h"

namespace kattack {
namespace {

RotationConfig SweepConfig(double rate, uint64_t seed) {
  RotationConfig config;
  config.seed = seed;
  config.drop = rate;
  config.duplicate = rate;
  config.reorder = rate / 2;
  config.corrupt = rate / 3;
  config.retry.max_attempts = 8;
  return config;
}

void CheckInvariants(const RotationReport& r) {
  EXPECT_TRUE(RotationInvariantsHold(r));
  EXPECT_EQ(r.old_ticket_hard_failures, 0u) << "old-kvno ticket got a terminal verdict";
  EXPECT_EQ(r.fresh_hard_failures, 0u);
  EXPECT_EQ(r.admin_hard_failures, 0u) << "legitimate admin op terminally denied";
  EXPECT_EQ(r.kdc_divergences, 0u);
  // Every attempt accounted for: applied or failed closed, nothing lost.
  EXPECT_EQ(r.changes_applied + r.changes_failed_closed, r.changes_attempted);
  EXPECT_EQ(r.rotations_applied + r.rotations_failed_closed, r.rotations_attempted);
  // Post-chaos probes all landed.
  EXPECT_TRUE(r.replay_served_from_cache);
  EXPECT_TRUE(r.stale_replay_rejected);
  EXPECT_TRUE(r.intercept_rejected);
  EXPECT_TRUE(r.tamper_rejected);
  EXPECT_TRUE(r.splice_no_apply);
  EXPECT_TRUE(r.old_password_rejected);
  EXPECT_TRUE(r.new_password_accepted);
  // Consistency held before catch-up, after catch-up, and across a crash.
  EXPECT_TRUE(r.rotation_atomic);
  EXPECT_TRUE(r.replicas_converged);
  EXPECT_TRUE(r.recovery_consistent);
}

void CheckSameRun(const RotationReport& a, const RotationReport& b) {
  EXPECT_EQ(a.schedule_digest, b.schedule_digest);
  EXPECT_EQ(a.old_ticket_successes, b.old_ticket_successes);
  EXPECT_EQ(a.old_ticket_failed_closed, b.old_ticket_failed_closed);
  EXPECT_EQ(a.old_key_accepts, b.old_key_accepts);
  EXPECT_EQ(a.fresh_successes, b.fresh_successes);
  EXPECT_EQ(a.changes_applied, b.changes_applied);
  EXPECT_EQ(a.rotations_applied, b.rotations_applied);
  EXPECT_EQ(a.ack_replays, b.ack_replays);
  EXPECT_EQ(a.bob_kvno, b.bob_kvno);
  EXPECT_EQ(a.mail_kvno, b.mail_kvno);
  EXPECT_EQ(a.net.calls, b.net.calls);
  EXPECT_EQ(a.net.requests_dropped, b.net.requests_dropped);
  EXPECT_EQ(a.net.duplicates_delivered, b.net.duplicates_delivered);
  EXPECT_EQ(a.retry.attempts, b.retry.attempts);
  EXPECT_EQ(a.retry.virtual_wait, b.retry.virtual_wait);
}

TEST(RotationChaosTest, CleanRunEveryRotationLandsAndNothingBreaks) {
  RotationConfig config;  // delays only — a healthy network
  RotationReport r = RunRotationStudy(config);
  CheckInvariants(r);
  // Healthy network: full goodput for the old-ticket holder, and every
  // scheduled admin op applies.
  EXPECT_EQ(r.old_ticket_successes, r.old_ticket_calls);
  EXPECT_EQ(r.old_ticket_calls, 60u);
  EXPECT_EQ(r.fresh_successes, r.fresh_calls);
  EXPECT_EQ(r.changes_applied, 3u);
  EXPECT_EQ(r.rotations_applied, 3u);
  // Three mail rotations happened under the old ticket: the drain window
  // did real work.
  EXPECT_GT(r.old_key_accepts, 0u);
  // bob: 3 changes + the replay-probe change; mail: 3 rotations.
  EXPECT_EQ(r.bob_kvno, 5u);
  EXPECT_EQ(r.mail_kvno, 4u);
}

TEST(RotationChaosTest, SurvivesFaultSweep) {
  for (double rate : {0.10, 0.20, 0.30}) {
    RotationReport r = RunRotationStudy(SweepConfig(rate, 4000 + uint64_t(rate * 100)));
    CheckInvariants(r);
    // Retries keep the realm and the admin plane live under ≤30% faults.
    EXPECT_GT(r.old_ticket_successes, r.old_ticket_calls / 2) << "rate " << rate;
    EXPECT_GE(r.changes_applied, 1u) << "rate " << rate;
    EXPECT_GE(r.rotations_applied, 1u) << "rate " << rate;
    EXPECT_GT(r.old_key_accepts, 0u) << "rate " << rate;
  }
}

TEST(RotationChaosTest, PrimaryBlackoutNeverTouchesOldTicketHolders) {
  RotationConfig config;
  config.seed = 5150;
  config.primary_blackout = true;  // KDC + kadmin host dark, middle third
  config.kdc_slaves = 1;
  config.retry.max_attempts = 6;
  RotationReport r = RunRotationStudy(config);
  CheckInvariants(r);
  // The mail host stays up and the old ticket needs no KDC: goodput is
  // 100% straight through the outage — the availability claim of the
  // drain-window design.
  EXPECT_EQ(r.old_ticket_successes, r.old_ticket_calls);
  // Admin ops scheduled inside the outage fail closed (the kadmin server
  // rides the blacked-out primary); the rest apply.
  EXPECT_GE(r.changes_applied, 1u);
  EXPECT_GE(r.rotations_applied, 1u);
  EXPECT_GT(r.net.blackout_refusals, 0u);
}

TEST(RotationChaosTest, PausedPropagationStaysAtomicAndConverges) {
  RotationConfig config;
  config.seed = 616;
  config.kprop_paused = true;  // no kprop until recovery
  config.drop = 0.15;
  config.duplicate = 0.15;
  config.retry.max_attempts = 8;
  config.kdc_slaves = 2;
  RotationReport r = RunRotationStudy(config);
  // rotation_atomic checked the slaves BEFORE any catch-up cycle: stale is
  // fine, torn is not. replicas_converged then proves catch-up completes.
  CheckInvariants(r);
  EXPECT_GE(r.changes_applied + r.rotations_applied, 2u);
}

TEST(RotationChaosTest, SameConfigSameReport) {
  RotationConfig config = SweepConfig(0.25, 424242);
  config.primary_blackout = true;
  RotationReport first = RunRotationStudy(config);
  RotationReport second = RunRotationStudy(config);
  CheckInvariants(first);
  CheckSameRun(first, second);

  RotationConfig other = config;
  other.seed = 24;
  RotationReport third = RunRotationStudy(other);
  EXPECT_NE(first.schedule_digest, third.schedule_digest);
}

}  // namespace
}  // namespace kattack
