// Experiment B12 — chaos study: the full protocol stack under a faulty
// network.
//
// The paper treats the network as "completely open": packets may be lost,
// duplicated, reordered, corrupted, or delayed, and KDCs go down ("there
// are several slave Kerberos servers which can respond to ticket
// requests"). This harness sweeps seeded fault rates over a live testbed —
// clients logging in, fetching tickets, and calling the mail service with
// mutual authentication — and checks the robustness invariant the rest of
// this PR exists to uphold:
//
//   every exchange either succeeds with exactly the honest payload, or
//   fails closed with a clean protocol error. Never a forged or corrupted
//   acceptance, never an internal error, never a hang, and never a
//   double-issued ticket (a duplicated KDC request answered with different
//   bytes).
//
// Faults, retries, and timeouts all run on the seeded PRNG and the virtual
// clock, so a whole chaos run is a deterministic function of (config, seed)
// — chaos_test replays runs and compares fault-schedule digests.

#ifndef SRC_ATTACKS_CHAOS_H_
#define SRC_ATTACKS_CHAOS_H_

#include <cstdint>

#include "src/sim/faults.h"
#include "src/sim/retry.h"

namespace kattack {

struct ChaosConfig {
  uint64_t seed = 31337;
  int exchanges = 40;  // mail calls attempted (plus the logins they need)

  // Per-call fault probabilities, fed symmetrically into the FaultPlan
  // (drop applies to both request and reply, corrupt likewise).
  double drop = 0;
  double duplicate = 0;
  double reorder = 0;
  double corrupt = 0;
  ksim::Duration delay = 5 * ksim::kMillisecond;
  ksim::Duration delay_jitter = 20 * ksim::kMillisecond;

  // Deployment shape.
  int kdc_slaves = 1;
  bool primary_blackout = false;  // KDC host dark for the middle third
  ksim::RetryPolicy retry;
  ksim::Duration kdc_reply_cache_window = 30 * ksim::kSecond;
  bool server_replay_cache = true;  // authenticator replay detection stays on
};

struct ChaosReport {
  uint64_t attempted = 0;      // mail exchanges the scenario tried
  uint64_t succeeded = 0;      // exact expected payload came back
  uint64_t failed_closed = 0;  // clean protocol error (incl. login failure)
  uint64_t bad_successes = 0;  // accepted reply with wrong bytes — forgery
  uint64_t internal_errors = 0;  // kInternal anywhere — invariant breach
  uint64_t logins = 0;

  // Double-issue accounting: divergences at KDC hosts must be zero when the
  // reply cache is on; divergences elsewhere (app servers without a reply
  // cache) are expected and recorded for contrast.
  uint64_t kdc_divergences = 0;
  uint64_t kdc_reply_cache_hits = 0;

  uint64_t schedule_digest = 0;  // FaultyNetwork's fault-schedule FNV digest
  ksim::FaultyNetwork::Stats net;
  ksim::RetryStats retry;
};

// Drives the V4 testbed (alice against the mail server) through
// `config.exchanges` mutually-authenticated mail calls under the configured
// faults. Deterministic per (config, seed).
ChaosReport RunChaosStudy4(const ChaosConfig& config);

// The same study over the V5 stack (Testbed5, TLV encodings).
ChaosReport RunChaosStudy5(const ChaosConfig& config);

}  // namespace kattack

#endif  // SRC_ATTACKS_CHAOS_H_
