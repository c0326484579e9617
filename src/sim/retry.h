// Resilient request/reply exchange: retries, backoff, and KDC failover.
//
// Real Kerberos rode on UDP; the paper notes clients simply retransmitted
// and slave KDCs answered when the master was down. This module is that
// client-side machinery, made deterministic: timeouts and backoff are
// charged to the virtual SimClock and jitter is drawn from a seeded PRNG,
// so a retry schedule is a pure function of (seed, workload, fault plan).
//
// Classification is centralized in kerb::IsRetryable: transport losses and
// in-flight corruption are retried, authoritative rejections (kAuthFailed,
// kReplay, kExpired, ...) return immediately. The caller supplies a builder
// so it can choose retransmission semantics per exchange: KDC requests
// resend identical bytes (the KDC reply cache absorbs duplicates), while
// AP requests build a fresh authenticator per attempt — the paper's fix for
// retransmission tripping the server's replay cache.

#ifndef SRC_SIM_RETRY_H_
#define SRC_SIM_RETRY_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "src/crypto/prng.h"
#include "src/sim/clock.h"
#include "src/sim/network.h"

namespace ksim {

// Virtual time charged to a failed attempt before the client concludes the
// exchange is lost — the retransmission timeout. Between failover rounds
// the client also backs off exponentially, with seeded jitter (retry.cc).
constexpr Duration kRetryTimeout = kSecond;

struct RetryPolicy {
  // Total send attempts per exchange, spread round-robin across the
  // endpoint list (primary first, then slaves — failover ordering). The
  // default of 4 with two endpoints means two rounds through both.
  int max_attempts = 4;
};

struct RetryStats {
  uint64_t exchanges = 0;
  uint64_t attempts = 0;
  uint64_t retries = 0;            // failed retryable attempts that were retried
  uint64_t failovers = 0;          // attempts sent to a non-primary endpoint
  uint64_t successes = 0;
  uint64_t terminal_failures = 0;  // server verdicts, returned immediately
  uint64_t exhausted = 0;          // retry budget spent without success
  Duration virtual_wait = 0;       // total timeout + backoff charged
};

// Drives one logical exchange through retries and failover. One Exchanger
// per client; its PRNG fork supplies jitter without disturbing any other
// random stream.
class Exchanger {
 public:
  // `clock` may be null (no virtual time is charged), but then successive
  // attempts observe the same timestamps — fresh-authenticator retries need
  // the clock to stay distinguishable from replays.
  Exchanger(Network* net, SimClock* clock, kcrypto::Prng jitter_prng, RetryPolicy policy)
      : net_(net), clock_(clock), prng_(jitter_prng), policy_(policy) {}

  // Builds a payload (fresh per attempt — return a stored copy for
  // identical retransmission) and sends it through `endpoints` in failover
  // order until one attempt succeeds, a terminal error is returned, or the
  // attempt budget runs out. A builder failure aborts the exchange.
  using Builder = std::function<kerb::Result<kerb::Bytes>()>;
  kerb::Result<kerb::Bytes> Exchange(const NetAddress& src,
                                     const std::vector<NetAddress>& endpoints,
                                     const Builder& build);

  const RetryStats& stats() const { return stats_; }
  const RetryPolicy& policy() const { return policy_; }

 private:
  void Wait(Duration d);
  Duration BackoffFor(int round);
  Time Now() const { return clock_ != nullptr ? clock_->Now() : 0; }

  Network* net_;
  SimClock* clock_;
  kcrypto::Prng prng_;
  RetryPolicy policy_;
  RetryStats stats_;
};

}  // namespace ksim

#endif  // SRC_SIM_RETRY_H_
