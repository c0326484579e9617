#include "src/sim/retry.h"

#include <algorithm>
#include <cassert>

#include "src/obs/kobs.h"

namespace ksim {

namespace {

// Exponential backoff between failover rounds: min(kBackoffBase << round,
// kBackoffCap), plus deterministic jitter of up to kBackoffJitterPct percent.
constexpr Duration kBackoffBase = 250 * kMillisecond;
constexpr Duration kBackoffCap = 8 * kSecond;
constexpr int64_t kBackoffJitterPct = 25;

}  // namespace

void Exchanger::Wait(Duration d) {
  if (d <= 0) {
    return;
  }
  if (clock_ != nullptr) {
    clock_->Advance(d);
  }
  stats_.virtual_wait += d;
}

Duration Exchanger::BackoffFor(int round) {
  Duration backoff = kBackoffBase;
  for (int i = 0; i < round && backoff < kBackoffCap; ++i) {
    backoff *= 2;
  }
  backoff = std::min(backoff, kBackoffCap);
  // Deterministic jitter in [-jitter, +jitter]: same seed, same schedule.
  const Duration jitter = backoff * kBackoffJitterPct / 100;
  return backoff + static_cast<Duration>(prng_.NextBelow(2 * jitter + 1)) - jitter;
}

kerb::Result<kerb::Bytes> Exchanger::Exchange(const NetAddress& src,
                                              const std::vector<NetAddress>& endpoints,
                                              const Builder& build) {
  assert(!endpoints.empty());
  ++stats_.exchanges;
  kerb::Error last = kerb::MakeError(kerb::ErrorCode::kTransport, "no attempt made");
  const int per_round = static_cast<int>(endpoints.size());
  for (int attempt = 0; attempt < policy_.max_attempts; ++attempt) {
    // Failover ordering: each round walks the list from the primary down.
    const int endpoint = attempt % per_round;
    const int round = attempt / per_round;
    if (attempt > 0 && endpoint == 0) {
      // A full round failed everywhere; back off before hammering again.
      // BackoffFor draws from the PRNG, so it runs unconditionally — the
      // decision stream must not depend on whether a trace is installed.
      Duration backoff = BackoffFor(round - 1);
      kobs::Emit(kobs::kSrcXchg, kobs::Ev::kXchgBackoff, Now(),
                 static_cast<uint64_t>(backoff));
      Wait(backoff);
    }
    ++stats_.attempts;
    kobs::Emit(kobs::kSrcXchg, kobs::Ev::kXchgAttempt, Now(), endpoints[endpoint].host,
               static_cast<uint64_t>(attempt));
    if (endpoint > 0) {
      ++stats_.failovers;
      kobs::Emit(kobs::kSrcXchg, kobs::Ev::kXchgFailover, Now(), endpoints[endpoint].host,
                 static_cast<uint64_t>(attempt));
    }
    kerb::Result<kerb::Bytes> payload = build();
    if (!payload.ok()) {
      return payload.error();  // local construction failure, not transport
    }
    kerb::Result<kerb::Bytes> reply = net_->Call(src, endpoints[endpoint], payload.value());
    if (reply.ok()) {
      ++stats_.successes;
      kobs::Emit(kobs::kSrcXchg, kobs::Ev::kXchgSuccess, Now(), endpoints[endpoint].host,
                 reply.value().size());
      return reply;
    }
    last = reply.error();
    if (!kerb::IsRetryable(last.code)) {
      ++stats_.terminal_failures;
      kobs::Emit(kobs::kSrcXchg, kobs::Ev::kXchgTerminal, Now(),
                 static_cast<uint64_t>(last.code));
      return last;
    }
    // Charge the timeout the client waited before declaring this attempt
    // lost. Advancing virtual time here also timestamps the next attempt's
    // authenticator later than this one's — a fresh build is never a replay.
    Wait(kRetryTimeout);
    if (attempt + 1 < policy_.max_attempts) {
      ++stats_.retries;
      kobs::Emit(kobs::kSrcXchg, kobs::Ev::kXchgRetry, Now(), endpoints[endpoint].host,
                 static_cast<uint64_t>(attempt));
    }
  }
  ++stats_.exhausted;
  kobs::Emit(kobs::kSrcXchg, kobs::Ev::kXchgExhausted, Now(),
             static_cast<uint64_t>(last.code));
  return last;
}

}  // namespace ksim
