// Golden-trace regression tests for the kobs observability layer.
//
// Each test runs a canonical experiment under an installed trace and pins
// the resulting digest. The digest folds only digest-stable events (wire
// traffic, KDC verdicts, replay-cache admissions, retry decisions), all
// stamped with virtual time, so it is a pure function of the experiment's
// (seed, workload, fault plan) — byte-stable across reruns, machines, and
// KERB_KDC_THREADS values.
//
// If a deliberate protocol or instrumentation change shifts a digest,
// regenerate the constant from the failure message (printed in hex) and
// say so in the commit: a golden digest moving silently is exactly the
// regression class this file exists to catch.

#include <cstdlib>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "src/attacks/chaos.h"
#include "src/attacks/cutpaste.h"
#include "src/attacks/kdcload.h"
#include "src/attacks/replay.h"
#include "src/attacks/retransmit.h"
#include "src/attacks/testbed5.h"
#include "src/crypto/prng.h"
#include "src/obs/kobs.h"

namespace {

// Pinned digests. Regenerate by running this binary and copying the hex
// value from the failure message.
constexpr uint64_t kGoldenE01Replay = 0xad07c607c6895075;
constexpr uint64_t kGoldenE09CutPaste = 0x9e84a7d8457aa830;
constexpr uint64_t kGoldenE16Retransmit = 0x54e38ad9a8e5d957;
constexpr uint64_t kGoldenChaosBlackout = 0x5793bd1144d8254e;

template <typename Fn>
uint64_t TracedDigest(Fn&& fn) {
  kobs::ScopedTrace trace;
  fn();
  EXPECT_GT(trace->events().size(), 0u) << "experiment emitted no events";
  return trace->digest();
}

kattack::ChaosConfig BlackoutChaosConfig() {
  kattack::ChaosConfig config;
  config.seed = 55;
  config.exchanges = 24;
  config.drop = 0.05;
  config.duplicate = 0.08;
  config.primary_blackout = true;
  config.kdc_slaves = 1;
  return config;
}

TEST(GoldenTraceTest, E01ReplayDigestPinnedAndRerunStable) {
  auto run = [] { kattack::RunMailCheckReplayV4(kattack::ReplayScenario{}); };
  uint64_t first = TracedDigest(run);
  uint64_t second = TracedDigest(run);
  EXPECT_EQ(first, second) << "E01 trace digest varies across reruns";
  EXPECT_EQ(first, kGoldenE01Replay) << "actual digest 0x" << std::hex << first;
}

TEST(GoldenTraceTest, E09CutPasteDigestPinnedAndRerunStable) {
  auto run = [] { kattack::RunEncTktInSkeyCutPaste(kattack::CutPasteScenario{}); };
  uint64_t first = TracedDigest(run);
  uint64_t second = TracedDigest(run);
  EXPECT_EQ(first, second) << "E09 trace digest varies across reruns";
  EXPECT_EQ(first, kGoldenE09CutPaste) << "actual digest 0x" << std::hex << first;
}

TEST(GoldenTraceTest, E16RetransmitDigestPinnedAndRerunStable) {
  auto run = [] { kattack::RunRetransmissionStudy(/*fresh_authenticator_per_retry=*/false); };
  uint64_t first = TracedDigest(run);
  uint64_t second = TracedDigest(run);
  EXPECT_EQ(first, second) << "E16 trace digest varies across reruns";
  EXPECT_EQ(first, kGoldenE16Retransmit) << "actual digest 0x" << std::hex << first;
}

TEST(GoldenTraceTest, NdjsonExportByteStableAcrossReruns) {
  auto dump = [] {
    kobs::ScopedTrace trace;
    kattack::RunMailCheckReplayV4(kattack::ReplayScenario{});
    std::ostringstream os;
    trace->WriteNdjson(os);
    return os.str();
  };
  std::string first = dump();
  std::string second = dump();
  EXPECT_FALSE(first.empty());
  EXPECT_EQ(first, second) << "ndjson export varies across reruns";
  // The export ends with the digest trailer.
  EXPECT_NE(first.find("{\"trace\":{\"events\":"), std::string::npos);
}

TEST(GoldenTraceTest, ChaosBlackoutDigestPinnedAcrossRerunsAndThreadEnv) {
  // The acceptance bar: the chaos scenario's digest is identical across
  // reruns and across KERB_KDC_THREADS ∈ {1, 4}. The harness itself runs on
  // the simulation thread, so the env setting exercises the process-wide
  // configuration path rather than worker scheduling — the threaded case is
  // covered end-to-end by KdcLoadDigestIndependentOfWorkerCount below.
  auto run = [] { kattack::RunChaosStudy5(BlackoutChaosConfig()); };

  ASSERT_EQ(setenv("KERB_KDC_THREADS", "1", 1), 0);
  uint64_t with_one = TracedDigest(run);
  uint64_t with_one_again = TracedDigest(run);
  ASSERT_EQ(setenv("KERB_KDC_THREADS", "4", 1), 0);
  uint64_t with_four = TracedDigest(run);
  unsetenv("KERB_KDC_THREADS");

  EXPECT_EQ(with_one, with_one_again) << "chaos digest varies across reruns";
  EXPECT_EQ(with_one, with_four) << "chaos digest varies with KERB_KDC_THREADS";
  EXPECT_EQ(with_one, kGoldenChaosBlackout) << "actual digest 0x" << std::hex << with_one;
}

TEST(GoldenTraceTest, KdcLoadDigestIndependentOfWorkerCount) {
  // A fixed total of 64 identical AS requests served by the worker pool:
  // the digest-stable stream (request + issue verdicts) must not depend on
  // how the pool distributes them. Per-context artifacts (key-cache hits,
  // seal calls) differ with the distribution, which is exactly why they are
  // counter-only.
  auto digest_with_threads = [](unsigned threads) {
    constexpr uint64_t kTotalRequests = 64;
    EXPECT_EQ(setenv("KERB_KDC_THREADS", std::to_string(threads).c_str(), 1), 0);
    EXPECT_EQ(kattack::KdcWorkerThreads(), threads);

    kobs::ScopedTrace trace;
    kattack::Testbed5 bed;
    kcrypto::Prng prng(0x7e57);
    krb5::AsRequest5 as_req;
    as_req.client = bed.alice_principal();
    as_req.service_realm = bed.realm;
    as_req.lifetime = ksim::kHour;
    as_req.nonce = prng.NextU64();
    ksim::Message request;
    request.src = kattack::Testbed5::kAliceAddr;
    request.dst = kattack::Testbed5::kAsAddr;
    request.payload = as_req.ToTlv().Encode();
    request.sent_at = bed.world().MakeHostClock().Now();

    krb5::KdcCore5& core = bed.kdc();
    kattack::KdcHandler handler = [&core](const ksim::Message& msg, krb4::KdcContext& ctx) {
      return core.HandleAs(msg, ctx);
    };
    auto result = kattack::RunKdcLoad(handler, request, kattack::KdcWorkerThreads(),
                                      kTotalRequests / threads, 0xfeed);
    EXPECT_EQ(result.requests_ok, kTotalRequests);
    EXPECT_EQ(result.requests_failed, 0u);
    EXPECT_EQ(trace->Count(kobs::Ev::kKdcAsRequest), kTotalRequests);
    EXPECT_EQ(trace->Count(kobs::Ev::kKdcIssue), kTotalRequests);
    return trace.trace().digest();
  };

  uint64_t with_one = 0;
  uint64_t with_four = 0;
  with_one = digest_with_threads(1);
  uint64_t with_one_again = digest_with_threads(1);
  with_four = digest_with_threads(4);
  unsetenv("KERB_KDC_THREADS");

  EXPECT_EQ(with_one, with_one_again) << "threaded KDC digest varies across reruns";
  EXPECT_EQ(with_one, with_four) << "threaded KDC digest varies with worker count";
}

}  // namespace
