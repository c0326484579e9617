// Unit tests for the fault-injection fabric (src/sim/faults.h) and the
// resilient exchanger (src/sim/retry.h).

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/sim/faults.h"
#include "src/sim/retry.h"
#include "src/sim/world.h"

namespace ksim {
namespace {

constexpr NetAddress kClient{0x0a000001, 1000};
constexpr NetAddress kEcho{0x0a000002, 80};
constexpr NetAddress kEcho2{0x0a000003, 80};

// Binds a service at `addr` that echoes its payload back.
void BindEcho(Network& net, const NetAddress& addr) {
  net.Bind(addr, [](const Message& msg) -> kerb::Result<kerb::Bytes> {
    return msg.payload;
  });
}

// Binds a service whose reply differs on every call — a stand-in for a KDC
// minting a fresh session key per request.
void BindCounter(Network& net, const NetAddress& addr) {
  auto count = std::make_shared<int>(0);
  net.Bind(addr, [count](const Message&) -> kerb::Result<kerb::Bytes> {
    return kerb::ToBytes("reply " + std::to_string((*count)++));
  });
}

TEST(FaultyNetworkTest, ZeroRatePlanIsTransparent) {
  // An all-zero plan must behave exactly like the plain Network: same
  // replies, nothing dropped, and — because Chance(0) draws nothing — no
  // PRNG consumption that could perturb a seeded workload.
  World plain(42);
  World faulty(42, FaultPlan{});
  BindEcho(plain.network(), kEcho);
  BindEcho(faulty.network(), kEcho);

  for (int i = 0; i < 10; ++i) {
    kerb::Bytes payload = kerb::ToBytes("ping " + std::to_string(i));
    auto a = plain.network().Call(kClient, kEcho, payload);
    auto b = faulty.network().Call(kClient, kEcho, payload);
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(b.ok());
    EXPECT_EQ(a.value(), b.value());
  }
  // Zero-probability faults drew nothing: the schedule digest never moved
  // off its FNV-1a basis, so every downstream PRNG fork is undisturbed.
  EXPECT_EQ(faulty.faults()->schedule_digest(), 0xcbf29ce484222325ull);
  EXPECT_EQ(faulty.faults()->stats().requests_dropped, 0u);
  EXPECT_EQ(faulty.faults()->stats().delivered, 10u);
}

TEST(FaultyNetworkTest, SameSeedSameSchedule) {
  FaultPlan plan;
  plan.link.drop_request = 0.2;
  plan.link.drop_reply = 0.1;
  plan.link.duplicate_request = 0.15;
  plan.link.corrupt_reply = 0.1;
  plan.link.delay_jitter = 3 * kMillisecond;

  auto run = [&](uint64_t seed) {
    World world(seed, plan);
    BindEcho(world.network(), kEcho);
    int ok = 0;
    for (int i = 0; i < 200; ++i) {
      if (world.network().Call(kClient, kEcho, kerb::ToBytes("x")).ok()) ++ok;
    }
    return std::make_pair(world.faults()->schedule_digest(), ok);
  };

  auto [digest1, ok1] = run(7);
  auto [digest2, ok2] = run(7);
  auto [digest3, ok3] = run(8);
  EXPECT_EQ(digest1, digest2);
  EXPECT_EQ(ok1, ok2);
  EXPECT_NE(digest1, digest3);  // different seed, different schedule
}

TEST(FaultyNetworkTest, DropsSurfaceAsTransport) {
  FaultPlan plan;
  plan.link.drop_request = 1.0;
  World world(1, plan);
  BindEcho(world.network(), kEcho);

  auto r = world.network().Call(kClient, kEcho, kerb::ToBytes("hello"));
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error().code, kerb::ErrorCode::kTransport);
  EXPECT_TRUE(kerb::IsRetryable(r.error().code));
  EXPECT_EQ(world.faults()->stats().requests_dropped, 1u);
}

TEST(FaultyNetworkTest, BlackoutWindowRefusesCalls) {
  FaultPlan plan;
  plan.blackouts.push_back(Blackout{kEcho.host, 10 * kSecond, 20 * kSecond});
  World world(1, plan);
  BindEcho(world.network(), kEcho);

  EXPECT_TRUE(world.network().Call(kClient, kEcho, kerb::ToBytes("a")).ok());
  world.clock().Set(15 * kSecond);
  auto blocked = world.network().Call(kClient, kEcho, kerb::ToBytes("b"));
  ASSERT_FALSE(blocked.ok());
  EXPECT_EQ(blocked.error().code, kerb::ErrorCode::kTransport);
  world.clock().Set(25 * kSecond);
  EXPECT_TRUE(world.network().Call(kClient, kEcho, kerb::ToBytes("c")).ok());
  EXPECT_EQ(world.faults()->stats().blackout_refusals, 1u);
}

TEST(FaultyNetworkTest, StallAddsLatencyButDelivers) {
  FaultPlan plan;
  plan.stalls.push_back(Stall{kEcho.host, 0, kMinute, 2 * kSecond});
  World world(1, plan);
  BindEcho(world.network(), kEcho);

  Time before = world.clock().Now();
  EXPECT_TRUE(world.network().Call(kClient, kEcho, kerb::ToBytes("a")).ok());
  EXPECT_GE(world.clock().Now() - before, 2 * kSecond);
  EXPECT_EQ(world.faults()->stats().stalled_deliveries, 1u);
}

TEST(FaultyNetworkTest, CorruptionFlipsBitsButDelivers) {
  FaultPlan plan;
  plan.link.corrupt_reply = 1.0;
  World world(1, plan);
  BindEcho(world.network(), kEcho);

  kerb::Bytes payload = kerb::ToBytes("a long enough payload to corrupt");
  auto r = world.network().Call(kClient, kEcho, payload);
  ASSERT_TRUE(r.ok());
  EXPECT_NE(r.value(), payload);
  EXPECT_EQ(r.value().size(), payload.size());  // bit flips, not truncation
}

TEST(FaultyNetworkTest, DuplicateDivergenceDetectsDoubleIssue) {
  FaultPlan plan;
  plan.link.duplicate_request = 1.0;
  World world(1, plan);
  BindEcho(world.network(), kEcho);       // idempotent service
  BindCounter(world.network(), kEcho2);   // fresh-state service (naive KDC)

  EXPECT_TRUE(world.network().Call(kClient, kEcho, kerb::ToBytes("x")).ok());
  EXPECT_TRUE(world.network().Call(kClient, kEcho2, kerb::ToBytes("x")).ok());

  const auto& stats = world.faults()->stats();
  EXPECT_EQ(stats.duplicates_delivered, 2u);
  EXPECT_EQ(stats.duplicate_reply_matches, 1u);      // echo answered identically
  EXPECT_EQ(stats.duplicate_reply_divergences, 1u);  // counter double-issued
  EXPECT_EQ(world.faults()->divergences_at(kEcho.host), 0u);
  EXPECT_EQ(world.faults()->divergences_at(kEcho2.host), 1u);
}

TEST(FaultyNetworkTest, ReorderRedeliversStaleCopyLater) {
  FaultPlan plan;
  plan.link.reorder_request = 1.0;
  World world(1, plan);
  BindCounter(world.network(), kEcho);

  // First call's request is held; the second call flushes it to the server
  // again before sending its own bytes.
  EXPECT_TRUE(world.network().Call(kClient, kEcho, kerb::ToBytes("x")).ok());
  world.faults()->plan().link.reorder_request = 0;  // stop holding more
  EXPECT_TRUE(world.network().Call(kClient, kEcho, kerb::ToBytes("y")).ok());
  EXPECT_EQ(world.faults()->stats().late_redeliveries, 1u);
  EXPECT_EQ(world.faults()->stats().duplicate_reply_divergences, 1u);
}

// ---------------------------------------------------------------------------
// Exchanger

TEST(ExchangerTest, RetriesThroughTransientLoss) {
  // Drop exactly the first attempt, then deliver.
  World world(3);
  auto failures = std::make_shared<int>(1);
  world.network().Bind(kEcho, [failures](const Message& msg) -> kerb::Result<kerb::Bytes> {
    if ((*failures)-- > 0) {
      return kerb::MakeError(kerb::ErrorCode::kTransport, "lost");
    }
    return msg.payload;
  });

  Exchanger ex(&world.network(), &world.clock(), world.prng().Fork(), RetryPolicy{});
  auto r = ex.Exchange(kClient, {kEcho}, [] { return kerb::Result<kerb::Bytes>(kerb::ToBytes("req")); });
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(ex.stats().attempts, 2u);
  EXPECT_EQ(ex.stats().retries, 1u);
  EXPECT_EQ(ex.stats().successes, 1u);
  // The failed attempt charged its timeout to the virtual clock.
  EXPECT_GE(ex.stats().virtual_wait, ksim::kRetryTimeout);
}

TEST(ExchangerTest, TerminalErrorReturnsImmediately) {
  World world(3);
  world.network().Bind(kEcho, [](const Message&) -> kerb::Result<kerb::Bytes> {
    return kerb::MakeError(kerb::ErrorCode::kAuthFailed, "bad password");
  });

  Exchanger ex(&world.network(), &world.clock(), world.prng().Fork(), RetryPolicy{});
  auto r = ex.Exchange(kClient, {kEcho}, [] { return kerb::Result<kerb::Bytes>(kerb::ToBytes("req")); });
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error().code, kerb::ErrorCode::kAuthFailed);
  EXPECT_EQ(ex.stats().attempts, 1u);  // no retry of an authoritative verdict
  EXPECT_EQ(ex.stats().terminal_failures, 1u);
}

TEST(ExchangerTest, FailsOverToSecondEndpoint) {
  World world(3);
  // Primary is dead; the slave echoes.
  world.network().Bind(kEcho, [](const Message&) -> kerb::Result<kerb::Bytes> {
    return kerb::MakeError(kerb::ErrorCode::kTransport, "down");
  });
  BindEcho(world.network(), kEcho2);

  Exchanger ex(&world.network(), &world.clock(), world.prng().Fork(), RetryPolicy{});
  auto r = ex.Exchange(kClient, {kEcho, kEcho2},
                       [] { return kerb::Result<kerb::Bytes>(kerb::ToBytes("req")); });
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(ex.stats().failovers, 1u);
  EXPECT_EQ(ex.stats().successes, 1u);
}

TEST(ExchangerTest, ExhaustsBudgetAgainstDeadService) {
  World world(3);  // nothing bound: every call is kTransport
  RetryPolicy policy;
  policy.max_attempts = 3;
  Exchanger ex(&world.network(), &world.clock(), world.prng().Fork(), policy);
  auto r = ex.Exchange(kClient, {kEcho}, [] { return kerb::Result<kerb::Bytes>(kerb::ToBytes("req")); });
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error().code, kerb::ErrorCode::kTransport);
  EXPECT_EQ(ex.stats().attempts, 3u);
  EXPECT_EQ(ex.stats().exhausted, 1u);
}

TEST(ExchangerTest, JitterIsDeterministicPerSeed) {
  auto run = [](uint64_t seed) {
    World world(seed);
    RetryPolicy policy;
    policy.max_attempts = 4;
    Exchanger ex(&world.network(), &world.clock(), kcrypto::Prng(seed), policy);
    (void)ex.Exchange(kClient, {kEcho},
                      [] { return kerb::Result<kerb::Bytes>(kerb::ToBytes("req")); });
    return ex.stats().virtual_wait;
  };
  EXPECT_EQ(run(11), run(11));
}

}  // namespace
}  // namespace ksim
