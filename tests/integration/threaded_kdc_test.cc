// Threaded stress tests for the PR-2 concurrent serving structures: the
// sharded principal store, the sharded replay cache, and the KdcCore5
// worker-pool path. Run these under a TSan build to check the locking:
//   cmake -B build-tsan -S . -DKERB_SANITIZE=thread && ctest
//
// The invariants asserted here are the ones a multi-threaded KDC needs:
// no upsert is ever lost, a replayed tuple is admitted exactly once no
// matter how many threads race on it, and the accept/reject decisions are
// independent of the worker count.

#include <algorithm>
#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/attacks/kdcload.h"
#include "src/attacks/testbed5.h"
#include "src/crypto/prng.h"
#include "src/krb4/principal_store.h"
#include "src/sim/replaycache.h"

namespace {

using kattack::Testbed5;
using krb4::Principal;
using krb4::PrincipalKind;
using krb4::PrincipalStore;

constexpr unsigned kThreads = 8;

TEST(ThreadedKdcTest, PrincipalStoreConcurrentUpsertsLoseNothing) {
  constexpr int kPerThread = 200;
  PrincipalStore store;
  std::vector<std::thread> workers;
  for (unsigned t = 0; t < kThreads; ++t) {
    workers.emplace_back([&store, t] {
      kcrypto::Prng prng(1000 + t);
      for (int i = 0; i < kPerThread; ++i) {
        Principal p{"user" + std::to_string(t) + "_" + std::to_string(i), "", "ATHENA.SIM"};
        store.Upsert(p, prng.NextDesKey(), PrincipalKind::kUser);
      }
    });
  }
  for (auto& w : workers) {
    w.join();
  }

  EXPECT_EQ(store.size(), kThreads * kPerThread);
  // Every write must be present with the exact key that was stored; the
  // per-thread PRNGs are re-run to reproduce the expected keys.
  for (unsigned t = 0; t < kThreads; ++t) {
    kcrypto::Prng prng(1000 + t);
    for (int i = 0; i < kPerThread; ++i) {
      Principal p{"user" + std::to_string(t) + "_" + std::to_string(i), "", "ATHENA.SIM"};
      kcrypto::DesKey expected = prng.NextDesKey();
      kcrypto::DesKey got;
      ASSERT_TRUE(store.Lookup(p, &got)) << "lost principal " << p.name;
      EXPECT_EQ(got.bytes(), expected.bytes()) << "wrong key for " << p.name;
    }
  }
}

TEST(ThreadedKdcTest, PrincipalStoreRacingUpsertsOnOneKeyKeepSomeWrite) {
  // All threads hammer the same principal; the surviving value must be one
  // of the written keys, never a torn mixture.
  PrincipalStore store;
  const Principal shared{"shared", "", "ATHENA.SIM"};
  std::vector<kcrypto::DesKey> written(kThreads);
  for (unsigned t = 0; t < kThreads; ++t) {
    written[t] = kcrypto::Prng(2000 + t).NextDesKey();
  }
  std::vector<std::thread> workers;
  for (unsigned t = 0; t < kThreads; ++t) {
    workers.emplace_back([&store, &written, &shared, t] {
      for (int i = 0; i < 500; ++i) {
        store.Upsert(shared, written[t], PrincipalKind::kService);
      }
    });
  }
  for (auto& w : workers) {
    w.join();
  }
  kcrypto::DesKey got;
  ASSERT_TRUE(store.Lookup(shared, &got));
  bool matches_some_write = false;
  for (const auto& key : written) {
    matches_some_write = matches_some_write || got.bytes() == key.bytes();
  }
  EXPECT_TRUE(matches_some_write);
  EXPECT_EQ(store.size(), 1u);
}

// Each writer brings realms the store has never seen (interning one locks
// every shard) and erases half of what it wrote (the dense array moves an
// entry into each hole), while readers look up a fixed principal and walk
// the whole store in sorted order under every shard's reader lock.
TEST(ThreadedKdcTest, PrincipalStoreNewRealmsErasesAndSortedWalksUnderRace) {
  constexpr int kPerThread = 120;
  PrincipalStore store;
  const Principal fixed{"fixed", "", "ATHENA.SIM"};
  const kcrypto::DesKey fixed_key = kcrypto::Prng(3000).NextDesKey();
  store.Upsert(fixed, fixed_key, PrincipalKind::kService);
  auto name = [](unsigned t, int i) {
    return Principal{std::string("u").append(std::to_string(i)), "",
                     std::string("R").append(std::to_string(t)) + "-" + std::to_string(i % 5)};
  };
  std::atomic<bool> writing{true};
  std::atomic<int> bad_reads{0};
  std::vector<std::thread> readers;
  for (unsigned r = 0; r < 2; ++r) {
    readers.emplace_back([&] {
      while (writing.load()) {
        kcrypto::DesKey got;
        if (!store.Lookup(fixed, &got) || got.bytes() != fixed_key.bytes()) {
          ++bad_reads;
        }
        const std::vector<Principal> listed = store.Principals();
        if (!std::is_sorted(listed.begin(), listed.end())) {
          ++bad_reads;
        }
      }
    });
  }
  std::vector<std::thread> writers;
  for (unsigned t = 0; t < kThreads / 2; ++t) {
    writers.emplace_back([&store, &name, t] {
      kcrypto::Prng prng(4000 + t);
      for (int i = 0; i < kPerThread; ++i) {
        store.Upsert(name(t, i), prng.NextDesKey(), PrincipalKind::kUser);
      }
      for (int i = 0; i < kPerThread; i += 2) {
        store.Erase(name(t, i));
      }
    });
  }
  for (auto& w : writers) {
    w.join();
  }
  writing = false;
  for (auto& r : readers) {
    r.join();
  }
  EXPECT_EQ(bad_reads.load(), 0);
  EXPECT_EQ(store.size(), 1 + (kThreads / 2) * kPerThread / 2);
  for (unsigned t = 0; t < kThreads / 2; ++t) {
    kcrypto::Prng prng(4000 + t);
    for (int i = 0; i < kPerThread; ++i) {
      const kcrypto::DesKey expected = prng.NextDesKey();
      kcrypto::DesKey got;
      ASSERT_EQ(store.Lookup(name(t, i), &got), i % 2 == 1) << name(t, i).ToString();
      if (i % 2 == 1) {
        EXPECT_EQ(got.bytes(), expected.bytes()) << name(t, i).ToString();
      }
    }
  }
}

TEST(ThreadedKdcTest, ReplayCacheAdmitsEachTupleExactlyOnceUnderRace) {
  // Every thread presents the full tuple set; across all threads each tuple
  // must be admitted exactly once, so the accept total equals the tuple
  // count for ANY thread count — the thread-count-independence property.
  constexpr int kTuples = 256;
  for (unsigned threads : {1u, 4u, kThreads}) {
    ksim::ShardedReplayCache cache;
    std::atomic<uint64_t> accepted{0};
    std::vector<std::thread> workers;
    for (unsigned t = 0; t < threads; ++t) {
      workers.emplace_back([&cache, &accepted] {
        for (int i = 0; i < kTuples; ++i) {
          std::string identity = "client" + std::to_string(i % 16);
          uint32_t addr = 0x0a000000u + static_cast<uint32_t>(i);
          ksim::Time stamp = 1000 + i;
          if (cache.CheckAndInsert(identity, addr, stamp, /*now=*/2000, ksim::kMinute)) {
            accepted.fetch_add(1, std::memory_order_relaxed);
          }
        }
      });
    }
    for (auto& w : workers) {
      w.join();
    }
    EXPECT_EQ(accepted.load(), static_cast<uint64_t>(kTuples)) << "threads=" << threads;
    // A second full pass must be rejected wholesale: everything is a replay.
    for (int i = 0; i < kTuples; ++i) {
      EXPECT_FALSE(cache.CheckAndInsert("client" + std::to_string(i % 16),
                                        0x0a000000u + static_cast<uint32_t>(i), 1000 + i,
                                        2000, ksim::kMinute));
    }
  }
}

TEST(ThreadedKdcTest, ParallelKdcCoreServesEveryRequest) {
  // The worker-pool path (one KdcContext per worker) against a live
  // KdcCore5: every request must be accepted regardless of pool size, and
  // the accept count must scale exactly with the request count.
  Testbed5 bed;
  const ksim::Time now = bed.world().MakeHostClock().Now();
  kcrypto::Prng prng(0x7e57);

  krb5::AsRequest5 as_req;
  as_req.client = bed.alice_principal();
  as_req.service_realm = bed.realm;
  as_req.lifetime = ksim::kHour;
  as_req.nonce = prng.NextU64();
  ksim::Message request;
  request.src = Testbed5::kAliceAddr;
  request.dst = Testbed5::kAsAddr;
  request.payload = kenc::Encode(as_req);
  request.sent_at = now;

  krb5::KdcCore5& core = bed.kdc();
  kattack::KdcHandler handler = [&core](const ksim::Message& msg, krb4::KdcContext& ctx) {
    return core.HandleAs(msg, ctx);
  };
  constexpr uint64_t kPerWorker = 32;
  for (unsigned threads : {1u, 2u, 4u, kThreads}) {
    auto result = kattack::RunKdcLoad(handler, request, threads, kPerWorker, 0xfeed + threads);
    EXPECT_EQ(result.requests_failed, 0u) << "threads=" << threads;
    EXPECT_EQ(result.requests_ok, threads * kPerWorker) << "threads=" << threads;
  }
}

}  // namespace
