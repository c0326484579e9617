// PrincipalStore at realm scale: a million entries, rehash growth, and
// Erase-heavy churn. Linear probing has exactly two failure modes — a load
// factor allowed to creep toward 1, and deletion holes that break probe
// chains — and these tests measure both directly via MaxProbeLength and a
// reference-model comparison. The full population defaults to one million;
// set KERB_STRESS_POP to scale it (the invariants are size-independent).

#include <cstdint>
#include <cstdlib>
#include <string>
#include <unordered_map>
#include <vector>

#include <gtest/gtest.h>

#include "src/crypto/prng.h"
#include "src/krb4/principal.h"
#include "src/krb4/principal_store.h"

namespace {

using krb4::Principal;
using krb4::PrincipalKind;
using krb4::PrincipalStore;

constexpr char kRealm[] = "ATHENA.MIT.EDU";

size_t StressPopulation() {
  if (const char* env = std::getenv("KERB_STRESS_POP")) {
    const long v = std::atol(env);
    if (v > 0) {
      return static_cast<size_t>(v);
    }
  }
  return 1000000;
}

Principal UserAt(size_t i) {
  return Principal::User(std::string("u").append(std::to_string(i)), kRealm);
}

// With capacity reserved up front the table never rehashes and the load
// factor stays below 3/4, so probe clusters stay short even at a million
// entries. A probe-length blowup here is the capacity cliff this test pins.
TEST(PrincipalStoreStressTest, MillionEntriesReservedStaysFlat) {
  const size_t n = StressPopulation();
  kcrypto::Prng prng(0xbead);
  PrincipalStore store;
  store.Reserve(n);
  for (size_t i = 0; i < n; ++i) {
    store.Upsert(UserAt(i), prng.NextDesKey(), PrincipalKind::kUser);
  }
  ASSERT_EQ(store.size(), n);

  // Spot-check membership across the whole index range.
  for (size_t i = 0; i < n; i += n / 1000 + 1) {
    EXPECT_TRUE(store.Contains(UserAt(i))) << i;
  }
  EXPECT_FALSE(store.Contains(UserAt(n)));

  // Load factor < 3/4 keeps expected probe length O(1); 64 leaves generous
  // slack over the statistical worst cluster at this size.
  EXPECT_LT(store.MaxProbeLength(), 64u) << "probe cluster cliff";
}

// The no-Reserve path grows by doubling. Growth must preserve every entry
// and land at the same probe-quality plateau as the pre-sized table.
TEST(PrincipalStoreStressTest, IncrementalGrowthMatchesReservedQuality) {
  const size_t n = std::min<size_t>(StressPopulation(), 200000);
  kcrypto::Prng prng(0x94a55);
  PrincipalStore grown;  // no Reserve: pays every doubling rehash
  PrincipalStore reserved;
  reserved.Reserve(n);
  for (size_t i = 0; i < n; ++i) {
    const kcrypto::DesKey key = prng.NextDesKey();
    grown.Upsert(UserAt(i), key, PrincipalKind::kUser);
    reserved.Upsert(UserAt(i), key, PrincipalKind::kUser);
  }
  ASSERT_EQ(grown.size(), n);
  for (size_t i = 0; i < n; i += 997) {
    EXPECT_TRUE(grown.Contains(UserAt(i))) << i;
  }
  // Rehash re-probes from scratch, so the grown table must not be
  // meaningfully worse than the reserved one.
  EXPECT_LT(grown.MaxProbeLength(), 64u);
}

// Erase-heavy churn: linear probing without backward-shift compaction
// either breaks probe chains (lost entries) or accretes tombstones
// (unbounded probe growth). Run a randomized insert/erase/lookup walk
// against a std::unordered_map reference model and then re-verify the
// final state and probe length.
TEST(PrincipalStoreStressTest, EraseChurnMatchesReferenceModel) {
  const size_t universe = std::min<size_t>(StressPopulation() / 4, 50000);
  const size_t steps = universe * 8;
  kcrypto::Prng prng(0xc4052);
  PrincipalStore store;
  store.Reserve(universe);
  std::unordered_map<size_t, uint8_t> model;  // index → kind tag

  for (size_t step = 0; step < steps; ++step) {
    const size_t i = prng.NextBelow(universe);
    switch (prng.NextBelow(4)) {
      case 0:
      case 1: {  // upsert (2x weight keeps the table ~2/3 populated)
        const auto kind =
            (i & 1) != 0 ? PrincipalKind::kService : PrincipalKind::kUser;
        store.Upsert(UserAt(i), prng.NextDesKey(), kind);
        model[i] = static_cast<uint8_t>(kind);
        break;
      }
      case 2: {  // erase
        EXPECT_EQ(store.Erase(UserAt(i)), model.erase(i) > 0) << "step " << step;
        break;
      }
      default: {  // lookup
        PrincipalKind kind;
        const bool found = store.Lookup(UserAt(i), nullptr, &kind);
        const auto it = model.find(i);
        ASSERT_EQ(found, it != model.end()) << "step " << step << " index " << i;
        if (found) {
          ASSERT_EQ(static_cast<uint8_t>(kind), it->second);
        }
        break;
      }
    }
  }

  ASSERT_EQ(store.size(), model.size());
  for (const auto& [i, kind] : model) {
    PrincipalKind got;
    ASSERT_TRUE(store.Lookup(UserAt(i), nullptr, &got)) << i;
    EXPECT_EQ(static_cast<uint8_t>(got), kind);
  }
  // After heavy churn the backward-shift discipline must have kept clusters
  // compact — no tombstone accretion.
  EXPECT_LT(store.MaxProbeLength(), 64u);
}

// Erasing every other entry then re-verifying the survivors exercises the
// backward-shift path on long runs specifically.
TEST(PrincipalStoreStressTest, AlternatingEraseKeepsSurvivorsReachable) {
  const size_t n = std::min<size_t>(StressPopulation() / 10, 100000);
  kcrypto::Prng prng(0x5117);
  PrincipalStore store;
  store.Reserve(n);
  for (size_t i = 0; i < n; ++i) {
    store.Upsert(UserAt(i), prng.NextDesKey(), PrincipalKind::kUser);
  }
  for (size_t i = 0; i < n; i += 2) {
    ASSERT_TRUE(store.Erase(UserAt(i)));
  }
  ASSERT_EQ(store.size(), n / 2);
  for (size_t i = 0; i < n; ++i) {
    ASSERT_EQ(store.Contains(UserAt(i)), (i % 2) == 1) << i;
  }
  EXPECT_LT(store.MaxProbeLength(), 64u);
}

// ForEach must visit each live entry exactly once — the cluster slice
// extraction path depends on it.
TEST(PrincipalStoreStressTest, ForEachVisitsEveryEntryOnce) {
  const size_t n = 10000;
  kcrypto::Prng prng(0xf0ea);
  PrincipalStore store;
  store.Reserve(n);
  for (size_t i = 0; i < n; ++i) {
    store.Upsert(UserAt(i), prng.NextDesKey(), PrincipalKind::kUser);
  }
  std::vector<uint8_t> seen(n, 0);
  store.ForEach([&](const Principal& p, const krb4::PrincipalEntry& entry) {
    (void)entry;
    const size_t i = std::stoul(p.name.substr(1));
    ASSERT_LT(i, n);
    seen[i]++;
  });
  for (size_t i = 0; i < n; ++i) {
    ASSERT_EQ(seen[i], 1u) << i;
  }
}

}  // namespace
