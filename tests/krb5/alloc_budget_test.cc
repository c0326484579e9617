// Heap allocations per V5 exchange, counted by replacing the global
// allocation functions in this binary: a warmed TGS exchange plus a
// mutually authenticated AP exchange, a preauthenticated AS login, each
// through the simulated network of Testbed5 (client, KDC and app server all
// counted), and a preauthenticated login followed by the first TGS+AP
// exchange on its new TGT. Each budget is the count measured when it was set
// plus about 10% headroom, so an allocation added to the V5 path fails here.

#include <atomic>
#include <cstdlib>
#include <new>

#include <gtest/gtest.h>

#include "src/attacks/testbed5.h"
#include "src/crypto/str2key.h"

namespace {

std::atomic<uint64_t> g_allocations{0};

void* Allocate(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) {
    return p;
  }
  throw std::bad_alloc();
}

void* AllocateAligned(std::size_t size, std::align_val_t align) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  const auto alignment = static_cast<std::size_t>(align);
  const std::size_t rounded = (size + alignment - 1) / alignment * alignment;
  if (void* p = std::aligned_alloc(alignment, rounded == 0 ? alignment : rounded)) {
    return p;
  }
  throw std::bad_alloc();
}

template <typename Fn>
uint64_t AllocationsIn(Fn&& fn) {
  const uint64_t before = g_allocations.load(std::memory_order_relaxed);
  fn();
  return g_allocations.load(std::memory_order_relaxed) - before;
}

using kattack::Testbed5;
using kattack::Testbed5Config;

TEST(AllocBudgetTest, WarmedTgsAndMutualApExchange) {
  Testbed5 bed;
  ASSERT_TRUE(bed.alice().Login(Testbed5::kAlicePassword).ok());
  const kerb::Bytes payload = kerb::ToBytes("op-00001");
  auto exchange = [&] {
    bed.alice().DropServiceCredentials();
    auto call = bed.alice().CallService(Testbed5::kMailAddr, bed.mail_principal(),
                                        /*want_mutual=*/true, payload);
    ASSERT_TRUE(call.ok());
  };
  exchange();  // warm-up: buffers and caches reach their steady size
  exchange();
  constexpr uint64_t kBudget = 39;
  const uint64_t allocations = AllocationsIn(exchange);
  EXPECT_LE(allocations, kBudget) << allocations << " allocations";
}

TEST(AllocBudgetTest, PreauthAsLogin) {
  Testbed5Config config;
  config.kdc_policy.require_preauth = true;
  config.client_options.use_preauth = true;
  Testbed5 bed(config);
  const kcrypto::DesKey key =
      kcrypto::StringToKey(Testbed5::kAlicePassword, bed.alice_principal().Salt());
  auto login = [&] { ASSERT_TRUE(bed.alice().LoginWithKey(key).ok()); };
  login();  // warm-up
  login();
  constexpr uint64_t kBudget = 9;
  const uint64_t allocations = AllocationsIn(login);
  EXPECT_LE(allocations, kBudget) << allocations << " allocations";
}

// A fresh login followed by the first TGS+AP exchange on its new TGT: the
// KDC put the TGT in its memo when it minted it, so that first TGS request
// hits the memo instead of unsealing. Set at 43 and counting 44 since the
// memo allocates each slot's entry at its first put; unsealing and
// memoising the TGT on that request, as the KDC did before, made 45.
TEST(AllocBudgetTest, LoginThenFirstTgs) {
  Testbed5Config config;
  config.kdc_policy.require_preauth = true;
  config.client_options.use_preauth = true;
  Testbed5 bed(config);
  const kcrypto::DesKey key =
      kcrypto::StringToKey(Testbed5::kAlicePassword, bed.alice_principal().Salt());
  const kerb::Bytes payload = kerb::ToBytes("op-00001");
  auto session = [&] {
    ASSERT_TRUE(bed.alice().LoginWithKey(key).ok());
    bed.alice().DropServiceCredentials();
    auto call = bed.alice().CallService(Testbed5::kMailAddr, bed.mail_principal(),
                                        /*want_mutual=*/true, payload);
    ASSERT_TRUE(call.ok());
  };
  session();  // warm-up
  session();
  constexpr uint64_t kBudget = 47;
  const uint64_t allocations = AllocationsIn(session);
  EXPECT_LE(allocations, kBudget) << allocations << " allocations";
}

}  // namespace

void* operator new(std::size_t size) { return Allocate(size); }
void* operator new[](std::size_t size) { return Allocate(size); }
void* operator new(std::size_t size, std::align_val_t align) {
  return AllocateAligned(size, align);
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return AllocateAligned(size, align);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
