// Heap allocations per V4 and kadmin exchange, counted by replacing the
// global allocation functions in this binary: a warmed TGS exchange plus a
// mutually authenticated AP exchange, a V4 AS login, and the kadmin
// GetKvno and ChangePassword round trips, each through the simulated
// network of Testbed4 (client, KDC, app server and admin server all
// counted). Each budget is the count measured when it was set plus about
// 10% headroom, so an allocation added to one of these paths fails here.
// With hand-written V4 and kadmin codecs (an owned, doubling writer per
// encode, a copy per decoded field) the four paths made 93, 22, 40 and 47;
// with layout codecs and a copy of every frame body Unframe4 read, 44, 8,
// 24 and 31.

#include <atomic>
#include <cstdlib>
#include <memory>
#include <new>
#include <string>

#include <gtest/gtest.h>

#include "src/attacks/testbed.h"
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

using kattack::Testbed4;

TEST(AllocBudget4Test, WarmedTgsAndMutualApExchange) {
  Testbed4 bed;
  ASSERT_TRUE(bed.alice().Login(Testbed4::kAlicePassword).ok());
  const kerb::Bytes payload = kerb::ToBytes("op-00001");
  auto exchange = [&] {
    bed.alice().DropServiceCredentials();
    auto call = bed.alice().CallService(Testbed4::kMailAddr, bed.mail_principal(),
                                        /*want_mutual=*/true, payload);
    ASSERT_TRUE(call.ok());
  };
  exchange();  // warm-up: buffers and caches reach their steady size
  exchange();
  constexpr uint64_t kBudget = 43;
  const uint64_t allocations = AllocationsIn(exchange);
  EXPECT_LE(allocations, kBudget) << allocations << " allocations";
}

TEST(AllocBudget4Test, AsLogin) {
  Testbed4 bed;
  const kcrypto::DesKey key =
      kcrypto::StringToKey(Testbed4::kAlicePassword, bed.alice_principal().Salt());
  auto login = [&] { ASSERT_TRUE(bed.alice().LoginWithKey(key).ok()); };
  login();  // warm-up
  login();
  constexpr uint64_t kBudget = 7;
  const uint64_t allocations = AllocationsIn(login);
  EXPECT_LE(allocations, kBudget) << allocations << " allocations";
}

// The admin server's ack and replay caches expire by virtual time, so the
// clock steps 20 ms per call, as cluster_churn spaces its writes.
struct AdminBed {
  AdminBed()
      : bed([] {
          kattack::TestbedConfig config;
          config.enable_kadmin = true;
          return config;
        }()) {
    oper = bed.MakeClient(bed.oper_principal(), Testbed4::kOperAddr);
    EXPECT_TRUE(oper->Login(Testbed4::kOperPassword).ok());
    admin = bed.MakeAdminClient(*oper);
  }

  template <typename Call>
  uint64_t WarmedAllocations(Call&& call) {
    auto step = [&] {
      call();
      bed.world().clock().Advance(20 * ksim::kMillisecond);
    };
    step();  // warm-up
    step();
    return AllocationsIn(step);
  }

  Testbed4 bed;
  std::unique_ptr<krb4::Client4> oper;
  std::unique_ptr<kadmin::AdminClient> admin;
};

TEST(AllocBudget4Test, KadminGetKvno) {
  AdminBed b;
  const krb4::Principal bob = b.bed.bob_principal();
  const uint64_t allocations =
      b.WarmedAllocations([&] { ASSERT_TRUE(b.admin->GetKvno(bob).ok()); });
  constexpr uint64_t kBudget = 24;
  EXPECT_LE(allocations, kBudget) << allocations << " allocations";
}

TEST(AllocBudget4Test, KadminChangePassword) {
  AdminBed b;
  const krb4::Principal bob = b.bed.bob_principal();
  int i = 0;
  const uint64_t allocations = b.WarmedAllocations([&] {
    const std::string password = "Budget_Pw_" + std::to_string(1000 + i++) + "!";
    ASSERT_TRUE(b.admin->ChangePassword(bob, password).ok());
  });
  constexpr uint64_t kBudget = 32;
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
