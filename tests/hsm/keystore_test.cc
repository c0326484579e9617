#include "src/hsm/keystore.h"

#include "src/hsm/encryption_unit.h"
#include "src/krb4/messages.h"

#include <gtest/gtest.h>

#include "src/sim/world.h"

namespace khsm {
namespace {

const ksim::NetAddress kClient{0x0a000101, 1023};
const ksim::NetAddress kStoreAddr{0x0a000020, 751};

TEST(KeyStoreTest, StoreFetchRoundTrip) {
  ksim::World world(3);
  kcrypto::DesKey master = world.prng().NextDesKey();
  KeyStore store(&world.network(), kStoreAddr, master, 10);
  const kcrypto::DesKey& session = store.service_session_key();

  kerb::Bytes blob = world.prng().NextBytes(40);
  ASSERT_TRUE(
      KeyStore::Store(&world.network(), kClient, kStoreAddr, session, "nfs-key", blob).ok());
  EXPECT_EQ(store.entry_count(), 1u);
  auto fetched = KeyStore::Fetch(&world.network(), kClient, kStoreAddr, session, "nfs-key");
  ASSERT_TRUE(fetched.ok());
  EXPECT_EQ(fetched.value(), blob);
}

TEST(KeyStoreTest, FetchUnknownNameFails) {
  ksim::World world(4);
  KeyStore store(&world.network(), kStoreAddr, world.prng().NextDesKey(), 10);
  auto fetched = KeyStore::Fetch(&world.network(), kClient, kStoreAddr,
                                 store.service_session_key(), "missing");
  EXPECT_EQ(fetched.code(), kerb::ErrorCode::kNotFound);
}

TEST(KeyStoreTest, WrongSessionKeyRejected) {
  ksim::World world(5);
  KeyStore store(&world.network(), kStoreAddr, world.prng().NextDesKey(), 10);
  kcrypto::DesKey wrong = world.prng().NextDesKey();
  auto status =
      KeyStore::Store(&world.network(), kClient, kStoreAddr, wrong, "x", kerb::Bytes{1});
  EXPECT_FALSE(status.ok());
}

TEST(KeyStoreTest, BlobsAreSealedAtRestUnderMasterKey) {
  // A disk thief (the paper's worry about backed-up media) sees only
  // ciphertext; the master key recovers it, nothing else does.
  ksim::World world(6);
  kcrypto::DesKey master = world.prng().NextDesKey();
  KeyStore store(&world.network(), kStoreAddr, master, 10);
  kerb::Bytes secret = kerb::ToBytes("the-nfs-service-key");
  ASSERT_TRUE(KeyStore::Store(&world.network(), kClient, kStoreAddr,
                              store.service_session_key(), "k", secret)
                  .ok());
  // Master key never appears in the stored request/reply traffic: verified
  // by the leak sweep; here we confirm the accessor exists for that test.
  EXPECT_EQ(store.MasterKeyForLeakScan().size(), 8u);
}

TEST(KeyStoreTest, OverwriteReplacesBlob) {
  ksim::World world(7);
  KeyStore store(&world.network(), kStoreAddr, world.prng().NextDesKey(), 10);
  const auto& session = store.service_session_key();
  ASSERT_TRUE(
      KeyStore::Store(&world.network(), kClient, kStoreAddr, session, "k", kerb::Bytes{1})
          .ok());
  ASSERT_TRUE(
      KeyStore::Store(&world.network(), kClient, kStoreAddr, session, "k", kerb::Bytes{2})
          .ok());
  auto fetched = KeyStore::Fetch(&world.network(), kClient, kStoreAddr, session, "k");
  ASSERT_TRUE(fetched.ok());
  EXPECT_EQ(fetched.value(), kerb::Bytes{2});
  EXPECT_EQ(store.entry_count(), 1u);
}

TEST(RandomKeyServiceTest, HandsOutValidDistinctKeys) {
  ksim::World world(8);
  const ksim::NetAddress svc_addr{0x0a000021, 752};
  kcrypto::DesKey session = world.prng().NextDesKey();
  RandomKeyService svc(&world.network(), svc_addr, session, 20);

  auto k1 = RandomKeyService::Request(&world.network(), kClient, svc_addr, session);
  auto k2 = RandomKeyService::Request(&world.network(), kClient, svc_addr, session);
  ASSERT_TRUE(k1.ok());
  ASSERT_TRUE(k2.ok());
  EXPECT_FALSE(k1.value() == k2.value());
  EXPECT_TRUE(kcrypto::HasOddParity(k1.value().bytes()));
  EXPECT_FALSE(kcrypto::IsWeakKey(k1.value().bytes()));
}

TEST(KeyStoreTest, ProvisionServiceKeyIntoUnit) {
  ksim::World world(9);
  world.clock().Set(100 * ksim::kSecond);
  kcrypto::DesKey master = world.prng().NextDesKey();
  KeyStore store(&world.network(), kStoreAddr, master, 10);
  const kcrypto::DesKey& session = store.service_session_key();

  // Admin stores the nfs service key.
  kcrypto::DesKey nfs_key = world.prng().NextDesKey();
  const kcrypto::DesBlock& kb = nfs_key.bytes();
  ASSERT_TRUE(KeyStore::Store(&world.network(), kClient, kStoreAddr, session, "nfs",
                              kerb::BytesView(kb.data(), kb.size()))
                  .ok());

  // The file server boots, pulls its key into the unit, and can then
  // validate tickets sealed under it.
  EncryptionUnit unit(11);
  auto handle = ProvisionServiceKeyFromKeystore(&world.network(), kClient, kStoreAddr,
                                                session, "nfs", &unit);
  ASSERT_TRUE(handle.ok());
  EXPECT_EQ(unit.key_count(), 1u);

  krb4::Ticket4 ticket;
  ticket.service = krb4::Principal::Service("nfs", "fs", "R");
  ticket.client = krb4::Principal::User("alice", "R");
  ticket.session_key = world.prng().NextDesKey().bytes();
  ticket.lifetime = ksim::kHour;
  auto info = unit.DecryptTicket(handle.value(), krb4::Seal(nfs_key, ticket));
  ASSERT_TRUE(info.ok());
  EXPECT_EQ(info.value().client.name, "alice");
}

TEST(KeyStoreTest, ProvisionUnknownKeyFails) {
  ksim::World world(10);
  KeyStore store(&world.network(), kStoreAddr, world.prng().NextDesKey(), 10);
  EncryptionUnit unit(11);
  auto handle = ProvisionServiceKeyFromKeystore(&world.network(), kClient, kStoreAddr,
                                                store.service_session_key(), "ghost",
                                                &unit);
  EXPECT_EQ(handle.code(), kerb::ErrorCode::kNotFound);
  EXPECT_EQ(unit.key_count(), 0u);
}

TEST(HandheldAuthenticatorTest, RespondsDeterministically) {
  kcrypto::Prng prng(9);
  kcrypto::DesKey key = prng.NextDesKey();
  HandheldAuthenticator device(key);
  EXPECT_EQ(device.Respond(42), device.Respond(42));
  EXPECT_NE(device.Respond(42), device.Respond(43));
  EXPECT_EQ(device.Respond(42), key.EncryptBlock(42ull));
}

}  // namespace
}  // namespace khsm
