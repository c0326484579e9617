// Byte pin of the cluster write path: kadmin writes on the controller's
// logical database, each followed by PropagateAll to a 4-node cluster.
//
// The sequence covers every record shape the path journals and ships: a
// password change and a key rotation (whole-ring upserts), an added user
// and service, a deleted principal, and a controller compaction between
// two windows. The pins fold, for the controller and every node: the WAL
// image, the snapshot image and SimDevice::op_digest(); plus every wire
// exchange (kadmin requests and replies, kprop frames and acks, the
// operator's logins) and the kobs digest. Any change to how a stage
// encodes, seals, journals or applies a record moves one of them.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/admin/kadmin.h"
#include "src/cluster/cluster.h"
#include "src/cluster/population.h"
#include "src/cluster/router.h"
#include "src/krb4/client.h"
#include "src/krb4/kdcstore.h"
#include "src/obs/kobs.h"
#include "src/sim/network.h"
#include "src/sim/world.h"

namespace {

constexpr uint64_t kGoldenDevices = 0xb80c47056887889eull;
constexpr uint64_t kGoldenWire = 0x5003e93a50cd9343ull;
constexpr uint64_t kGoldenTrace = 0x8e1a6b049b18305bull;

constexpr ksim::NetAddress kAdminAddr{0x0a0000f0, kadmin::kAdminPort};
constexpr ksim::NetAddress kOperAddr{0x0a0000f1, 4000};

struct Fnv {
  uint64_t h = 0xcbf29ce484222325ull;
  void Byte(uint8_t b) { h = (h ^ b) * 0x100000001b3ull; }
  void U64(uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      Byte(static_cast<uint8_t>(v >> (8 * i)));
    }
  }
  void Blob(kerb::BytesView bytes) {
    U64(bytes.size());
    for (uint8_t b : bytes) {
      Byte(b);
    }
  }
};

void FoldStore(Fnv& fnv, const kstore::KStore& store) {
  const kstore::SimDevice& dev = store.device();
  fnv.Blob(dev.ReadAll(kstore::KStoreOptions{}.wal_file));
  fnv.Blob(dev.ReadAll(kstore::KStoreOptions{}.snapshot_file));
  fnv.U64(dev.op_digest());
  fnv.U64(store.last_lsn());
}

struct PinResult {
  uint64_t devices = 0;
  uint64_t wire = 0;
  uint64_t trace = 0;
};

PinResult RunWriteSequence() {
  kobs::ScopedTrace trace;
  ksim::World world(0x717e);
  ksim::RecordingAdversary tap;
  world.network().SetAdversary(&tap);

  kcluster::PopulationConfig pc;
  pc.users = 300;
  pc.services = 6;
  const kcluster::Population population(pc);
  kcluster::ClusterController controller(&world, kcluster::ClusterConfig{});
  const std::string realm = controller.config().realm;
  krb4::KdcDatabase& logical = controller.logical_db();
  population.Install(logical);
  kcrypto::Prng key_prng(0xad417);
  logical.AddServiceWithRandomKey(kadmin::AdminPrincipal(realm), key_prng);
  const krb4::Principal oper{"oper", "admin", realm};
  const kcrypto::DesKey oper_key = key_prng.NextDesKey();
  logical.ApplyUpsert(oper, oper_key, krb4::PrincipalKind::kUser);
  controller.Bootstrap({{1, 0x0a000010}, {2, 0x0a000011}, {3, 0x0a000012}, {4, 0x0a000013}});

  kadmin::KadminServer server(&world.network(), kAdminAddr, realm, &logical,
                              world.MakeHostClock(), world.prng().Fork());
  kcluster::ClientRouter router;
  router.AdoptView(controller.View());
  krb4::Client4 client(&world.network(), kOperAddr, world.MakeHostClock(), oper,
                       {0x0a000010, controller.config().as_port},
                       {0x0a000010, controller.config().tgs_port});
  router.Attach(client);
  EXPECT_TRUE(client.LoginWithKey(oper_key).ok());
  kadmin::AdminClient admin(&client, &world.network(), world.MakeHostClock(), kAdminAddr,
                            kcrypto::Prng(0xad));

  auto write = [&](const kerb::Result<kadmin::AdminClient::Ack>& ack) {
    EXPECT_TRUE(ack.ok()) << (ack.ok() ? "" : ack.error().detail);
    controller.PropagateAll();
    world.clock().Advance(3 * ksim::kSecond);
  };
  write(admin.ChangePassword(population.UserPrincipal(3), "pin-password-0003"));
  write(admin.RotateKey(population.ServicePrincipal(1)));
  write(admin.AddUser(krb4::Principal::User("pinned", realm), "pin-password-new1"));
  write(admin.AddService(krb4::Principal::Service("pinsvc", "host9", realm)));
  kstore::KStore& store = controller.store();
  store.Compact(krb4::SnapshotDatabase(logical, store.last_lsn()));
  write(admin.DelPrincipal(population.UserPrincipal(7)));
  write(admin.ChangePassword(population.UserPrincipal(11), "pin-password-0011"));
  write(admin.RotateKey(population.ServicePrincipal(4)));
  write(admin.DelPrincipal(krb4::Principal::User("pinned", realm)));
  EXPECT_EQ(server.applied(), 8u);
  EXPECT_TRUE(controller.AllSlicesConsistent());

  PinResult result;
  Fnv devices;
  FoldStore(devices, controller.store());
  for (uint64_t id : controller.node_ids()) {
    EXPECT_EQ(controller.node(id)->applied_lsn(), controller.store().last_lsn());
    FoldStore(devices, controller.node(id)->store());
  }
  result.devices = devices.h;
  Fnv wire;
  for (const ksim::RecordingAdversary::Exchange& x : tap.exchanges()) {
    wire.U64(x.request.src.host);
    wire.U64(x.request.dst.host);
    wire.U64(x.request.dst.port);
    wire.Blob(x.request.payload);
    wire.Blob(x.reply);
  }
  result.wire = wire.h;
  world.network().SetAdversary(nullptr);
  result.trace = trace->digest();
  return result;
}

TEST(WritePathPinTest, AdminWritesAndPropagationKeepTheirBytes) {
  const PinResult first = RunWriteSequence();
  const PinResult second = RunWriteSequence();
  EXPECT_EQ(first.devices, second.devices) << "device images vary across reruns";
  EXPECT_EQ(first.wire, second.wire) << "wire bytes vary across reruns";
  EXPECT_EQ(first.trace, second.trace) << "trace digest varies across reruns";
  EXPECT_EQ(first.devices, kGoldenDevices) << "actual 0x" << std::hex << first.devices;
  EXPECT_EQ(first.wire, kGoldenWire) << "actual 0x" << std::hex << first.wire;
  EXPECT_EQ(first.trace, kGoldenTrace) << "actual 0x" << std::hex << first.trace;
}

}  // namespace
