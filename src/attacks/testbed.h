// A complete simulated Athena-style deployment for experiments.
//
// One realm, a KDC, three application servers (mail, file, backup — the
// services the paper's attack narratives use), two named users plus an
// optional synthetic user population, and an attacker host. Tests, example
// programs, and every bench build on this.

#ifndef SRC_ATTACKS_TESTBED_H_
#define SRC_ATTACKS_TESTBED_H_

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/admin/kadmin.h"
#include "src/krb4/appserver.h"
#include "src/krb4/client.h"
#include "src/krb4/kdc.h"
#include "src/krb4/replica.h"
#include "src/sim/world.h"

namespace kattack {

struct TestbedConfig {
  uint64_t seed = 1234;
  // Extra synthetic users beyond alice/bob, with passwords drawn from the
  // weak-password population (see src/attacks/passwords.h).
  int extra_users = 0;
  double weak_fraction = 0.5;
  bool server_replay_cache = false;
  ksim::Duration clock_skew_limit = ksim::kDefaultClockSkewLimit;
  // Robustness knobs (all default to the historical lossless testbed):
  // route traffic through a seeded FaultyNetwork, add read-only slave KDCs,
  // give clients a retry/failover policy, enable the KDC reply cache.
  std::optional<ksim::FaultPlan> faults;
  int kdc_slaves = 0;
  std::optional<ksim::RetryPolicy> client_retry;
  ksim::Duration kdc_reply_cache_window = 0;
  // Admin plane (PR 8): registers the changepw service plus an operator
  // principal (oper.admin) and binds a KadminServer on the primary KDC
  // host. Off by default — the historical testbed had no admin channel,
  // and enabling it perturbs the seeded key stream.
  bool enable_kadmin = false;
};

// The layout both single-realm testbeds share (Testbed4 here, Testbed5 in
// src/attacks/testbed5.h): one realm, its well-known addresses, alice's and
// bob's passwords, and three application services with their keys and
// operation logs. Each testbed builds its own world, KDC, servers and
// clients, in its own PRNG fork order.
class TestbedLayout {
 public:
  // Well-known addresses.
  static constexpr ksim::NetAddress kAsAddr{0x0a000058, 88};
  static constexpr ksim::NetAddress kTgsAddr{0x0a000058, 750};
  static constexpr ksim::NetAddress kMailAddr{0x0a000010, 220};
  static constexpr ksim::NetAddress kFileAddr{0x0a000011, 2049};
  static constexpr ksim::NetAddress kBackupAddr{0x0a000012, 911};
  static constexpr ksim::NetAddress kAliceAddr{0x0a000101, 1023};
  static constexpr ksim::NetAddress kBobAddr{0x0a000102, 1023};
  static constexpr ksim::NetAddress kEveAddr{0x0a000666, 31337};

  const std::string realm = "ATHENA.SIM";
  static constexpr const char* kAlicePassword = "quantum-Leap_77";
  static constexpr const char* kBobPassword = "password";  // bob chose badly

  krb4::Principal mail_principal() const;
  krb4::Principal file_principal() const;
  krb4::Principal backup_principal() const;
  krb4::Principal alice_principal() const;
  krb4::Principal bob_principal() const;

  const kcrypto::DesKey& mail_key() const { return mail_key_; }
  const kcrypto::DesKey& file_key() const { return file_key_; }
  const kcrypto::DesKey& backup_key() const { return backup_key_; }

  // Operations each server executed, e.g. "mail-check alice@ATHENA.SIM" or
  // "DELETE /archive/thesis.tex" — attacks assert on these to show effect.
  const std::vector<std::string>& mail_log() const { return mail_log_; }
  const std::vector<std::string>& file_log() const { return file_log_; }
  const std::vector<std::string>& backup_log() const { return backup_log_; }

 protected:
  kcrypto::DesKey mail_key_;
  kcrypto::DesKey file_key_;
  kcrypto::DesKey backup_key_;
  std::vector<std::string> mail_log_;
  std::vector<std::string> file_log_;
  std::vector<std::string> backup_log_;
};

class Testbed4 : public TestbedLayout {
 public:
  explicit Testbed4(TestbedConfig config = {});

  static constexpr ksim::NetAddress kAdminAddr{0x0a000058, kadmin::kAdminPort};
  static constexpr ksim::NetAddress kOperAddr{0x0a000103, 1023};
  static constexpr const char* kOperPassword = "0per-Master_Key!";

  ksim::World& world() { return *world_; }
  krb4::Kdc4& kdc() { return kdcs_->primary(); }
  krb4::KdcReplicaSet4& kdc_replicas() { return *kdcs_; }
  krb4::Client4& alice() { return *alice_; }
  krb4::Client4& bob() { return *bob_; }
  krb4::AppServer4& mail_server() { return *mail_server_; }
  krb4::AppServer4& file_server() { return *file_server_; }
  krb4::AppServer4& backup_server() { return *backup_server_; }

  // The operator principal (instance "admin") — only registered when
  // config.enable_kadmin is set.
  krb4::Principal oper_principal() const;

  // Non-null only when config.enable_kadmin is set.
  kadmin::KadminServer* kadmin_server() { return kadmin_server_.get(); }

  // An admin-protocol client riding an existing (logged-in) Client4; its
  // retry policy follows the testbed's client_retry configuration.
  std::unique_ptr<kadmin::AdminClient> MakeAdminClient(krb4::Client4& client);

  // Synthetic population (principal, password) pairs, including alice/bob.
  const std::vector<std::pair<krb4::Principal, std::string>>& users() const { return users_; }

  // A fresh client bound to `addr` for any registered user.
  std::unique_ptr<krb4::Client4> MakeClient(const krb4::Principal& user,
                                            const ksim::NetAddress& addr);

 private:
  TestbedConfig config_;
  std::unique_ptr<ksim::World> world_;
  std::unique_ptr<krb4::KdcReplicaSet4> kdcs_;
  std::unique_ptr<krb4::AppServer4> mail_server_;
  std::unique_ptr<krb4::AppServer4> file_server_;
  std::unique_ptr<krb4::AppServer4> backup_server_;
  std::unique_ptr<kadmin::KadminServer> kadmin_server_;
  std::unique_ptr<krb4::Client4> alice_;
  std::unique_ptr<krb4::Client4> bob_;
  std::vector<std::pair<krb4::Principal, std::string>> users_;
};

}  // namespace kattack

#endif  // SRC_ATTACKS_TESTBED_H_
