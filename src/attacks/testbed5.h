// Version 5 experiment testbeds: a single-realm deployment on Testbed4's
// layout (TestbedLayout, src/attacks/testbed.h), and a three-realm
// hierarchy for the inter-realm experiments.

#ifndef SRC_ATTACKS_TESTBED5_H_
#define SRC_ATTACKS_TESTBED5_H_

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/attacks/testbed.h"
#include "src/krb5/appserver.h"
#include "src/krb5/client.h"
#include "src/krb5/kdc.h"
#include "src/krb5/replica.h"
#include "src/sim/world.h"

namespace kattack {

struct Testbed5Config {
  uint64_t seed = 4321;
  krb5::KdcPolicy5 kdc_policy;  // reply_cache_window lives here
  krb5::AppServer5Options server_options;
  krb5::Client5Options client_options;
  // Robustness knobs, mirroring TestbedConfig: seeded fault injection,
  // slave KDCs, client retry/failover. Defaults keep the lossless testbed.
  std::optional<ksim::FaultPlan> faults;
  int kdc_slaves = 0;
  std::optional<ksim::RetryPolicy> client_retry;
};

class Testbed5 : public TestbedLayout {
 public:
  explicit Testbed5(Testbed5Config config = {});

  static constexpr const char* kEvePassword = "evil-but-registered";

  ksim::World& world() { return *world_; }
  krb5::Kdc5& kdc() { return kdcs_->primary(); }
  krb5::KdcReplicaSet5& kdc_replicas() { return *kdcs_; }
  krb5::Client5& alice() { return *alice_; }
  krb5::Client5& bob() { return *bob_; }
  // Eve holds a legitimate account — the paper's adversary "may be in
  // league with some subset of servers [and] clients".
  krb5::Client5& eve() { return *eve_; }
  krb5::AppServer5& mail_server() { return *mail_server_; }
  krb5::AppServer5& file_server() { return *file_server_; }
  krb5::AppServer5& backup_server() { return *backup_server_; }

  krb5::Principal eve_principal() const;

  std::unique_ptr<krb5::Client5> MakeClient(const krb5::Principal& user,
                                            const ksim::NetAddress& addr,
                                            const krb5::Client5Options& options);

 private:
  Testbed5Config config_;
  std::unique_ptr<ksim::World> world_;
  std::unique_ptr<krb5::KdcReplicaSet5> kdcs_;
  std::unique_ptr<krb5::AppServer5> mail_server_;
  std::unique_ptr<krb5::AppServer5> file_server_;
  std::unique_ptr<krb5::AppServer5> backup_server_;
  std::unique_ptr<krb5::Client5> alice_;
  std::unique_ptr<krb5::Client5> bob_;
  std::unique_ptr<krb5::Client5> eve_;
};

// ---------------------------------------------------------------------------
// Three realms in a hierarchy:  ENG.CORP ← CORP → SALES.CORP, with
// inter-realm keys along the edges; alice lives in ENG.CORP, the payroll
// service in SALES.CORP. Reaching payroll transits CORP — the topology of
// the paper's cascading-trust discussion.
class RealmTree5 {
 public:
  explicit RealmTree5(uint64_t seed = 99, krb5::KdcPolicy5 policy = {});

  static constexpr ksim::NetAddress kEngAs{0x0a010058, 88};
  static constexpr ksim::NetAddress kEngTgs{0x0a010058, 750};
  static constexpr ksim::NetAddress kCorpAs{0x0a020058, 88};
  static constexpr ksim::NetAddress kCorpTgs{0x0a020058, 750};
  static constexpr ksim::NetAddress kSalesAs{0x0a030058, 88};
  static constexpr ksim::NetAddress kSalesTgs{0x0a030058, 750};
  static constexpr ksim::NetAddress kPayrollAddr{0x0a030010, 7000};
  static constexpr ksim::NetAddress kAliceAddr{0x0a010101, 1023};

  static constexpr const char* kAlicePassword = "engineering-rules-1";

  ksim::World& world() { return *world_; }
  krb5::Kdc5& eng() { return *eng_; }
  krb5::Kdc5& corp() { return *corp_; }
  krb5::Kdc5& sales() { return *sales_; }
  krb5::Client5& alice() { return *alice_; }
  krb5::AppServer5& payroll_server() { return *payroll_server_; }

  krb5::Principal alice_principal() const;
  krb5::Principal payroll_principal() const;

  // The CORP↔SALES inter-realm key — what a compromised CORP holds. Exposed
  // so experiment E13 can model the compromise.
  const kcrypto::DesKey& corp_sales_key() const { return corp_sales_key_; }
  const krb5::KdcPolicy5& policy() const { return policy_; }

  const std::vector<std::string>& payroll_log() const { return payroll_log_; }

 private:
  krb5::KdcPolicy5 policy_;
  std::unique_ptr<ksim::World> world_;
  std::unique_ptr<krb5::Kdc5> eng_;
  std::unique_ptr<krb5::Kdc5> corp_;
  std::unique_ptr<krb5::Kdc5> sales_;
  kcrypto::DesKey corp_sales_key_;
  kcrypto::DesKey payroll_key_;
  std::unique_ptr<krb5::AppServer5> payroll_server_;
  std::unique_ptr<krb5::Client5> alice_;
  std::vector<std::string> payroll_log_;
};

}  // namespace kattack

#endif  // SRC_ATTACKS_TESTBED5_H_
