#include "src/attacks/testbed5.h"

namespace kattack {

Testbed5::Testbed5(Testbed5Config config) : config_(config) {
  world_ = config.faults.has_value()
               ? std::make_unique<ksim::World>(config.seed, *config.faults)
               : std::make_unique<ksim::World>(config.seed);
  world_->clock().Set(1000000 * ksim::kSecond);

  krb5::KdcDatabase db;
  kcrypto::Prng key_prng = world_->prng().Fork();
  db.AddServiceWithRandomKey(krb4::TgsPrincipal(realm), key_prng);
  mail_key_ = db.AddServiceWithRandomKey(mail_principal(), key_prng);
  file_key_ = db.AddServiceWithRandomKey(file_principal(), key_prng);
  backup_key_ = db.AddServiceWithRandomKey(backup_principal(), key_prng);
  db.AddUser(alice_principal(), kAlicePassword);
  db.AddUser(bob_principal(), kBobPassword);
  db.AddUser(eve_principal(), kEvePassword);

  // Zero slaves passes the PRNG fork straight through to the primary, so
  // default-config reply bytes stay pinned (kdc_capture_test).
  kdcs_ = std::make_unique<krb5::KdcReplicaSet5>(&world_->network(), kAsAddr, kTgsAddr,
                                                 world_->MakeHostClock(0), realm, std::move(db),
                                                 world_->prng().Fork(), config.kdc_slaves,
                                                 config.kdc_policy);

  auto make_server = [&](const ksim::NetAddress& addr, const krb5::Principal& principal,
                         const kcrypto::DesKey& key, std::vector<std::string>* log,
                         const std::string& verb, const std::string& reply_text) {
    return std::make_unique<krb5::AppServer5>(
        &world_->network(), addr, principal, key, world_->MakeHostClock(0),
        world_->prng().Fork(),
        [log, verb, reply_text](const krb5::VerifiedSession5& session,
                                const kerb::Bytes& op) {
          std::string operation = op.empty() ? verb : kerb::ToString(op);
          log->push_back(operation + " by " + session.client.ToString());
          return kerb::ToBytes(reply_text + operation);
        },
        config_.server_options);
  };

  mail_server_ = make_server(kMailAddr, mail_principal(), mail_key_, &mail_log_, "mail-check",
                             "mail-ok: ");
  file_server_ = make_server(kFileAddr, file_principal(), file_key_, &file_log_, "mount-home",
                             "file-ok: ");
  backup_server_ = make_server(kBackupAddr, backup_principal(), backup_key_, &backup_log_,
                               "list-archives", "backup-ok: ");

  alice_ = MakeClient(alice_principal(), kAliceAddr, config.client_options);
  bob_ = MakeClient(bob_principal(), kBobAddr, config.client_options);
  eve_ = MakeClient(eve_principal(), kEveAddr, config.client_options);
}

krb5::Principal Testbed5::eve_principal() const { return krb5::Principal::User("eve", realm); }

std::unique_ptr<krb5::Client5> Testbed5::MakeClient(const krb5::Principal& user,
                                                    const ksim::NetAddress& addr,
                                                    const krb5::Client5Options& options) {
  auto client = std::make_unique<krb5::Client5>(&world_->network(), addr,
                                                world_->MakeHostClock(0), user, kAsAddr,
                                                world_->prng().Fork(), options);
  client->AddRealmTgs(realm, kTgsAddr);
  if (config_.client_retry.has_value()) {
    client->ConfigureRetry(&world_->clock(), *config_.client_retry, world_->prng().NextU64());
    kdcs_->AttachClient(*client);
  }
  return client;
}

// --------------------------------------------------------------------------- RealmTree5

RealmTree5::RealmTree5(uint64_t seed, krb5::KdcPolicy5 policy) : policy_(policy) {
  world_ = std::make_unique<ksim::World>(seed);
  world_->clock().Set(2000000 * ksim::kSecond);
  kcrypto::Prng key_prng = world_->prng().Fork();

  kcrypto::DesKey eng_corp_key = key_prng.NextDesKey();
  corp_sales_key_ = key_prng.NextDesKey();

  // ENG.CORP realm.
  krb5::KdcDatabase eng_db;
  eng_db.AddServiceWithRandomKey(krb4::TgsPrincipal("ENG.CORP"), key_prng);
  eng_db.AddUser(alice_principal(), kAlicePassword);
  eng_ = std::make_unique<krb5::Kdc5>(&world_->network(), kEngAs, kEngTgs,
                                      world_->MakeHostClock(0), "ENG.CORP", std::move(eng_db),
                                      world_->prng().Fork(), policy_);
  eng_->AddInterRealmKey("CORP", eng_corp_key);
  eng_->AddRealmRoute("SALES.CORP", "CORP");

  // CORP realm (the transit hop).
  krb5::KdcDatabase corp_db;
  corp_db.AddServiceWithRandomKey(krb4::TgsPrincipal("CORP"), key_prng);
  corp_ = std::make_unique<krb5::Kdc5>(&world_->network(), kCorpAs, kCorpTgs,
                                       world_->MakeHostClock(0), "CORP", std::move(corp_db),
                                       world_->prng().Fork(), policy_);
  corp_->AddInterRealmKey("ENG.CORP", eng_corp_key);
  corp_->AddInterRealmKey("SALES.CORP", corp_sales_key_);

  // SALES.CORP realm with the payroll service.
  krb5::KdcDatabase sales_db;
  sales_db.AddServiceWithRandomKey(krb4::TgsPrincipal("SALES.CORP"), key_prng);
  payroll_key_ = sales_db.AddServiceWithRandomKey(payroll_principal(), key_prng);
  sales_ = std::make_unique<krb5::Kdc5>(&world_->network(), kSalesAs, kSalesTgs,
                                        world_->MakeHostClock(0), "SALES.CORP",
                                        std::move(sales_db), world_->prng().Fork(), policy_);
  sales_->AddInterRealmKey("CORP", corp_sales_key_);

  krb5::AppServer5Options payroll_options;
  payroll_options.enc = policy_.enc;
  payroll_server_ = std::make_unique<krb5::AppServer5>(
      &world_->network(), kPayrollAddr, payroll_principal(), payroll_key_,
      world_->MakeHostClock(0), world_->prng().Fork(),
      [this](const krb5::VerifiedSession5& session, const kerb::Bytes& op) {
        std::string operation = op.empty() ? std::string("view-salary") : kerb::ToString(op);
        std::string path = "[";
        for (size_t i = 0; i < session.transited.size(); ++i) {
          path += (i ? "," : "") + session.transited[i];
        }
        path += "]";
        payroll_log_.push_back(operation + " by " + session.client.ToString() +
                               " transited " + path);
        return kerb::ToBytes("payroll-ok: " + operation);
      },
      payroll_options);

  krb5::Client5Options client_options;
  client_options.enc = policy_.enc;
  alice_ = std::make_unique<krb5::Client5>(&world_->network(), kAliceAddr,
                                           world_->MakeHostClock(0), alice_principal(), kEngAs,
                                           world_->prng().Fork(), client_options);
  alice_->AddRealmTgs("ENG.CORP", kEngTgs);
  alice_->AddRealmTgs("CORP", kCorpTgs);
  alice_->AddRealmTgs("SALES.CORP", kSalesTgs);
}

krb5::Principal RealmTree5::alice_principal() const {
  return krb5::Principal::User("alice", "ENG.CORP");
}

krb5::Principal RealmTree5::payroll_principal() const {
  return krb5::Principal::Service("payroll", "hr-host", "SALES.CORP");
}

}  // namespace kattack
