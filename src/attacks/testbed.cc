#include "src/attacks/testbed.h"

#include "src/attacks/passwords.h"

namespace kattack {

namespace {

krb4::AppServerOptions ServerOptions(const TestbedConfig& config) {
  krb4::AppServerOptions options;
  options.replay_cache = config.server_replay_cache;
  options.clock_skew_limit = config.clock_skew_limit;
  return options;
}

}  // namespace

Testbed4::Testbed4(TestbedConfig config) : config_(config) {
  world_ = config.faults.has_value()
               ? std::make_unique<ksim::World>(config.seed, *config.faults)
               : std::make_unique<ksim::World>(config.seed);
  // Start the simulation at a plausible "afternoon" so negative skews stay
  // positive in absolute time.
  world_->clock().Set(1000000 * ksim::kSecond);

  krb4::KdcDatabase db;
  kcrypto::Prng key_prng = world_->prng().Fork();

  // TGS key.
  db.AddServiceWithRandomKey(krb4::TgsPrincipal(realm), key_prng);
  // Application services.
  mail_key_ = db.AddServiceWithRandomKey(mail_principal(), key_prng);
  file_key_ = db.AddServiceWithRandomKey(file_principal(), key_prng);
  backup_key_ = db.AddServiceWithRandomKey(backup_principal(), key_prng);
  // Admin plane (off by default so the historical key stream stays pinned).
  if (config.enable_kadmin) {
    db.AddServiceWithRandomKey(kadmin::AdminPrincipal(realm), key_prng);
    db.AddUser(oper_principal(), kOperPassword);
  }

  // Users.
  users_.emplace_back(alice_principal(), kAlicePassword);
  users_.emplace_back(bob_principal(), kBobPassword);
  kcrypto::Prng pop_prng = world_->prng().Fork();
  auto population =
      MakePopulation(pop_prng, PopulationConfig{config.extra_users, config.weak_fraction});
  for (int i = 0; i < static_cast<int>(population.size()); ++i) {
    krb4::Principal user = krb4::Principal::User("user" + std::to_string(i), realm);
    users_.emplace_back(user, population[i].first);
  }
  for (const auto& [principal, password] : users_) {
    db.AddUser(principal, password);
  }

  krb4::KdcOptions kdc_options;
  kdc_options.reply_cache_window = config.kdc_reply_cache_window;
  // With zero slaves the replica set passes its PRNG fork straight through
  // to the primary, so default-config reply bytes stay pinned
  // (tests/integration/kdc_capture_test.cc).
  kdcs_ = std::make_unique<krb4::KdcReplicaSet4>(&world_->network(), kAsAddr, kTgsAddr,
                                                 world_->MakeHostClock(0), realm, std::move(db),
                                                 world_->prng().Fork(), config.kdc_slaves,
                                                 kdc_options);

  mail_server_ = std::make_unique<krb4::AppServer4>(
      &world_->network(), kMailAddr, mail_principal(), mail_key_, world_->MakeHostClock(0),
      [this](const krb4::VerifiedSession& session, const kerb::Bytes&) {
        mail_log_.push_back("mail-check " + session.client.ToString());
        return kerb::ToBytes("You have 3 messages.");
      },
      ServerOptions(config));

  file_server_ = std::make_unique<krb4::AppServer4>(
      &world_->network(), kFileAddr, file_principal(), file_key_, world_->MakeHostClock(0),
      [this](const krb4::VerifiedSession& session, const kerb::Bytes& op) {
        std::string operation = op.empty() ? std::string("mount-home") : kerb::ToString(op);
        file_log_.push_back(operation + " by " + session.client.ToString());
        return kerb::ToBytes("ok: " + operation);
      },
      ServerOptions(config));

  backup_server_ = std::make_unique<krb4::AppServer4>(
      &world_->network(), kBackupAddr, backup_principal(), backup_key_,
      world_->MakeHostClock(0),
      [this](const krb4::VerifiedSession& session, const kerb::Bytes& op) {
        std::string operation = op.empty() ? std::string("list-archives") : kerb::ToString(op);
        backup_log_.push_back(operation + " by " + session.client.ToString());
        return kerb::ToBytes("backup-ok: " + operation);
      },
      ServerOptions(config));

  if (config.enable_kadmin) {
    kadmin::AdminPolicy admin_policy;
    admin_policy.clock_skew_limit = config.clock_skew_limit;
    kadmin_server_ = std::make_unique<kadmin::KadminServer>(
        &world_->network(), kAdminAddr, realm, &kdcs_->primary().database(),
        world_->MakeHostClock(0), world_->prng().Fork(), admin_policy);
  }

  alice_ = MakeClient(alice_principal(), kAliceAddr);
  bob_ = MakeClient(bob_principal(), kBobAddr);
}

krb4::Principal TestbedLayout::mail_principal() const {
  return krb4::Principal::Service("pop", "mailhub", realm);
}
krb4::Principal TestbedLayout::file_principal() const {
  return krb4::Principal::Service("nfs", "fileserver", realm);
}
krb4::Principal TestbedLayout::backup_principal() const {
  return krb4::Principal::Service("backup", "vault", realm);
}
krb4::Principal TestbedLayout::alice_principal() const {
  return krb4::Principal::User("alice", realm);
}
krb4::Principal TestbedLayout::bob_principal() const {
  return krb4::Principal::User("bob", realm);
}
krb4::Principal Testbed4::oper_principal() const {
  return krb4::Principal{"oper", "admin", realm};
}

std::unique_ptr<kadmin::AdminClient> Testbed4::MakeAdminClient(krb4::Client4& client) {
  auto admin = std::make_unique<kadmin::AdminClient>(&client, &world_->network(),
                                                     world_->MakeHostClock(0), kAdminAddr,
                                                     kcrypto::Prng(world_->prng().NextU64()));
  if (config_.client_retry.has_value()) {
    admin->ConfigureRetry(&world_->clock(), *config_.client_retry, world_->prng().NextU64());
  }
  return admin;
}

std::unique_ptr<krb4::Client4> Testbed4::MakeClient(const krb4::Principal& user,
                                                    const ksim::NetAddress& addr) {
  auto client = std::make_unique<krb4::Client4>(&world_->network(), addr,
                                                world_->MakeHostClock(0), user, kAsAddr,
                                                kTgsAddr);
  if (config_.client_retry.has_value()) {
    client->ConfigureRetry(&world_->clock(), *config_.client_retry, world_->prng().NextU64());
    kdcs_->AttachClient(*client);
  }
  return client;
}

}  // namespace kattack
