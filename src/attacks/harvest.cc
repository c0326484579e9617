#include "src/attacks/harvest.h"

#include <algorithm>

#include "src/attacks/passwords.h"
#include "src/attacks/testbed.h"
#include "src/crypto/dlog.h"
#include "src/crypto/primes.h"
#include "src/encoding/io.h"
#include "src/hardened/dh_login.h"
#include "src/krb5/kdc.h"

namespace kattack {

namespace {

bool IsDictionaryWord(const std::string& password) {
  const auto& dictionary = CommonPasswordDictionary();
  return std::find(dictionary.begin(), dictionary.end(), password) != dictionary.end();
}

}  // namespace

CrackReport RunEavesdropCrackV4(const HarvestScenario& scenario) {
  TestbedConfig config;
  config.seed = scenario.seed;
  config.extra_users = scenario.population;
  config.weak_fraction = scenario.weak_fraction;
  Testbed4 bed(config);
  CrackReport report;

  // The wiretap.
  ksim::RecordingAdversary recorder;
  bed.world().network().SetAdversary(&recorder);

  // The synthetic population logs in over the course of a day.
  ksim::NetAddress workstation{0x0a007000, 1023};
  for (const auto& [principal, password] : bed.users()) {
    if (principal.name == "alice" || principal.name == "bob") {
      continue;
    }
    ++report.population;
    if (IsDictionaryWord(password)) {
      ++report.weak_users;
    }
    ++workstation.host;
    auto client = bed.MakeClient(principal, workstation);
    (void)client->Login(password);
    bed.world().clock().Advance(ksim::kMinute);
  }
  bed.world().network().SetAdversary(nullptr);

  // Offline: for each recorded AS exchange, identify the principal from the
  // plaintext request and run the dictionary against the sealed reply.
  for (const auto& exchange : recorder.exchanges()) {
    if (!(exchange.request.dst == Testbed4::kAsAddr) || !exchange.has_reply) {
      continue;
    }
    auto req_frame = krb4::Unframe4(exchange.request.payload);
    auto rep_frame = krb4::Unframe4(exchange.reply);
    if (!req_frame.ok() || !rep_frame.ok()) {
      continue;
    }
    auto req = kenc::Decode<krb4::AsRequest4>(req_frame.value().second);
    if (!req.ok()) {
      continue;
    }
    ++report.replies_obtained;
    uint64_t attempts = 0;
    auto password = CrackSealedReply(rep_frame.value().second, req.value().client,
                                     CommonPasswordDictionary(), &attempts);
    report.guess_attempts += attempts;
    if (password.has_value()) {
      ++report.cracked;
    }
  }
  return report;
}

CrackReport RunEavesdropCrackAgainstDhLogin(const DhCrackScenario& scenario) {
  CrackReport report;
  ksim::World world(scenario.base.seed);
  world.clock().Set(1000000 * ksim::kSecond);

  const std::string realm = "ATHENA.SIM";
  kcrypto::Prng pop_prng = world.prng().Fork();
  auto population =
      MakePopulation(pop_prng, PopulationConfig{scenario.base.population,
                                                scenario.base.weak_fraction});

  krb4::KdcDatabase db;
  kcrypto::Prng key_prng = world.prng().Fork();
  db.AddServiceWithRandomKey(krb4::TgsPrincipal(realm), key_prng);
  std::vector<std::pair<krb4::Principal, std::string>> users;
  for (int i = 0; i < static_cast<int>(population.size()); ++i) {
    krb4::Principal user = krb4::Principal::User("user" + std::to_string(i), realm);
    db.AddUser(user, population[i].first);
    users.emplace_back(user, population[i].first);
  }

  kcrypto::Prng group_prng(scenario.base.seed ^ 0x5a5a);
  kcrypto::DhGroup group = scenario.toy_group_bits == 0
                               ? kcrypto::OakleyGroup1()
                               : kcrypto::MakeToyGroup(group_prng, scenario.toy_group_bits);

  const ksim::NetAddress login_addr{0x0a000058, 789};
  khard::DhLoginServer server(&world.network(), login_addr, world.MakeHostClock(0), realm,
                              std::move(db), world.prng().Fork(), group);

  ksim::RecordingAdversary recorder;
  world.network().SetAdversary(&recorder);
  ksim::NetAddress workstation{0x0a007000, 1023};
  kcrypto::Prng client_prng = world.prng().Fork();
  for (const auto& [principal, password] : users) {
    ++report.population;
    if (IsDictionaryWord(password)) {
      ++report.weak_users;
    }
    ++workstation.host;
    (void)khard::DhLogin(&world.network(), workstation, login_addr, principal, password,
                         group, client_prng);
    world.clock().Advance(ksim::kMinute);
  }
  world.network().SetAdversary(nullptr);

  // Offline phase. The attacker sees: principal, client_pub (request),
  // server_pub + DH-wrapped blob (reply).
  kcrypto::Prng attacker_prng(scenario.base.seed ^ 0xa77ac);
  for (const auto& exchange : recorder.exchanges()) {
    if (!(exchange.request.dst == login_addr) || !exchange.has_reply) {
      continue;
    }
    kenc::Reader req_reader(exchange.request.payload);
    krb4::Principal principal;
    const bool principal_ok = kenc::Get(req_reader, principal);
    auto client_pub_bytes = req_reader.GetLengthPrefixed();
    kenc::Reader rep_reader(exchange.reply);
    auto server_pub_bytes = rep_reader.GetLengthPrefixed();
    auto outer = rep_reader.GetLengthPrefixed();
    if (!principal_ok || !client_pub_bytes.ok() || !server_pub_bytes.ok() || !outer.ok()) {
      continue;
    }
    ++report.replies_obtained;

    kerb::Bytes inner;
    if (scenario.toy_group_bits == 0) {
      // Large group: no way in; the dictionary runs against the DH-wrapped
      // blob and confirms nothing.
      uint64_t attempts = 0;
      auto cracked = CrackSealedReply(outer.value(), principal,
                                      CommonPasswordDictionary(), &attempts);
      report.guess_attempts += attempts;
      if (cracked.has_value()) {
        ++report.cracked;  // should never happen
      }
      continue;
    }

    // Toy group: solve the discrete log of the client's public value, then
    // derive K_dh exactly as the parties did and strip the layer.
    uint64_t p = group.p.LowU64();
    uint64_t g = group.g.LowU64();
    uint64_t client_pub = kcrypto::BigInt::FromBytes(client_pub_bytes.value()).LowU64();
    auto exponent = kcrypto::DlogBabyStepGiantStep(g, client_pub, p);
    if (!exponent.has_value()) {
      continue;
    }
    uint64_t server_pub = kcrypto::BigInt::FromBytes(server_pub_bytes.value()).LowU64();
    uint64_t shared = kcrypto::PowMod64(server_pub, *exponent, p);
    kcrypto::DesKey dh_key = kcrypto::DhDeriveKey(kcrypto::BigInt(shared));
    auto stripped = krb4::Unseal4(dh_key, outer.value());
    if (!stripped.ok()) {
      continue;
    }
    uint64_t attempts = 0;
    auto cracked = CrackSealedReply(stripped.value(), principal,
                                    CommonPasswordDictionary(), &attempts);
    report.guess_attempts += attempts;
    if (cracked.has_value()) {
      ++report.cracked;
    }
  }
  (void)attacker_prng;
  return report;
}

CrackReport RunActiveHarvest(const ActiveHarvestScenario& scenario) {
  CrackReport report;
  ksim::World world(scenario.base.seed);
  world.clock().Set(1000000 * ksim::kSecond);

  const std::string realm = "ATHENA.SIM";
  kcrypto::Prng pop_prng = world.prng().Fork();
  auto population =
      MakePopulation(pop_prng, PopulationConfig{scenario.base.population,
                                                scenario.base.weak_fraction});

  krb5::KdcDatabase db;
  kcrypto::Prng key_prng = world.prng().Fork();
  db.AddServiceWithRandomKey(krb4::TgsPrincipal(realm), key_prng);
  std::vector<krb4::Principal> principals;
  for (int i = 0; i < static_cast<int>(population.size()); ++i) {
    krb4::Principal user = krb4::Principal::User("user" + std::to_string(i), realm);
    db.AddUser(user, population[i].first);
    principals.push_back(user);
    ++report.population;
    if (IsDictionaryWord(population[i].first)) {
      ++report.weak_users;
    }
  }

  krb5::KdcPolicy5 policy;
  policy.require_preauth = scenario.kdc_requires_preauth;
  policy.as_rate_limit_per_minute = scenario.kdc_rate_limit_per_minute;
  const ksim::NetAddress as_addr{0x0a000058, 88};
  const ksim::NetAddress tgs_addr{0x0a000058, 750};
  krb5::Kdc5 kdc(&world.network(), as_addr, tgs_addr, world.MakeHostClock(0), realm,
                 std::move(db), world.prng().Fork(), policy);

  // Eve, from her own host, simply asks. No eavesdropping anywhere.
  const ksim::NetAddress eve{0x0a000666, 31337};
  kcrypto::Prng eve_prng(scenario.base.seed ^ 0xeeee);
  for (const auto& principal : principals) {
    krb5::AsRequest5 req;
    req.client = principal;
    req.service_realm = realm;
    req.lifetime = ksim::kHour;
    req.nonce = eve_prng.NextU64();
    auto reply = world.network().Call(eve, as_addr, kenc::Encode(req));
    if (!reply.ok()) {
      ++report.rejected_by_kdc;
      continue;
    }
    auto rep = kenc::Decode<krb5::AsReply5>(reply.value());
    if (!rep.ok()) {
      ++report.rejected_by_kdc;
      continue;
    }
    ++report.replies_obtained;
    uint64_t attempts = 0;
    auto cracked = CrackSealedReply5(rep.value().sealed_enc_part, principal,
                                     CommonPasswordDictionary(), &attempts);
    report.guess_attempts += attempts;
    if (cracked.has_value()) {
      ++report.cracked;
    }
  }
  return report;
}

}  // namespace kattack
