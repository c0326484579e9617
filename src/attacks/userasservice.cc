#include "src/attacks/userasservice.h"

#include "src/attacks/passwords.h"
#include "src/attacks/testbed5.h"
#include "src/crypto/str2key.h"

namespace kattack {

namespace {

// Dictionary trial against a ticket sealed under a password-derived key.
std::optional<std::string> CrackSealedTicket(kerb::BytesView sealed,
                                             const krb4::Principal& victim,
                                             const std::vector<std::string>& dictionary) {
  krb5::EncLayerConfig enc;
  for (const auto& candidate : dictionary) {
    kcrypto::DesKey guess = kcrypto::StringToKey(candidate, victim.Salt());
    if (krb5::Unseal<krb5::Ticket5>(guess, sealed, enc).ok()) {
      return candidate;
    }
  }
  return std::nullopt;
}

}  // namespace

UserAsServiceReport RunUserAsServiceHarvest(const UserAsServiceScenario& scenario) {
  Testbed5Config config;
  config.seed = scenario.seed;
  config.kdc_policy.allow_tickets_for_user_principals =
      !scenario.forbid_user_principal_tickets;
  Testbed5 bed(config);
  UserAsServiceReport report;

  // The alternative the paper prefers: bob registers a separate mail
  // instance with a truly random key (in a full deployment it comes from
  // the keystore / random-key service).
  krb5::Principal bob_email{"bob", "email", bed.realm};
  bed.kdc().database().AddServiceWithRandomKey(bob_email, bed.world().prng());

  if (!bed.eve().Login(Testbed5::kEvePassword).ok()) {
    return report;
  }

  // Eve, a perfectly ordinary authenticated user, asks for a "service"
  // ticket naming bob's USER principal.
  krb5::TgsRequest5 req;
  req.service = bed.bob_principal();
  req.lifetime = ksim::kHour;
  auto reply = bed.eve().RawTgsRequest(bed.realm, req);
  if (reply.ok()) {
    report.ticket_issued = true;
    // The ticket blob is sealed under bob's password key — grist for the
    // mill, no eavesdropping required.
    auto cracked = CrackSealedTicket(reply.value().sealed_ticket, bed.bob_principal(),
                                     CommonPasswordDictionary());
    if (cracked.has_value()) {
      report.password_recovered = true;
      report.recovered_password = *cracked;
    }
  }

  // Against the registered instance, the same harvest yields a ticket
  // sealed under a random key: nothing to guess.
  krb5::TgsRequest5 inst_req;
  inst_req.service = bob_email;
  inst_req.lifetime = ksim::kHour;
  auto inst_reply = bed.eve().RawTgsRequest(bed.realm, inst_req);
  if (inst_reply.ok()) {
    report.instance_ticket_issued = true;
    report.instance_password_recovered =
        CrackSealedTicket(inst_reply.value().sealed_ticket, bob_email,
                          CommonPasswordDictionary())
            .has_value();
  }
  return report;
}

}  // namespace kattack
