#include "src/attacks/interrealm.h"

#include "src/attacks/testbed5.h"
#include "src/crypto/checksum.h"

namespace kattack {

namespace {

std::string LastTransited(const std::vector<std::string>& log) {
  if (log.empty()) {
    return "";
  }
  const std::string& entry = log.back();
  size_t pos = entry.find("transited ");
  return pos == std::string::npos ? "" : entry.substr(pos + 10);
}

std::string LastClient(const std::vector<std::string>& log) {
  if (log.empty()) {
    return "";
  }
  const std::string& entry = log.back();
  size_t by = entry.find(" by ");
  size_t transited = entry.find(" transited ");
  if (by == std::string::npos || transited == std::string::npos) {
    return "";
  }
  return entry.substr(by + 4, transited - by - 4);
}

}  // namespace

InterRealmForgeReport RunTransitRealmForgery(const std::string& forged_client_realm,
                                             uint64_t seed) {
  RealmTree5 tree(seed);
  InterRealmForgeReport report;
  krb5::EncLayerConfig enc = tree.policy().enc;
  kcrypto::Prng prng(seed ^ 0xf0f0);

  // Honest baseline.
  if (tree.alice().Login(RealmTree5::kAlicePassword).ok() &&
      tree.alice()
          .CallService(RealmTree5::kPayrollAddr, tree.payroll_principal(), false)
          .ok()) {
    report.honest_access_ok = true;
    report.honest_transited = LastTransited(tree.payroll_log());
  }

  // The compromised CORP mints a cross-realm TGT for a fabricated identity,
  // laundering the transited path to mimic an honest origin.
  krb5::Principal forged_client = krb5::Principal::User("ceo", forged_client_realm);
  kcrypto::DesKey forged_session = prng.NextDesKey();
  krb5::Ticket5 forged_tgt;
  forged_tgt.service = krb5::Principal{"krbtgt", "SALES.CORP", "CORP"};
  forged_tgt.client = forged_client;
  forged_tgt.issued_at = tree.world().clock().Now();
  forged_tgt.lifetime = ksim::kHour;
  forged_tgt.session_key = forged_session.bytes();
  // No address (V5 permits omission), and a path that claims the client's
  // realm was honestly crossed.
  if (forged_client_realm != "CORP") {
    forged_tgt.transited = {forged_client_realm};
  }
  kerb::Bytes sealed_forged = krb5::Seal(tree.corp_sales_key(), forged_tgt, enc, prng);

  // Use it against SALES' TGS exactly as a real multi-hop client would.
  krb5::TgsRequest5 req;
  req.service = tree.payroll_principal();
  req.lifetime = ksim::kHour;
  req.nonce = prng.NextU64();
  req.tgt_realm = "CORP";
  req.sealed_tgt = sealed_forged;
  krb5::Authenticator5 auth;
  auth.client = forged_client;
  auth.timestamp = tree.world().clock().Now();
  auth.checksum_type = kcrypto::ChecksumType::kCrc32;
  auth.request_checksum = kcrypto::ComputeChecksum(kcrypto::ChecksumType::kCrc32,
                                                   req.ChecksumInput(), forged_session);
  req.sealed_authenticator = krb5::Seal(forged_session, auth, enc, prng);

  const ksim::NetAddress attacker{0x0a020066, 40000};  // a CORP-side host
  auto reply = tree.world().network().Call(attacker, RealmTree5::kSalesTgs, kenc::Encode(req));
  if (reply.ok()) {
    auto rep = kenc::Decode<krb5::TgsReply5>(reply.value());
    auto part = rep.ok() ? krb5::Unseal<krb5::EncTgsRepPart5>(forged_session,
                                                              rep.value().sealed_enc_part, enc)
                         : kerb::Result<krb5::EncTgsRepPart5>(rep.error());
    if (part.ok()) {
      kcrypto::DesKey service_session(part.value().session_key);
      krb5::ApRequest5 ap;
      ap.sealed_ticket = rep.value().sealed_ticket;
      krb5::Authenticator5 ap_auth;
      ap_auth.client = forged_client;
      ap_auth.timestamp = tree.world().clock().Now();
      ap.sealed_authenticator = krb5::Seal(service_session, ap_auth, enc, prng);
      ap.app_data = kerb::ToBytes("raise-salary ceo 40%");
      auto verdict =
          tree.world().network().Call(attacker, RealmTree5::kPayrollAddr, kenc::Encode(ap));
      report.forged_access_ok = verdict.ok();
      if (verdict.ok()) {
        report.forged_client = LastClient(tree.payroll_log());
        report.forged_transited = LastTransited(tree.payroll_log());
      }
    }
  }

  // The only policy that stops a compromised CORP is to distrust CORP — at
  // the price of every honest path through it.
  tree.payroll_server().options().transited_policy = [](const krb5::Ticket5& ticket) {
    for (const auto& realm : ticket.transited) {
      if (realm == "CORP") {
        return false;
      }
    }
    return true;
  };
  // Re-run the forged AP exchange under the strict policy.
  {
    krb5::TgsRequest5 req2 = req;
    req2.nonce = prng.NextU64();
    krb5::Authenticator5 a2;
    a2.client = forged_client;
    a2.timestamp = tree.world().clock().Now();
    a2.checksum_type = kcrypto::ChecksumType::kCrc32;
    a2.request_checksum = kcrypto::ComputeChecksum(kcrypto::ChecksumType::kCrc32,
                                                   req2.ChecksumInput(), forged_session);
    req2.sealed_authenticator = krb5::Seal(forged_session, a2, enc, prng);
    auto reply2 =
        tree.world().network().Call(attacker, RealmTree5::kSalesTgs, kenc::Encode(req2));
    bool forged_again = false;
    if (reply2.ok()) {
      auto rep = kenc::Decode<krb5::TgsReply5>(reply2.value());
      auto part = rep.ok() ? krb5::Unseal<krb5::EncTgsRepPart5>(forged_session,
                                                                rep.value().sealed_enc_part, enc)
                           : kerb::Result<krb5::EncTgsRepPart5>(rep.error());
      if (part.ok()) {
        kcrypto::DesKey service_session(part.value().session_key);
        krb5::ApRequest5 ap;
        ap.sealed_ticket = rep.value().sealed_ticket;
        krb5::Authenticator5 ap_auth;
        ap_auth.client = forged_client;
        ap_auth.timestamp = tree.world().clock().Now();
        ap.sealed_authenticator = krb5::Seal(service_session, ap_auth, enc, prng);
        forged_again = tree.world()
                           .network()
                           .Call(attacker, RealmTree5::kPayrollAddr, kenc::Encode(ap))
                           .ok();
      }
    }
    report.strict_policy_blocks_forgery = !forged_again;
  }
  // And the honest path pays the same price.
  {
    auto honest = tree.alice().CallService(RealmTree5::kPayrollAddr,
                                           tree.payroll_principal(), false);
    report.strict_policy_blocks_honest = !honest.ok();
  }
  return report;
}

}  // namespace kattack
