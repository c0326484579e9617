#include "src/attacks/reuseskey.h"

#include "src/attacks/testbed5.h"

namespace kattack {

ReuseSkeyReport RunReuseSkeyRedirection(const ReuseSkeyScenario& scenario) {
  Testbed5Config config;
  config.seed = scenario.seed;
  config.client_options.send_service_name_check = scenario.service_name_binding;
  config.server_options.verify_service_name_check = scenario.service_name_binding;
  Testbed5 bed(config);
  ReuseSkeyReport report;

  if (!bed.alice().Login(Testbed5::kAlicePassword).ok()) {
    return report;
  }

  // Alice legitimately uses REUSE-SKEY (its multicast purpose): her backup
  // ticket reuses the session key of her file-server ticket.
  auto file_creds = bed.alice().GetServiceTicket(bed.file_principal());
  if (!file_creds.ok()) {
    return report;
  }
  krb5::TgsRequest5 req;
  req.service = bed.backup_principal();
  req.lifetime = ksim::kHour;
  req.options = krb5::kOptReuseSkey;
  req.additional_ticket = file_creds.value().sealed_ticket;
  req.additional_ticket_service = bed.file_principal();
  auto reply = bed.alice().RawTgsRequest(bed.realm, req);
  if (!reply.ok()) {
    return report;
  }
  // Eve can read the backup ticket blob off the wire; here we take it from
  // the reply (it is not encrypted under any client key).
  kerb::Bytes backup_ticket = reply.value().sealed_ticket;

  // Confirm the shared key (from the servers' vantage, via the DB keys).
  krb5::EncLayerConfig enc;
  auto t_backup = krb5::Unseal<krb5::Ticket5>(bed.backup_key(), backup_ticket, enc);
  if (t_backup.ok() &&
      t_backup.value().session_key == kcrypto::DesKey(file_creds.value().session_key).bytes()) {
    report.shared_key_issued = true;
  }

  // Eve wiretaps alice's next file-server request...
  ksim::RecordingAdversary recorder;
  bed.world().network().SetAdversary(&recorder);
  (void)bed.alice().CallService(Testbed5::kFileAddr, bed.file_principal(), false,
                                kerb::ToBytes("save /archive/thesis.tex"));
  bed.world().network().SetAdversary(nullptr);

  kerb::Bytes file_request;
  for (const auto& exchange : recorder.exchanges()) {
    if (exchange.request.dst == Testbed5::kFileAddr) {
      file_request = exchange.request.payload;
    }
  }
  if (file_request.empty()) {
    return report;
  }

  // ...and splices: backup ticket + the LIVE authenticator from the file
  // request + a destructive command, delivered to the backup server.
  auto original = kenc::Decode<krb5::ApRequest5>(file_request);
  if (!original.ok()) {
    return report;
  }
  krb5::ApRequest5 spliced;
  spliced.sealed_ticket = backup_ticket;
  spliced.sealed_authenticator = original.value().sealed_authenticator;
  spliced.app_data = kerb::ToBytes("DELETE /archive/thesis.tex");

  auto verdict = bed.world().network().Call(Testbed5::kAliceAddr, Testbed5::kBackupAddr,
                                            kenc::Encode(spliced));
  report.splice_accepted = verdict.ok();
  if (!bed.backup_log().empty()) {
    report.backup_action = bed.backup_log().back();
  }
  return report;
}

}  // namespace kattack
