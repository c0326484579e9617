#include "src/attacks/environment.h"

#include "src/attacks/testbed.h"
#include "src/encoding/io.h"

namespace kattack {

DisklessCacheReport RunDisklessTmpCacheTheft(uint64_t seed) {
  TestbedConfig config;
  config.seed = seed;
  Testbed4 bed(config);
  DisklessCacheReport report;

  if (!bed.alice().Login(Testbed4::kAlicePassword).ok()) {
    return report;
  }
  auto creds = bed.alice().GetServiceTicket(bed.mail_principal());
  if (!creds.ok()) {
    return report;
  }

  // The diskless workstation "writes /tmp" to its file server: the
  // credential cache — raw session key and ticket — crosses the wire.
  const ksim::NetAddress nfs_tmp{0x0a000011, 2051};
  std::map<std::string, kerb::Bytes> server_side_tmp;
  bed.world().network().Bind(nfs_tmp,
                             [&](const ksim::Message& msg) -> kerb::Result<kerb::Bytes> {
                               server_side_tmp["/tmp/krb4cc_alice"] = msg.payload;
                               return kerb::ToBytes("written");
                             });

  ksim::RecordingAdversary recorder;
  bed.world().network().SetAdversary(&recorder);
  {
    kenc::Writer cache;
    const kcrypto::DesBlock& key = creds.value().session_key.bytes();
    cache.PutBytes(kerb::BytesView(key.data(), key.size()));
    cache.PutLengthPrefixed(creds.value().sealed_ticket);
    (void)bed.world().network().Call(Testbed4::kAliceAddr, nfs_tmp, cache.Peek());
  }
  bed.world().network().SetAdversary(nullptr);
  report.cache_written_over_network = !recorder.exchanges().empty();

  // The wiretapper reads the session key straight out of the NFS write.
  kcrypto::DesKey stolen_key;
  kerb::Bytes stolen_ticket;
  for (const auto& exchange : recorder.exchanges()) {
    if (!(exchange.request.dst == nfs_tmp)) {
      continue;
    }
    kenc::Reader r(exchange.request.payload);
    auto key_bytes = r.GetBytes(8);
    auto ticket = r.GetLengthPrefixed();
    if (key_bytes.ok() && ticket.ok()) {
      kcrypto::DesBlock block;
      std::copy(key_bytes.value().begin(), key_bytes.value().end(), block.begin());
      stolen_key = kcrypto::DesKey(block);
      stolen_ticket = ticket.value();
      report.session_key_recovered_from_wire = true;
    }
  }
  if (!report.session_key_recovered_from_wire) {
    return report;
  }

  // Impersonation with the stolen material (spoofing alice's address, which
  // E12 showed is free).
  krb4::Authenticator4 auth;
  auth.client = bed.alice_principal();
  auth.client_addr = Testbed4::kAliceAddr.host;
  auth.timestamp = bed.world().clock().Now();
  krb4::ApRequest4 req;
  req.sealed_ticket = stolen_ticket;
  req.sealed_auth = krb4::Seal(stolen_key, auth);
  req.app_data = kerb::ToBytes("read inbox");
  auto verdict =
      bed.world().network().Call(Testbed4::kAliceAddr, Testbed4::kMailAddr,
                                 krb4::Frame4(krb4::MsgType::kApRequest, req));
  report.impersonation_succeeded = verdict.ok();
  if (!bed.mail_log().empty()) {
    report.evidence = bed.mail_log().back();
  }
  return report;
}

HostExposureReport RunHostExposureStudy(uint64_t seed) {
  HostExposureReport report;

  // Multi-user host: the attacker's process reads the cache while the user
  // is logged in.
  {
    TestbedConfig config;
    config.seed = seed;
    Testbed4 bed(config);
    if (!bed.alice().Login(Testbed4::kAlicePassword).ok()) {
      return report;
    }
    (void)bed.alice().GetServiceTicket(bed.mail_principal());
    // Concurrent access: live credentials, right there.
    report.concurrent_theft_succeeded = !bed.alice().credentials().empty() &&
                                        bed.alice().tgs_credentials().has_value();
  }

  // Workstation: the attacker only reaches the machine after the user
  // leaves — and logout wiped the keys.
  {
    TestbedConfig config;
    config.seed = seed + 1;
    Testbed4 bed(config);
    if (!bed.alice().Login(Testbed4::kAlicePassword).ok()) {
      return report;
    }
    (void)bed.alice().GetServiceTicket(bed.mail_principal());
    bed.alice().Logout();  // "leaving the attacker to sift through the debris"
    report.post_logout_theft_succeeded =
        !bed.alice().credentials().empty() || bed.alice().tgs_credentials().has_value();
  }
  return report;
}

}  // namespace kattack
