#include "src/attacks/address.h"

#include "src/attacks/testbed.h"

namespace kattack {

AddressBindingReport RunAddressBindingStudy(uint64_t seed) {
  TestbedConfig config;
  config.seed = seed;
  Testbed4 bed(config);
  AddressBindingReport report;

  if (!bed.alice().Login(Testbed4::kAlicePassword).ok()) {
    return report;
  }
  auto creds = bed.alice().GetServiceTicket(bed.file_principal());
  if (!creds.ok()) {
    return report;
  }

  // Host compromise: eve reads alice's credential cache ("they are stored
  // in some area accessible to root").
  kerb::Bytes stolen_ticket = creds.value().sealed_ticket;
  kcrypto::DesKey stolen_key = creds.value().session_key;

  auto make_request = [&](uint32_t claimed_addr) {
    krb4::Authenticator4 auth;
    auth.client = bed.alice_principal();
    auth.client_addr = claimed_addr;
    auth.timestamp = bed.world().clock().Now();
    krb4::ApRequest4 req;
    req.sealed_ticket = stolen_ticket;
    req.sealed_auth = krb4::Seal(stolen_key, auth);
    req.app_data = kerb::ToBytes("read /home/alice/secrets");
    return krb4::Frame4(krb4::MsgType::kApRequest, req);
  };

  // Naive reuse: the packet honestly carries eve's address. The address
  // check earns its keep against THIS adversary only.
  auto naive = bed.world().network().Call(Testbed4::kEveAddr, Testbed4::kFileAddr,
                                          make_request(Testbed4::kEveAddr.host));
  report.naive_reuse_rejected = !naive.ok();

  // Spoofed reuse: same credentials, source forged to alice's address.
  auto spoofed = bed.world().network().Call(Testbed4::kAliceAddr, Testbed4::kFileAddr,
                                            make_request(Testbed4::kAliceAddr.host));
  report.spoofed_reuse_accepted = spoofed.ok();

  // Post-authentication hijack: after alice authenticates, the session's
  // follow-up commands are gated only on source address (a pattern the
  // address binding invites). Eve injects one.
  std::vector<std::string> session_commands;
  const ksim::NetAddress session_port{0x0a000011, 2050};
  ksim::NetAddress authenticated_peer{};
  bed.world().network().Bind(
      session_port, [&](const ksim::Message& msg) -> kerb::Result<kerb::Bytes> {
        if (!(msg.src == authenticated_peer)) {
          return kerb::MakeError(kerb::ErrorCode::kAuthFailed, "wrong source");
        }
        session_commands.push_back(kerb::ToString(msg.payload));
        return kerb::ToBytes("done");
      });

  // Alice authenticates (full Kerberos exchange), establishing the session.
  if (bed.alice().CallService(Testbed4::kFileAddr, bed.file_principal(), true).ok()) {
    authenticated_peer = Testbed4::kAliceAddr;
    (void)bed.world().network().Call(Testbed4::kAliceAddr, session_port,
                                     kerb::ToBytes("ls /home/alice"));
  }
  // Eve takes the session over with a spoofed source.
  auto hijack = bed.world().network().Call(Testbed4::kAliceAddr, session_port,
                                           kerb::ToBytes("cat /home/alice/secrets"));
  report.hijack_accepted = hijack.ok();
  if (!session_commands.empty()) {
    report.hijack_evidence = session_commands.back();
  }
  return report;
}

}  // namespace kattack
