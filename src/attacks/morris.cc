#include "src/attacks/morris.h"

#include "src/attacks/testbed.h"

namespace kattack {

MorrisReport RunMorrisSpoof(const MorrisScenario& scenario) {
  TestbedConfig config;
  config.seed = scenario.seed;
  Testbed4 bed(config);
  MorrisReport report;

  // The rsh-style service: data on an established connection is a framed V4
  // AP request whose app_data is the command to run. It reuses the file
  // server's principal and key.
  std::vector<std::string> executed;
  std::map<ksim::NetAddress, uint64_t> pending_challenges;

  ksim::TcpServer tcp(
      scenario.isn_policy, scenario.seed + 1,
      [&](const ksim::NetAddress& peer, const kerb::Bytes& data) {
        auto framed = krb4::Unframe4(data);
        if (!framed.ok() || framed.value().first != krb4::MsgType::kApRequest) {
          return;
        }
        auto req = kenc::Decode<krb4::ApRequest4>(framed.value().second);
        if (!req.ok()) {
          return;
        }
        auto session = bed.file_server().VerifyApRequest(req.value(), peer.host);
        if (!session.ok()) {
          return;
        }
        if (scenario.challenge_response) {
          // The server answers with a nonce ON THE CONNECTION — which goes
          // to the claimed peer. Execution happens only after the client
          // echoes nonce+1 in a follow-up segment. A blind spoofer never
          // sees the nonce, so the command never runs. (The nonce "reply"
          // is modelled by storing it keyed by peer; the legitimate client
          // would read it from its socket.)
          pending_challenges[peer] = 0xC0FFEE ^ session.value().authenticator_time;
          return;
        }
        executed.push_back(kerb::ToString(req.value().app_data) + " as " +
                           session.value().client.ToString());
      });

  // Alice makes a legitimate connection (eve wiretaps the AP request bytes
  // elsewhere; here we take them straight from her client library — the
  // capture mechanics are exercised in E1).
  if (!bed.alice().Login(Testbed4::kAlicePassword).ok()) {
    return report;
  }
  auto stolen =
      bed.alice().MakeApRequest(bed.file_principal(), false, kerb::ToBytes("rm thesis.tex"));
  if (!stolen.ok()) {
    return report;
  }

  // Eve probes with her own connection to learn the ISN counter.
  const ksim::NetAddress eve{Testbed4::kEveAddr};
  const ksim::NetAddress alice{Testbed4::kAliceAddr.host, 514};
  uint32_t probe_isn = tcp.Syn(eve);
  (void)tcp.Ack(eve, probe_isn + 1);
  uint32_t predicted = probe_isn + ksim::kIsnIncrement;

  // Blind spoof: SYN as alice (the SYN-ACK goes to alice, not eve), then
  // ACK and data using the predicted ISN. Eve sees nothing back.
  uint32_t actual = tcp.Syn(alice);
  report.isn_predicted = (actual == predicted);
  report.handshake_spoofed = tcp.Ack(alice, predicted + 1).ok();
  if (report.handshake_spoofed) {
    (void)tcp.Data(alice, predicted + 1, stolen.value());
  }
  report.command_executed = !executed.empty();
  if (!executed.empty()) {
    report.evidence = executed.back();
  } else if (scenario.challenge_response && !pending_challenges.empty()) {
    report.evidence = "server issued a challenge the blind attacker cannot read";
  }
  return report;
}

}  // namespace kattack
