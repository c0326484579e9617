#include "src/attacks/retransmit.h"

#include "src/attacks/testbed.h"

namespace kattack {

namespace {

// Loses the first reply from the mail server, then behaves.
class ReplyDropper : public ksim::Adversary {
 public:
  bool OnReply(const ksim::Message& request, kerb::Bytes&) override {
    if (request.dst == Testbed4::kMailAddr && !dropped_) {
      dropped_ = true;
      return true;
    }
    return false;
  }
  bool dropped() const { return dropped_; }

 private:
  bool dropped_ = false;
};

}  // namespace

RetransmitReport RunRetransmissionStudy(bool fresh_authenticator_per_retry, uint64_t seed) {
  TestbedConfig config;
  config.seed = seed;
  config.server_replay_cache = true;  // the E1 fix, now under test itself
  Testbed4 bed(config);
  RetransmitReport report;

  if (!bed.alice().Login(Testbed4::kAlicePassword).ok()) {
    return report;
  }
  auto creds = bed.alice().GetServiceTicket(bed.mail_principal());
  if (!creds.ok()) {
    return report;
  }

  auto build_request = [&]() {
    krb4::Authenticator4 auth;
    auth.client = bed.alice_principal();
    auth.client_addr = Testbed4::kAliceAddr.host;
    auth.timestamp = bed.world().clock().Now();
    krb4::ApRequest4 req;
    req.sealed_ticket = creds.value().sealed_ticket;
    req.sealed_auth = krb4::Seal(creds.value().session_key, auth);
    return krb4::Frame4(krb4::MsgType::kApRequest, req);
  };

  ReplyDropper dropper;
  bed.world().network().SetAdversary(&dropper);

  // First attempt: the server processes the request; the reply is lost.
  kerb::Bytes first_request = build_request();
  auto first =
      bed.world().network().Call(Testbed4::kAliceAddr, Testbed4::kMailAddr, first_request);
  report.first_attempt_lost = !first.ok() && dropper.dropped();
  report.server_acted_once = bed.mail_server().accepted_requests() == 1;

  // The client retransmits (UDP semantics: application-level retry). A tick
  // of clock passes, as it would.
  bed.world().clock().Advance(ksim::kSecond);
  kerb::Bytes retry = fresh_authenticator_per_retry ? build_request() : first_request;
  auto second = bed.world().network().Call(Testbed4::kAliceAddr, Testbed4::kMailAddr, retry);
  report.retransmission_accepted = second.ok();
  report.false_alarms = bed.mail_server().rejected_requests();
  return report;
}

}  // namespace kattack
