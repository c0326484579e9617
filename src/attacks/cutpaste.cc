#include "src/attacks/cutpaste.h"

#include "src/attacks/testbed5.h"
#include "src/crypto/crc32.h"

namespace kattack {

namespace {

using krb5::TgsRequest5;

// The man in the middle. Phase 1: rewrite alice's TGS request and capture
// the issued ticket. Phase 2: intercept her AP request to the service and
// impersonate the server.
class EncTktMitm : public ksim::Adversary {
 public:
  EncTktMitm(const CutPasteScenario& scenario, Testbed5& bed)
      : scenario_(scenario), bed_(bed) {}

  Decision OnRequest(ksim::Message& msg) override {
    if (msg.dst == Testbed5::kTgsAddr && msg.src == Testbed5::kAliceAddr) {
      RewriteTgsRequest(msg);
      return {};
    }
    if (msg.dst == Testbed5::kMailAddr && msg.src == Testbed5::kAliceAddr &&
        session_key_.has_value()) {
      return ImpersonateServer(msg);
    }
    return {};
  }

  bool OnReply(const ksim::Message& request, kerb::Bytes& reply) override {
    if (!(request.dst == Testbed5::kTgsAddr) || !modified_) {
      return false;
    }
    // Capture the issued ticket and open it with eve's TGT session key.
    auto rep = kenc::Decode<krb5::TgsReply5>(reply);
    if (!rep.ok()) {
      return false;
    }
    kdc_accepted_ = true;
    auto ticket = krb5::Unseal<krb5::Ticket5>(bed_.eve().tgs_credentials()->session_key,
                                              rep.value().sealed_ticket, enc_);
    if (ticket.ok()) {
      session_key_ = kcrypto::DesKey(ticket.value().session_key);
    }
    return false;
  }

  bool modified() const { return modified_; }
  bool kdc_accepted() const { return kdc_accepted_; }
  bool session_key_recovered() const { return session_key_.has_value(); }
  bool mutual_auth_spoofed() const { return mutual_auth_spoofed_; }
  const std::string& intercepted_data() const { return intercepted_data_; }

 private:
  void RewriteTgsRequest(ksim::Message& msg) {
    auto decoded = kenc::Decode<TgsRequest5>(msg.payload);
    if (!decoded.ok()) {
      return;
    }
    TgsRequest5 req = decoded.value();
    if (req.options & krb5::kOptEncTktInSkey) {
      return;  // already rewritten
    }

    // The checksum value sealed in the authenticator equals the checksum of
    // the original (fully public) request fields.
    kerb::Bytes original_input = req.ChecksumInput();

    // The rewrite.
    req.options |= krb5::kOptEncTktInSkey;
    req.additional_ticket = bed_.eve().tgs_credentials()->sealed_tgt;

    if (scenario_.request_checksum == kcrypto::ChecksumType::kCrc32) {
      // Steer the CRC back with four bytes of authorization data.
      uint32_t target = kcrypto::Crc32(original_input);
      kerb::Bytes original_authz = req.authorization_data;
      req.authorization_data = original_authz;
      req.authorization_data.insert(req.authorization_data.end(), 4, 0);
      kerb::Bytes padded_input = req.ChecksumInput();
      kerb::Bytes prefix(padded_input.begin(), padded_input.end() - 4);
      auto patch = kcrypto::ForgePatch(prefix, target);
      std::copy(patch.begin(), patch.end(), req.authorization_data.end() - 4);
    }
    // For a collision-proof checksum there is nothing the attacker can do;
    // the rewrite goes out anyway and the TGS will reject it.

    msg.payload = kenc::Encode(req);
    modified_ = true;
  }

  Decision ImpersonateServer(ksim::Message& msg) {
    auto req = kenc::Decode<krb5::ApRequest5>(msg.payload);
    if (!req.ok()) {
      return {};
    }
    auto auth =
        krb5::Unseal<krb5::Authenticator5>(*session_key_, req.value().sealed_authenticator, enc_);
    if (!auth.ok()) {
      return {};
    }
    intercepted_data_ = kerb::ToString(req.value().app_data);

    // Forge the server half of bidirectional authentication.
    krb5::EncApRepPart5 part;
    part.timestamp = auth.value().timestamp;
    krb5::ApReply5 reply;
    reply.app_data = kerb::ToBytes("mail-ok: mail-check");
    reply.sealed_part = krb5::Seal(*session_key_, part, enc_, prng_);
    mutual_auth_spoofed_ = true;
    return Decision{false, kenc::Encode(reply)};
  }

  CutPasteScenario scenario_;
  Testbed5& bed_;
  krb5::EncLayerConfig enc_;  // Draft 3 defaults
  kcrypto::Prng prng_{0xe7e};
  bool modified_ = false;
  bool kdc_accepted_ = false;
  std::optional<kcrypto::DesKey> session_key_;
  bool mutual_auth_spoofed_ = false;
  std::string intercepted_data_;
};

}  // namespace

CutPasteReport RunEncTktInSkeyCutPaste(const CutPasteScenario& scenario) {
  Testbed5Config config;
  config.seed = scenario.seed;
  config.client_options.request_checksum = scenario.request_checksum;
  config.kdc_policy.enforce_enc_tkt_cname_match = scenario.enforce_cname_match;
  Testbed5 bed(config);
  CutPasteReport report;

  if (!bed.eve().Login(Testbed5::kEvePassword).ok()) {
    return report;
  }
  if (!bed.alice().Login(Testbed5::kAlicePassword).ok()) {
    return report;
  }

  EncTktMitm mitm(scenario, bed);
  bed.world().network().SetAdversary(&mitm);

  // Alice asks for a mail ticket and uses it with mutual authentication,
  // sending sensitive content once she "knows" it is the real server.
  auto result = bed.alice().CallService(Testbed5::kMailAddr, bed.mail_principal(), true,
                                        kerb::ToBytes("FETCH inbox/secret-draft"));
  (void)result;
  bed.world().network().SetAdversary(nullptr);

  report.request_modified = mitm.modified();
  report.kdc_accepted = mitm.kdc_accepted();
  report.session_key_recovered = mitm.session_key_recovered();
  report.mutual_auth_spoofed = mitm.mutual_auth_spoofed();
  report.intercepted_data = mitm.intercepted_data();
  return report;
}

}  // namespace kattack
