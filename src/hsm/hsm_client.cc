#include "src/hsm/hsm_client.h"

#include "src/encoding/io.h"

namespace khsm {

HsmClient4::HsmClient4(ksim::Network* net, const ksim::NetAddress& self,
                       ksim::HostClock clock, krb4::Principal user,
                       ksim::NetAddress as_addr, ksim::NetAddress tgs_addr,
                       EncryptionUnit* unit)
    : net_(net),
      self_(self),
      clock_(clock),
      user_(std::move(user)),
      as_addr_(as_addr),
      tgs_addr_(tgs_addr),
      unit_(unit) {}

kerb::Status HsmClient4::Login(KeyHandle login_key, ksim::Duration lifetime) {
  krb4::AsRequest4 req;
  req.client = user_;
  req.service_realm = user_.realm;
  req.lifetime = lifetime;
  auto reply = net_->Call(self_, as_addr_, Frame4(krb4::MsgType::kAsRequest, req));
  if (!reply.ok()) {
    return reply.error();
  }
  auto framed = krb4::Unframe4(reply.value());
  if (!framed.ok() || framed.value().first != krb4::MsgType::kAsReply) {
    return kerb::MakeError(kerb::ErrorCode::kBadFormat, "expected AS reply");
  }
  auto handle = unit_->OpenAsReply(login_key, framed.value().second, &sealed_tgt_);
  if (!handle.ok()) {
    return handle.error();
  }
  tgs_handle_ = handle.value();
  return kerb::Status::Ok();
}

kerb::Result<HsmClient4::HandleCreds> HsmClient4::GetServiceTicket(
    const krb4::Principal& service) {
  if (!tgs_handle_.has_value()) {
    return kerb::MakeError(kerb::ErrorCode::kAuthFailed, "not logged in");
  }
  auto cached = service_creds_.find(service);
  if (cached != service_creds_.end()) {
    return cached->second;
  }

  auto auth = unit_->MakeAuthenticator(*tgs_handle_, user_, self_.host, clock_.Now());
  if (!auth.ok()) {
    return auth.error();
  }
  krb4::TgsRequest4 req;
  req.service = service;
  req.sealed_tgt = sealed_tgt_;
  req.sealed_auth = auth.value();
  req.lifetime = 8 * ksim::kHour;
  auto reply =
      net_->Call(self_, tgs_addr_, Frame4(krb4::MsgType::kTgsRequest, req));
  if (!reply.ok()) {
    return reply.error();
  }
  auto framed = krb4::Unframe4(reply.value());
  if (!framed.ok() || framed.value().first != krb4::MsgType::kTgsReply) {
    return kerb::MakeError(kerb::ErrorCode::kBadFormat, "expected TGS reply");
  }
  HandleCreds creds;
  auto handle = unit_->OpenTgsReply(*tgs_handle_, framed.value().second,
                                    &creds.sealed_ticket);
  if (!handle.ok()) {
    return handle.error();
  }
  creds.session = handle.value();
  service_creds_[service] = creds;
  return creds;
}

kerb::Result<kerb::Bytes> HsmClient4::CallService(const ksim::NetAddress& service_addr,
                                                  const krb4::Principal& service,
                                                  kerb::BytesView app_data) {
  auto creds = GetServiceTicket(service);
  if (!creds.ok()) {
    return creds.error();
  }
  ksim::Time auth_time = clock_.Now();
  auto auth = unit_->MakeAuthenticator(creds.value().session, user_, self_.host, auth_time);
  if (!auth.ok()) {
    return auth.error();
  }
  krb4::ApRequest4 req;
  req.sealed_ticket = creds.value().sealed_ticket;
  req.sealed_auth = auth.value();
  req.want_mutual = true;
  req.app_data = kerb::Bytes(app_data.begin(), app_data.end());
  auto reply =
      net_->Call(self_, service_addr, Frame4(krb4::MsgType::kApRequest, req));
  if (!reply.ok()) {
    return reply.error();
  }
  auto framed = krb4::Unframe4(reply.value());
  if (!framed.ok() || framed.value().first != krb4::MsgType::kApReply) {
    return kerb::MakeError(kerb::ErrorCode::kBadFormat, "expected AP reply");
  }
  kenc::Reader r(framed.value().second);
  auto mutual = r.GetLengthPrefixed();
  if (!mutual.ok()) {
    return mutual.error();
  }
  // Verify {timestamp + 1} inside the unit: OpenData returns the plaintext
  // (not key material); the timestamp check happens host-side.
  auto opened = unit_->OpenData(creds.value().session, mutual.value());
  if (!opened.ok()) {
    return kerb::MakeError(kerb::ErrorCode::kAuthFailed, "mutual-auth reply undecryptable");
  }
  kenc::Reader mr(opened.value());
  auto ts = mr.GetU64();
  if (!ts.ok() || ts.value() != static_cast<uint64_t>(auth_time) + 1) {
    return kerb::MakeError(kerb::ErrorCode::kAuthFailed, "mutual-auth timestamp mismatch");
  }
  return r.Rest();
}

void HsmClient4::Logout() {
  if (tgs_handle_.has_value()) {
    unit_->DestroyKey(*tgs_handle_);
  }
  for (const auto& [service, creds] : service_creds_) {
    unit_->DestroyKey(creds.session);
  }
  tgs_handle_.reset();
  sealed_tgt_.clear();
  service_creds_.clear();
}

std::vector<kerb::Bytes> HsmClient4::HostResidentState() const {
  std::vector<kerb::Bytes> state;
  state.push_back(sealed_tgt_);
  for (const auto& [service, creds] : service_creds_) {
    state.push_back(creds.sealed_ticket);
    // Handles are host-resident too; include their raw representation.
    kenc::Writer w;
    w.PutU64(creds.session);
    state.push_back(w.Take());
  }
  return state;
}

}  // namespace khsm
