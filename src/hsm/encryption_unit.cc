#include "src/hsm/encryption_unit.h"

namespace khsm {

const char* KeyUsageName(KeyUsage usage) {
  switch (usage) {
    case KeyUsage::kLoginKey:
      return "login";
    case KeyUsage::kTicketGranting:
      return "ticket-granting";
    case KeyUsage::kServiceKey:
      return "service";
    case KeyUsage::kSessionKey:
      return "session";
  }
  return "unknown";
}

KeyHandle EncryptionUnit::LoadKey(const kcrypto::DesKey& key, KeyUsage usage) {
  KeyHandle handle = next_handle_++;
  keys_.emplace(handle, StoredKey{key, usage});
  Log(std::string("load-key usage=") + KeyUsageName(usage));
  return handle;
}

KeyHandle EncryptionUnit::GenerateKey(KeyUsage usage) {
  KeyHandle handle = next_handle_++;
  keys_.emplace(handle, StoredKey{prng_.NextDesKey(), usage});
  Log(std::string("generate-key usage=") + KeyUsageName(usage));
  return handle;
}

void EncryptionUnit::DestroyKey(KeyHandle handle) {
  keys_.erase(handle);
  Log("destroy-key");
}

kerb::Result<const EncryptionUnit::StoredKey*> EncryptionUnit::Get(KeyHandle handle,
                                                                   KeyUsage expected) {
  auto it = keys_.find(handle);
  if (it == keys_.end()) {
    return kerb::MakeError(kerb::ErrorCode::kNotFound, "no such key handle");
  }
  if (it->second.usage != expected) {
    // The purpose-tag check: "we do not want the login key used to decrypt
    // the arbitrary block of text that just happens to be the
    // ticket-granting ticket."
    Log(std::string("usage-violation want=") + KeyUsageName(expected) + " have=" +
        KeyUsageName(it->second.usage));
    return kerb::MakeError(kerb::ErrorCode::kPolicy, "key usage tag mismatch");
  }
  return &it->second;
}

kerb::Result<KeyHandle> EncryptionUnit::OpenAsReply(KeyHandle login_key,
                                                    kerb::BytesView sealed_reply,
                                                    kerb::Bytes* sealed_tgt_out) {
  auto key = Get(login_key, KeyUsage::kLoginKey);
  if (!key.ok()) {
    return key.error();
  }
  auto plain = krb4::Unseal4(key.value()->key, sealed_reply);
  if (!plain.ok()) {
    return plain.error();
  }
  auto body = kenc::Decode<krb4::ReplyBody4>(plain.value());
  if (!body.ok()) {
    return body.error();
  }
  // Capture the TGS session key internally; the host only sees a handle.
  KeyHandle handle = next_handle_++;
  keys_.emplace(handle,
                StoredKey{kcrypto::DesKey(body.value().session_key),
                          KeyUsage::kTicketGranting});
  if (sealed_tgt_out != nullptr) {
    *sealed_tgt_out = body.value().sealed_ticket;
  }
  Log("open-as-reply");
  return handle;
}

kerb::Result<kerb::Bytes> EncryptionUnit::MakeAuthenticator(KeyHandle key,
                                                            const krb4::Principal& client,
                                                            uint32_t addr, ksim::Time now) {
  auto stored = Get(key, KeyUsage::kTicketGranting);
  if (!stored.ok()) {
    auto session = Get(key, KeyUsage::kSessionKey);
    if (!session.ok()) {
      return stored.error();
    }
    stored = session;
  }
  krb4::Authenticator4 auth;
  auth.client = client;
  auth.client_addr = addr;
  auth.timestamp = now;
  Log("make-authenticator for " + client.ToString());
  return krb4::Seal(stored.value()->key, auth);
}

kerb::Result<KeyHandle> EncryptionUnit::OpenTgsReply(KeyHandle tgs_key,
                                                     kerb::BytesView sealed_reply,
                                                     kerb::Bytes* sealed_ticket_out) {
  auto key = Get(tgs_key, KeyUsage::kTicketGranting);
  if (!key.ok()) {
    return key.error();
  }
  auto plain = krb4::Unseal4(key.value()->key, sealed_reply);
  if (!plain.ok()) {
    return plain.error();
  }
  auto body = kenc::Decode<krb4::ReplyBody4>(plain.value());
  if (!body.ok()) {
    return body.error();
  }
  KeyHandle handle = next_handle_++;
  keys_.emplace(handle, StoredKey{kcrypto::DesKey(body.value().session_key),
                                  KeyUsage::kSessionKey});
  if (sealed_ticket_out != nullptr) {
    *sealed_ticket_out = body.value().sealed_ticket;
  }
  Log("open-tgs-reply");
  return handle;
}

kerb::Result<TicketInfo> EncryptionUnit::DecryptTicket(KeyHandle service_key,
                                                       kerb::BytesView sealed_ticket) {
  auto key = Get(service_key, KeyUsage::kServiceKey);
  if (!key.ok()) {
    return key.error();
  }
  auto ticket = krb4::Unseal<krb4::Ticket4>(key.value()->key, sealed_ticket);
  if (!ticket.ok()) {
    return ticket.error();
  }
  KeyHandle handle = next_handle_++;
  keys_.emplace(handle, StoredKey{kcrypto::DesKey(ticket.value().session_key),
                                  KeyUsage::kSessionKey});
  TicketInfo info;
  info.client = ticket.value().client;
  info.client_addr = ticket.value().client_addr;
  info.issued_at = ticket.value().issued_at;
  info.lifetime = ticket.value().lifetime;
  info.session_key = handle;
  Log("decrypt-ticket client=" + info.client.ToString());
  return info;
}

kerb::Result<kerb::Bytes> EncryptionUnit::SealData(KeyHandle session_key,
                                                   kerb::BytesView data) {
  auto key = Get(session_key, KeyUsage::kSessionKey);
  if (!key.ok()) {
    return key.error();
  }
  Log("seal-data");
  return krb4::Seal4(key.value()->key, data);
}

kerb::Result<kerb::Bytes> EncryptionUnit::OpenData(KeyHandle session_key,
                                                   kerb::BytesView sealed) {
  auto key = Get(session_key, KeyUsage::kSessionKey);
  if (!key.ok()) {
    return key.error();
  }
  Log("open-data");
  return krb4::Unseal4(key.value()->key, sealed);
}

std::vector<kerb::Bytes> EncryptionUnit::DangerouslyExportAllKeyMaterialForLeakScan() const {
  std::vector<kerb::Bytes> out;
  out.reserve(keys_.size());
  for (const auto& [handle, stored] : keys_) {
    const kcrypto::DesBlock& b = stored.key.bytes();
    out.emplace_back(b.begin(), b.end());
  }
  return out;
}

}  // namespace khsm
