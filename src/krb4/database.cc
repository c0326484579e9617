#include "src/krb4/database.h"

#include "src/crypto/str2key.h"
#include "src/krb4/kdcstore.h"
#include "src/obs/kobs.h"
#include "src/store/kstore.h"

namespace krb4 {

void KdcDatabase::AddUser(const Principal& user, std::string_view password) {
  ApplyUpsert(user, kcrypto::StringToKey(password, user.Salt()), PrincipalKind::kUser);
}

void KdcDatabase::AddService(const Principal& service, const kcrypto::DesKey& key) {
  ApplyUpsert(service, key, PrincipalKind::kService);
}

void KdcDatabase::ApplyUpsert(const Principal& principal, const kcrypto::DesKey& key,
                              PrincipalKind kind) {
  if (journal_ != nullptr) {
    journal_->Append(kstore::kWalOpUpsert, EncodePrincipalUpsert(principal, key, kind));
  }
  store_.Upsert(principal, key, kind);
}

bool KdcDatabase::ApplyEntry(const Principal& principal, const PrincipalEntry& entry) {
  if (entry.keys.empty()) {
    return false;
  }
  if (journal_ != nullptr) {
    journal_->Append(kstore::kWalOpUpsert, EncodePrincipalEntry(principal, entry));
  }
  return store_.UpsertEntry(principal, entry);
}

kerb::Result<uint32_t> KdcDatabase::RotateKey(const Principal& principal,
                                              const kcrypto::DesKey& new_key, ksim::Time now,
                                              ksim::Time retain_until) {
  PrincipalEntry entry;
  if (!store_.LookupEntry(principal, &entry)) {
    return kerb::MakeError(kerb::ErrorCode::kNotFound,
                           "unknown principal " + principal.ToString());
  }
  const uint32_t new_kvno = entry.keys.front().kvno + 1;
  // The outgoing current version starts its drain window (retain_until == 0
  // means no window at all: the old key is dropped outright); versions
  // whose window has already closed fall out of the ring here.
  entry.keys.front().not_after = retain_until;
  std::vector<KeyVersion> ring;
  ring.push_back(KeyVersion{new_kvno, new_key, 0});
  for (const KeyVersion& kv : entry.keys) {
    if (kv.not_after == 0 || now > kv.not_after) {
      continue;
    }
    if (ring.size() >= PrincipalEntry::kRingCap) {
      break;
    }
    ring.push_back(kv);
  }
  entry.keys = std::move(ring);
  ApplyEntry(principal, entry);
  kobs::EmitNow(kobs::kSrcAdmin, kobs::Ev::kKvnoRotate, PrincipalStore::Hash(principal),
                new_kvno);
  return new_kvno;
}

kerb::Result<uint32_t> KdcDatabase::ChangePassword(const Principal& principal,
                                                   std::string_view password, ksim::Time now,
                                                   ksim::Time retain_until) {
  return RotateKey(principal, kcrypto::StringToKey(password, principal.Salt()), now,
                   retain_until);
}

bool KdcDatabase::Remove(const Principal& principal) {
  if (!store_.Contains(principal)) {
    return false;
  }
  if (journal_ != nullptr) {
    journal_->Append(kstore::kWalOpDelete, EncodePrincipalDelete(principal));
  }
  return store_.Erase(principal);
}

PrincipalKind KdcDatabase::Kind(const Principal& principal) const {
  PrincipalKind kind = PrincipalKind::kService;
  store_.Lookup(principal, nullptr, &kind);
  return kind;
}

kcrypto::DesKey KdcDatabase::AddServiceWithRandomKey(const Principal& service,
                                                     kcrypto::Prng& prng) {
  kcrypto::DesKey key = prng.NextDesKey();
  AddService(service, key);
  return key;
}

kerb::Result<kcrypto::DesKey> KdcDatabase::Lookup(const Principal& principal) const {
  kcrypto::DesKey key;
  if (!store_.Lookup(principal, &key)) {
    return kerb::MakeError(kerb::ErrorCode::kNotFound,
                           "unknown principal " + principal.ToString());
  }
  return key;
}

kerb::Result<PrincipalEntry> KdcDatabase::LookupEntry(const Principal& principal) const {
  PrincipalEntry entry;
  if (!store_.LookupEntry(principal, &entry)) {
    return kerb::MakeError(kerb::ErrorCode::kNotFound,
                           "unknown principal " + principal.ToString());
  }
  return entry;
}

uint32_t KdcDatabase::Kvno(const Principal& principal) const {
  PrincipalEntry entry;
  return store_.LookupEntry(principal, &entry) ? entry.kvno() : 0;
}

}  // namespace krb4
