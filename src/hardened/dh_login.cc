#include "src/hardened/dh_login.h"

#include "src/crypto/str2key.h"
#include "src/encoding/io.h"

namespace khard {

DhLoginServer::DhLoginServer(ksim::Network* net, const ksim::NetAddress& addr,
                             ksim::HostClock clock, std::string realm, krb4::KdcDatabase db,
                             kcrypto::Prng prng, kcrypto::DhGroup group)
    : clock_(clock),
      realm_(std::move(realm)),
      db_(std::move(db)),
      prng_(prng),
      group_(std::move(group)) {
  // Build the cached modexp engine once, up front: every login this server
  // handles reuses the Montgomery context and the fixed-base g^x table.
  kcrypto::EnsureEngine(group_);
  net->Bind(addr, [this](const ksim::Message& msg) { return Handle(msg); });
}

kerb::Result<kerb::Bytes> DhLoginServer::Handle(const ksim::Message& msg) {
  kenc::Reader r(msg.payload);
  krb4::Principal principal;
  if (!kenc::Get(r, principal)) {
    return kerb::MakeError(kerb::ErrorCode::kBadFormat, "truncated principal");
  }
  auto client_pub_bytes = r.GetLengthPrefixed();
  if (!client_pub_bytes.ok()) {
    return client_pub_bytes.error();
  }
  kcrypto::BigInt client_pub = kcrypto::BigInt::FromBytes(client_pub_bytes.value());
  // Fail closed on degenerate publics (0, 1, p-1, ≥p) before any exponent
  // touches them — they would fix or leak the shared secret.
  if (auto valid = kcrypto::ValidateDhPublic(group_, client_pub); !valid.ok()) {
    return valid.error();
  }

  auto user_key = db_.Lookup(principal);
  if (!user_key.ok()) {
    return user_key.error();
  }
  auto tgs_key = db_.Lookup(krb4::TgsPrincipal(realm_));
  if (!tgs_key.ok()) {
    return tgs_key.error();
  }

  // Our half of the exchange.
  kcrypto::DhKeyPair server_pair = kcrypto::DhGenerate(group_, prng_);
  kcrypto::DesKey dh_key =
      kcrypto::DhDeriveKey(kcrypto::DhSharedSecret(group_, server_pair.private_key, client_pub));

  // Ordinary AS reply body, sealed under K_c, then wrapped in the DH layer.
  krb4::Ticket4 tgt;
  tgt.service = krb4::TgsPrincipal(realm_);
  tgt.client = principal;
  tgt.client_addr = msg.src.host;
  tgt.issued_at = clock_.Now();
  tgt.lifetime = 8 * ksim::kHour;
  tgt.session_key = prng_.NextDesKeyBytes();
  kerb::Bytes inner;
  krb4::AppendSealedReply4(tgt, tgs_key.value(), user_key.value(), inner);
  kerb::Bytes outer = krb4::Seal4(dh_key, inner);

  kenc::Writer w;
  w.PutLengthPrefixed(server_pair.public_key.ToBytes());
  w.PutLengthPrefixed(outer);
  return w.Take();
}

kerb::Result<DhLoginResult> DhLogin(ksim::Network* net, const ksim::NetAddress& client_addr,
                                    const ksim::NetAddress& login_addr,
                                    const krb4::Principal& user, std::string_view password,
                                    const kcrypto::DhGroup& group, kcrypto::Prng& prng) {
  kcrypto::DhKeyPair client_pair = kcrypto::DhGenerate(group, prng);

  kenc::Writer w;
  kenc::Put(w, user);
  w.PutLengthPrefixed(client_pair.public_key.ToBytes());
  auto reply = net->Call(client_addr, login_addr, w.Peek());
  if (!reply.ok()) {
    return reply.error();
  }

  kenc::Reader r(reply.value());
  auto server_pub_bytes = r.GetLengthPrefixed();
  auto outer = r.GetLengthPrefixed();
  if (!server_pub_bytes.ok() || !outer.ok()) {
    return kerb::MakeError(kerb::ErrorCode::kBadFormat, "malformed DH login reply");
  }
  kcrypto::BigInt server_pub = kcrypto::BigInt::FromBytes(server_pub_bytes.value());
  if (auto valid = kcrypto::ValidateDhPublic(group, server_pub); !valid.ok()) {
    return valid.error();
  }
  kcrypto::DesKey dh_key = kcrypto::DhDeriveKey(
      kcrypto::DhSharedSecret(group, client_pair.private_key, server_pub));

  auto inner = krb4::Unseal4(dh_key, outer.value());
  if (!inner.ok()) {
    return kerb::MakeError(kerb::ErrorCode::kAuthFailed, "DH layer decryption failed");
  }
  kcrypto::DesKey client_key = kcrypto::StringToKey(password, user.Salt());
  auto plain = krb4::Unseal4(client_key, inner.value());
  if (!plain.ok()) {
    return kerb::MakeError(kerb::ErrorCode::kAuthFailed, "wrong password");
  }
  auto body = kenc::Decode<krb4::ReplyBody4>(plain.value());
  if (!body.ok()) {
    return body.error();
  }
  DhLoginResult result;
  result.tgs_session_key = kcrypto::DesKey(body.value().session_key);
  result.sealed_tgt = body.value().sealed_ticket;
  return result;
}

}  // namespace khard
