// The host encryption unit of the paper's "Kerberos Hardware Design
// Criteria" section, modelled at its API contract.
//
// Design rules implemented exactly as stated:
//   * "The primary goal is to perform cryptographic operations without
//     exposing any keys to compromise" — no API returns key octets; session
//     keys extracted from tickets live inside the unit and are referenced
//     by opaque handles.
//   * "The encryption box itself must understand the Kerberos protocols" —
//     tickets are decrypted and *parsed* internally; only non-key metadata
//     leaves the box.
//   * "Keys should be tagged with their purpose. A login key should be used
//     only to decrypt the ticket-granting ticket" — every stored key has a
//     KeyUsage tag and every operation checks it.
//   * "Using a separate unit allows us to create untamperable logs" — an
//     append-only operation log.
//
// Experiment E14 drives an adversarial sweep over this API and scans every
// output for stored key material.

#ifndef SRC_HSM_ENCRYPTION_UNIT_H_
#define SRC_HSM_ENCRYPTION_UNIT_H_

#include <map>
#include <string>
#include <vector>

#include "src/common/bytes.h"
#include "src/common/result.h"
#include "src/crypto/des.h"
#include "src/crypto/prng.h"
#include "src/krb4/messages.h"
#include "src/sim/clock.h"

namespace khsm {

enum class KeyUsage {
  kLoginKey,          // decrypts AS replies only
  kTicketGranting,    // TGS session key: seals TGS authenticators, opens TGS replies
  kServiceKey,        // a server's long-term key: validates incoming tickets
  kSessionKey,        // per-service session key: authenticators + data sealing
};

const char* KeyUsageName(KeyUsage usage);

// Opaque reference to a key held inside the unit.
using KeyHandle = uint64_t;

struct TicketInfo {
  krb4::Principal client;
  uint32_t client_addr = 0;
  ksim::Time issued_at = 0;
  ksim::Duration lifetime = 0;
  KeyHandle session_key;  // handle, never the key itself
};

class EncryptionUnit {
 public:
  explicit EncryptionUnit(uint64_t seed) : prng_(seed) {}

  // -- key loading ---------------------------------------------------------
  // User keys "must travel through the host" (period of exposure minimized);
  // service keys are meant to arrive via the keystore channel.
  KeyHandle LoadKey(const kcrypto::DesKey& key, KeyUsage usage);

  // Generates a key inside the unit ("a hardware random number generator
  // on-board") — the key never exists outside.
  KeyHandle GenerateKey(KeyUsage usage);

  // Erases a key (logout).
  void DestroyKey(KeyHandle handle);

  // -- protocol operations -------------------------------------------------
  // Opens an AS reply with a login key; the TGS session key inside is
  // captured into the unit and returned as a handle.
  kerb::Result<KeyHandle> OpenAsReply(KeyHandle login_key, kerb::BytesView sealed_reply,
                                      kerb::Bytes* sealed_tgt_out);

  // Builds a sealed authenticator under a ticket-granting or session key.
  kerb::Result<kerb::Bytes> MakeAuthenticator(KeyHandle key, const krb4::Principal& client,
                                              uint32_t addr, ksim::Time now);

  // Opens a TGS reply with the TGS session key; captures the new service
  // session key and hands back its handle plus the sealed service ticket.
  kerb::Result<KeyHandle> OpenTgsReply(KeyHandle tgs_key, kerb::BytesView sealed_reply,
                                       kerb::Bytes* sealed_ticket_out);

  // Server side: validates an incoming ticket with a service key; the
  // embedded session key becomes a handle, the metadata is returned.
  kerb::Result<TicketInfo> DecryptTicket(KeyHandle service_key, kerb::BytesView sealed_ticket);

  // Data protection under a session key.
  kerb::Result<kerb::Bytes> SealData(KeyHandle session_key, kerb::BytesView data);
  kerb::Result<kerb::Bytes> OpenData(KeyHandle session_key, kerb::BytesView sealed);

  // -- introspection (safe) --------------------------------------------------
  size_t key_count() const { return keys_.size(); }
  const std::vector<std::string>& operation_log() const { return log_; }

  // FOR THE LEAKAGE EXPERIMENT ONLY: the raw key bytes the adversary hunts
  // for. A real unit has no such call; the experiment uses it as the oracle
  // that defines what must never appear in any output.
  std::vector<kerb::Bytes> DangerouslyExportAllKeyMaterialForLeakScan() const;

 private:
  struct StoredKey {
    kcrypto::DesKey key;
    KeyUsage usage;
  };

  kerb::Result<const StoredKey*> Get(KeyHandle handle, KeyUsage expected);
  void Log(const std::string& entry) { log_.push_back(entry); }

  kcrypto::Prng prng_;
  std::map<KeyHandle, StoredKey> keys_;
  KeyHandle next_handle_ = 1;
  std::vector<std::string> log_;
};

}  // namespace khsm

#endif  // SRC_HSM_ENCRYPTION_UNIT_H_
