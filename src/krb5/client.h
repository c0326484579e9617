// The Version 5 client library.
//
// Supports the Draft 3 baseline and, as options, the paper's hardened
// behaviours: preauthentication, collision-proof request checksums, subkey
// negotiation, service-name binding in authenticators, and the AP
// challenge/response flow. Cross-realm requests walk the realm hierarchy
// using a static realm → TGS directory, mirroring Draft 3's "static
// configuration files" answer that the paper examines.

#ifndef SRC_KRB5_CLIENT_H_
#define SRC_KRB5_CLIENT_H_

#include <map>
#include <optional>
#include <string>

#include "src/krb4/kdclink.h"
#include "src/krb5/appserver.h"
#include "src/krb5/messages.h"

namespace krb5 {

struct Client5Options {
  EncLayerConfig enc;
  // Checksum the client uses to seal TGS request fields. Draft 3 literal
  // reading permits CRC-32; the paper's E9 shows why it must not.
  kcrypto::ChecksumType request_checksum = kcrypto::ChecksumType::kCrc32;
  bool use_preauth = false;
  bool omit_address = false;
  bool send_subkey = false;              // recommendation (e), client half
  bool send_service_name_check = false;  // E10 fix
};

struct TgsCredentials5 {
  std::string realm;  // realm whose TGS honours this TGT
  kcrypto::DesKey session_key;
  kerb::Bytes sealed_tgt;
  ksim::Time issued_at = 0;
  ksim::Duration lifetime = 0;
};

struct ServiceCredentials5 {
  Principal service;
  kcrypto::DesKey session_key;
  kerb::Bytes sealed_ticket;
  ksim::Time issued_at = 0;
  ksim::Duration lifetime = 0;
};

struct ServiceCallResult {
  kerb::Bytes app_reply;
  kcrypto::DesKey channel_key;  // negotiated true session key when enabled
};

// Retry, failover and cluster routing come from the shared krb4::KdcLink
// (src/krb4/kdclink.h); the V5 referral rides a kMsgClusterReferral TLV.
class Client5 : public krb4::KdcLink {
 public:
  Client5(ksim::Network* net, const ksim::NetAddress& self, ksim::HostClock clock,
          Principal user, ksim::NetAddress as_addr, kcrypto::Prng prng,
          Client5Options options = {});

  // realm → TGS address, consulted for cross-realm walks.
  void AddRealmTgs(const std::string& realm, const ksim::NetAddress& tgs_addr);

  kerb::Status Login(std::string_view password, ksim::Duration lifetime = 8 * ksim::kHour);

  // Login with an already-derived client key — what bulk load harnesses
  // use (deriving a million passwords adds nothing but setup time).
  kerb::Status LoginWithKey(const kcrypto::DesKey& client_key,
                            ksim::Duration lifetime = 8 * ksim::kHour);

  // Obtains a service ticket, walking realm hops as needed (bounded depth).
  kerb::Result<ServiceCredentials5> GetServiceTicket(const Principal& service,
                                                     ksim::Duration lifetime = 8 * ksim::kHour);

  // Issues one TGS request verbatim — the hook attack code uses to exercise
  // options like ENC-TKT-IN-SKEY and REUSE-SKEY deliberately.
  kerb::Result<TgsReply5> RawTgsRequest(const std::string& tgs_realm, TgsRequest5 req);

  // Obtains a forwarded TGT usable from `new_addr` (empty → no address).
  kerb::Result<TgsCredentials5> ForwardTgt(bool omit_address);

  kerb::Result<kerb::Bytes> MakeApRequest(const Principal& service, bool want_mutual,
                                          kerb::BytesView app_data = {},
                                          std::optional<kerb::Bytes> challenge_response =
                                              std::nullopt);

  // Full AP exchange, transparently answering a challenge if the server
  // demands challenge/response.
  kerb::Result<ServiceCallResult> CallService(const ksim::NetAddress& service_addr,
                                              const Principal& service, bool want_mutual,
                                              kerb::BytesView app_data = {});

  // Forgets cached service tickets (TGTs survive) so load harnesses drive
  // real TGS exchanges.
  void DropServiceCredentials() { service_creds_.clear(); }

  void Logout();
  bool logged_in() const { return tgs_creds_.has_value(); }
  const Principal& user() const { return user_; }
  Client5Options& options() { return options_; }

  // Host-compromise surface, as in the V4 client.
  const std::optional<TgsCredentials5>& tgs_credentials() const { return tgs_creds_; }
  const std::map<Principal, ServiceCredentials5>& credentials() const { return service_creds_; }
  // The subkey sent in the most recent authenticator (if any).
  const std::optional<kcrypto::DesBlock>& last_subkey() const { return last_subkey_; }

 private:
  kerb::Result<TgsCredentials5> GetTgtForRealm(const std::string& realm,
                                               ksim::Duration lifetime);

  ksim::HostClock clock_;
  Principal user_;
  kcrypto::Prng prng_;
  Client5Options options_;

  std::map<std::string, ksim::NetAddress> realm_tgs_;
  std::optional<TgsCredentials5> tgs_creds_;  // home-realm TGT
  std::map<std::string, TgsCredentials5> foreign_tgts_;
  std::map<Principal, ServiceCredentials5> service_creds_;
  std::optional<kcrypto::DesBlock> last_subkey_;
};

}  // namespace krb5

#endif  // SRC_KRB5_CLIENT_H_
