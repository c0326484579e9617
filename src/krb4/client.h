// The Kerberos V4 client library: login, ticket acquisition, AP requests.
//
// The credential cache is deliberately inspectable: the paper's workstation
// discussion turns on the fact that "the session keys returned by the TGS
// cannot be stored securely; of necessity, they are stored in some area
// accessible to root." Attack code models host compromise by reading the
// cache through `credentials()` — it never bypasses the protocol itself.

#ifndef SRC_KRB4_CLIENT_H_
#define SRC_KRB4_CLIENT_H_

#include <map>
#include <optional>
#include <string>

#include "src/krb4/kdclink.h"
#include "src/krb4/messages.h"
#include "src/sim/clock.h"
#include "src/sim/network.h"

namespace krb4 {

// One service's worth of cached credentials.
struct ServiceCredentials {
  Principal service;
  kcrypto::DesKey session_key;  // K_c,s
  kerb::Bytes sealed_ticket;    // {T_c,s}K_s
  ksim::Time issued_at = 0;
  ksim::Duration lifetime = 0;
};

// The ticket-granting credentials from login.
struct TgsCredentials {
  kcrypto::DesKey session_key;  // K_c,tgs
  kerb::Bytes sealed_tgt;       // {T_c,tgs}K_tgs
  ksim::Time issued_at = 0;
  ksim::Duration lifetime = 0;
};

// Retry, failover and cluster routing come from the shared KdcLink
// (src/krb4/kdclink.h).
class Client4 : public KdcLink {
 public:
  Client4(ksim::Network* net, const ksim::NetAddress& self, ksim::HostClock clock,
          Principal user, ksim::NetAddress as_addr, ksim::NetAddress tgs_addr);

  // The initial exchange: request a TGT and decrypt the reply with the
  // password-derived key. The password never crosses the network; the
  // reply's decryptability under K_c is what an eavesdropper attacks.
  kerb::Status Login(std::string_view password,
                     ksim::Duration lifetime = 8 * ksim::kHour);

  // Login with a raw key — how a daemon authenticates from a srvtab file.
  // The paper: "storing plaintext keys in a machine is generally felt to be
  // a bad idea" — experiment E17 shows why.
  kerb::Status LoginWithKey(const kcrypto::DesKey& key,
                            ksim::Duration lifetime = 8 * ksim::kHour);

  // TGS exchange for a service ticket (cached per service).
  kerb::Result<ServiceCredentials> GetServiceTicket(const Principal& service,
                                                    ksim::Duration lifetime = 8 * ksim::kHour);

  // Builds a framed AP request for the service, with a fresh authenticator.
  // `challenge_response` carries the answer to a server challenge on the
  // second leg of the challenge/response option.
  kerb::Result<kerb::Bytes> MakeApRequest(const Principal& service, bool want_mutual,
                                          kerb::BytesView app_data = {},
                                          kerb::BytesView challenge_response = {});

  // Full round trip: AP request, transparently answering a server challenge
  // if one comes back, verifying the mutual reply if requested, returning
  // the application payload.
  kerb::Result<kerb::Bytes> CallService(const ksim::NetAddress& service_addr,
                                        const Principal& service, bool want_mutual,
                                        kerb::BytesView app_data = {});

  // Forgets cached service tickets (the TGT survives). Load harnesses use
  // this so repeated TGS requests actually exercise the KDC instead of the
  // local cache.
  void DropServiceCredentials() { service_creds_.clear(); }

  // "Kerberos attempts to wipe out old keys at logoff time."
  void Logout();

  bool logged_in() const { return tgs_creds_.has_value(); }
  const Principal& user() const { return user_; }

  // Host-compromise surface (see file comment).
  const std::optional<TgsCredentials>& tgs_credentials() const { return tgs_creds_; }
  const std::map<Principal, ServiceCredentials>& credentials() const { return service_creds_; }

 private:
  ksim::HostClock clock_;
  Principal user_;
  ksim::NetAddress tgs_addr_;

  std::optional<TgsCredentials> tgs_creds_;
  std::map<Principal, ServiceCredentials> service_creds_;
};

}  // namespace krb4

#endif  // SRC_KRB4_CLIENT_H_
