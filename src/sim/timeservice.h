// Time services, unauthenticated and authenticated.
//
// "Since some time synchronization protocols are unauthenticated ... such
// attacks are not difficult." The paper's §Secure Time Services argues that
// building an authentication system atop an unauthenticated time service
// inverts the trust hierarchy: "the Kerberos protocols involve mutual trust
// among four parties: the client, server, authentication server and time
// server."
//
// UnauthTimeService mirrors RFC 868-style time: a bare timestamp anyone can
// fabricate (experiment E3 fabricates it). AuthTimeService seals the reply
// — (nonce, time) under a DES-CBC MAC with a key shared with the client —
// closing that channel, at the price the paper notes: the server must hold
// a key, which reopens the key-storage question.

#ifndef SRC_SIM_TIMESERVICE_H_
#define SRC_SIM_TIMESERVICE_H_

#include "src/crypto/des.h"
#include "src/sim/clock.h"
#include "src/sim/network.h"

namespace ksim {

// RFC 868 flavor: request is empty, reply is the server's time, unsigned.
class UnauthTimeService {
 public:
  UnauthTimeService(Network* net, const NetAddress& addr, const HostClock* clock);

  // Client side: query the service and return the reported time. The caller
  // typically follows with HostClock::AdjustTo — trusting whatever arrived.
  static kerb::Result<Time> Query(Network* net, const NetAddress& client_addr,
                                  const NetAddress& service_addr);

 private:
  const HostClock* clock_;
};

// Challenge/response time: the client sends a nonce; the reply carries
// (nonce, time, MAC_k(nonce || time)). A forger without k cannot answer a
// fresh nonce.
class AuthTimeService {
 public:
  AuthTimeService(Network* net, const NetAddress& addr, const HostClock* clock,
                  const kcrypto::DesKey& key);

  static kerb::Result<Time> Query(Network* net, const NetAddress& client_addr,
                                  const NetAddress& service_addr, const kcrypto::DesKey& key,
                                  uint64_t nonce);

 private:
  const HostClock* clock_;
  kcrypto::DesKey key_;
};

}  // namespace ksim

#endif  // SRC_SIM_TIMESERVICE_H_
