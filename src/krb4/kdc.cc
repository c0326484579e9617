#include "src/krb4/kdc.h"

#include <utility>

namespace krb4 {

Kdc4::Kdc4(ksim::Network* net, const ksim::NetAddress& as_addr, const ksim::NetAddress& tgs_addr,
           ksim::HostClock clock, std::string realm, KdcDatabase db, kcrypto::Prng prng,
           KdcOptions options)
    : as_addr_(as_addr),
      tgs_addr_(tgs_addr),
      core_(clock, std::move(realm), std::move(db), options),
      ctx_(prng) {
  net->Bind(as_addr_, [this](const ksim::Message& msg) { return core_.HandleAs(msg, ctx_); });
  net->Bind(tgs_addr_, [this](const ksim::Message& msg) { return core_.HandleTgs(msg, ctx_); });
}

}  // namespace krb4
