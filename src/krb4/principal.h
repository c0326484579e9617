// Kerberos principals: the <primary name, instance, realm> three-tuple.
//
// "If the principal is a user ... the primary name is the login identifier,
// and the instance is either null or represents particular attributes of
// the user, i.e., root. For a service, the service name is used as the
// primary name and the machine name is used as the instance."
//
// Shared by the V4 and V5 models.

#ifndef SRC_KRB4_PRINCIPAL_H_
#define SRC_KRB4_PRINCIPAL_H_

#include <string>

#include "src/encoding/layout.h"

namespace krb4 {

struct Principal {
  std::string name;
  std::string instance;
  std::string realm;

  static Principal User(std::string user, std::string user_realm) {
    return Principal{std::move(user), "", std::move(user_realm)};
  }
  static Principal Service(std::string service, std::string host, std::string service_realm) {
    return Principal{std::move(service), std::move(host), std::move(service_realm)};
  }

  // "name.instance@REALM", the classic display form.
  std::string ToString() const;
  // The same form, appended to `out`.
  void AppendToString(std::string& out) const;

  // Salt for string-to-key: realm then name then instance, as V4 did
  // (modulo V4's truncation quirks, which are not security-relevant here).
  std::string Salt() const { return realm + name + instance; }

  bool operator==(const Principal& other) const {
    return name == other.name && instance == other.instance && realm == other.realm;
  }
  bool operator<(const Principal& other) const;

  // On the wire: three length-prefixed strings (src/encoding/layout.h).
  static constexpr auto Layout() {
    return std::tuple{&Principal::name, &Principal::instance, &Principal::realm};
  }
};

// The well-known ticket-granting service principal for a realm.
Principal TgsPrincipal(const std::string& realm);

}  // namespace krb4

#endif  // SRC_KRB4_PRINCIPAL_H_
