#include "src/krb4/principal.h"

#include <tuple>

namespace krb4 {

std::string Principal::ToString() const {
  std::string out;
  AppendToString(out);
  return out;
}

void Principal::AppendToString(std::string& out) const {
  out += name;
  if (!instance.empty()) {
    out += '.';
    out += instance;
  }
  out += '@';
  out += realm;
}

bool Principal::operator<(const Principal& other) const {
  return std::tie(name, instance, realm) < std::tie(other.name, other.instance, other.realm);
}

Principal TgsPrincipal(const std::string& realm) {
  return Principal{"krbtgt", realm, realm};
}

}  // namespace krb4
