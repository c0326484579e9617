#include "src/krb4/principal.h"

#include <tuple>

namespace krb4 {

std::string Principal::ToString() const {
  std::string out;
  AppendTo(out);
  return out;
}

void Principal::AppendTo(std::string& out) const {
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

void Principal::EncodeTo(kenc::Writer& w) const {
  w.PutString(name);
  w.PutString(instance);
  w.PutString(realm);
}

kerb::Result<Principal> Principal::DecodeFrom(kenc::Reader& r) {
  auto name = r.GetString();
  if (!name.ok()) {
    return name.error();
  }
  auto instance = r.GetString();
  if (!instance.ok()) {
    return instance.error();
  }
  auto realm = r.GetString();
  if (!realm.ok()) {
    return realm.error();
  }
  return Principal{name.value(), instance.value(), realm.value()};
}

Principal TgsPrincipal(const std::string& realm) {
  return Principal{"krbtgt", realm, realm};
}

}  // namespace krb4
