// The V4 KRB_PRIV private-message format.
//
// Per the paper, the encrypted portion of a V4 KRB_PRIV message is
//
//   (length(DATA), DATA, msectime, hostaddress, timestamp+direction, PAD)
//
// "the leading length(DATA) field disrupts the prefix-based attack" — the
// chosen-plaintext truncation that works against the Draft 2 V5 format
// (src/krb5/privmsg.h) fails here, which experiment E7 shows side by side.
// V4 used the nonstandard PCBC mode; we preserve that too.

#ifndef SRC_KRB4_KRBPRIV_H_
#define SRC_KRB4_KRBPRIV_H_

#include "src/common/bytes.h"
#include "src/common/result.h"
#include "src/crypto/des.h"
#include "src/encoding/layout.h"
#include "src/sim/clock.h"

namespace krb4 {

struct PrivMessage4 {
  kerb::Bytes data;
  ksim::Time timestamp = 0;    // millisecond-resolution in real V4
  uint32_t sender_addr = 0;
  uint8_t direction = 0;       // client→server = 0, server→client = 1

  // The plaintext before its zero padding; the leading length field first,
  // the order that matters.
  static constexpr auto Layout() {
    return std::tuple{&PrivMessage4::data, &PrivMessage4::timestamp, &PrivMessage4::sender_addr,
                      &PrivMessage4::direction};
  }

  // Encrypts under the session key with PCBC and a zero IV (the paper's
  // "assume the initial vector is fixed and public"). Unseal fails every
  // damaged message — truncated fields, non-zero padding — with kIntegrity.
  kerb::Bytes Seal(const kcrypto::DesKey& session_key) const;
  static kerb::Result<PrivMessage4> Unseal(const kcrypto::DesKey& session_key,
                                           kerb::BytesView sealed);
};

}  // namespace krb4

#endif  // SRC_KRB4_KRBPRIV_H_
