// The Version 5 Draft 3 key distribution center.
//
// Policy knobs expose both the Draft 3 defaults the paper attacks and the
// countermeasures it recommends:
//   * checksum type for the encryption layer (Draft 3 default: CRC-32);
//   * ENC-TKT-IN-SKEY and REUSE-SKEY options (on by default, as drafted);
//   * the cname-match rule the designers "inadvertently omitted";
//   * preauthentication of the initial exchange (recommendation g);
//   * per-source rate limiting of AS requests;
//   * hierarchical inter-realm ticket granting with a transited list the
//     serving TGS (not the client) extends.
//
// Kdc5 is the shared network-facing host (krb4::KdcHost, src/krb4/kdc.h)
// around KdcCore5 (src/krb5/kdccore.h): the deterministic sim drives the
// core through one KdcContext here; the parallel serving harness drives the
// same core with one context per worker.

#ifndef SRC_KRB5_KDC_H_
#define SRC_KRB5_KDC_H_

#include "src/krb4/kdc.h"
#include "src/krb5/kdccore.h"
#include "src/krb5/messages.h"

namespace krb5 {

using Kdc5 = krb4::KdcHost<KdcCore5>;

}  // namespace krb5

#endif  // SRC_KRB5_KDC_H_
