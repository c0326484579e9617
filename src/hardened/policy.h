// The paper's recommended changes, packaged as configuration presets.
//
// Mapping from the paper's recommendation lists to knobs in this codebase:
//
//  body (a) challenge/response option         → AppServer5Options::mode
//  body (b) standard encoding w/ type tags    → src/encoding/tlv.h tables (always on in V5)
//  body (c) handheld-authenticator login      → src/hardened/handheld_login.h
//  body (d) separate encryption layer         → src/krb5/enclayer.h (always on in V5)
//  body (e) true session keys                 → send_subkey / negotiate_subkey
//  body (f) special-purpose hardware          → src/hsm/
//  body (g) preauthenticated initial exchange → require_preauth / use_preauth
//  body (h) eavesdropping-resistant login     → src/hardened/dh_login.h
//  new  (a') challenge/response handheld      → handheld_login + challenge mode
//  new  (b') preauthentication                → as body (g)
//  new  (c') strong checksums + field binding → require_collision_proof_checksum,
//            request_checksum=Md4Des, verify_service_name_check,
//            send_service_name_check, enforce_enc_tkt_cname_match
//  new  (d') omit / isolate ENC-TKT-IN-SKEY and REUSE-SKEY
//            → allow_enc_tkt_in_skey=false, allow_reuse_skey=false
//  appendix: sequence numbers over timestamps → krb5::ReplayProtection::kSequence

#ifndef SRC_HARDENED_POLICY_H_
#define SRC_HARDENED_POLICY_H_

#include "src/krb5/appserver.h"
#include "src/krb5/client.h"
#include "src/krb5/kdc.h"
#include "src/krb5/safepriv.h"

namespace khard {

// KDC settings with every recommendation applied.
krb5::KdcPolicy5 RecommendedKdcPolicy();

// Application-server settings: challenge/response, subkey negotiation,
// service-name binding, collision-proof encryption-layer checksums.
krb5::AppServer5Options RecommendedServerOptions();

// Client settings matching the above.
krb5::Client5Options RecommendedClientOptions();

// Session-channel settings: KRB_PRIV with sequence numbers.
krb5::ChannelConfig RecommendedChannelConfig();

// The Draft 3 permissive defaults, for experiments that need the explicit
// "vulnerable" end of each comparison.
krb5::KdcPolicy5 Draft3KdcPolicy();
krb5::Client5Options Draft3ClientOptions();

}  // namespace khard

#endif  // SRC_HARDENED_POLICY_H_
