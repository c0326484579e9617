#include "src/hardened/policy.h"

namespace khard {

namespace {

krb5::EncLayerConfig HardenedEncLayer() {
  krb5::EncLayerConfig enc;
  enc.checksum = kcrypto::ChecksumType::kMd4Des;
  enc.use_confounder = true;
  return enc;
}

}  // namespace

krb5::KdcPolicy5 RecommendedKdcPolicy() {
  krb5::KdcPolicy5 policy;
  policy.enc = HardenedEncLayer();
  policy.allow_enc_tkt_in_skey = false;   // new recommendation (d')
  policy.allow_reuse_skey = false;        // new recommendation (d')
  policy.enforce_enc_tkt_cname_match = true;
  policy.require_preauth = true;          // recommendation (g)
  policy.require_collision_proof_checksum = true;  // new recommendation (c')
  policy.as_rate_limit_per_minute = 30;
  // "We would prefer to provide the same functionality by having clients
  // register separate instances as services, with truly random keys."
  policy.allow_tickets_for_user_principals = false;
  return policy;
}

krb5::AppServer5Options RecommendedServerOptions() {
  krb5::AppServer5Options options;
  options.enc = HardenedEncLayer();
  options.mode = krb5::ApAuthMode::kChallengeResponse;  // recommendation (a)
  options.verify_service_name_check = true;             // new recommendation (c')
  options.negotiate_subkey = true;                      // recommendation (e)
  options.replay_cache = true;                          // defence in depth
  return options;
}

krb5::Client5Options RecommendedClientOptions() {
  krb5::Client5Options options;
  options.enc = HardenedEncLayer();
  options.request_checksum = kcrypto::ChecksumType::kMd4Des;
  options.use_preauth = true;
  options.send_subkey = true;
  options.send_service_name_check = true;
  return options;
}

krb5::ChannelConfig RecommendedChannelConfig() {
  krb5::ChannelConfig config;
  config.protection = krb5::ReplayProtection::kSequence;
  config.enc = HardenedEncLayer();
  return config;
}

krb5::KdcPolicy5 Draft3KdcPolicy() { return krb5::KdcPolicy5{}; }

krb5::Client5Options Draft3ClientOptions() { return krb5::Client5Options{}; }

}  // namespace khard
