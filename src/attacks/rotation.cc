#include "src/attacks/rotation.h"

#include <algorithm>
#include <limits>
#include <string>
#include <vector>

#include "src/admin/kadmin.h"
#include "src/attacks/testbed.h"
#include "src/common/bytes.h"
#include "src/krb4/kdcstore.h"
#include "src/krb4/principal_store.h"

namespace kattack {

namespace {

kerb::BytesView StrView(std::string_view s) {
  return kerb::BytesView(reinterpret_cast<const uint8_t*>(s.data()), s.size());
}

// Terminal server verdicts are hard failures; anything the retry machinery
// classifies as retryable exhausted its budget and failed closed. Under
// in-flight corruption a flipped bit can survive framing and draw a
// terminal verdict (undecryptable ticket, unknown principal, skewed
// timestamp) that is indistinguishable from a genuine rejection, so
// corrupt runs only pin invariant breaches (kInternal) as hard; every
// fault shape that never alters bytes keeps the strict zero-terminal bar.
void ClassifyCall(kerb::ErrorCode code, bool strict, uint64_t& failed_closed,
                  uint64_t& hard) {
  if (kerb::IsRetryable(code) ||
      (!strict && code != kerb::ErrorCode::kInternal)) {
    ++failed_closed;
  } else {
    ++hard;
  }
}

// Byte equality of the encoded entry sets, in canonical principal order.
bool SameDatabase(const krb4::KdcDatabase& a, const krb4::KdcDatabase& b) {
  return krb4::SnapshotDatabase(a, 0) == krb4::SnapshotDatabase(b, 0);
}

// No replica may ever hold a half-applied rotation: at the same kvno the
// whole ring must match the primary, and no slave runs ahead of it.
bool NoHalfAppliedRing(krb4::KdcDatabase& primary, krb4::KdcDatabase& slave) {
  for (const krb4::Principal& p : slave.Principals()) {
    auto es = slave.LookupEntry(p);
    auto ep = primary.LookupEntry(p);
    if (!es.ok() || !ep.ok()) {
      return false;  // slave knows a principal the primary does not
    }
    if (es.value().kvno() > ep.value().kvno()) {
      return false;
    }
    if (es.value().kvno() == ep.value().kvno() &&
        krb4::EncodePrincipalEntry(p, es.value()) != krb4::EncodePrincipalEntry(p, ep.value())) {
      return false;
    }
  }
  return true;
}

}  // namespace

bool RotationInvariantsHold(const RotationReport& r) {
  return r.old_ticket_hard_failures == 0 && r.fresh_hard_failures == 0 &&
         r.admin_hard_failures == 0 && r.kdc_divergences == 0 &&
         r.replay_served_from_cache && r.stale_replay_rejected && r.intercept_rejected &&
         r.tamper_rejected && r.splice_no_apply && r.old_password_rejected &&
         r.new_password_accepted && r.rotation_atomic && r.replicas_converged &&
         r.recovery_consistent;
}

RotationReport RunRotationStudy(const RotationConfig& config) {
  // The fault plan starts with delays only; the chaotic rates switch on
  // after setup (logins and the old ticket must exist for the run to mean
  // anything), exactly as a deployment degrades after being healthy.
  ksim::FaultPlan plan;
  plan.link.delay = config.delay;
  plan.link.delay_jitter = config.delay_jitter;

  TestbedConfig tb;
  tb.seed = config.seed;
  tb.faults = plan;
  tb.kdc_slaves = config.kdc_slaves;
  tb.client_retry = config.retry;
  tb.kdc_reply_cache_window = config.kdc_reply_cache_window;
  tb.server_replay_cache = true;
  tb.enable_kadmin = true;
  tb.extra_users = 1;  // user0: the fresh-session workload
  Testbed4 bed(tb);

  RotationReport report;
  ksim::SimClock& clock = bed.world().clock();
  ksim::FaultyNetwork* faults = bed.world().faults();
  krb4::KdcDatabase& db = bed.kdc().database();
  kadmin::KadminServer* kadmin_srv = bed.kadmin_server();
  const krb4::Principal bob = bed.bob_principal();
  const krb4::Principal mail = bed.mail_principal();

  // --- Setup (healthy network) ---------------------------------------------
  auto oper = bed.MakeClient(bed.oper_principal(), Testbed4::kOperAddr);
  auto admin = bed.MakeAdminClient(*oper);
  (void)oper->Login(Testbed4::kOperPassword);
  (void)bed.alice().Login(Testbed4::kAlicePassword);
  // The OLD ticket: sealed under the mail key as of kvno 1.
  (void)bed.alice().GetServiceTicket(mail);
  const krb4::Principal fresh_user = bed.users()[2].first;
  const std::string fresh_password = bed.users()[2].second;
  auto fresh = bed.MakeClient(fresh_user, ksim::NetAddress{0x0a000104, 1023});

  // Chaos on.
  faults->plan().link.drop_request = config.drop;
  faults->plan().link.drop_reply = config.drop;
  faults->plan().link.duplicate_request = config.duplicate;
  faults->plan().link.reorder_request = config.reorder;
  faults->plan().link.corrupt_request = config.corrupt;
  faults->plan().link.corrupt_reply = config.corrupt;

  // Evenly spread admin schedule, collision-tolerant.
  std::vector<int> rotate_at;
  for (int j = 0; j < config.service_rotations; ++j) {
    rotate_at.push_back(config.exchanges * (j + 1) / (config.service_rotations + 1));
  }
  std::vector<int> change_at;
  std::vector<std::string> change_passwords;
  for (int j = 0; j < config.password_changes; ++j) {
    change_at.push_back(config.exchanges * (2 * j + 1) /
                        (2 * std::max(config.password_changes, 1)));
    change_passwords.push_back("rotated-Secret_" + std::to_string(j) + "!");
  }

  const bool strict = config.corrupt == 0;
  const uint32_t kdc_host = Testbed4::kAsAddr.host;
  // --- Chaotic phase -------------------------------------------------------
  for (int i = 0; i < config.exchanges; ++i) {
    if (config.primary_blackout && i == config.exchanges / 3) {
      faults->plan().blackouts.push_back(
          ksim::Blackout{kdc_host, 0, std::numeric_limits<ksim::Time>::max()});
    }
    if (config.primary_blackout && i == 2 * config.exchanges / 3) {
      faults->plan().blackouts.clear();
    }

    for (int j = 0; j < config.service_rotations; ++j) {
      if (rotate_at[j] != i) continue;
      ++report.rotations_attempted;
      auto ack = admin->RotateKey(mail);
      if (ack.ok()) {
        ++report.rotations_applied;
        // srvtab distribution, out of band: the service installs its new
        // key and grants the outgoing one the full drain window.
        auto entry = db.LookupEntry(mail);
        if (entry.ok()) {
          bed.mail_server().Rekey(kcrypto::DesKey(entry.value().keys.front().key),
                                  clock.Now() + 8 * ksim::kHour);
        }
      } else {
        ClassifyCall(ack.error().code, strict, report.rotations_failed_closed,
                     report.admin_hard_failures);
      }
    }
    for (int j = 0; j < config.password_changes; ++j) {
      if (change_at[j] != i) continue;
      ++report.changes_attempted;
      auto ack = admin->ChangePassword(bob, change_passwords[j]);
      if (ack.ok()) {
        ++report.changes_applied;
      } else {
        ClassifyCall(ack.error().code, strict, report.changes_failed_closed,
                     report.admin_hard_failures);
      }
    }

    // The old-ticket holder's traffic: the cached mail ticket, no refresh.
    ++report.old_ticket_calls;
    auto reply = bed.alice().CallService(Testbed4::kMailAddr, mail, /*want_mutual=*/true);
    if (reply.ok() && kerb::ToString(reply.value()) == "You have 3 messages.") {
      ++report.old_ticket_successes;
    } else if (reply.ok()) {
      // Accepted bytes nobody honest sent. V4 application payload rides in
      // plaintext after the mutual-auth proof, so in-flight corruption CAN
      // reach the caller (the paper's KRB_SAFE/KRB_PRIV gap); with no
      // corruption configured it is a forgery and therefore hard.
      if (strict) {
        ++report.old_ticket_hard_failures;
      } else {
        ++report.payload_corruptions;
      }
    } else {
      ClassifyCall(reply.code(), strict, report.old_ticket_failed_closed,
                   report.old_ticket_hard_failures);
    }

    // Fresh sessions keep the AS/TGS path (and new-kvno tickets) in play.
    if (i % 4 == 2) {
      ++report.fresh_calls;
      fresh->Logout();
      kerb::Status login = fresh->Login(fresh_password);
      if (!login.ok()) {
        ClassifyCall(login.code(), strict, report.fresh_failed_closed,
                     report.fresh_hard_failures);
      } else {
        auto fresh_reply =
            fresh->CallService(Testbed4::kMailAddr, mail, /*want_mutual=*/true);
        if (fresh_reply.ok() && kerb::ToString(fresh_reply.value()) == "You have 3 messages.") {
          ++report.fresh_successes;
        } else if (fresh_reply.ok()) {
          if (strict) {
            ++report.fresh_hard_failures;
          } else {
            ++report.payload_corruptions;
          }
        } else {
          ClassifyCall(fresh_reply.code(), strict, report.fresh_failed_closed,
                       report.fresh_hard_failures);
        }
      }
    }

    if (!config.kprop_paused && i % 6 == 5) {
      bed.kdc_replicas().Propagate();
    }
    clock.Advance(2 * ksim::kSecond);
  }

  // --- Recovery: faults off ------------------------------------------------
  faults->plan().link = ksim::LinkFaults{};
  faults->plan().blackouts.clear();

  // Half-applied-ring check BEFORE the catch-up cycles: whatever state the
  // chaotic (possibly paused) propagation left behind must already be a
  // consistent prefix.
  report.rotation_atomic = true;
  for (int i = 0; i < bed.kdc_replicas().slave_count(); ++i) {
    report.rotation_atomic =
        report.rotation_atomic && NoHalfAppliedRing(db, bed.kdc_replicas().slave(i).database());
  }

  // --- Probes (deterministic, clean network) -------------------------------
  ksim::Network& net = bed.world().network();
  const ksim::NetAddress admin_addr = Testbed4::kAdminAddr;
  const uint64_t probe_nonce = 0x0ddba11c0ffee001ull;

  uint64_t applied_before = kadmin_srv->applied();
  auto wire_a = admin->BuildRequest(kadmin::AdminOp::kChangePassword, bob,
                                    StrView("final-Probe_99!"), probe_nonce);
  if (wire_a.ok()) {
    auto r1 = net.Call(Testbed4::kOperAddr, admin_addr, wire_a.value());
    const uint32_t kvno_after = db.Kvno(bob);
    auto r2 = net.Call(Testbed4::kOperAddr, admin_addr, wire_a.value());
    report.replay_served_from_cache = r1.ok() && r2.ok() && r1.value() == r2.value() &&
                                      db.Kvno(bob) == kvno_after &&
                                      kadmin_srv->applied() == applied_before + 1;

    // Interception: eve re-originates honest bytes from her own host.
    auto wire_c = admin->BuildRequest(kadmin::AdminOp::kChangePassword, bob,
                                      StrView("eve-Hostile_99!"), probe_nonce + 1);
    if (wire_c.ok()) {
      auto rc = net.Call(Testbed4::kEveAddr, admin_addr, wire_c.value());
      report.intercept_rejected = !rc.ok() && db.Kvno(bob) == kvno_after;
    }

    // Tampering: one flipped bit in the sealed body.
    auto wire_d = admin->BuildRequest(kadmin::AdminOp::kRotateKey, mail, {}, probe_nonce + 2);
    if (wire_d.ok()) {
      const uint32_t mail_kvno_before = db.Kvno(mail);
      kerb::Bytes bent = wire_d.value();
      bent.back() ^= 0x40;
      auto rd = net.Call(Testbed4::kOperAddr, admin_addr, bent);
      report.tamper_rejected = !rd.ok() && db.Kvno(mail) == mail_kvno_before;
    }

    // Let every freshness window (reply cache 2m, skew 5m) close, but stay
    // inside the 10m nonce window.
    clock.Advance(6 * ksim::kMinute);
    auto r3 = net.Call(Testbed4::kOperAddr, admin_addr, wire_a.value());
    report.stale_replay_rejected = !r3.ok() && db.Kvno(bob) == kvno_after;

    // Splice: fresh authenticator, applied nonce, different body — the ack
    // cache answers with the ORIGINAL verdict and nothing applies.
    uint64_t applied_mid = kadmin_srv->applied();
    auto wire_e = admin->BuildRequest(kadmin::AdminOp::kChangePassword, bob,
                                      StrView("splice-Body_x77!"), probe_nonce);
    if (wire_e.ok() && r1.ok()) {
      auto re = net.Call(Testbed4::kOperAddr, admin_addr, wire_e.value());
      report.splice_no_apply = re.ok() && re.value() == r1.value() &&
                               db.Kvno(bob) == kvno_after &&
                               kadmin_srv->applied() == applied_mid;
    }
  }

  // Exactly one password opens bob's account, and (changes applied) it is
  // not the original one.
  std::vector<std::string> candidates;
  candidates.emplace_back(Testbed4::kBobPassword);
  for (const std::string& pw : change_passwords) candidates.push_back(pw);
  candidates.emplace_back("final-Probe_99!");
  int working = -1;
  int working_count = 0;
  for (int c = 0; c < static_cast<int>(candidates.size()); ++c) {
    bed.bob().Logout();
    if (bed.bob().Login(candidates[c]).ok()) {
      working = c;
      ++working_count;
    }
    clock.Advance(ksim::kSecond);
  }
  const bool changed = db.Kvno(bob) > 1;
  report.old_password_rejected = working_count == 1 && (changed ? working != 0 : working == 0);
  report.new_password_accepted = working_count == 1 && changed && working != 0;

  // --- Replica catch-up and durability -------------------------------------
  for (int k = 0; k < 3; ++k) {
    bed.kdc_replicas().Propagate();
  }
  report.replicas_converged = true;
  for (int i = 0; i < bed.kdc_replicas().slave_count(); ++i) {
    report.replicas_converged =
        report.replicas_converged && SameDatabase(db, bed.kdc_replicas().slave(i).database());
  }

  report.recovery_consistent = false;
  if (auto* prop = bed.kdc_replicas().propagation()) {
    prop->store().Crash();
    krb4::KdcDatabase rebuilt;
    report.recovery_consistent =
        krb4::RecoverDatabase(prop->store(), rebuilt).ok() && SameDatabase(rebuilt, db);
  } else {
    // Zero-slave deployments have no durable store to crash; vacuously ok.
    report.recovery_consistent = bed.kdc_replicas().slave_count() == 0;
  }

  // --- Bookkeeping ---------------------------------------------------------
  report.old_key_accepts = bed.mail_server().old_key_accepts();
  report.ack_replays = kadmin_srv->ack_replays();
  report.bob_kvno = db.Kvno(bob);
  report.mail_kvno = db.Kvno(mail);
  report.net = faults->stats();
  report.schedule_digest = faults->schedule_digest();
  report.kdc_divergences = faults->divergences_at(kdc_host);
  for (int i = 0; i < bed.kdc_replicas().slave_count(); ++i) {
    report.kdc_divergences += faults->divergences_at(kdc_host + 1 + static_cast<uint32_t>(i));
  }
  report.retry = bed.alice().retry_stats();
  return report;
}

}  // namespace kattack
