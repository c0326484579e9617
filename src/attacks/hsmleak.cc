#include "src/attacks/hsmleak.h"

#include <vector>

#include "src/attacks/testbed.h"
#include "src/hsm/encryption_unit.h"

namespace kattack {

HsmLeakReport RunEncryptionUnitLeakSweep(uint64_t seed, int fuzz_rounds) {
  HsmLeakReport report;
  kcrypto::Prng prng(seed);
  khsm::EncryptionUnit unit(seed ^ 0x0451);

  std::vector<kerb::Bytes> outputs;  // everything that ever leaves the unit
  auto capture = [&](kerb::BytesView bytes) {
    outputs.emplace_back(bytes.begin(), bytes.end());
  };

  // Provision a realistic key population.
  krb4::Principal alice = krb4::Principal::User("alice", "ATHENA.SIM");
  kcrypto::DesKey login_key = prng.NextDesKey();
  kcrypto::DesKey service_key = prng.NextDesKey();
  khsm::KeyHandle login = unit.LoadKey(login_key, khsm::KeyUsage::kLoginKey);
  khsm::KeyHandle service = unit.LoadKey(service_key, khsm::KeyUsage::kServiceKey);
  khsm::KeyHandle generated = unit.GenerateKey(khsm::KeyUsage::kSessionKey);

  // Honest protocol traffic through the unit: an AS reply, a TGS reply, a
  // ticket validation, sealed data.
  kcrypto::DesKey tgs_session = prng.NextDesKey();
  krb4::Ticket4 tgt;
  tgt.service = krb4::TgsPrincipal("ATHENA.SIM");
  tgt.client = alice;
  tgt.session_key = tgs_session.bytes();
  tgt.lifetime = ksim::kHour;
  krb4::ReplyBody4 as_body;
  as_body.session_key = tgs_session.bytes();
  as_body.sealed_ticket = krb4::Seal(prng.NextDesKey(), tgt);
  kerb::Bytes sealed_as = krb4::Seal(login_key, as_body);

  kerb::Bytes tgt_out;
  auto tgs_handle = unit.OpenAsReply(login, sealed_as, &tgt_out);
  ++report.operations_attempted;
  capture(tgt_out);

  if (tgs_handle.ok()) {
    auto auth = unit.MakeAuthenticator(tgs_handle.value(), alice, 0x0a000101, 0);
    ++report.operations_attempted;
    if (auth.ok()) {
      capture(auth.value());
    }
    kcrypto::DesKey svc_session = prng.NextDesKey();
    krb4::ReplyBody4 tgs_body;
    tgs_body.session_key = svc_session.bytes();
    tgs_body.sealed_ticket = prng.NextBytes(48);
    kerb::Bytes sealed_tgs = krb4::Seal(tgs_session, tgs_body);
    kerb::Bytes ticket_out;
    auto session_handle = unit.OpenTgsReply(tgs_handle.value(), sealed_tgs, &ticket_out);
    ++report.operations_attempted;
    capture(ticket_out);
    if (session_handle.ok()) {
      auto sealed = unit.SealData(session_handle.value(), kerb::ToBytes("payload"));
      ++report.operations_attempted;
      if (sealed.ok()) {
        capture(sealed.value());
        auto opened = unit.OpenData(session_handle.value(), sealed.value());
        ++report.operations_attempted;
        if (opened.ok()) {
          capture(opened.value());
        }
      }
    }
  }

  // Server side: validate a ticket under the service key.
  krb4::Ticket4 service_ticket;
  service_ticket.service = krb4::Principal::Service("nfs", "fs", "ATHENA.SIM");
  service_ticket.client = alice;
  service_ticket.session_key = prng.NextDesKey().bytes();
  service_ticket.lifetime = ksim::kHour;
  auto info = unit.DecryptTicket(service, krb4::Seal(service_key, service_ticket));
  ++report.operations_attempted;
  if (info.ok()) {
    capture(kerb::ToBytes(info.value().client.ToString()));
  }

  // Hostile phase: misuse every entry point — wrong usages, wrong handles,
  // garbage ciphertext, attempts to get keys decrypted under other keys.
  std::vector<khsm::KeyHandle> handles = {login, service, generated, 9999};
  for (int round = 0; round < fuzz_rounds; ++round) {
    khsm::KeyHandle handle = handles[prng.NextBelow(handles.size())];
    kerb::Bytes garbage = prng.NextBytes(8 * (1 + prng.NextBelow(8)));
    switch (prng.NextBelow(6)) {
      case 0: {
        auto r = unit.OpenAsReply(handle, garbage, nullptr);
        if (!r.ok() && r.error().code == kerb::ErrorCode::kPolicy) {
          ++report.usage_violations_blocked;
        }
        break;
      }
      case 1: {
        auto r = unit.MakeAuthenticator(handle, alice, 0, 0);
        if (r.ok()) {
          capture(r.value());
        } else if (r.error().code == kerb::ErrorCode::kPolicy) {
          ++report.usage_violations_blocked;
        }
        break;
      }
      case 2: {
        auto r = unit.OpenTgsReply(handle, garbage, nullptr);
        if (!r.ok() && r.error().code == kerb::ErrorCode::kPolicy) {
          ++report.usage_violations_blocked;
        }
        break;
      }
      case 3: {
        auto r = unit.DecryptTicket(handle, garbage);
        if (!r.ok() && r.error().code == kerb::ErrorCode::kPolicy) {
          ++report.usage_violations_blocked;
        }
        break;
      }
      case 4: {
        auto r = unit.SealData(handle, garbage);
        if (r.ok()) {
          capture(r.value());
        } else if (r.error().code == kerb::ErrorCode::kPolicy) {
          ++report.usage_violations_blocked;
        }
        break;
      }
      default: {
        auto r = unit.OpenData(handle, garbage);
        if (r.ok()) {
          capture(r.value());
        } else if (r.error().code == kerb::ErrorCode::kPolicy) {
          ++report.usage_violations_blocked;
        }
        break;
      }
    }
    ++report.operations_attempted;
  }
  for (const auto& entry : unit.operation_log()) {
    capture(kerb::ToBytes(entry));
  }

  // The scan: does any output contain any key octet sequence?
  auto keys = unit.DangerouslyExportAllKeyMaterialForLeakScan();
  report.keys_in_unit = keys.size();
  for (const auto& output : outputs) {
    ++report.outputs_scanned;
    for (const auto& key : keys) {
      if (kerb::ContainsSubsequence(output, key)) {
        ++report.key_octet_leaks;
        report.detail = "leak of key material in an output buffer";
      }
    }
  }

  // Contrast: the all-software client. A host compromise that reads the
  // credential cache gets the raw session key immediately.
  TestbedConfig config;
  config.seed = seed;
  Testbed4 bed(config);
  if (bed.alice().Login(Testbed4::kAlicePassword).ok() &&
      bed.alice().GetServiceTicket(bed.file_principal()).ok()) {
    const auto& cache = bed.alice().credentials();
    report.software_cache_leaks = !cache.empty();  // keys are right there
  }
  return report;
}

}  // namespace kattack
