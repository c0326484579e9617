// Inter-realm authentication across the ENG.CORP ← CORP → SALES.CORP tree.

#include <gtest/gtest.h>

#include "src/attacks/testbed5.h"

namespace krb5 {
namespace {

using kattack::RealmTree5;

TEST(InterRealmTest, CrossRealmServiceAccessWorks) {
  RealmTree5 tree;
  ASSERT_TRUE(tree.alice().Login(RealmTree5::kAlicePassword).ok());
  auto result = tree.alice().CallService(RealmTree5::kPayrollAddr, tree.payroll_principal(),
                                         false, kerb::ToBytes("view-salary"));
  ASSERT_TRUE(result.ok()) << result.error().ToString();
  EXPECT_EQ(kerb::ToString(result.value().app_reply), "payroll-ok: view-salary");
}

TEST(InterRealmTest, TransitedPathRecordsIntermediateRealms) {
  // "A user's ticket request is signed by each TGS and passed along."
  RealmTree5 tree;
  ASSERT_TRUE(tree.alice().Login(RealmTree5::kAlicePassword).ok());
  ASSERT_TRUE(tree.alice()
                  .CallService(RealmTree5::kPayrollAddr, tree.payroll_principal(), false)
                  .ok());
  ASSERT_EQ(tree.payroll_log().size(), 1u);
  // Path must show ENG.CORP (origin hop) and CORP (transit).
  EXPECT_NE(tree.payroll_log()[0].find("alice@ENG.CORP"), std::string::npos);
  EXPECT_NE(tree.payroll_log()[0].find("ENG.CORP,CORP"), std::string::npos)
      << tree.payroll_log()[0];
}

TEST(InterRealmTest, LocalServiceUnaffected) {
  RealmTree5 tree;
  ASSERT_TRUE(tree.alice().Login(RealmTree5::kAlicePassword).ok());
  // alice's own realm has no services registered besides the TGS; asking
  // for an unknown local service errors cleanly.
  auto creds = tree.alice().GetServiceTicket(
      Principal::Service("nosuch", "host", "ENG.CORP"));
  EXPECT_EQ(creds.code(), kerb::ErrorCode::kNotFound);
}

TEST(InterRealmTest, UnroutableRealmFails) {
  RealmTree5 tree;
  ASSERT_TRUE(tree.alice().Login(RealmTree5::kAlicePassword).ok());
  auto creds = tree.alice().GetServiceTicket(
      Principal::Service("svc", "host", "OUTSIDE.WORLD"));
  EXPECT_FALSE(creds.ok());
}

TEST(InterRealmTest, TransitPolicyCanRejectPaths) {
  // A payroll server configured to distrust CORP rejects transited tickets.
  RealmTree5 tree;
  tree.payroll_server().options().transited_policy = [](const Ticket5& ticket) {
    for (const auto& realm : ticket.transited) {
      if (realm == "CORP") {
        return false;
      }
    }
    return true;
  };
  ASSERT_TRUE(tree.alice().Login(RealmTree5::kAlicePassword).ok());
  auto result =
      tree.alice().CallService(RealmTree5::kPayrollAddr, tree.payroll_principal(), false);
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(tree.payroll_server().rejected_requests(), 1u);
}

TEST(InterRealmTest, ForgedDirectTicketLacksTransitRecord) {
  // The E13 core: a party holding the CORP↔SALES key (a compromised CORP)
  // can mint a TGT claiming any client with an EMPTY transited path — the
  // record the honest path would carry is simply absent.
  RealmTree5 tree;
  kcrypto::Prng prng(1);

  Ticket5 forged;
  forged.service = Principal{"krbtgt", "SALES.CORP", "CORP"};
  forged.client = Principal::User("ceo", "ENG.CORP");  // a fabricated identity
  forged.issued_at = tree.world().clock().Now();
  forged.lifetime = ksim::kHour;
  forged.session_key = prng.NextDesKey().bytes();
  // transited deliberately left empty: CORP "forgets" to record anything.
  kerb::Bytes sealed = Seal(tree.corp_sales_key(), forged, tree.policy().enc, prng);

  // SALES' TGS accepts it — it is sealed with the right key and looks local
  // to the CORP hop.
  auto sales_tgs_key = tree.sales().database().Lookup(krb4::TgsPrincipal("SALES.CORP"));
  ASSERT_TRUE(sales_tgs_key.ok());
  // Ticket decodes under the inter-realm key: structurally indistinguishable
  // from an honest one.
  auto opened = Unseal<Ticket5>(tree.corp_sales_key(), sealed, tree.policy().enc);
  ASSERT_TRUE(opened.ok());
  EXPECT_TRUE(opened.value().transited.empty());
  EXPECT_EQ(opened.value().client.ToString(), "ceo@ENG.CORP");
}

}  // namespace
}  // namespace krb5
