// Integration: DMARC-enforcing MTAs and the probe source domain's p=reject
// (paper section 6.2 — blank probe messages must be rejected, not delivered).
#include <gtest/gtest.h>

#include "mta/host.hpp"
#include "scan/prober.hpp"
#include "scan/test_responder.hpp"

namespace spfail {
namespace {

class MtaDmarcFixture : public ::testing::Test {
 protected:
  MtaDmarcFixture() { responder_ = scan::install_test_responder(server_); }

  mta::MailHost make_host(bool checks_dmarc) {
    mta::HostProfile profile;
    profile.address = util::IpAddress::v4(203, 0, 113, 77);
    profile.behaviors = {spfvuln::SpfBehavior::VulnerableLibspf2};
    profile.spf_timing = mta::SpfTiming::AfterData;
    profile.rejects_spf_fail = false;  // isolate the DMARC decision
    profile.checks_dmarc = checks_dmarc;
    return mta::MailHost(profile, server_, clock_);
  }

  scan::ProbeResult probe(mta::MailHost& host, const char* id) {
    scan::ProberConfig config;
    config.responder = responder_;
    net::Transport transport(clock_);
    scan::Prober prober(config, server_, transport);
    return prober.probe(host,
                        "target.example",
                        dns::Name::from_string(std::string(id) +
                                               ".t9.spf-test.dns-lab.org"),
                        scan::TestKind::BlankMsg);
  }

  dns::AuthoritativeServer server_;
  util::SimClock clock_;
  scan::TestResponderConfig responder_;
};

TEST_F(MtaDmarcFixture, ResponderPublishesRejectPolicy) {
  const dns::Message response = server_.handle(
      dns::Message::make_query(
          1, dns::Name::from_string("_dmarc.ab1cd.t9.spf-test.dns-lab.org"),
          dns::RRType::TXT),
      util::IpAddress::v4(9, 9, 9, 9), clock_.now());
  ASSERT_EQ(response.answers.size(), 1u);
  EXPECT_EQ(std::get<dns::TxtRdata>(response.answers[0].rdata).joined(),
            "v=DMARC1; p=reject");
}

TEST_F(MtaDmarcFixture, DmarcCheckerRejectsBlankProbe) {
  mta::MailHost host = make_host(/*checks_dmarc=*/true);
  const scan::ProbeResult result = probe(host, "idaa1");
  // The probe is rejected at end-of-DATA (never delivered) — yet the SPF
  // fingerprint was still measured first. This is exactly the paper's
  // minimally-intrusive design.
  EXPECT_EQ(result.status, scan::ProbeStatus::SpfMeasured);
  EXPECT_TRUE(result.vulnerable());
}

TEST_F(MtaDmarcFixture, NonCheckerAcceptsBlankProbe) {
  mta::MailHost host = make_host(/*checks_dmarc=*/false);
  const scan::ProbeResult result = probe(host, "idaa2");
  EXPECT_EQ(result.status, scan::ProbeStatus::SpfMeasured);
}

TEST_F(MtaDmarcFixture, DmarcQueriesDoNotPolluteTheFingerprint) {
  mta::MailHost host = make_host(/*checks_dmarc=*/true);
  const scan::ProbeResult result = probe(host, "idaa3");
  // The host queried _dmarc.<domain>; the classifier must not call that an
  // erroneous macro expansion.
  ASSERT_EQ(result.behaviors.size(), 1u);
  EXPECT_EQ(*result.behaviors.begin(), spfvuln::SpfBehavior::VulnerableLibspf2);

  bool saw_dmarc_query = false;
  for (const auto& entry : server_.query_log().entries()) {
    if (!entry.qname.labels().empty() &&
        entry.qname.labels().front() == "_dmarc") {
      saw_dmarc_query = true;
    }
  }
  EXPECT_TRUE(saw_dmarc_query);
}

TEST_F(MtaDmarcFixture, NewDialogStartsWithoutStaleEvaluations) {
  mta::MailHost host = make_host(/*checks_dmarc=*/true);
  probe(host, "idaa4");
  ASSERT_TRUE(host.last_dmarc().has_value());
  ASSERT_EQ(host.last_spf_results().size(), 1u);

  // The next connection is a new dialog: nothing of the last one's SPF or
  // DMARC evaluation may show through before it evaluates anything itself.
  const auto session = host.connect(util::IpAddress::v4(198, 51, 100, 10));
  ASSERT_TRUE(session.has_value());
  EXPECT_FALSE(host.last_dmarc().has_value());
  EXPECT_TRUE(host.last_spf_results().empty());
}

}  // namespace
}  // namespace spfail
