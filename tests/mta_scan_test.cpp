// Integration tests: the full remote-detection loop — scanner -> SMTP ->
// MTA's SPF engine -> DNS -> query log -> fingerprint classification.
#include <gtest/gtest.h>

#include "mta/host.hpp"
#include "scan/campaign.hpp"
#include "scan/prober.hpp"
#include "scan/test_responder.hpp"
#include "scan/usernames.hpp"

namespace spfail {
namespace {

using scan::ProbeStatus;
using scan::TestKind;
using spfvuln::SpfBehavior;
using util::IpAddress;

class ScanFixture : public ::testing::Test, public scan::HostRegistry {
 protected:
  ScanFixture() {
    responder_config_ = scan::install_test_responder(server_);
    prober_config_.responder = responder_config_;
  }

  mta::MailHost& add_host(mta::HostProfile profile) {
    auto host = std::make_unique<mta::MailHost>(std::move(profile), server_,
                                                clock_);
    auto& ref = *host;
    hosts_.emplace(ref.address(), std::move(host));
    return ref;
  }

  mta::MailHost* find_host(const IpAddress& address) override {
    const auto it = hosts_.find(address);
    return it == hosts_.end() ? nullptr : it->second.get();
  }

  scan::ProbeResult probe(mta::MailHost& host, TestKind kind,
                          const std::string& id = "abc4z") {
    net::Transport transport(clock_);
    scan::Prober prober(prober_config_, server_, transport);
    const dns::Name mail_from =
        dns::Name::from_string(id + ".t001.spf-test.dns-lab.org");
    return prober.probe(host, "target.example", mail_from, kind);
  }

  static mta::HostProfile base_profile(SpfBehavior behavior,
                                       std::uint8_t last_octet = 10) {
    mta::HostProfile profile;
    profile.address = IpAddress::v4(203, 0, 113, last_octet);
    profile.behaviors = {behavior};
    return profile;
  }

  dns::AuthoritativeServer server_;
  util::SimClock clock_;
  scan::TestResponderConfig responder_config_;
  scan::ProberConfig prober_config_;
  std::map<IpAddress, std::unique_ptr<mta::MailHost>> hosts_;
};

// ------------------------------------------------------------- responder

TEST_F(ScanFixture, ResponderServesTemplatedPolicy) {
  const dns::Name domain =
      dns::Name::from_string("ab1cd.t001.spf-test.dns-lab.org");
  const std::string policy =
      scan::test_policy_text(responder_config_, domain);
  EXPECT_EQ(policy,
            "v=spf1 a:%{d1r}.ab1cd.t001.spf-test.dns-lab.org "
            "a:b.ab1cd.t001.spf-test.dns-lab.org -all");

  const dns::Message response = server_.handle(
      dns::Message::make_query(1, domain, dns::RRType::TXT),
      IpAddress::v4(9, 9, 9, 9), clock_.now());
  ASSERT_EQ(response.answers.size(), 1u);
  EXPECT_EQ(std::get<dns::TxtRdata>(response.answers[0].rdata).joined(),
            policy);
}

TEST_F(ScanFixture, ResponderAnswersProbeAQueries) {
  const dns::Name probe_name = dns::Name::from_string(
      "anything.ab1cd.t001.spf-test.dns-lab.org");
  const dns::Message response = server_.handle(
      dns::Message::make_query(2, probe_name, dns::RRType::A),
      IpAddress::v4(9, 9, 9, 9), clock_.now());
  ASSERT_EQ(response.answers.size(), 1u);
  EXPECT_EQ(std::get<dns::ARdata>(response.answers[0].rdata).address,
            responder_config_.answer_v4);
}

// --------------------------------------------------- end-to-end detection

TEST_F(ScanFixture, DetectsVulnerableHostWithNoMsg) {
  auto& host = add_host(base_profile(SpfBehavior::VulnerableLibspf2));
  const scan::ProbeResult result = probe(host, TestKind::NoMsg);
  EXPECT_EQ(result.status, ProbeStatus::SpfMeasured);
  EXPECT_TRUE(result.vulnerable());
  EXPECT_TRUE(result.saw_policy_fetch);
  ASSERT_EQ(result.behaviors.size(), 1u);
  EXPECT_EQ(*result.behaviors.begin(), SpfBehavior::VulnerableLibspf2);
}

TEST_F(ScanFixture, CompliantHostMeasuresCompliant) {
  auto& host = add_host(base_profile(SpfBehavior::RfcCompliant));
  const scan::ProbeResult result = probe(host, TestKind::NoMsg);
  EXPECT_EQ(result.status, ProbeStatus::SpfMeasured);
  EXPECT_FALSE(result.vulnerable());
  EXPECT_EQ(*result.behaviors.begin(), SpfBehavior::RfcCompliant);
}

TEST_F(ScanFixture, EveryBehaviorRoundTripsThroughTheFullStack) {
  std::uint8_t octet = 20;
  for (const SpfBehavior behavior :
       {SpfBehavior::RfcCompliant, SpfBehavior::VulnerableLibspf2,
        SpfBehavior::NoExpansion, SpfBehavior::NoTruncation,
        SpfBehavior::NoReversal, SpfBehavior::NoTransformers,
        SpfBehavior::OtherErroneous}) {
    auto& host = add_host(base_profile(behavior, octet));
    const scan::ProbeResult result =
        probe(host, TestKind::NoMsg, "id" + std::to_string(octet));
    ASSERT_EQ(result.status, ProbeStatus::SpfMeasured) << to_string(behavior);
    ASSERT_EQ(result.behaviors.size(), 1u) << to_string(behavior);
    EXPECT_EQ(*result.behaviors.begin(), behavior) << to_string(behavior);
    ++octet;
  }
}

TEST_F(ScanFixture, SpfAfterDataInvisibleToNoMsgVisibleToBlankMsg) {
  mta::HostProfile profile = base_profile(SpfBehavior::VulnerableLibspf2);
  profile.spf_timing = mta::SpfTiming::AfterData;
  auto& host = add_host(std::move(profile));

  const scan::ProbeResult nomsg = probe(host, TestKind::NoMsg, "idaa1");
  EXPECT_EQ(nomsg.status, ProbeStatus::SpfNotMeasured);

  const scan::ProbeResult blankmsg = probe(host, TestKind::BlankMsg, "idaa2");
  EXPECT_EQ(blankmsg.status, ProbeStatus::SpfMeasured);
  EXPECT_TRUE(blankmsg.vulnerable());
}

TEST_F(ScanFixture, NonValidatingHostNotMeasured) {
  mta::HostProfile profile = base_profile(SpfBehavior::RfcCompliant);
  profile.validates_spf = false;
  auto& host = add_host(std::move(profile));
  EXPECT_EQ(probe(host, TestKind::NoMsg).status, ProbeStatus::SpfNotMeasured);
  EXPECT_EQ(probe(host, TestKind::BlankMsg, "id2nd").status,
            ProbeStatus::SpfNotMeasured);
}

TEST_F(ScanFixture, RefusedConnection) {
  mta::HostProfile profile = base_profile(SpfBehavior::RfcCompliant);
  profile.accepts_connections = false;
  auto& host = add_host(std::move(profile));
  EXPECT_EQ(probe(host, TestKind::NoMsg).status,
            ProbeStatus::ConnectionRefused);
}

TEST_F(ScanFixture, BrokenSmtpIsFailure) {
  mta::HostProfile profile = base_profile(SpfBehavior::RfcCompliant);
  profile.smtp_broken = true;
  auto& host = add_host(std::move(profile));
  const scan::ProbeResult result = probe(host, TestKind::NoMsg);
  EXPECT_EQ(result.status, ProbeStatus::SmtpFailure);
  EXPECT_EQ(result.failing_code, 421);
}

TEST_F(ScanFixture, SpfRejectionStillYieldsMeasurement) {
  // The served policy ends in -all, so an SPF-at-MAIL-FROM host that
  // *rejects* on Fail replies 550 — yet the DNS log still shows the
  // fingerprint. This is the paper's observation that many conclusive NoMsg
  // measurements came from rejected transactions.
  mta::HostProfile profile = base_profile(SpfBehavior::VulnerableLibspf2);
  profile.rejects_spf_fail = true;
  auto& host = add_host(std::move(profile));
  const scan::ProbeResult result = probe(host, TestKind::NoMsg);
  EXPECT_EQ(result.status, ProbeStatus::SpfMeasured);
  EXPECT_TRUE(result.vulnerable());
}

TEST_F(ScanFixture, GreylistedFirstAttempt) {
  mta::HostProfile profile = base_profile(SpfBehavior::RfcCompliant);
  profile.greylists = true;
  auto& host = add_host(std::move(profile));
  EXPECT_EQ(probe(host, TestKind::NoMsg).status, ProbeStatus::Greylisted);
  // Retrying too soon is still greylisted.
  EXPECT_EQ(probe(host, TestKind::NoMsg, "idgl2").status,
            ProbeStatus::Greylisted);
  // After the 8-minute backoff the host accepts and SPF fires.
  clock_.advance_by(8 * util::kMinute);
  EXPECT_EQ(probe(host, TestKind::NoMsg, "idgl3").status,
            ProbeStatus::SpfMeasured);
}

TEST_F(ScanFixture, UsernameLadderWalksTo_postmaster) {
  mta::HostProfile profile = base_profile(SpfBehavior::RfcCompliant);
  profile.known_recipients = {"postmaster"};
  profile.spf_timing = mta::SpfTiming::AfterData;
  auto& host = add_host(std::move(profile));
  const scan::ProbeResult result = probe(host, TestKind::BlankMsg);
  EXPECT_EQ(result.status, ProbeStatus::SpfMeasured);
  EXPECT_EQ(result.accepted_username, "postmaster");
}

TEST_F(ScanFixture, NoAcceptedRecipientIsSmtpFailure) {
  mta::HostProfile profile = base_profile(SpfBehavior::RfcCompliant);
  profile.known_recipients = {"someone-not-on-the-ladder"};
  profile.spf_timing = mta::SpfTiming::AfterData;
  auto& host = add_host(std::move(profile));
  const scan::ProbeResult result = probe(host, TestKind::NoMsg);
  EXPECT_EQ(result.status, ProbeStatus::SmtpFailure);
  EXPECT_EQ(result.failing_code, 550);
}

TEST_F(ScanFixture, MultiStackHostShowsMultipleBehaviors) {
  mta::HostProfile profile = base_profile(SpfBehavior::VulnerableLibspf2);
  profile.behaviors = {SpfBehavior::VulnerableLibspf2,
                       SpfBehavior::RfcCompliant};
  auto& host = add_host(std::move(profile));
  const scan::ProbeResult result = probe(host, TestKind::NoMsg);
  EXPECT_EQ(result.status, ProbeStatus::SpfMeasured);
  EXPECT_EQ(result.behaviors.size(), 2u);
  EXPECT_TRUE(result.vulnerable());
}

TEST_F(ScanFixture, PatchingChangesTheMeasurement) {
  auto& host = add_host(base_profile(SpfBehavior::VulnerableLibspf2));
  EXPECT_TRUE(probe(host, TestKind::NoMsg, "idp1").vulnerable());

  host.apply_patch();
  const scan::ProbeResult after = probe(host, TestKind::NoMsg, "idp2");
  EXPECT_EQ(after.status, ProbeStatus::SpfMeasured);
  EXPECT_FALSE(after.vulnerable());
  EXPECT_EQ(*after.behaviors.begin(), SpfBehavior::RfcCompliant);
}

TEST_F(ScanFixture, BlacklistedHostAbortsDialog) {
  auto& host = add_host(base_profile(SpfBehavior::VulnerableLibspf2));
  host.set_blacklisted(true);
  const scan::ProbeResult result = probe(host, TestKind::NoMsg);
  EXPECT_EQ(result.status, ProbeStatus::SmtpFailure);
  EXPECT_EQ(result.failing_code, 554);
}

// --------------------------------------------------------------- campaign

TEST_F(ScanFixture, CampaignFunnelAndRollup) {
  // Domain A: one vulnerable host. Domain B: compliant. Domain C: refused.
  // Domain D shares A's host (dedup check).
  add_host(base_profile(SpfBehavior::VulnerableLibspf2, 10));
  add_host(base_profile(SpfBehavior::RfcCompliant, 11));
  {
    mta::HostProfile refused = base_profile(SpfBehavior::RfcCompliant, 12);
    refused.accepts_connections = false;
    add_host(std::move(refused));
  }

  scan::CampaignConfig config;
  config.prober = prober_config_;
  scan::Campaign campaign(config, server_, clock_, *this);

  const std::vector<scan::TargetDomain> targets = {
      {"a.example", {IpAddress::v4(203, 0, 113, 10)}},
      {"b.example", {IpAddress::v4(203, 0, 113, 11)}},
      {"c.example", {IpAddress::v4(203, 0, 113, 12)}},
      {"d.example", {IpAddress::v4(203, 0, 113, 10)}},
  };
  const scan::CampaignReport report = campaign.run(targets);

  EXPECT_EQ(report.addresses_tested(), 3u);  // dedup: 4 domains, 3 addresses
  EXPECT_EQ(report.count_verdict(scan::AddressVerdict::Measured), 2u);
  EXPECT_EQ(report.count_verdict(scan::AddressVerdict::Refused), 1u);
  EXPECT_EQ(report.vulnerable_addresses(), 1u);
  EXPECT_EQ(report.vulnerable_domains(), 2u);  // a.example and d.example

  ASSERT_EQ(report.domains.size(), 4u);
  EXPECT_TRUE(report.domains[0].vulnerable);
  EXPECT_FALSE(report.domains[1].vulnerable);
  EXPECT_TRUE(report.domains[2].any_refused);
  EXPECT_TRUE(report.domains[3].vulnerable);
}

TEST_F(ScanFixture, CampaignBlankMsgWaveRecoversDeferredValidators) {
  mta::HostProfile deferred = base_profile(SpfBehavior::VulnerableLibspf2, 30);
  deferred.spf_timing = mta::SpfTiming::AfterData;
  add_host(std::move(deferred));

  scan::CampaignConfig config;
  config.prober = prober_config_;
  scan::Campaign campaign(config, server_, clock_, *this);
  const scan::CampaignReport report =
      campaign.run({{"x.example", {IpAddress::v4(203, 0, 113, 30)}}});

  const auto& outcome = report.addresses.at(IpAddress::v4(203, 0, 113, 30));
  EXPECT_EQ(outcome.verdict, scan::AddressVerdict::Measured);
  ASSERT_TRUE(outcome.blankmsg.has_value());
  EXPECT_EQ(outcome.blankmsg->kind, TestKind::BlankMsg);
  EXPECT_TRUE(outcome.vulnerable());
}

TEST_F(ScanFixture, CampaignRetriesGreylistedHosts) {
  mta::HostProfile grey = base_profile(SpfBehavior::VulnerableLibspf2, 40);
  grey.greylists = true;
  add_host(std::move(grey));

  scan::CampaignConfig config;
  config.prober = prober_config_;
  scan::Campaign campaign(config, server_, clock_, *this);
  const scan::CampaignReport report =
      campaign.run({{"g.example", {IpAddress::v4(203, 0, 113, 40)}}});
  const auto& outcome = report.addresses.at(IpAddress::v4(203, 0, 113, 40));
  EXPECT_EQ(outcome.verdict, scan::AddressVerdict::Measured);
  EXPECT_TRUE(outcome.vulnerable());
}

TEST_F(ScanFixture, DedupeProbesEachAddressOnceForItsFirstListingDomain) {
  const IpAddress a = IpAddress::v4(203, 0, 113, 60);
  const IpAddress b = IpAddress::v4(203, 0, 113, 61);
  // Both hosts measure at MAIL FROM and, not rejecting the SPF fail, go on
  // to RCPT TO, where the recipient domain shows on the wire.
  for (const auto& [behavior, octet] :
       {std::pair{SpfBehavior::RfcCompliant, 60},
        std::pair{SpfBehavior::VulnerableLibspf2, 61}}) {
    mta::HostProfile profile =
        base_profile(behavior, static_cast<std::uint8_t>(octet));
    profile.rejects_spf_fail = false;
    add_host(std::move(profile));
  }

  net::WireTrace trace;
  scan::CampaignConfig config;
  config.prober = prober_config_;
  config.trace = &trace;
  scan::Campaign campaign(config, server_, clock_, *this);
  const scan::CampaignReport report = campaign.run(
      {{"b.example", {a}}, {"a.example", {a, b}}, {"c.example", {b, b}}});

  // One NoMsg dialog per address, however many domains list it.
  EXPECT_EQ(report.addresses_tested(), 2u);
  EXPECT_EQ(report.degradation.probe_attempts, 2u);

  // The first domain in walk order that lists an address is its RCPT TO
  // recipient: b.example for A, a.example for B.
  std::map<std::string, std::set<std::string>> rcpt_domains;  // dst -> domains
  for (const net::Frame& frame : trace.frames()) {
    if (frame.kind != net::FrameKind::SmtpCommand || frame.verb != "RCPT") {
      continue;
    }
    const std::size_t at = frame.text.find('@');
    ASSERT_NE(at, std::string::npos) << frame.text;
    rcpt_domains[frame.dst].insert(
        frame.text.substr(at + 1, frame.text.size() - at - 2));
  }
  EXPECT_EQ(rcpt_domains[a.to_string()], std::set<std::string>{"b.example"});
  EXPECT_EQ(rcpt_domains[b.to_string()], std::set<std::string>{"a.example"});
  EXPECT_EQ(rcpt_domains.size(), 2u);

  // Every domain rolls up its own addresses' verdicts, duplicates included.
  ASSERT_EQ(report.domains.size(), 3u);
  const scan::DomainOutcome& only_a = report.domains[0];
  EXPECT_EQ(only_a.domain, "b.example");
  EXPECT_TRUE(only_a.any_measured);
  EXPECT_FALSE(only_a.vulnerable);
  EXPECT_EQ(only_a.behaviors, std::set<SpfBehavior>{SpfBehavior::RfcCompliant});
  const scan::DomainOutcome& both = report.domains[1];
  EXPECT_EQ(both.domain, "a.example");
  EXPECT_TRUE(both.any_measured);
  EXPECT_TRUE(both.vulnerable);
  EXPECT_EQ(both.behaviors,
            (std::set<SpfBehavior>{SpfBehavior::RfcCompliant,
                                   SpfBehavior::VulnerableLibspf2}));
  const scan::DomainOutcome& twice_b = report.domains[2];
  EXPECT_EQ(twice_b.domain, "c.example");
  EXPECT_EQ(twice_b.addresses, (std::vector<IpAddress>{b, b}));
  EXPECT_TRUE(twice_b.any_measured);
  EXPECT_TRUE(twice_b.vulnerable);
  EXPECT_EQ(twice_b.behaviors,
            std::set<SpfBehavior>{SpfBehavior::VulnerableLibspf2});
  EXPECT_FALSE(only_a.any_refused || both.any_refused || twice_b.any_refused);
}

TEST_F(ScanFixture, UniqueLabelsDefeatCaching) {
  // Two successive probes of the same host with fresh ids must both reach
  // the authoritative server (the paper's cache-busting requirement).
  auto& host = add_host(base_profile(SpfBehavior::RfcCompliant));
  probe(host, TestKind::NoMsg, "idca1");
  const std::size_t after_first = server_.query_log().size();
  probe(host, TestKind::NoMsg, "idca2");
  EXPECT_GT(server_.query_log().size(), after_first);
}

}  // namespace
}  // namespace spfail
