// Exhaustive to_string coverage for the scanner's and fault layer's enums:
// every enumerator renders a distinct, stable, non-"?" label. These strings
// are load-bearing — they appear in serialized determinism oracles, tables,
// and CSV exports, so a silent rename would corrupt downstream diffs.
#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "dmarc/record.hpp"
#include "faults/fault.hpp"
#include "faults/retry.hpp"
#include "obs/metrics.hpp"
#include "population/policy_mix.hpp"
#include "scan/campaign.hpp"
#include "scan/prober.hpp"
#include "scenario/runner.hpp"
#include "scenario/scenario.hpp"
#include "snapshot/enums.hpp"
#include "snapshot/snapshot.hpp"

namespace spfail {
namespace {

// All labels distinct, none the "?" fallback.
void expect_distinct(const std::vector<std::string>& labels) {
  std::set<std::string> seen;
  for (const std::string& label : labels) {
    EXPECT_NE(label, "?");
    EXPECT_FALSE(label.empty());
    EXPECT_TRUE(seen.insert(label).second) << "duplicate label " << label;
  }
}

TEST(EnumStrings, ProbeStatusCoversEveryEnumerator) {
  using scan::ProbeStatus;
  EXPECT_EQ(to_string(ProbeStatus::ConnectionRefused), "connection-refused");
  EXPECT_EQ(to_string(ProbeStatus::SmtpFailure), "smtp-failure");
  EXPECT_EQ(to_string(ProbeStatus::Greylisted), "greylisted");
  EXPECT_EQ(to_string(ProbeStatus::TempFailed), "temp-failed");
  EXPECT_EQ(to_string(ProbeStatus::Dropped), "dropped");
  EXPECT_EQ(to_string(ProbeStatus::SpfMeasured), "spf-measured");
  EXPECT_EQ(to_string(ProbeStatus::SpfNotMeasured), "spf-not-measured");
  expect_distinct({to_string(ProbeStatus::ConnectionRefused),
                   to_string(ProbeStatus::SmtpFailure),
                   to_string(ProbeStatus::Greylisted),
                   to_string(ProbeStatus::TempFailed),
                   to_string(ProbeStatus::Dropped),
                   to_string(ProbeStatus::SpfMeasured),
                   to_string(ProbeStatus::SpfNotMeasured)});
  // The transiency predicate and the labels stay in sync: exactly the three
  // retryable statuses.
  EXPECT_TRUE(scan::is_transient(ProbeStatus::Greylisted));
  EXPECT_TRUE(scan::is_transient(ProbeStatus::TempFailed));
  EXPECT_TRUE(scan::is_transient(ProbeStatus::Dropped));
  EXPECT_FALSE(scan::is_transient(ProbeStatus::ConnectionRefused));
  EXPECT_FALSE(scan::is_transient(ProbeStatus::SmtpFailure));
  EXPECT_FALSE(scan::is_transient(ProbeStatus::SpfMeasured));
  EXPECT_FALSE(scan::is_transient(ProbeStatus::SpfNotMeasured));
}

TEST(EnumStrings, AddressVerdictCoversEveryEnumerator) {
  using scan::AddressVerdict;
  EXPECT_EQ(to_string(AddressVerdict::Refused), "refused");
  EXPECT_EQ(to_string(AddressVerdict::SmtpFailure), "smtp-failure");
  EXPECT_EQ(to_string(AddressVerdict::Measured), "measured");
  EXPECT_EQ(to_string(AddressVerdict::NotMeasured), "not-measured");
  expect_distinct({to_string(AddressVerdict::Refused),
                   to_string(AddressVerdict::SmtpFailure),
                   to_string(AddressVerdict::Measured),
                   to_string(AddressVerdict::NotMeasured)});
}

TEST(EnumStrings, TestKindCoversEveryEnumerator) {
  using scan::TestKind;
  EXPECT_EQ(to_string(TestKind::NoMsg), "NoMsg");
  EXPECT_EQ(to_string(TestKind::BlankMsg), "BlankMsg");
  expect_distinct({to_string(TestKind::NoMsg), to_string(TestKind::BlankMsg)});
}

TEST(EnumStrings, FaultKindCoversEveryEnumerator) {
  using faults::FaultKind;
  EXPECT_EQ(to_string(FaultKind::None), "none");
  EXPECT_EQ(to_string(FaultKind::SmtpTempfail), "smtp-tempfail");
  EXPECT_EQ(to_string(FaultKind::ConnectionDrop), "connection-drop");
  EXPECT_EQ(to_string(FaultKind::LatencySpike), "latency-spike");
  EXPECT_EQ(to_string(FaultKind::DnsServfail), "dns-servfail");
  EXPECT_EQ(to_string(FaultKind::DnsTimeout), "dns-timeout");
  EXPECT_EQ(to_string(FaultKind::LameDelegation), "lame-delegation");
  expect_distinct({to_string(FaultKind::None),
                   to_string(FaultKind::SmtpTempfail),
                   to_string(FaultKind::ConnectionDrop),
                   to_string(FaultKind::LatencySpike),
                   to_string(FaultKind::DnsServfail),
                   to_string(FaultKind::DnsTimeout),
                   to_string(FaultKind::LameDelegation)});
}

TEST(EnumStrings, SmtpStageCoversEveryEnumerator) {
  using faults::SmtpStage;
  EXPECT_EQ(to_string(SmtpStage::Helo), "helo");
  EXPECT_EQ(to_string(SmtpStage::MailFrom), "mail-from");
  EXPECT_EQ(to_string(SmtpStage::RcptTo), "rcpt-to");
  EXPECT_EQ(to_string(SmtpStage::Data), "data");
  expect_distinct({to_string(SmtpStage::Helo), to_string(SmtpStage::MailFrom),
                   to_string(SmtpStage::RcptTo), to_string(SmtpStage::Data)});
}

TEST(EnumStrings, RetryOutcomeCoversEveryEnumerator) {
  using faults::RetryOutcome;
  EXPECT_EQ(to_string(RetryOutcome::FirstTry), "first-try");
  EXPECT_EQ(to_string(RetryOutcome::Recovered), "recovered");
  EXPECT_EQ(to_string(RetryOutcome::Exhausted), "exhausted");
  expect_distinct({to_string(RetryOutcome::FirstTry),
                   to_string(RetryOutcome::Recovered),
                   to_string(RetryOutcome::Exhausted)});
}

TEST(EnumStrings, ObservationCoversEveryEnumerator) {
  using longitudinal::Observation;
  EXPECT_EQ(to_string(Observation::Vulnerable), "vulnerable");
  EXPECT_EQ(to_string(Observation::Compliant), "compliant");
  EXPECT_EQ(to_string(Observation::Inconclusive), "inconclusive");
  expect_distinct({to_string(Observation::Vulnerable),
                   to_string(Observation::Compliant),
                   to_string(Observation::Inconclusive)});
}

TEST(EnumStrings, MetricKindCoversEveryEnumerator) {
  using obs::MetricKind;
  EXPECT_EQ(to_string(MetricKind::Counter), "counter");
  EXPECT_EQ(to_string(MetricKind::Gauge), "gauge");
  EXPECT_EQ(to_string(MetricKind::Histogram), "histogram");
  expect_distinct({to_string(MetricKind::Counter), to_string(MetricKind::Gauge),
                   to_string(MetricKind::Histogram)});
}

TEST(EnumStrings, SnapshotKindCoversEveryEnumerator) {
  using snapshot::SnapshotKind;
  EXPECT_EQ(to_string(SnapshotKind::Campaign), "campaign");
  EXPECT_EQ(to_string(SnapshotKind::Study), "study");
  expect_distinct(
      {to_string(SnapshotKind::Campaign), to_string(SnapshotKind::Study)});
}

// --- snapshot wire bytes: every mapping round-trips exhaustively ------------

// encode_enum -> decode_* is the identity on every enumerator, wire bytes are
// dense and distinct, and the first unmapped byte is rejected. The wire byte
// values themselves are frozen (format version 2 kept version 1's) — these
// tests pin them.
template <typename Enum, typename Decode>
void expect_wire_round_trip(const std::vector<Enum>& enumerators,
                            Decode decode) {
  std::set<std::uint8_t> seen;
  for (const Enum v : enumerators) {
    const std::uint8_t wire = snapshot::encode_enum(v);
    EXPECT_TRUE(seen.insert(wire).second) << "duplicate wire byte";
    EXPECT_LT(wire, enumerators.size()) << "wire bytes must stay dense";
    EXPECT_EQ(decode(wire), v);
  }
  EXPECT_THROW(decode(static_cast<std::uint8_t>(enumerators.size())),
               snapshot::SnapshotError);
  EXPECT_THROW(decode(0xFF), snapshot::SnapshotError);
}

TEST(EnumStrings, SnapshotWireTestKind) {
  expect_wire_round_trip<scan::TestKind>(
      {scan::TestKind::NoMsg, scan::TestKind::BlankMsg},
      snapshot::decode_test_kind);
}

TEST(EnumStrings, SnapshotWireProbeStatus) {
  expect_wire_round_trip<scan::ProbeStatus>(
      {scan::ProbeStatus::ConnectionRefused, scan::ProbeStatus::SmtpFailure,
       scan::ProbeStatus::Greylisted, scan::ProbeStatus::TempFailed,
       scan::ProbeStatus::Dropped, scan::ProbeStatus::SpfMeasured,
       scan::ProbeStatus::SpfNotMeasured},
      snapshot::decode_probe_status);
}

TEST(EnumStrings, SnapshotWireAddressVerdict) {
  expect_wire_round_trip<scan::AddressVerdict>(
      {scan::AddressVerdict::Refused, scan::AddressVerdict::SmtpFailure,
       scan::AddressVerdict::Measured, scan::AddressVerdict::NotMeasured},
      snapshot::decode_address_verdict);
}

TEST(EnumStrings, SnapshotWireSpfBehavior) {
  expect_wire_round_trip<spfvuln::SpfBehavior>(
      {spfvuln::SpfBehavior::RfcCompliant,
       spfvuln::SpfBehavior::VulnerableLibspf2,
       spfvuln::SpfBehavior::PatchedLibspf2, spfvuln::SpfBehavior::NoExpansion,
       spfvuln::SpfBehavior::NoTruncation, spfvuln::SpfBehavior::NoReversal,
       spfvuln::SpfBehavior::NoTransformers,
       spfvuln::SpfBehavior::OtherErroneous},
      snapshot::decode_spf_behavior);
}

TEST(EnumStrings, SnapshotWireFaultKind) {
  expect_wire_round_trip<faults::FaultKind>(
      {faults::FaultKind::None, faults::FaultKind::SmtpTempfail,
       faults::FaultKind::ConnectionDrop, faults::FaultKind::LatencySpike,
       faults::FaultKind::DnsServfail, faults::FaultKind::DnsTimeout,
       faults::FaultKind::LameDelegation},
      snapshot::decode_fault_kind);
}

TEST(EnumStrings, SnapshotWireObservation) {
  expect_wire_round_trip<longitudinal::Observation>(
      {longitudinal::Observation::Vulnerable,
       longitudinal::Observation::Compliant,
       longitudinal::Observation::Inconclusive},
      snapshot::decode_observation);
}

TEST(EnumStrings, SnapshotWireDirection) {
  expect_wire_round_trip<net::Direction>(
      {net::Direction::ClientToServer, net::Direction::ServerToClient},
      snapshot::decode_direction);
}

TEST(EnumStrings, SnapshotWireFrameKind) {
  expect_wire_round_trip<net::FrameKind>(
      {net::FrameKind::SmtpCommand, net::FrameKind::SmtpReply,
       net::FrameKind::DnsQuery, net::FrameKind::DnsResponse},
      snapshot::decode_frame_kind);
}

TEST(EnumStrings, SnapshotWireFamily) {
  expect_wire_round_trip<util::IpAddress::Family>(
      {util::IpAddress::Family::V4, util::IpAddress::Family::V6},
      snapshot::decode_family);
}

// MetricKind's wire bytes are the enumerator values (1..3; 0 reserved), so
// they are not zero-based-dense like the enums above — pin them directly.
TEST(EnumStrings, SnapshotWireMetricKind) {
  using obs::MetricKind;
  std::set<std::uint8_t> seen;
  for (const MetricKind v :
       {MetricKind::Counter, MetricKind::Gauge, MetricKind::Histogram}) {
    const std::uint8_t wire = snapshot::encode_enum(v);
    EXPECT_EQ(wire, static_cast<std::uint8_t>(v));
    EXPECT_TRUE(seen.insert(wire).second) << "duplicate wire byte";
    EXPECT_EQ(snapshot::decode_metric_kind(wire), v);
  }
  EXPECT_EQ(snapshot::encode_enum(MetricKind::Counter), 1);
  EXPECT_EQ(snapshot::encode_enum(MetricKind::Gauge), 2);
  EXPECT_EQ(snapshot::encode_enum(MetricKind::Histogram), 3);
  EXPECT_THROW(snapshot::decode_metric_kind(0), snapshot::SnapshotError);
  EXPECT_THROW(snapshot::decode_metric_kind(4), snapshot::SnapshotError);
  EXPECT_THROW(snapshot::decode_metric_kind(0xFF), snapshot::SnapshotError);
}

// ---- scenario layer (DESIGN.md §17): exhaustive to_string/parse pairs ----

// Every enumerator round-trips through its strict parser, and unknown text
// throws — the labels ride in scenario tables and the --scenario grammar.

TEST(EnumStrings, DmarcPolicyRoundTrips) {
  using dmarc::Policy;
  for (const Policy v : {Policy::None, Policy::Quarantine, Policy::Reject}) {
    EXPECT_EQ(dmarc::parse_policy(to_string(v)), v);
  }
  expect_distinct({to_string(Policy::None), to_string(Policy::Quarantine),
                   to_string(Policy::Reject)});
  EXPECT_EQ(to_string(Policy::Reject), "reject");
  EXPECT_THROW(dmarc::parse_policy("block"), dmarc::RecordSyntaxError);
}

TEST(EnumStrings, DmarcAlignmentRoundTrips) {
  using dmarc::Alignment;
  for (const Alignment v : {Alignment::Relaxed, Alignment::Strict}) {
    EXPECT_EQ(dmarc::parse_alignment(to_string(v)), v);
  }
  expect_distinct(
      {to_string(Alignment::Relaxed), to_string(Alignment::Strict)});
  EXPECT_THROW(dmarc::parse_alignment("x"), dmarc::RecordSyntaxError);
}

TEST(EnumStrings, SenderSpfRoundTrips) {
  using population::SenderSpf;
  std::vector<std::string> labels;
  for (const SenderSpf v : {SenderSpf::Normal, SenderSpf::PlusAll,
                            SenderSpf::BroadCidr, SenderSpf::LongChain}) {
    EXPECT_EQ(population::parse_sender_spf(to_string(v)), v);
    labels.push_back(to_string(v));
  }
  expect_distinct(labels);
  EXPECT_THROW(population::parse_sender_spf("bogus"), std::invalid_argument);
}

TEST(EnumStrings, SenderDkimRoundTrips) {
  using population::SenderDkim;
  std::vector<std::string> labels;
  for (const SenderDkim v :
       {SenderDkim::None, SenderDkim::Aligned, SenderDkim::Misaligned}) {
    EXPECT_EQ(population::parse_sender_dkim(to_string(v)), v);
    labels.push_back(to_string(v));
  }
  expect_distinct(labels);
  EXPECT_THROW(population::parse_sender_dkim("bogus"), std::invalid_argument);
}

TEST(EnumStrings, SenderRoutingRoundTrips) {
  using population::SenderRouting;
  std::vector<std::string> labels;
  for (const SenderRouting v :
       {SenderRouting::Direct, SenderRouting::ForwardPlain,
        SenderRouting::ForwardSrs, SenderRouting::EspEnvelope}) {
    EXPECT_EQ(population::parse_sender_routing(to_string(v)), v);
    labels.push_back(to_string(v));
  }
  expect_distinct(labels);
  EXPECT_THROW(population::parse_sender_routing("bogus"),
               std::invalid_argument);
}

TEST(EnumStrings, ScenarioFocusRoundTrips) {
  using scenario::Focus;
  std::vector<std::string> labels;
  for (const Focus v : {Focus::Baseline, Focus::Forwarding, Focus::Alignment,
                        Focus::Misconfig}) {
    EXPECT_EQ(scenario::parse_focus(to_string(v)), v);
    labels.push_back(to_string(v));
  }
  expect_distinct(labels);
  EXPECT_THROW(scenario::parse_focus("bogus"), std::invalid_argument);
}

TEST(EnumStrings, ScenarioFlowClassRoundTrips) {
  using scenario::FlowClass;
  std::vector<std::string> labels;
  for (const FlowClass v :
       {FlowClass::Legit, FlowClass::Forwarded, FlowClass::Spoof}) {
    EXPECT_EQ(scenario::parse_flow_class(to_string(v)), v);
    labels.push_back(to_string(v));
  }
  expect_distinct(labels);
  EXPECT_THROW(scenario::parse_flow_class("bogus"), std::invalid_argument);
}

}  // namespace
}  // namespace spfail
