// The checkpoint wire format: codec primitives, StudySnapshot round-trips,
// and the decode-side rejections (magic, version, checksum, truncation,
// trailing bytes) that keep a corrupt or future snapshot from loading, and a
// seeded mutation lane that drives corrupt payloads into the field decoders.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>
#include <string_view>

#include "snapshot/fields.hpp"
#include "snapshot/snapshot.hpp"
#include "util/rng.hpp"

namespace spfail::snapshot {
namespace {

TEST(SnapshotCodec, ScalarsRoundTrip) {
  Writer w;
  w.u8(0xAB);
  w.u16(0xBEEF);
  w.u32(0xDEADBEEFu);
  w.u64(0x0123456789ABCDEFull);
  w.i64(-42);
  w.f64(0.17);
  w.boolean(true);
  w.boolean(false);
  w.str("hello");
  w.str("");
  w.str(std::string_view("nul\0inside", 10));

  Reader r(w.bytes());
  EXPECT_EQ(r.u8(), 0xAB);
  EXPECT_EQ(r.u16(), 0xBEEF);
  EXPECT_EQ(r.u32(), 0xDEADBEEFu);
  EXPECT_EQ(r.u64(), 0x0123456789ABCDEFull);
  EXPECT_EQ(r.i64(), -42);
  EXPECT_EQ(r.f64(), 0.17);
  EXPECT_TRUE(r.boolean());
  EXPECT_FALSE(r.boolean());
  EXPECT_EQ(r.str(), "hello");
  EXPECT_EQ(r.str(), "");
  EXPECT_EQ(r.str(), std::string("nul\0inside", 10));
  EXPECT_TRUE(r.done());
  EXPECT_NO_THROW(r.expect_done());
}

TEST(SnapshotCodec, LittleEndianOnTheWire) {
  Writer w;
  w.u32(0x01020304u);
  const std::string& bytes = w.bytes();
  ASSERT_EQ(bytes.size(), 4u);
  EXPECT_EQ(static_cast<std::uint8_t>(bytes[0]), 0x04);
  EXPECT_EQ(static_cast<std::uint8_t>(bytes[3]), 0x01);
}

TEST(SnapshotCodec, TruncationThrows) {
  Writer w;
  w.u64(7);
  const std::string bytes = w.take();
  Reader r(std::string_view(bytes).substr(0, 5));
  EXPECT_THROW(r.u64(), SnapshotError);
}

TEST(SnapshotCodec, TruncatedStringThrows) {
  Writer w;
  w.str("measurement");
  std::string bytes = w.take();
  bytes.resize(bytes.size() - 3);
  Reader r(bytes);
  EXPECT_THROW(r.str(), SnapshotError);
}

TEST(SnapshotCodec, TrailingBytesThrow) {
  Writer w;
  w.u8(1);
  w.u8(2);
  Reader r(w.bytes());
  r.u8();
  EXPECT_FALSE(r.done());
  EXPECT_THROW(r.expect_done(), SnapshotError);
}

TEST(SnapshotCodec, InvalidBooleanByteThrows) {
  Writer w;
  w.u8(2);
  Reader r(w.bytes());
  EXPECT_THROW(r.boolean(), SnapshotError);
}

TEST(SnapshotCodec, NegativeAndLargeF64RoundTrip) {
  Writer w;
  w.f64(-1234.5678);
  w.f64(1e300);
  w.f64(0.0);
  Reader r(w.bytes());
  EXPECT_EQ(r.f64(), -1234.5678);
  EXPECT_EQ(r.f64(), 1e300);
  EXPECT_EQ(r.f64(), 0.0);
}

// A snapshot exercising every optional branch of the format: both probe
// kinds, v4 and v6 addresses, greylist host state, trace frames.
StudySnapshot sample_snapshot() {
  StudySnapshot snap;
  snap.meta.kind = SnapshotKind::Study;
  snap.meta.fleet_seed = 2021;
  snap.meta.scale = 0.01;
  snap.meta.study_seed = 20211011;
  snap.meta.fault_seed = 0xFA171;
  snap.meta.fault_rate = 0.02;
  snap.meta.tracing = true;

  snap.rounds_done = 3;
  snap.clock_now = 123456789;
  snap.loss_rng = {1, 2, 3, 4};
  snap.suites_issued = 4;

  scan::CampaignReport initial;
  initial.suite_label = "suite-1";
  scan::AddressOutcome outcome;
  outcome.address = util::IpAddress::v4(11, 0, 0, 1);
  scan::ProbeResult nomsg;
  nomsg.kind = scan::TestKind::NoMsg;
  nomsg.status = scan::ProbeStatus::SpfMeasured;
  nomsg.target = outcome.address;
  nomsg.mail_from_domain = dns::Name::lenient("probe.example.org");
  nomsg.behaviors = {spfvuln::SpfBehavior::VulnerableLibspf2};
  nomsg.saw_policy_fetch = true;
  nomsg.failing_code = 550;
  nomsg.accepted_username = "u";
  nomsg.injected = faults::FaultKind::SmtpTempfail;
  outcome.nomsg = nomsg;
  outcome.verdict = scan::AddressVerdict::Measured;
  outcome.behaviors = nomsg.behaviors;
  outcome.probe_attempts = 2;
  outcome.retries_used = 1;
  outcome.saw_transient = true;
  initial.addresses.emplace(outcome.address, outcome);

  scan::DomainOutcome domain;
  domain.domain = "example.org";
  domain.addresses = {outcome.address};
  domain.any_measured = true;
  domain.vulnerable = true;
  domain.behaviors = {spfvuln::SpfBehavior::VulnerableLibspf2};
  initial.domains.push_back(domain);
  initial.degradation.probe_attempts = 9;
  snap.initial = freeze(std::move(initial));

  snap.degradation.probe_attempts = 11;
  snap.degradation.retries = 2;
  snap.remeasurable_resolved_vulnerable = 1;
  snap.remeasurable.emplace_back(util::IpAddress::v4(11, 0, 0, 2), 6);
  snap.blacklisted.push_back(outcome.address);
  snap.patched.push_back(util::IpAddress::v4(11, 0, 0, 3));
  snap.series.push_back({longitudinal::Observation::Vulnerable,
                         longitudinal::Observation::Inconclusive,
                         longitudinal::Observation::Compliant});

  StudySnapshot::HostState host;
  host.address = outcome.address;
  host.greylist_seen.emplace_back("198.51.100.10", 42);
  host.flaky_rng = {5, 6, 7, 8};
  snap.hosts.push_back(host);

  net::Frame frame;
  frame.time = 17;
  frame.lane = 3;
  frame.src = "198.51.100.10";
  frame.dst = "11.0.0.1";
  frame.direction = net::Direction::ClientToServer;
  frame.kind = net::FrameKind::SmtpCommand;
  frame.verb = "MAIL";
  frame.text = "MAIL FROM:<x@y>";
  snap.trace.push_back(frame);
  return snap;
}

TEST(Snapshot, EncodeDecodeRoundTripsEveryField) {
  const StudySnapshot snap = sample_snapshot();
  const std::string bytes = snap.encode();
  const StudySnapshot decoded = StudySnapshot::decode(bytes);

  EXPECT_EQ(decoded.meta, snap.meta);
  EXPECT_EQ(decoded.rounds_done, snap.rounds_done);
  EXPECT_EQ(decoded.clock_now, snap.clock_now);
  EXPECT_EQ(decoded.loss_rng, snap.loss_rng);
  EXPECT_EQ(decoded.suites_issued, snap.suites_issued);
  const scan::CampaignReport& initial = snap.initial->report();
  const scan::CampaignReport& decoded_initial = decoded.initial->report();
  EXPECT_EQ(decoded_initial.suite_label, initial.suite_label);
  ASSERT_EQ(decoded_initial.addresses.size(), 1u);
  const auto& outcome =
      decoded_initial.addresses.at(util::IpAddress::v4(11, 0, 0, 1));
  ASSERT_TRUE(outcome.nomsg.has_value());
  EXPECT_FALSE(outcome.blankmsg.has_value());
  EXPECT_EQ(outcome.nomsg->status, scan::ProbeStatus::SpfMeasured);
  EXPECT_EQ(outcome.nomsg->mail_from_domain.to_string(),
            initial.addresses.begin()
                ->second.nomsg->mail_from_domain.to_string());
  EXPECT_EQ(outcome.nomsg->injected, faults::FaultKind::SmtpTempfail);
  EXPECT_EQ(outcome.probe_attempts, 2);
  ASSERT_EQ(decoded_initial.domains.size(), 1u);
  EXPECT_EQ(decoded_initial.domains[0].domain, "example.org");
  EXPECT_EQ(decoded.degradation.probe_attempts, 11u);
  EXPECT_EQ(decoded.remeasurable, snap.remeasurable);
  EXPECT_EQ(decoded.blacklisted, snap.blacklisted);
  EXPECT_EQ(decoded.patched, snap.patched);
  EXPECT_EQ(decoded.series, snap.series);
  ASSERT_EQ(decoded.hosts.size(), 1u);
  EXPECT_EQ(decoded.hosts[0].address, snap.hosts[0].address);
  EXPECT_EQ(decoded.hosts[0].greylist_seen, snap.hosts[0].greylist_seen);
  EXPECT_EQ(decoded.hosts[0].flaky_rng, snap.hosts[0].flaky_rng);
  ASSERT_EQ(decoded.trace.size(), 1u);
  EXPECT_EQ(decoded.trace[0].verb, "MAIL");

  // Canonical encoding: decoding and re-encoding reproduces the bytes.
  EXPECT_EQ(decoded.encode(), bytes);
}

// --- optional trailing metrics section (DESIGN.md §12) ----------------------

TEST(Snapshot, MetricsSectionRoundTripsWhenPresent) {
  StudySnapshot snap = sample_snapshot();
  snap.has_metrics = true;
  snap.metrics.counter("probe_attempts_total", {{"test", "NoMsg"}}) += 5;
  snap.metrics.gauge("study_round") = 3;
  snap.metrics.histogram("retry_backoff_sim_seconds").observe(480);
  snap.metric_lines = {"{\"phase\":\"initial\"}",
                       "{\"phase\":\"round\",\"round\":0}"};

  const std::string bytes = snap.encode();
  const StudySnapshot decoded = StudySnapshot::decode(bytes);
  EXPECT_TRUE(decoded.has_metrics);
  EXPECT_EQ(decoded.metrics, snap.metrics);
  EXPECT_EQ(decoded.metric_lines, snap.metric_lines);
  EXPECT_EQ(decoded.encode(), bytes);
}

TEST(Snapshot, DisabledMetricsLeaveTheWireFormatUntouched) {
  // A metrics-off snapshot must encode byte-identically no matter what the
  // (unused) metric fields hold — the trailing section is absent, not
  // zero-filled, so pre-metrics checkpoints and digests stay stable.
  const std::string baseline = sample_snapshot().encode();
  StudySnapshot off = sample_snapshot();
  off.metrics.counter("ghost") += 1;  // has_metrics stays false
  off.metric_lines = {"ghost line"};
  EXPECT_EQ(off.encode(), baseline);

  const StudySnapshot decoded = StudySnapshot::decode(baseline);
  EXPECT_FALSE(decoded.has_metrics);
  EXPECT_TRUE(decoded.metrics.empty());
  EXPECT_TRUE(decoded.metric_lines.empty());

  // And the with-metrics form is strictly longer: the section really is an
  // appended tail, not a rewrite of earlier fields.
  StudySnapshot on = sample_snapshot();
  on.has_metrics = true;
  EXPECT_GT(on.encode().size(), baseline.size());
}

TEST(Snapshot, RejectsCorruptMetricsSection) {
  StudySnapshot snap = sample_snapshot();
  snap.has_metrics = true;
  snap.metrics.counter("probe_attempts_total") += 1;
  std::string bytes = snap.encode();
  // Flip a byte inside the trailing section (near the end of the payload,
  // before the 8-byte checksum): the checksum rejects it.
  bytes[bytes.size() - 12] ^= 0x20;
  EXPECT_THROW(StudySnapshot::decode(bytes), SnapshotError);
}

TEST(Snapshot, RejectsBadMagic) {
  std::string bytes = sample_snapshot().encode();
  bytes[0] = 'X';
  EXPECT_THROW(StudySnapshot::decode(bytes), SnapshotError);
}

TEST(Snapshot, RejectsFutureFormatVersion) {
  std::string bytes = sample_snapshot().encode();
  // The u32 version sits right after the 8-byte magic.
  bytes[8] = static_cast<char>(kSnapshotVersion + 1);
  try {
    StudySnapshot::decode(bytes);
    FAIL() << "future version must not decode";
  } catch (const SnapshotError& e) {
    EXPECT_NE(std::string(e.what()).find("version"), std::string::npos);
  }
}

TEST(Snapshot, RejectsCorruptPayload) {
  std::string bytes = sample_snapshot().encode();
  // Flip a byte deep inside the length-prefixed payload: the checksum check
  // must catch it before any field decoding is trusted.
  bytes[bytes.size() / 2] ^= 0x40;
  EXPECT_THROW(StudySnapshot::decode(bytes), SnapshotError);
}

TEST(Snapshot, RejectsTruncationAndTrailingBytes) {
  const std::string bytes = sample_snapshot().encode();
  EXPECT_THROW(
      StudySnapshot::decode(std::string_view(bytes).substr(0, bytes.size() / 2)),
      SnapshotError);
  EXPECT_THROW(StudySnapshot::decode(bytes + "x"), SnapshotError);
  EXPECT_THROW(StudySnapshot::decode(""), SnapshotError);
}

TEST(Snapshot, SaveAtomicallyAndLoadFileRoundTrip) {
  const std::string path = testing::TempDir() + "spfail_snapshot_test.bin";
  const std::string bytes = sample_snapshot().encode();
  save_atomically(path, bytes);
  EXPECT_EQ(load_file(path), bytes);

  // Overwrite in place — the rename must replace the previous snapshot.
  StudySnapshot second = sample_snapshot();
  second.rounds_done = 9;
  save_atomically(path, second.encode());
  EXPECT_EQ(StudySnapshot::decode(load_file(path)).rounds_done, 9u);

  // No temp file left behind.
  std::ifstream tmp(path + ".tmp");
  EXPECT_FALSE(tmp.good());
  std::remove(path.c_str());
}

TEST(Snapshot, LoadFileReportsMissingFile) {
  EXPECT_THROW(load_file("/nonexistent/spfail.snapshot"), SnapshotError);
}

// --- mutation lane: corrupt payloads reach the field decoders --------------
//
// Every case must decode or throw SnapshotError; any other exception here,
// or a sanitizer report in the asan_faults / ubsan_net lanes, is a decoder
// bug. Mutating the file bytes alone would only ever exercise the checksum,
// so each mutated payload is re-framed with a recomputed fnv1a trailer.

// The sample snapshot with both optional trailing sections: metrics (0x4D)
// and the intern table (0x49).
StudySnapshot sectioned_snapshot() {
  StudySnapshot snap = sample_snapshot();
  snap.has_metrics = true;
  snap.metrics.counter("probe_attempts_total", {{"test", "NoMsg"}}) += 5;
  snap.metrics.gauge("study_round") = 3;
  snap.metrics.histogram("retry_backoff_sim_seconds").observe(480);
  snap.metric_lines = {"{\"phase\":\"initial\"}"};
  snap.has_strings = true;
  snap.strings.intern("example.org");
  snap.strings.intern("org");
  return snap;
}

// An encoded snapshot split around its payload: the fixed header (magic 8,
// version 4, kind 1, three u64 seeds, scale and fault rate as f64, tracing
// 1) and the payload its u32 length prefix frames.
struct Framed {
  std::string header;
  std::string payload;
};

Framed unframe(const std::string& bytes) {
  constexpr std::size_t kHeaderBytes = 8 + 4 + 1 + 3 * 8 + 2 * 8 + 1;
  Reader r(std::string_view(bytes).substr(kHeaderBytes));
  return Framed{bytes.substr(0, kHeaderBytes), r.str()};
}

std::string reframe(const std::string& header, std::string_view payload) {
  Writer tail;
  tail.str(payload);
  tail.u64(payload_checksum(payload));
  return header + tail.bytes();
}

void expect_decodes_or_rejects(const std::string& bytes,
                               const std::string& which) {
  try {
    (void)StudySnapshot::decode(bytes);
  } catch (const SnapshotError&) {
    // A clean rejection.
  } catch (const std::exception& e) {
    ADD_FAILURE() << which << " escaped as a non-SnapshotError: " << e.what();
  }
}

TEST(SnapshotCodec, RejectsDuplicateOrUnorderedOutcomeAddresses) {
  // put_report writes outcomes in strictly ascending address order, so a
  // checksummed payload that repeats an address or lists two out of order
  // was not written by this codec. Decoding must refuse it, not keep one of
  // the duplicates or quietly re-sort.
  StudySnapshot snap = sample_snapshot();
  scan::AddressOutcome second;
  second.address = util::IpAddress::v4(11, 0, 0, 9);
  second.verdict = scan::AddressVerdict::Refused;
  scan::CampaignReport report = snap.initial->report();
  const scan::AddressOutcome first =
      report.addresses.at(util::IpAddress::v4(11, 0, 0, 1));
  report.addresses.emplace(second.address, second);
  snap.initial = freeze(std::move(report));

  Writer count, lower, higher;
  count.u64(2);
  put_outcome(lower, first);
  put_outcome(higher, second);
  const Framed base = unframe(snap.encode());
  const std::string ordered = count.bytes() + lower.bytes() + higher.bytes();
  const std::size_t at = base.payload.find(ordered);
  ASSERT_NE(at, std::string::npos);
  ASSERT_NO_THROW(StudySnapshot::decode(reframe(base.header, base.payload)));

  const std::pair<const char*, std::string> cases[] = {
      {"duplicate", count.bytes() + lower.bytes() + lower.bytes()},
      {"swapped", count.bytes() + higher.bytes() + lower.bytes()},
  };
  for (const auto& [name, outcomes] : cases) {
    std::string payload = base.payload;
    payload.replace(at, ordered.size(), outcomes);
    EXPECT_THROW(StudySnapshot::decode(reframe(base.header, payload)),
                 SnapshotError)
        << name;
  }
}

TEST(SnapshotMutation, SeededByteFlipsDecodeOrReject) {
  const std::string bytes = sectioned_snapshot().encode();
  const Framed base = unframe(bytes);
  ASSERT_EQ(reframe(base.header, base.payload), bytes);  // the split is exact
  util::Rng rng(0x5EED1);
  for (int i = 0; i < 300; ++i) {
    std::string payload = base.payload;
    const std::uint64_t flips = rng.uniform(1, 4);
    for (std::uint64_t f = 0; f < flips; ++f) {
      payload[rng.uniform(0, payload.size() - 1)] ^=
          static_cast<char>(rng.uniform(1, 255));
    }
    expect_decodes_or_rejects(reframe(base.header, payload),
                              "flip case " + std::to_string(i));
  }
}

TEST(SnapshotMutation, EveryTruncationDecodesOrRejects) {
  const Framed base = unframe(sectioned_snapshot().encode());
  for (std::size_t cut = 0; cut < base.payload.size(); ++cut) {
    expect_decodes_or_rejects(
        reframe(base.header, std::string_view(base.payload).substr(0, cut)),
        "truncation at " + std::to_string(cut));
  }
}

TEST(SnapshotMutation, SeededInsertionsDecodeOrReject) {
  const Framed base = unframe(sectioned_snapshot().encode());
  util::Rng rng(0x5EED2);
  for (int i = 0; i < 300; ++i) {
    std::string inserted(rng.uniform(1, 8), '\0');
    for (char& c : inserted) c = static_cast<char>(rng.uniform(0, 255));
    std::string payload = base.payload;
    payload.insert(rng.uniform(0, payload.size()), inserted);
    expect_decodes_or_rejects(reframe(base.header, payload),
                              "insertion case " + std::to_string(i));
  }
}

TEST(SnapshotMutation, RetiredWorkerCountSectionIsRejected) {
  // 0x57 carried the worker count of the removed process backend; nothing
  // can resume such a run, so the section reads as a corrupt tail — after
  // the other optional sections and on its own.
  Writer retired;
  retired.u8(0x57);
  retired.u32(4);
  for (const bool sectioned : {true, false}) {
    const Framed base = unframe(
        (sectioned ? sectioned_snapshot() : sample_snapshot()).encode());
    EXPECT_THROW(StudySnapshot::decode(
                     reframe(base.header, base.payload + retired.bytes())),
                 SnapshotError)
        << (sectioned ? "after metrics and strings" : "alone");
  }
}

}  // namespace
}  // namespace spfail::snapshot
