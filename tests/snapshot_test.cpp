// The checkpoint wire format: codec primitives (varints included),
// StudySnapshot round-trips, the decode-side rejections (magic, version,
// checksum, truncation, trailing bytes, non-canonical fields) that keep a
// corrupt or future snapshot from loading, and a seeded mutation lane that
// drives corrupt payloads into the field decoders.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <limits>
#include <string>
#include <utility>
#include <string_view>

#include "scratch_path.hpp"
#include "snapshot/container.hpp"
#include "snapshot/enums.hpp"
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

TEST(SnapshotCodec, VarintRoundTripsInItsShortestForm) {
  const std::pair<std::uint64_t, std::size_t> cases[] = {
      {0, 1}, {127, 1}, {128, 2}, {std::uint64_t{1} << 32, 5},
      {~std::uint64_t{0}, 10}};
  for (const auto& [value, width] : cases) {
    Writer w;
    w.varint(value);
    EXPECT_EQ(w.bytes().size(), width) << value;
    Reader r(w.bytes());
    EXPECT_EQ(r.varint(), value);
    EXPECT_TRUE(r.done()) << value;
  }
}

TEST(SnapshotCodec, VarintRefusesOverlongAndOversizedForms) {
  const std::pair<const char*, std::string> cases[] = {
      {"overlong zero", std::string("\x80\x00", 2)},
      {"an 11-byte run", std::string(10, '\x80') + '\x01'},
      {"a 10th byte of 2", std::string(9, '\xFF') + '\x02'},
      {"truncated", std::string("\x80")},
      {"empty", std::string()},
  };
  for (const auto& [name, bytes] : cases) {
    Reader r(bytes);
    EXPECT_THROW(r.varint(), SnapshotError) << name;
  }
}

TEST(SnapshotCodec, StringsCarryAVarintLengthCappedAtU32) {
  Writer w;
  w.str(std::string(200, 'x'));
  EXPECT_EQ(w.bytes().size(), 2u + 200u);
  Reader r(w.bytes());
  EXPECT_EQ(r.str(), std::string(200, 'x'));

  Writer over;
  over.varint(std::uint64_t{1} << 32);
  over.raw(std::string(8, 'x'));
  Reader too_long(over.bytes());
  EXPECT_THROW(too_long.str(), SnapshotError);
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
  // (unused) metric fields hold — its presence byte says absent, and
  // nothing of the block follows.
  const std::string baseline = sample_snapshot().encode();
  StudySnapshot off = sample_snapshot();
  off.metrics.counter("ghost") += 1;  // has_metrics stays false
  off.metric_lines = {"ghost line"};
  EXPECT_EQ(off.encode(), baseline);

  const StudySnapshot decoded = StudySnapshot::decode(baseline);
  EXPECT_FALSE(decoded.has_metrics);
  EXPECT_TRUE(decoded.metrics.empty());
  EXPECT_TRUE(decoded.metric_lines.empty());

  // And the with-metrics form is strictly longer: the block really is an
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
  // Flip a byte inside the metrics block (near the end of the body, before
  // the 8-byte checksum): the checksum rejects it.
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
  // The u16 version sits right after the 8-byte magic.
  bytes[8] = static_cast<char>(kFormatVersion + 1);
  try {
    StudySnapshot::decode(bytes);
    FAIL() << "future version must not decode";
  } catch (const SnapshotError& e) {
    EXPECT_NE(std::string(e.what()).find("version"), std::string::npos);
  }
}

TEST(Snapshot, RejectsCorruptPayload) {
  std::string bytes = sample_snapshot().encode();
  // Flip a byte deep inside the length-prefixed body: the checksum check
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
  const std::string path = testutil::scratch_path("snapshot_test.bin");
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

// --- mutation lane: corrupt bodies reach the field decoders ----------------
//
// Every case must decode or throw SnapshotError; any other exception here,
// or a sanitizer report in the asan_faults / ubsan_net lanes, is a decoder
// bug. Mutating the file bytes alone would only ever exercise the checksum,
// so each mutated body is re-framed through the container with a fresh
// checksum. The body starts with the meta block, so the lanes mutate it too.

// The sample snapshot with its optional metrics block.
StudySnapshot sectioned_snapshot() {
  StudySnapshot snap = sample_snapshot();
  snap.has_metrics = true;
  snap.metrics.counter("probe_attempts_total", {{"test", "NoMsg"}}) += 5;
  snap.metrics.gauge("study_round") = 3;
  snap.metrics.histogram("retry_backoff_sim_seconds").observe(480);
  snap.metric_lines = {"{\"phase\":\"initial\"}"};
  return snap;
}

// The container body of an encoded snapshot.
std::string body_of(const std::string& bytes) {
  return std::string(open_file(bytes, kSnapshotFile));
}

// `body` framed as a snapshot file with a fresh checksum, so only the field
// decoders can refuse it.
std::string frame(std::string_view body) {
  Writer w;
  const std::size_t slot = begin_file(w, kSnapshotFile);
  w.raw(body);
  end_file(w, slot);
  return w.take();
}

// A mutant that decodes must re-encode to its own bytes: every field has
// one encoding, so a decoder that accepts another one has patched it up.
void expect_decodes_or_rejects(const std::string& bytes,
                               const std::string& which) {
  try {
    const StudySnapshot snap = StudySnapshot::decode(bytes);
    EXPECT_TRUE(snap.encode() == bytes)
        << which << " decoded but re-encodes to other bytes";
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
  count.varint(2);
  put_outcome(lower, first);
  put_outcome(higher, second);
  const std::string body = body_of(snap.encode());
  const std::string ordered = count.bytes() + lower.bytes() + higher.bytes();
  const std::size_t at = body.find(ordered);
  ASSERT_NE(at, std::string::npos);
  ASSERT_NO_THROW(StudySnapshot::decode(frame(body)));

  const std::pair<const char*, std::string> cases[] = {
      {"duplicate", count.bytes() + lower.bytes() + lower.bytes()},
      {"swapped", count.bytes() + higher.bytes() + lower.bytes()},
  };
  for (const auto& [name, outcomes] : cases) {
    std::string mutated = body;
    mutated.replace(at, ordered.size(), outcomes);
    EXPECT_THROW(StudySnapshot::decode(frame(mutated)), SnapshotError)
        << name;
  }
}

// An outcome with no probe results, laid out as put_outcome writes it, with
// `zigzag` as its zig-zagged probe attempt count.
std::string outcome_with_attempts(std::uint64_t zigzag) {
  Writer w;
  put_address(w, util::IpAddress::v4(11, 0, 0, 1));
  w.boolean(false);  // no NoMsg result
  w.boolean(false);  // no BlankMsg result
  w.u8(encode_enum(scan::AddressVerdict::Refused));
  w.u8(0);           // no behaviours
  w.varint(zigzag);  // probe attempts
  w.varint(0);       // retries used
  w.boolean(false);  // saw no transient
  return w.take();
}

TEST(SnapshotCodec, SmallIntsOutsideIntAreRefused) {
  // Zig-zag maps int's extremes to 2^32 - 2 and 2^32 - 1; the next two
  // values are 2^31 and -2^31 - 1, which no int field holds.
  const std::uint64_t max_zigzag = (std::uint64_t{1} << 32) - 1;
  for (const auto& [zigzag, attempts] :
       {std::pair<std::uint64_t, int>{max_zigzag - 1,
                                      std::numeric_limits<int>::max()},
        std::pair<std::uint64_t, int>{max_zigzag,
                                      std::numeric_limits<int>::min()}}) {
    const std::string bytes = outcome_with_attempts(zigzag);
    Reader r(bytes);
    const scan::AddressOutcome outcome = get_outcome(r);
    EXPECT_EQ(outcome.probe_attempts, attempts);
    Writer again;
    put_outcome(again, outcome);
    EXPECT_EQ(again.bytes(), bytes);
  }
  for (const std::uint64_t zigzag : {max_zigzag + 1, max_zigzag + 2}) {
    const std::string bytes = outcome_with_attempts(zigzag);
    Reader r(bytes);
    EXPECT_THROW(get_outcome(r), SnapshotError) << zigzag;
  }

  // A trace frame's reply code stays a fixed-width i64, range-checked.
  net::Frame frame;
  Writer w;
  put_frame(w, frame);
  std::string bytes = w.take();
  // time, lane, three empty strings and two enum bytes precede the code.
  constexpr std::size_t kCodeAt = 8 + 8 + 1 + 1 + 1 + 1 + 1;
  Writer code;
  code.i64(std::int64_t{std::numeric_limits<int>::max()} + 1);
  bytes.replace(kCodeAt, 8, code.bytes());
  Reader r(bytes);
  EXPECT_THROW(get_frame(r), SnapshotError);
}

TEST(SnapshotCodec, NamesReadBackExactlyAndCapitalsAreRefused) {
  // put_name writes a name's text, which is lowercase: a capital would
  // decode to a name that re-encodes differently. A trailing dot is a
  // trailing empty label, and reads back as one.
  const std::string name = "probe.example.org";
  scan::ProbeResult result;
  result.mail_from_domain = dns::Name::lenient(name);
  Writer w;
  put_probe_result(w, result);
  const std::string bytes = w.take();
  const std::size_t at = bytes.find(name);
  ASSERT_NE(at, std::string::npos);
  ASSERT_EQ(static_cast<std::size_t>(bytes[at - 1]), name.size());

  std::string dotted = bytes;
  dotted.replace(at - 1, name.size() + 1,
                 static_cast<char>(name.size() + 1) + name + ".");
  for (const std::string& good : {bytes, dotted}) {
    Reader r(good);
    const scan::ProbeResult back = get_probe_result(r);
    Writer again;
    put_probe_result(again, back);
    EXPECT_EQ(again.bytes(), good);
  }

  std::string capital = bytes;
  capital[at] = 'P';
  Reader r(capital);
  EXPECT_THROW(get_probe_result(r), SnapshotError);
}

TEST(SnapshotMutation, SeededByteFlipsDecodeOrReject) {
  const std::string bytes = sectioned_snapshot().encode();
  const std::string body = body_of(bytes);
  ASSERT_EQ(frame(body), bytes);  // the split is exact
  util::Rng rng(0x5EED1);
  for (int i = 0; i < 300; ++i) {
    std::string mutated = body;
    const std::uint64_t flips = rng.uniform(1, 4);
    for (std::uint64_t f = 0; f < flips; ++f) {
      mutated[rng.uniform(0, mutated.size() - 1)] ^=
          static_cast<char>(rng.uniform(1, 255));
    }
    expect_decodes_or_rejects(frame(mutated),
                              "flip case " + std::to_string(i));
  }
}

TEST(SnapshotMutation, EveryTruncationDecodesOrRejects) {
  const std::string body = body_of(sectioned_snapshot().encode());
  for (std::size_t cut = 0; cut < body.size(); ++cut) {
    expect_decodes_or_rejects(frame(std::string_view(body).substr(0, cut)),
                              "truncation at " + std::to_string(cut));
  }
}

TEST(SnapshotMutation, SeededInsertionsDecodeOrReject) {
  const std::string body = body_of(sectioned_snapshot().encode());
  util::Rng rng(0x5EED2);
  for (int i = 0; i < 300; ++i) {
    std::string inserted(rng.uniform(1, 8), '\0');
    for (char& c : inserted) c = static_cast<char>(rng.uniform(0, 255));
    std::string mutated = body;
    mutated.insert(rng.uniform(0, mutated.size()), inserted);
    expect_decodes_or_rejects(frame(mutated),
                              "insertion case " + std::to_string(i));
  }
}

TEST(SnapshotMutation, RetiredWorkerCountSectionIsRejected) {
  // 0x57 carried the worker count of the removed process backend; nothing
  // can resume such a run, so the section reads as a corrupt tail — after
  // the metrics block and on its own.
  Writer retired;
  retired.u8(0x57);
  retired.u32(4);
  for (const bool sectioned : {true, false}) {
    const std::string body = body_of(
        (sectioned ? sectioned_snapshot() : sample_snapshot()).encode());
    EXPECT_THROW(StudySnapshot::decode(frame(body + retired.bytes())),
                 SnapshotError)
        << (sectioned ? "after metrics" : "alone");
  }
}

}  // namespace
}  // namespace spfail::snapshot
