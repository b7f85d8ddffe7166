// Versioned binary checkpoints for campaigns and the longitudinal study
// (DESIGN.md §11).
//
// The paper's measurement is a four-month, ~180K-address longitudinal scan;
// any real deployment of such a run must survive process death. A
// StudySnapshot captures everything the study loop carries across a round
// boundary — the completed initial CampaignReport (per-address probe state,
// retry bookkeeping), degradation counters, the loss-process RNG cursor, the
// label-allocator suite cursor, per-address observation series, blacklist /
// patch flags, the re-measurable queue, the sim-clock position, and (when
// tracing) every wire frame recorded so far. Restoring it into a freshly
// built fleet of the same seed continues the run so that reports, JSONL
// traces, and degradation tables come out byte-identical to an uninterrupted
// run, at any thread count.
//
// The file is one container body (snapshot/container.hpp): the meta block,
// then the loop-carried state, then the metrics block behind a presence
// byte — all of it under the container's checksum. Decoding rejects
// whatever the container rejects (wrong magic, any version but the current
// one, a bad length or checksum), trailing bytes, and any unmapped enum byte
// (snapshot/enums.hpp).
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "faults/degradation.hpp"
#include "longitudinal/inference.hpp"
#include "net/frame.hpp"
#include "obs/metrics.hpp"
#include "scan/campaign.hpp"
#include "snapshot/codec.hpp"
#include "util/clock.hpp"
#include "util/ip.hpp"

namespace spfail::snapshot {

// What kind of run the snapshot continues.
enum class SnapshotKind : std::uint8_t {
  Campaign = 1,  // a completed initial-only measurement
  Study = 2,     // a longitudinal study at a round boundary
};

std::string to_string(SnapshotKind kind);

// The configuration fingerprint a snapshot was taken under. Restore verifies
// every field against the resuming process's configuration and refuses a
// mismatch — resuming under different seeds or rates would silently produce
// a run that matches neither the checkpointed nor a fresh experiment.
struct SnapshotMeta {
  SnapshotKind kind = SnapshotKind::Study;
  std::uint64_t fleet_seed = 0;
  double scale = 0.0;
  std::uint64_t study_seed = 0;
  std::uint64_t fault_seed = 0;
  double fault_rate = 0.0;
  bool tracing = false;
  // Interner::digest() of the fleet's intern table (DESIGN.md §14): a
  // whole-population fingerprint that catches a generator drift the seeds
  // and scale cannot, before replay silently diverges.
  std::uint64_t strings_digest = 0;

  friend bool operator==(const SnapshotMeta&, const SnapshotMeta&) = default;
};

// Refuses a snapshot taken under another configuration: throws SnapshotError
// naming the first field of `got` that differs from `want`, kind first.
void check_meta(const SnapshotMeta& got, const SnapshotMeta& want);

// The study's initial campaign report, frozen when the campaign returns. It
// never changes after begin(), so one immutable object is shared — never
// copied — by the live study state, every capture of it, and the finished
// StudyReport, and it carries its own encoded snapshot section: the first
// encode() that needs the bytes builds them, every later checkpoint appends
// them as they are. Report and bytes live in one object so the cache cannot
// drift from the report it encodes.
class FrozenReport {
 public:
  explicit FrozenReport(scan::CampaignReport report)
      : report_(std::move(report)) {}

  const scan::CampaignReport& report() const noexcept { return report_; }

  // put_report(report()), built on the first call. Safe to call from
  // several threads: snapshots that share a report may encode concurrently.
  std::string_view encoded() const;

 private:
  const scan::CampaignReport report_;
  mutable std::once_flag encode_once_;
  mutable std::string encoded_;
};

using SharedReport = std::shared_ptr<const FrozenReport>;

// Move `report` into a new shared FrozenReport.
SharedReport freeze(scan::CampaignReport report);

// Everything the study loop carries across a round boundary. `rounds_done`
// counts completed longitudinal rounds: 0 means "initial measurement,
// notification campaign, and patch planning done; no longitudinal round
// run yet". A Campaign-kind snapshot uses only `meta`, `initial`, and
// `clock_now` (plus `trace` when tracing).
struct StudySnapshot {
  SnapshotMeta meta;

  std::uint64_t rounds_done = 0;
  util::SimTime clock_now = 0;
  std::array<std::uint64_t, 4> loss_rng{};  // mid-stream xoshiro position
  std::uint64_t suites_issued = 0;          // label-allocator replay cursor

  // The initial report, shared with the state it was captured from. Null
  // only in a hand-built snapshot, which encodes an empty report.
  SharedReport initial;
  faults::DegradationReport degradation;  // study-wide merged counters

  std::uint64_t remeasurable_resolved_vulnerable = 0;
  std::uint64_t remeasurable_resolved_compliant = 0;

  // Surviving §6.1 re-measurable inconclusives with their stable label slots.
  std::vector<std::pair<util::IpAddress, std::uint64_t>> remeasurable;
  // Addresses whose hosts the loss process blacklisted / the patch plan
  // patched by this boundary (sorted; re-applied to the rebuilt fleet).
  std::vector<util::IpAddress> blacklisted;
  std::vector<util::IpAddress> patched;
  // Per vulnerable address — ascending address order, exactly the order
  // derived from `initial` — the observations of rounds [0, rounds_done).
  std::vector<std::vector<longitudinal::Observation>> series;

  // Scanner-visible mutable state of every host the continued run can still
  // probe (vulnerable plus surviving re-measurable addresses): the greylist
  // first-contact map and the flaky-path RNG cursor. Without these a rebuilt
  // host would greylist the resumed scanner as a stranger and replay its
  // flaky draws from the start.
  struct HostState {
    util::IpAddress address;
    std::vector<std::pair<std::string, util::SimTime>> greylist_seen;
    std::array<std::uint64_t, 4> flaky_rng{};
  };
  std::vector<HostState> hosts;

  // Wire frames recorded so far (present exactly when meta.tracing).
  std::vector<net::Frame> trace;

  // Deterministic metrics state (DESIGN.md §12; present exactly when the
  // run had metrics enabled): the merged master registry plus the per-round
  // JSONL snapshot lines already emitted, so a resumed run re-emits a
  // byte-identical metric stream. Encoded last, behind a presence byte; a
  // metrics-off snapshot encodes neither field, whatever they hold.
  bool has_metrics = false;
  obs::Registry metrics;
  std::vector<std::string> metric_lines;

  std::string encode() const;
  static StudySnapshot decode(std::string_view bytes);
};

// Atomic write: the bytes go to `path` + ".tmp" and are renamed over `path`,
// so a crash mid-checkpoint leaves the previous snapshot intact. Throws
// SnapshotError on I/O failure.
void save_atomically(const std::string& path, std::string_view bytes);

// Remove the `path` + ".tmp" a writer killed mid-checkpoint left behind (the
// rename never happened, so the orphan is garbage and `path` itself — when
// present — is the last complete snapshot). Returns true when an orphan was
// actually removed.
bool discard_partial(const std::string& path);

// Whole-file read; throws SnapshotError when unreadable.
std::string load_file(const std::string& path);

}  // namespace spfail::snapshot
