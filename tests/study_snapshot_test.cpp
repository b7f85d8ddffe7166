// Study checkpoints end to end: pinned checkpoint bytes, so a format drift
// that is the same on both sides of a cross-run comparison still fails; and
// the one shared, immutable initial report that begin(), capture(),
// restore() and finish() hand around, with its encode-once section.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "longitudinal/study.hpp"
#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "population/fleet.hpp"
#include "snapshot/fields.hpp"
#include "snapshot/snapshot.hpp"
#include "util/rng.hpp"

namespace spfail {
namespace {

population::FleetConfig golden_fleet_config() {
  population::FleetConfig config;
  config.scale = 0.01;
  config.seed = 2021;
  return config;
}

// One metered study whose checkpoints carry every optional section the CLI
// writes: the metrics registry with its JSONL lines, and the fleet strings.
struct MeteredStudy {
  explicit MeteredStudy(int threads) : fleet(golden_fleet_config()) {
    config.seed = 20211011;
    config.threads = threads;
    config.metrics = &registry;
    study.emplace(fleet, config);
  }

  snapshot::StudySnapshot capture(const longitudinal::Study::State& state) {
    snapshot::StudySnapshot snap = study->capture(state);
    snap.metric_lines = lines;
    snap.has_strings = true;
    snap.strings = fleet.strings();
    return snap;
  }

  longitudinal::Study::State begin() {
    longitudinal::Study::State state = study->begin();
    lines.push_back(obs::round_snapshot_json(registry, "initial"));
    return state;
  }

  void run_round(longitudinal::Study::State& state) {
    study->run_round(state);
    lines.push_back(obs::round_snapshot_json(
        registry, "round", static_cast<int>(state.next_round) - 1));
  }

  population::Fleet fleet;
  obs::Registry registry;
  longitudinal::StudyConfig config;
  std::optional<longitudinal::Study> study;
  std::vector<std::string> lines;
};

TEST(SnapshotGolden, StudyCheckpointBytesArePinned) {
  // fnv1a and length of the encoded checkpoint after begin() and after round
  // 11 of a metered scale-0.01 study with the strings section on, captured
  // on the tree before the initial report was shared and its section cached.
  // If these move, the checkpoint format changed. The digests differ by
  // thread count: the hosts section records greylist first-contact times,
  // which each shard takes from its own sim clock lane.
  struct Golden {
    int threads;
    std::uint64_t begin_digest;
    std::uint64_t round11_digest;
  };
  constexpr std::size_t kBeginLength = 531944;
  constexpr std::size_t kRound11Length = 553559;
  for (const Golden& golden :
       {Golden{1, 11501289697798070815ULL, 5815009327068507373ULL},
        Golden{4, 13596368503034145343ULL, 15023655524915793860ULL}}) {
    MeteredStudy run(golden.threads);
    longitudinal::Study::State state = run.begin();
    const std::string at_begin = run.capture(state).encode();
    while (state.next_round < 11) run.run_round(state);
    const std::string at_round11 = run.capture(state).encode();

    EXPECT_EQ(at_begin.size(), kBeginLength) << "threads=" << golden.threads;
    EXPECT_EQ(util::fnv1a(at_begin), golden.begin_digest)
        << "threads=" << golden.threads;
    EXPECT_EQ(at_round11.size(), kRound11Length)
        << "threads=" << golden.threads;
    EXPECT_EQ(util::fnv1a(at_round11), golden.round11_digest)
        << "threads=" << golden.threads;
  }
}

// The capture's snapshot with its initial report swapped for a fresh deep
// copy whose section has never been encoded.
snapshot::StudySnapshot with_uncached_copy(snapshot::StudySnapshot snap) {
  snap.initial =
      snapshot::freeze(scan::CampaignReport(snap.initial->report()));
  return snap;
}

TEST(SnapshotShared, CapturesHoldTheStateReport) {
  MeteredStudy run(2);
  longitudinal::Study::State state = run.begin();
  const snapshot::StudySnapshot at0 = run.capture(state);
  while (state.next_round < 5) run.run_round(state);
  const snapshot::StudySnapshot at5 = run.capture(state);

  ASSERT_NE(at0.initial, nullptr);
  EXPECT_EQ(at0.initial.get(), state.report.initial.get());
  EXPECT_EQ(at5.initial.get(), at0.initial.get());
}

TEST(SnapshotShared, RestoreAndFinishKeepTheReport) {
  MeteredStudy run(2);
  longitudinal::Study::State state = run.begin();
  const snapshot::FrozenReport* const frozen = state.report.initial.get();
  while (state.next_round < 3) run.run_round(state);
  const snapshot::StudySnapshot snap = run.capture(state);

  // A resume from the captured snapshot keeps its report...
  MeteredStudy resumed(2);
  longitudinal::Study::State restored = resumed.study->restore(snap);
  EXPECT_EQ(restored.report.initial.get(), frozen);
  while (resumed.study->rounds_remaining(restored)) {
    resumed.run_round(restored);
  }
  const longitudinal::StudyReport resumed_report =
      resumed.study->finish(std::move(restored));
  EXPECT_EQ(resumed_report.initial.get(), frozen);

  // ...as does the run that took it, through to its finished report.
  while (run.study->rounds_remaining(state)) run.run_round(state);
  const longitudinal::StudyReport report =
      run.study->finish(std::move(state));
  EXPECT_EQ(report.initial.get(), frozen);

  // A resume from bytes shares the decoded snapshot's report.
  MeteredStudy from_bytes(2);
  const snapshot::StudySnapshot decoded =
      snapshot::StudySnapshot::decode(snap.encode());
  EXPECT_EQ(from_bytes.study->restore(decoded).report.initial.get(),
            decoded.initial.get());
}

TEST(SnapshotShared, RestoreRejectsAReportThatMissesFleetDomains) {
  // derive_from_initial() reads one domain outcome per fleet domain, so a
  // snapshot without a report, or with a shorter domain list, must be
  // refused before it is read.
  MeteredStudy run(2);
  const snapshot::StudySnapshot snap = run.capture(run.begin());

  snapshot::StudySnapshot missing = snap;
  missing.initial = nullptr;
  scan::CampaignReport shorter = snap.initial->report();
  shorter.domains.pop_back();
  snapshot::StudySnapshot truncated = snap;
  truncated.initial = snapshot::freeze(std::move(shorter));
  for (const snapshot::StudySnapshot* bad : {&missing, &truncated}) {
    MeteredStudy resumed(2);
    EXPECT_THROW(resumed.study->restore(*bad), snapshot::SnapshotError);
  }
}

TEST(SnapshotShared, CachedSectionEncodesLikeAFreshCopy) {
  MeteredStudy run(2);
  longitudinal::Study::State state = run.begin();
  while (state.next_round < 2) run.run_round(state);
  const snapshot::StudySnapshot snap = run.capture(state);
  ASSERT_TRUE(snap.has_metrics);
  ASSERT_TRUE(snap.has_strings);
  ASSERT_FALSE(snap.metric_lines.empty());

  const std::string reference = with_uncached_copy(snap).encode();
  const std::string first = snap.encode();  // builds the section
  const std::string second = snap.encode();  // appends it as cached
  EXPECT_EQ(first, reference);
  EXPECT_EQ(second, reference);

  snapshot::Writer section;
  snapshot::put_report(section, snap.initial->report());
  EXPECT_EQ(snap.initial->encoded(), section.bytes());

  // A later capture of the same run reuses the section the first built.
  run.run_round(state);
  const snapshot::StudySnapshot later = run.capture(state);
  EXPECT_EQ(later.encode(), with_uncached_copy(later).encode());
}

TEST(SnapshotShared, DecodingCachedBytesReencodesThem) {
  MeteredStudy run(2);
  longitudinal::Study::State state = run.begin();
  run.run_round(state);
  const snapshot::StudySnapshot snap = run.capture(state);
  (void)snap.encode();
  const std::string bytes = snap.encode();
  EXPECT_EQ(snapshot::StudySnapshot::decode(bytes).encode(), bytes);
}

TEST(SnapshotShared, ConcurrentFirstEncodesAgree) {
  MeteredStudy run(2);
  const longitudinal::Study::State state = run.begin();
  const snapshot::StudySnapshot base = run.capture(state);
  const std::string reference = with_uncached_copy(base).encode();

  // Four snapshots share one report nobody has encoded yet; all four build
  // or wait for its section at once.
  constexpr int kThreads = 4;
  const std::vector<snapshot::StudySnapshot> snaps(kThreads, base);
  std::vector<std::string> bytes(kThreads);
  std::atomic<int> ready{0};
  std::vector<std::thread> threads;
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([&, i] {
      ready.fetch_add(1);
      while (ready.load() < kThreads) std::this_thread::yield();
      bytes[i] = snaps[i].encode();
    });
  }
  for (auto& thread : threads) thread.join();
  for (int i = 0; i < kThreads; ++i) {
    EXPECT_EQ(bytes[i], reference) << "thread " << i;
  }
}

TEST(SnapshotShared, EmptySnapshotEncodesAnEmptyReport) {
  // A default-constructed snapshot has no report and encodes exactly what
  // one holding an empty report does: the bytes a default snapshot had
  // before the report was shared (length and fnv1a captured then).
  const std::string bytes = snapshot::StudySnapshot{}.encode();
  EXPECT_EQ(bytes.size(), 478u);
  EXPECT_EQ(util::fnv1a(bytes), 17175903541699387203ULL);
  snapshot::StudySnapshot with_empty;
  with_empty.initial = snapshot::freeze(scan::CampaignReport{});
  EXPECT_EQ(with_empty.encode(), bytes);
}

}  // namespace
}  // namespace spfail
