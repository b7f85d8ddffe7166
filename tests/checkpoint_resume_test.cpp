// Checkpoint/resume equivalence: a study killed at ANY round boundary and
// restored into a fresh process must finish with byte-identical outputs —
// reports, degradation tables, wire traces — at any thread count. The
// uninterrupted pass captures a snapshot at every boundary; each one is then
// restored and run to completion.
#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <vector>

#include "report/tables.hpp"
#include "session/scan_session.hpp"
#include "util/shutdown.hpp"

namespace spfail {
namespace {

population::FleetConfig small_fleet_config() {
  population::FleetConfig config;
  config.scale = 0.01;
  config.seed = 2021;
  return config;
}

longitudinal::StudyConfig faulted_study_config() {
  longitudinal::StudyConfig config;
  config.faults.rate = 0.02;
  return config;
}

// Every output surface of a finished study, rendered to one string: the
// paper tables, the inference series, the degradation counters. Two runs
// with equal digests produced byte-identical deliverables.
std::string digest(population::Fleet& fleet,
                   const longitudinal::StudyReport& report) {
  std::ostringstream os;
  os << report::fig2_final_distribution(fleet, report) << "\n"
     << report::table5_tld_patch(fleet, report) << "\n"
     << report::notification_funnel(report) << "\n"
     << report::degradation_table(report.degradation) << "\n";
  for (const auto cohort :
       {longitudinal::Cohort::All, longitudinal::Cohort::AlexaTopList,
        longitudinal::Cohort::Alexa1000, longitudinal::Cohort::TwoWeekMx}) {
    for (const double v : report::vulnerability_series(fleet, report, cohort)) {
      os << v << ",";
    }
    os << "\n";
  }
  os << report.remeasurable_addresses << "/"
     << report.remeasurable_resolved_vulnerable << "/"
     << report.remeasurable_resolved_compliant << "\n";
  return os.str();
}

TEST(CheckpointResume, KillAtEveryRoundBoundaryResumesIdentically) {
  // Uninterrupted pass, capturing the encoded snapshot at every boundary.
  population::Fleet fleet(small_fleet_config());
  longitudinal::Study study(fleet, faulted_study_config());
  std::vector<std::string> boundaries;
  longitudinal::Study::State state = study.begin();
  boundaries.push_back(study.capture(state).encode());
  while (study.rounds_remaining(state)) {
    study.run_round(state);
    boundaries.push_back(study.capture(state).encode());
  }
  const longitudinal::StudyReport full = study.finish(std::move(state));
  const std::string expected = digest(fleet, full);
  ASSERT_EQ(boundaries.size(), study.total_rounds() + 1);

  for (std::size_t b = 0; b < boundaries.size(); ++b) {
    SCOPED_TRACE("boundary after round " + std::to_string(b));
    population::Fleet resumed_fleet(small_fleet_config());
    longitudinal::Study resumed(resumed_fleet, faulted_study_config());
    longitudinal::Study::State resumed_state =
        resumed.restore(snapshot::StudySnapshot::decode(boundaries[b]));
    // Restore fidelity: re-capturing immediately reproduces the snapshot.
    EXPECT_EQ(resumed.capture(resumed_state).encode(), boundaries[b]);
    while (resumed.rounds_remaining(resumed_state)) {
      resumed.run_round(resumed_state);
    }
    const longitudinal::StudyReport report =
        resumed.finish(std::move(resumed_state));
    EXPECT_EQ(digest(resumed_fleet, report), expected);
  }
}

TEST(CheckpointResume, ResumeIsThreadCountInvariantIncludingTrace) {
  // Serial uninterrupted run with tracing, snapshotting mid-study.
  net::WireTrace full_trace;
  longitudinal::StudyConfig serial_config = faulted_study_config();
  serial_config.threads = 1;
  serial_config.trace = &full_trace;
  population::Fleet fleet(small_fleet_config());
  longitudinal::Study study(fleet, serial_config);
  longitudinal::Study::State state = study.begin();
  std::string mid;
  while (study.rounds_remaining(state)) {
    study.run_round(state);
    if (state.next_round == 10) mid = study.capture(state).encode();
  }
  const longitudinal::StudyReport full = study.finish(std::move(state));
  std::ostringstream full_jsonl;
  full_trace.write_jsonl(full_jsonl);

  // Resume the mid-study snapshot on four threads.
  net::WireTrace resumed_trace;
  longitudinal::StudyConfig wide_config = faulted_study_config();
  wide_config.threads = 4;
  wide_config.trace = &resumed_trace;
  population::Fleet resumed_fleet(small_fleet_config());
  longitudinal::Study resumed(resumed_fleet, wide_config);
  longitudinal::Study::State resumed_state =
      resumed.restore(snapshot::StudySnapshot::decode(mid));
  while (resumed.rounds_remaining(resumed_state)) {
    resumed.run_round(resumed_state);
  }
  const longitudinal::StudyReport report =
      resumed.finish(std::move(resumed_state));

  EXPECT_EQ(digest(resumed_fleet, report), digest(fleet, full));
  std::ostringstream resumed_jsonl;
  resumed_trace.write_jsonl(resumed_jsonl);
  EXPECT_EQ(resumed_jsonl.str(), full_jsonl.str());
}

TEST(CheckpointResume, RefusesMismatchedConfiguration) {
  population::FleetConfig fleet_config = small_fleet_config();
  fleet_config.scale = 0.004;
  population::Fleet fleet(fleet_config);
  longitudinal::Study study(fleet, faulted_study_config());
  longitudinal::Study::State state = study.begin();
  const snapshot::StudySnapshot snap = study.capture(state);

  {
    // Different study seed.
    longitudinal::StudyConfig other = faulted_study_config();
    other.seed = 7;
    population::Fleet fresh(fleet_config);
    longitudinal::Study mismatched(fresh, other);
    EXPECT_THROW(mismatched.restore(snap), snapshot::SnapshotError);
  }
  {
    // Different fault rate.
    longitudinal::StudyConfig other = faulted_study_config();
    other.faults.rate = 0.5;
    population::Fleet fresh(fleet_config);
    longitudinal::Study mismatched(fresh, other);
    EXPECT_THROW(mismatched.restore(snap), snapshot::SnapshotError);
  }
  {
    // Tracing on where the snapshot was taken without.
    net::WireTrace trace;
    longitudinal::StudyConfig other = faulted_study_config();
    other.trace = &trace;
    population::Fleet fresh(fleet_config);
    longitudinal::Study mismatched(fresh, other);
    EXPECT_THROW(mismatched.restore(snap), snapshot::SnapshotError);
  }
  {
    // Different fleet scale (the fleet itself would differ).
    population::FleetConfig other_fleet = fleet_config;
    other_fleet.scale = 0.008;
    population::Fleet fresh(other_fleet);
    longitudinal::Study mismatched(fresh, faulted_study_config());
    EXPECT_THROW(mismatched.restore(snap), snapshot::SnapshotError);
  }
  {
    // Corrupted round counter beyond the study's actual length.
    snapshot::StudySnapshot bad = snap;
    bad.rounds_done = study.total_rounds() + 1;
    population::Fleet fresh(fleet_config);
    longitudinal::Study mismatched(fresh, faulted_study_config());
    EXPECT_THROW(mismatched.restore(bad), snapshot::SnapshotError);
  }
}

TEST(CheckpointResume, ScanSessionHaltWritesResumableCheckpoint) {
  const std::string path = testing::TempDir() + "spfail_ckpt_session.bin";

  session::ScanConfig base;
  base.scale = 0.004;
  base.faults.rate = 0.02;

  session::ScanConfig halting = base;
  halting.checkpoint_path = path;
  halting.halt_after_rounds = 5;
  session::ScanSession first(halting);
  EXPECT_EQ(first.study(), nullptr);
  EXPECT_TRUE(first.halted());

  session::ScanConfig resuming = base;
  resuming.resume_path = path;
  session::ScanSession second(resuming);
  const longitudinal::StudyReport* resumed = second.study();
  ASSERT_NE(resumed, nullptr);
  EXPECT_FALSE(second.halted());

  session::ScanSession uninterrupted(base);
  const longitudinal::StudyReport* full = uninterrupted.study();
  ASSERT_NE(full, nullptr);
  EXPECT_EQ(digest(second.fleet(), *resumed),
            digest(uninterrupted.fleet(), *full));
  std::remove(path.c_str());
}

TEST(CheckpointResume, TerminationSignalCheckpointsAndResumesIdentically) {
  // A caught SIGINT/SIGTERM behaves like a halt request: the session writes
  // a final checkpoint at the next round boundary, reports interrupted(),
  // and a resumed run finishes byte-identically to an uninterrupted one.
  const std::string path = testing::TempDir() + "spfail_ckpt_signal.bin";

  session::ScanConfig base;
  base.scale = 0.004;
  base.faults.rate = 0.02;

  session::ScanConfig signalled = base;
  signalled.checkpoint_path = path;
  util::request_shutdown();
  session::ScanSession first(signalled);
  EXPECT_EQ(first.study(), nullptr);
  EXPECT_TRUE(first.halted());
  EXPECT_TRUE(first.interrupted());
  util::clear_shutdown();

  session::ScanConfig resuming = base;
  resuming.resume_path = path;
  session::ScanSession second(resuming);
  const longitudinal::StudyReport* resumed = second.study();
  ASSERT_NE(resumed, nullptr);
  EXPECT_FALSE(second.interrupted());

  session::ScanSession uninterrupted(base);
  const longitudinal::StudyReport* full = uninterrupted.study();
  ASSERT_NE(full, nullptr);
  EXPECT_EQ(digest(second.fleet(), *resumed),
            digest(uninterrupted.fleet(), *full));
  std::remove(path.c_str());
}

TEST(CheckpointResume, LazyFleetHaltResumeMatchesUninterruptedEagerRun) {
  // §14 end-to-end: a lazy-hosts study halted mid-run and resumed (with the
  // intern-table integrity section enabled) must deliver the same bytes as
  // an uninterrupted eager-fleet run.
  const std::string path = testing::TempDir() + "spfail_ckpt_lazy.bin";

  session::ScanConfig base;
  base.scale = 0.004;
  base.faults.rate = 0.02;

  session::ScanConfig halting = base;
  halting.lazy_hosts = true;
  halting.checkpoint_path = path;
  halting.checkpoint_strings = true;
  halting.halt_after_rounds = 5;
  session::ScanSession first(halting);
  EXPECT_EQ(first.study(), nullptr);
  EXPECT_TRUE(first.halted());

  session::ScanConfig resuming = base;
  resuming.lazy_hosts = true;
  resuming.resume_path = path;
  session::ScanSession second(resuming);
  const longitudinal::StudyReport* resumed = second.study();
  ASSERT_NE(resumed, nullptr);

  session::ScanSession uninterrupted(base);  // eager fleet, no interruption
  const longitudinal::StudyReport* full = uninterrupted.study();
  ASSERT_NE(full, nullptr);
  EXPECT_EQ(digest(second.fleet(), *resumed),
            digest(uninterrupted.fleet(), *full));
  std::remove(path.c_str());
}

TEST(CheckpointResume, FreshRunDiscardsOrphanedTempCheckpoint) {
  // A writer killed mid-checkpoint leaves <path>.tmp behind; atomic rename
  // means <path> itself is never corrupt. A fresh run must clean up the
  // orphan so it cannot shadow or outlive the real snapshot.
  const std::string path = testing::TempDir() + "spfail_ckpt_orphan.bin";
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::trunc);
    out << "garbage left by a killed writer";
  }

  session::ScanConfig config;
  config.scale = 0.004;
  config.initial_only = true;
  config.checkpoint_path = path;
  session::ScanSession session(config);
  session.initial();

  EXPECT_FALSE(std::ifstream(tmp).good());
  EXPECT_TRUE(std::ifstream(path).good());
  std::remove(path.c_str());
}

TEST(CheckpointResume, CampaignSnapshotShortCircuitsInitialOnly) {
  const std::string path = testing::TempDir() + "spfail_ckpt_campaign.bin";

  session::ScanConfig config;
  config.scale = 0.004;
  config.initial_only = true;
  config.checkpoint_path = path;
  session::ScanSession first(config);
  const scan::CampaignReport& fresh = first.initial();

  session::ScanConfig resuming;
  resuming.scale = 0.004;
  resuming.initial_only = true;
  resuming.resume_path = path;
  session::ScanSession second(resuming);
  const scan::CampaignReport& restored = second.initial();

  std::ostringstream a, b;
  a << report::table3_outcomes(first.fleet(), fresh)
    << report::table4_breakdown(first.fleet(), fresh)
    << report::table7_behaviors(first.fleet(), fresh);
  b << report::table3_outcomes(second.fleet(), restored)
    << report::table4_breakdown(second.fleet(), restored)
    << report::table7_behaviors(second.fleet(), restored);
  EXPECT_EQ(a.str(), b.str());

  // A study run must refuse the campaign-kind snapshot.
  session::ScanConfig wrong_kind;
  wrong_kind.scale = 0.004;
  wrong_kind.resume_path = path;
  session::ScanSession third(wrong_kind);
  EXPECT_THROW(third.study(), snapshot::SnapshotError);
  std::remove(path.c_str());
}

// --- ScanConfig: strict flag/env parsing -----------------------------------

session::ScanConfig parse(std::initializer_list<const char*> args) {
  std::vector<const char*> argv = {"spfail_scan"};
  argv.insert(argv.end(), args.begin(), args.end());
  return session::ScanConfig::from_args(static_cast<int>(argv.size()),
                                        argv.data());
}

TEST(ScanConfigArgs, ParsesTheFullFlagSet) {
  const session::ScanConfig config =
      parse({"--scale", "0.25", "--seed", "7", "--threads", "3",
             "--initial-only", "--fault-rate", "0.5", "--fault-seed", "99",
             "--csv", "/tmp/csv", "--trace", "/tmp/t.jsonl", "--lazy-hosts",
             "--checkpoint-strings", "--checkpoint", "/tmp/c.bin",
             "--checkpoint-every", "4", "--halt-after-rounds", "8", "--resume",
             "/tmp/r.bin"});
  EXPECT_EQ(config.scale, 0.25);
  EXPECT_EQ(config.fleet_seed, 7u);
  EXPECT_EQ(config.threads, 3);
  EXPECT_TRUE(config.initial_only);
  EXPECT_EQ(config.faults.rate, 0.5);
  EXPECT_EQ(config.faults.seed, 99u);
  EXPECT_EQ(config.csv_dir, "/tmp/csv");
  EXPECT_EQ(config.trace_path, "/tmp/t.jsonl");
  EXPECT_TRUE(config.tracing());
  EXPECT_TRUE(config.lazy_hosts);
  EXPECT_TRUE(config.checkpoint_strings);
  EXPECT_EQ(config.checkpoint_path, "/tmp/c.bin");
  EXPECT_EQ(config.checkpoint_every, 4);
  EXPECT_EQ(config.halt_after_rounds, 8);
  EXPECT_EQ(config.resume_path, "/tmp/r.bin");
}

TEST(ScanConfigArgs, CommandLineOverridesEnvironment) {
  ::setenv("SPFAIL_SCALE", "0.5", 1);
  const session::ScanConfig env_only = parse({});
  EXPECT_EQ(env_only.scale, 0.5);
  const session::ScanConfig overridden = parse({"--scale", "0.25"});
  EXPECT_EQ(overridden.scale, 0.25);
  ::unsetenv("SPFAIL_SCALE");
}

TEST(ScanConfigArgs, RejectsMalformedNumericsInsteadOfCoercing) {
  // Every one of these was silently 0 (or garbage) under atoi/atof parsing.
  EXPECT_THROW(parse({"--threads", "x"}), session::ScanConfigError);
  EXPECT_THROW(parse({"--threads", "2x"}), session::ScanConfigError);
  EXPECT_THROW(parse({"--threads", "-2"}), session::ScanConfigError);
  EXPECT_THROW(parse({"--scale", "abc"}), session::ScanConfigError);
  EXPECT_THROW(parse({"--scale", "0"}), session::ScanConfigError);
  EXPECT_THROW(parse({"--scale", "1.5"}), session::ScanConfigError);
  EXPECT_THROW(parse({"--fault-rate", "-0.1"}), session::ScanConfigError);
  EXPECT_THROW(parse({"--fault-rate", "1.01"}), session::ScanConfigError);
  EXPECT_THROW(parse({"--fault-seed", "-1"}), session::ScanConfigError);
  EXPECT_THROW(parse({"--seed", ""}), session::ScanConfigError);
  EXPECT_THROW(parse({"--checkpoint-every", "0"}), session::ScanConfigError);
}

TEST(ScanConfigArgs, RejectsUnknownAndIncompleteFlags) {
  EXPECT_THROW(parse({"--frobnicate"}), session::ScanConfigError);
  EXPECT_THROW(parse({"--scale"}), session::ScanConfigError);
  EXPECT_THROW(parse({"--halt-after-rounds", "3"}), session::ScanConfigError);
}

TEST(ScanConfigArgs, RejectsDuplicateFlagOccurrences) {
  // A repeated flag used to be last-one-wins, which silently masked the
  // earlier value in a long command line; it is now a hard error.
  EXPECT_THROW(parse({"--scale", "0.1", "--scale", "0.2"}),
               session::ScanConfigError);
  EXPECT_THROW(parse({"--seed", "1", "--threads", "2", "--seed", "1"}),
               session::ScanConfigError);
  // Switches are flags too.
  EXPECT_THROW(parse({"--lazy-hosts", "--lazy-hosts"}),
               session::ScanConfigError);
  // Distinct flags still compose, and one occurrence each stays legal.
  EXPECT_NO_THROW(parse({"--scale", "0.1", "--seed", "7"}));
}

TEST(ScanConfigArgs, RejectsMalformedEnvironment) {
  ::setenv("SPFAIL_FAULT_RATE", "lots", 1);
  EXPECT_THROW(session::ScanConfig::from_env(), session::ScanConfigError);
  ::setenv("SPFAIL_FAULT_RATE", "2.0", 1);
  EXPECT_THROW(session::ScanConfig::from_env(), session::ScanConfigError);
  ::unsetenv("SPFAIL_FAULT_RATE");
  EXPECT_NO_THROW(session::ScanConfig::from_env());
}

}  // namespace
}  // namespace spfail
