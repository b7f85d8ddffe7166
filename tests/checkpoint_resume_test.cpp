// Checkpoint/resume equivalence: a study killed at ANY round boundary and
// restored into a fresh process must finish with byte-identical outputs —
// reports, degradation tables, wire traces — at any thread count. The
// uninterrupted pass captures a snapshot at every boundary; each one is then
// restored and run to completion.
#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "report/tables.hpp"
#include "scratch_path.hpp"
#include "session/scan_session.hpp"
#include "util/rng.hpp"
#include "util/shutdown.hpp"
#include "util/thread_pool.hpp"

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
  // Meta fields the seeds cannot vouch for: refused by name.
  const auto expect_refused = [&](const snapshot::StudySnapshot& bad,
                                  const std::string& field) {
    population::Fleet fresh(fleet_config);
    longitudinal::Study resuming(fresh, faulted_study_config());
    try {
      resuming.restore(bad);
      ADD_FAILURE() << "restore accepted a snapshot with another " << field;
    } catch (const snapshot::SnapshotError& e) {
      EXPECT_NE(std::string(e.what()).find("snapshot " + field + " is"),
                std::string::npos)
          << e.what();
    }
  };
  {
    // Another population under the same seeds: the fleet strings digest.
    snapshot::StudySnapshot bad = snap;
    bad.meta.strings_digest ^= 1;
    expect_refused(bad, "fleet strings digest");
  }
  {
    // A campaign-kind snapshot offered to a study, checked before any
    // other field.
    snapshot::StudySnapshot bad = snap;
    bad.meta.kind = snapshot::SnapshotKind::Campaign;
    bad.meta.strings_digest ^= 1;
    expect_refused(bad, "kind");
  }
}

TEST(CheckpointResume, ScanSessionHaltWritesResumableCheckpoint) {
  const std::string path = testutil::scratch_path("ckpt_session.bin");

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
  const std::string path = testutil::scratch_path("ckpt_signal.bin");

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
  // §14 end-to-end: a study over the streaming fleet halted mid-run and
  // resumed (its fleet strings digest checked on resume) must deliver
  // the same bytes as an uninterrupted run over a fleet that held every host
  // resident — pinned as the fnv1a and length of that run's digest, captured
  // before the resident fleet was deleted.
  constexpr std::uint64_t kResidentDigest = 11474371070450440843ULL;
  constexpr std::size_t kResidentLength = 3679;
  const std::string path = testutil::scratch_path("ckpt_lazy.bin");

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
  const std::string resumed_digest = digest(second.fleet(), *resumed);
  EXPECT_EQ(resumed_digest.size(), kResidentLength);
  EXPECT_EQ(util::fnv1a(resumed_digest), kResidentDigest);

  session::ScanSession uninterrupted(base);
  const longitudinal::StudyReport* full = uninterrupted.study();
  ASSERT_NE(full, nullptr);
  EXPECT_EQ(resumed_digest, digest(uninterrupted.fleet(), *full));
  std::remove(path.c_str());
}

TEST(CheckpointResume, FreshRunDiscardsOrphanedTempCheckpoint) {
  // A writer killed mid-checkpoint leaves <path>.tmp behind; atomic rename
  // means <path> itself is never corrupt. A fresh run must clean up the
  // orphan so it cannot shadow or outlive the real snapshot.
  const std::string path = testutil::scratch_path("ckpt_orphan.bin");
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
  const std::string path = testutil::scratch_path("ckpt_campaign.bin");

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

// The study runs its own initial campaign. After initial() has probed the
// fleet, a study would measure hosts that campaign already contacted
// (greylist first contacts, flaky-path draws), so its Table 3 would differ
// from a fresh session's; the session refuses instead.
TEST(ScanSessionOrder, StudyAfterInitialCampaignThrows) {
  session::ScanConfig config;
  config.scale = 0.004;
  config.threads = 1;
  session::ScanSession probed(config);
  probed.initial();
  EXPECT_THROW(probed.study(), std::logic_error);

  // The supported order: study() first, then initial() is its campaign.
  session::ScanSession fresh(config);
  const longitudinal::StudyReport* report = fresh.study();
  ASSERT_NE(report, nullptr);
  EXPECT_EQ(&fresh.initial(), &report->initial->report());
}

TEST(ScanConfigArgs, ParsesTheFullFlagSet) {
  const session::ScanConfig config =
      parse({"--scale", "0.25", "--seed", "7", "--threads", "3",
             "--initial-only", "--fault-rate", "0.5", "--fault-seed", "99",
             "--csv", "/tmp/csv", "--trace", "/tmp/t.jsonl",
             "--checkpoint", "/tmp/c.bin",
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
  // strtoull skips leading blanks before negating; these wrapped to 2^64 - n.
  EXPECT_THROW(parse({"--fault-seed", " -1"}), session::ScanConfigError);
  EXPECT_THROW(parse({"--seed", "\t-5"}), session::ScanConfigError);
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
  EXPECT_THROW(parse({"--initial-only", "--initial-only"}),
               session::ScanConfigError);
  // A deleted flag is unknown even when repeated.
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

  // SPFAIL_THREADS, which the thread pool reads outside the registry, is
  // checked when the config is validated, naming the variable, instead of
  // being truncated ("2x" used to run on 2 threads) or ignored ("abc" on all
  // cores). Unset or empty keeps the default.
  const auto rejects = [](const char* name, const char* value) {
    ::setenv(name, value, 1);
    try {
      session::ScanConfig::from_env();
      ADD_FAILURE() << name << "=" << value << " was accepted";
    } catch (const session::ScanConfigError& error) {
      EXPECT_NE(std::string(error.what()).find(name), std::string::npos)
          << error.what();
    }
    ::unsetenv(name);
  };
  rejects("SPFAIL_THREADS", "2x");
  rejects("SPFAIL_THREADS", "abc");
  rejects("SPFAIL_THREADS", "-1");
  // A count past util::kMaxThreads is rejected before any pool could be
  // asked for that many OS threads.
  rejects("SPFAIL_THREADS", "100000");
  rejects("SPFAIL_THREADS", "257");
  // A hand-built config (the ScanSession and svc JobSpec path) runs the
  // same check.
  ::setenv("SPFAIL_THREADS", "2x", 1);
  EXPECT_THROW(session::ScanConfig{}.validate(), session::ScanConfigError);
  EXPECT_THROW(session::ScanSession{session::ScanConfig{}},
               session::ScanConfigError);
  // An explicit thread count means the pool never reads SPFAIL_THREADS, so
  // its value is not checked.
  session::ScanConfig explicit_threads;
  explicit_threads.threads = 2;
  EXPECT_NO_THROW(explicit_threads.validate());
  // --threads carries the same bound as SPFAIL_THREADS.
  for (const int too_many : {257, 100000}) {
    session::ScanConfig config;
    config.threads = too_many;
    try {
      config.validate();
      ADD_FAILURE() << "--threads " << too_many << " was accepted";
    } catch (const session::ScanConfigError& error) {
      EXPECT_NE(std::string(error.what()).find("--threads"), std::string::npos)
          << error.what();
    }
  }
  explicit_threads.threads = util::kMaxThreads;
  EXPECT_NO_THROW(explicit_threads.validate());
  for (const char* fine : {"", "0", "3", "256"}) {
    ::setenv("SPFAIL_THREADS", fine, 1);
    EXPECT_NO_THROW(session::ScanConfig::from_env()) << fine;
  }
  ::unsetenv("SPFAIL_THREADS");
}

}  // namespace
}  // namespace spfail
