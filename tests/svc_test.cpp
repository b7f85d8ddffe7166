// The scan service (DESIGN.md §18): control-file parsing, admission-control
// determinism, the ServiceLoop's run/checkpoint/restart machinery, and the
// byte-identity guarantees — same submissions produce the same event log and
// reports at any per-job thread count, and a service killed at any hook
// point restarts to byte-identical final outputs.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "scratch_path.hpp"
#include "snapshot/container.hpp"
#include "snapshot/snapshot.hpp"
#include "svc/admission.hpp"
#include "svc/control.hpp"
#include "svc/job.hpp"
#include "svc/service.hpp"
#include "util/rng.hpp"

namespace spfail {
namespace {

// A fresh per-test scratch directory (gtest's TempDir persists across
// cases, so each test gets its own subtree and clears it up front).
std::string scratch_dir(const std::string& name) {
  const std::string dir = testutil::scratch_path("svc_" + name);
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

void write_file(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << text;
}

svc::SvcConfig small_config(const std::string& dir) {
  svc::SvcConfig config;
  config.dir = dir + "/state";
  config.control = dir + "/control.txt";
  config.rounds_per_tick = 8;
  return config;
}

constexpr const char* kTinyScale = "scale 0.004";

// --- control parsing ---

TEST(SvcControl, ParsesSubmitStatusDrainAndAt) {
  const auto commands = svc::parse_control_text(
      "# a comment\n"
      "submit alpha scale 0.02 seed 7 priority 3 recur 5 runs 2\n"
      "\n"
      "status   # trailing comment\n"
      "at 12 submit beta nets 4,9\n"
      "drain\n");
  ASSERT_EQ(commands.size(), 4u);
  EXPECT_EQ(commands[0].kind, svc::Command::Kind::Submit);
  EXPECT_EQ(commands[0].spec.id, "alpha");
  EXPECT_DOUBLE_EQ(commands[0].spec.scale, 0.02);
  EXPECT_EQ(commands[0].spec.seed, 7u);
  EXPECT_EQ(commands[0].spec.priority, 3);
  EXPECT_EQ(commands[0].spec.recur, 5u);
  EXPECT_EQ(commands[0].spec.runs, 2u);
  EXPECT_EQ(commands[1].kind, svc::Command::Kind::Status);
  EXPECT_EQ(commands[2].kind, svc::Command::Kind::Submit);
  EXPECT_EQ(commands[2].at_tick, 12u);
  EXPECT_EQ(commands[2].spec.nets, (std::vector<std::uint64_t>{4, 9}));
  EXPECT_EQ(commands[3].kind, svc::Command::Kind::Drain);
}

TEST(SvcControl, RejectsMalformedLines) {
  EXPECT_THROW(svc::parse_control_text("submit\n"), svc::ControlError);
  EXPECT_THROW(svc::parse_control_text("submit a scale\n"),
               svc::ControlError);
  EXPECT_THROW(svc::parse_control_text("submit a scale x\n"),
               svc::ControlError);
  EXPECT_THROW(svc::parse_control_text("submit a bogus 1\n"),
               svc::ControlError);
  // The per-round scenario replay is gone, and its key with it.
  try {
    svc::parse_control_text("submit a scenario forwarding scenario-rounds 3\n");
    ADD_FAILURE() << "scenario-rounds parsed";
  } catch (const svc::ControlError& e) {
    EXPECT_NE(std::string(e.what()).find("unknown key 'scenario-rounds'"),
              std::string::npos)
        << e.what();
  }
  EXPECT_THROW(svc::parse_control_text("submit bad/id\n"),
               svc::ControlError);
  EXPECT_THROW(svc::parse_control_text("launch a\n"), svc::ControlError);
  EXPECT_THROW(svc::parse_control_text("at x submit a\n"),
               svc::ControlError);
  EXPECT_THROW(svc::parse_control_text("status now\n"), svc::ControlError);
  // runs > 1 without a recurrence interval cannot be scheduled.
  EXPECT_THROW(svc::parse_control_text("submit a runs 3\n"),
               svc::ControlError);
  // Out-of-range values are rejected naming the key and the value: runs is
  // 32 bits wide and never truncated, and a thread count is bounded before
  // any pool could be asked for it.
  const auto rejects_naming = [](const char* line, const char* key,
                                 const char* value) {
    try {
      svc::parse_control_text(line);
      ADD_FAILURE() << line << " parsed";
    } catch (const svc::ControlError& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find(key), std::string::npos) << what;
      EXPECT_NE(what.find(value), std::string::npos) << what;
    }
  };
  rejects_naming("submit j runs 4294967297 recur 1\n", "runs", "4294967297");
  rejects_naming("submit j runs 4294967296\n", "runs", "4294967296");
  rejects_naming("submit j threads 100000\n", "threads", "100000");
  rejects_naming("submit j threads 257\n", "threads", "257");
  EXPECT_EQ(svc::parse_control_text("submit j runs 4294967295 recur 1\n")
                .at(0)
                .spec.runs,
            4294967295u);
  EXPECT_EQ(
      svc::parse_control_text("submit j threads 256\n").at(0).spec.threads,
      256);
}

TEST(SvcControl, MissingFileIsEmptyScript) {
  EXPECT_TRUE(svc::read_control_file("/nonexistent/control").empty());
}

// --- mutation lane: the control grammar --------------------------------
//
// Every mutant of a script that uses every submit key, `at`, comments and
// CRLF line ends must parse or throw ControlError. Any other exception — or
// a sanitizer report in the asan_faults / ubsan_net lanes — is a parser bug.

constexpr std::string_view kMutationScript =
    "# every key, deferred commands, CRLF line ends\r\n"
    "submit alpha scale 0.02 seed 7 study-seed 11 threads 2 "
    "scenario forwarding,alignment fault-rate 0.05 fault-seed 99 "
    "priority -3 recur 5 runs 4 nets 4,9,12\r\n"
    "status   # trailing comment\r\n"
    "\r\n"
    "at 12 submit beta scale 0.004 nets 7\r\n"
    "at 30 drain\n";

void parses_or_rejects(std::string_view text, const std::string& which) {
  try {
    svc::parse_control_text(text);
  } catch (const svc::ControlError&) {
  } catch (const std::exception& e) {
    ADD_FAILURE() << which << " escaped as a non-control error: " << e.what();
  } catch (...) {
    ADD_FAILURE() << which << " escaped as a non-standard exception";
  }
}

TEST(SvcControlMutation, SeededByteFlipsParseOrReject) {
  const auto commands = svc::parse_control_text(kMutationScript);
  ASSERT_EQ(commands.size(), 4u);
  const svc::JobSpec& alpha = commands[0].spec;
  EXPECT_EQ(alpha.study_seed, 11u);
  EXPECT_EQ(alpha.threads, 2);
  EXPECT_EQ(alpha.scenario, "forwarding,alignment");
  EXPECT_EQ(alpha.fault_seed, 99u);
  EXPECT_EQ(alpha.priority, -3);
  EXPECT_EQ(alpha.runs, 4u);
  EXPECT_EQ(alpha.nets, (std::vector<std::uint64_t>{4, 9, 12}));
  EXPECT_EQ(commands[3].kind, svc::Command::Kind::Drain);
  EXPECT_EQ(commands[3].at_tick, 30u);

  util::Rng rng(0xC0471);
  for (int i = 0; i < 2000; ++i) {
    std::string mutated(kMutationScript);
    const std::uint64_t flips = rng.uniform(1, 4);
    for (std::uint64_t f = 0; f < flips; ++f) {
      mutated[rng.uniform(0, mutated.size() - 1)] ^=
          static_cast<char>(rng.uniform(1, 255));
    }
    parses_or_rejects(mutated, "flip case " + std::to_string(i));
  }
}

TEST(SvcControlMutation, EveryTruncationParsesOrRejects) {
  for (std::size_t cut = 0; cut <= kMutationScript.size(); ++cut) {
    parses_or_rejects(kMutationScript.substr(0, cut),
                      "truncation at " + std::to_string(cut));
  }
}

// --- job spec codec ---

TEST(SvcSpecCodec, RoundTrips) {
  svc::JobSpec spec;
  spec.id = "codec-job";
  spec.scale = 0.015;
  spec.seed = 99;
  spec.study_seed = 777;
  spec.threads = 4;
  spec.scenario = "forwarding";
  spec.fault_rate = 0.01;
  spec.fault_seed = 0xBEEF;
  spec.priority = -2;
  spec.recur = 9;
  spec.runs = 3;
  spec.nets = {3, 8, 21};

  snapshot::Writer w;
  spec.encode(w);
  snapshot::Reader r(w.bytes());
  const svc::JobSpec back = svc::JobSpec::decode(r);
  EXPECT_TRUE(r.done());
  EXPECT_EQ(back, spec);
}

TEST(SvcSpecCodec, TargetNetworksDeterministicAndSeedKeyed) {
  svc::JobSpec spec;
  spec.id = "nets";
  spec.scale = 0.05;
  const auto nets1 = svc::target_networks(spec);
  const auto nets2 = svc::target_networks(spec);
  EXPECT_EQ(nets1, nets2);
  EXPECT_FALSE(nets1.empty());
  EXPECT_TRUE(std::is_sorted(nets1.begin(), nets1.end()));

  svc::JobSpec other = spec;
  other.seed = 4242;
  EXPECT_NE(svc::target_networks(other), nets1);

  // An explicit override wins, deduplicated and sorted.
  spec.nets = {9, 4, 9};
  EXPECT_EQ(svc::target_networks(spec), (std::vector<std::uint64_t>{4, 9}));
}

// --- admission controller ---

svc::AdmissionConfig tight_admission() {
  svc::AdmissionConfig config;
  config.bucket_capacity = 1;
  config.bucket_refill = 1;
  config.breaker_threshold = 2;
  config.breaker_cooldown = 3;
  config.defer_budget = 16;
  return config;
}

TEST(SvcAdmission, TokenBucketChargesAndRefills) {
  svc::AdmissionController admission(tight_admission());
  const std::vector<std::uint64_t> nets{7};
  int budget = 16;
  EXPECT_EQ(admission.decide(nets, budget), svc::Decision::Admit);
  EXPECT_EQ(admission.decide(nets, budget), svc::Decision::Defer);
  EXPECT_EQ(budget, 15);
  admission.refill();
  EXPECT_EQ(admission.decide(nets, budget), svc::Decision::Admit);
}

TEST(SvcAdmission, BreakerOpensAfterConsecutiveDeferralsAndCoolsDown) {
  svc::AdmissionController admission(tight_admission());
  const std::vector<std::uint64_t> nets{5};
  int budget = 16;
  ASSERT_EQ(admission.decide(nets, budget), svc::Decision::Admit);
  // Two consecutive token-short deferrals open the breaker (threshold 2).
  EXPECT_EQ(admission.decide(nets, budget), svc::Decision::Defer);
  EXPECT_EQ(admission.decide(nets, budget), svc::Decision::Defer);
  EXPECT_EQ(admission.breaker_trips(), 1u);
  EXPECT_EQ(admission.open_breakers(), std::vector<std::uint64_t>{5});
  // While open, even a refilled bucket defers.
  admission.refill();
  EXPECT_EQ(admission.decide(nets, budget), svc::Decision::Defer);
  // Cool-down elapses (3 ticks from the trip; one refill consumed above).
  admission.refill();
  admission.refill();
  EXPECT_TRUE(admission.open_breakers().empty());
  EXPECT_EQ(admission.decide(nets, budget), svc::Decision::Admit);
}

TEST(SvcAdmission, ExhaustedDeferBudgetForcesRun) {
  svc::AdmissionController admission(tight_admission());
  const std::vector<std::uint64_t> nets{3};
  int budget = 1;
  ASSERT_EQ(admission.decide(nets, budget), svc::Decision::Admit);
  EXPECT_EQ(admission.decide(nets, budget), svc::Decision::Defer);
  EXPECT_EQ(budget, 0);
  // Budget gone: the job runs anyway instead of starving.
  EXPECT_EQ(admission.decide(nets, budget), svc::Decision::ForceRun);
}

TEST(SvcAdmission, CodecRoundTripsMidStream) {
  svc::AdmissionController admission(tight_admission());
  const std::vector<std::uint64_t> a{1, 2}, b{2, 3};
  int budget = 16;
  admission.decide(a, budget);
  admission.decide(b, budget);
  admission.decide(b, budget);
  admission.refill();

  snapshot::Writer w;
  admission.encode(w);
  snapshot::Reader r(w.bytes());
  const svc::AdmissionController back = svc::AdmissionController::decode(r);
  EXPECT_TRUE(r.done());
  EXPECT_EQ(back, admission);
}

TEST(SvcAdmission, DecodeRejectsOutOfRangeState) {
  // Hand-craft a stream whose network state breaks the invariants: tokens
  // above the bucket capacity must be refused, not silently clamped.
  snapshot::Writer w;
  w.i64(1);   // bucket_capacity
  w.i64(1);   // bucket_refill
  w.i64(2);   // breaker_threshold
  w.i64(3);   // breaker_cooldown
  w.i64(16);  // defer_budget
  w.u64(0);   // breaker_trips
  w.u32(1);   // one network
  w.u64(7);
  w.i64(99);  // tokens > capacity
  w.i64(0);
  w.i64(0);
  snapshot::Reader r(w.bytes());
  EXPECT_THROW(svc::AdmissionController::decode(r),
               snapshot::SnapshotError);
}

// --- service loop ---

// Run a service over the given control script until it drains; returns the
// final event log text.
std::string run_to_drain(const svc::SvcConfig& config) {
  svc::ServiceLoop loop(config);
  EXPECT_EQ(loop.run(), svc::ServiceLoop::Status::Drained);
  return read_file(config.dir + "/events.log");
}

TEST(SvcService, RunsJobsToReportsAndDrains) {
  const std::string dir = scratch_dir("run");
  svc::SvcConfig config = small_config(dir);
  config.metrics_path = dir + "/metrics.jsonl";
  write_file(config.control,
             std::string("submit a ") + kTinyScale + "\n" +
                 "submit b " + kTinyScale + " seed 4\ndrain\n");

  svc::ServiceLoop loop(config);
  ASSERT_EQ(loop.run(), svc::ServiceLoop::Status::Drained);
  EXPECT_EQ(loop.job_phase("a"), svc::JobPhase::Done);
  EXPECT_EQ(loop.job_phase("b"), svc::JobPhase::Done);
  EXPECT_FALSE(loop.job_phase("nope").has_value());

  const std::string report_a = read_file(config.dir + "/a.report");
  EXPECT_NE(report_a.find("spfail svc report: job a"), std::string::npos);
  EXPECT_NE(report_a.find("rounds 34"), std::string::npos);
  const std::string report_b = read_file(config.dir + "/b.report");
  EXPECT_NE(report_b, report_a);  // different seed, different population

  // Per-job progress gauges reach both exporters (the acceptance surface).
  const std::string jsonl = read_file(config.metrics_path);
  EXPECT_NE(jsonl.find("svc_job_phase{job=\\\"a\\\"}"), std::string::npos);
  EXPECT_NE(jsonl.find("svc_job_rounds{job=\\\"a\\\"}"), std::string::npos);
  const std::string prom = read_file(config.metrics_path + ".prom");
  EXPECT_NE(prom.find("svc_job_phase{job=\"a\"}"), std::string::npos);
  EXPECT_NE(prom.find("svc_job_rounds{job=\"b\"}"), std::string::npos);
  EXPECT_NE(prom.find("svc_admission_wait_ticks_bucket"), std::string::npos);
}

TEST(SvcService, BackpressureQueuesBeyondMaxActiveByPriority) {
  const std::string dir = scratch_dir("backpressure");
  svc::SvcConfig config = small_config(dir);
  config.max_active_jobs = 1;
  write_file(config.control,
             std::string("submit low ") + kTinyScale + " priority 1\n" +
                 "submit high " + kTinyScale + " seed 5 priority 9\n" +
                 "drain\n");
  const std::string events = run_to_drain(config);
  // Both were submitted on tick 0; the higher priority one admits first
  // even though it was submitted second.
  const std::size_t high_admit = events.find("admitted job=high");
  const std::size_t low_admit = events.find("admitted job=low");
  ASSERT_NE(high_admit, std::string::npos);
  ASSERT_NE(low_admit, std::string::npos);
  EXPECT_LT(high_admit, low_admit);
  // And the deferred one's first admission attempt logged nothing — it was
  // capacity backpressure, not an admission-controller deferral.
  EXPECT_EQ(events.find("deferred job=low"), std::string::npos);
}

TEST(SvcService, NetworkContentionDefersThenBreakerTrips) {
  const std::string dir = scratch_dir("contention");
  svc::SvcConfig config = small_config(dir);
  config.max_active_jobs = 4;
  config.admission.bucket_capacity = 1;
  config.admission.bucket_refill = 0;  // nothing comes back: forces a streak
  config.admission.breaker_threshold = 2;
  config.admission.breaker_cooldown = 2;
  config.admission.defer_budget = 3;
  // Same explicit network: the second job must defer behind the first,
  // trip the breaker, exhaust its budget, and finally force-run.
  write_file(config.control,
             std::string("submit first ") + kTinyScale + " nets 7\n" +
                 "submit second " + kTinyScale + " seed 5 nets 7\n" +
                 "drain\n");
  const std::string events = run_to_drain(config);
  EXPECT_NE(events.find("admitted job=first"), std::string::npos);
  EXPECT_NE(events.find("deferred job=second"), std::string::npos);
  EXPECT_NE(events.find("force-run job=second"), std::string::npos);

  // The breaker trip is visible in the admission log and both reports exist.
  read_file(config.dir + "/first.report");
  read_file(config.dir + "/second.report");
}

// The admission/deferral stream must not depend on how many threads each
// job's scan engine uses: the schedule is serial service state.
TEST(SvcServiceDeterminism, EventLogInvariantAcrossJobThreadCounts) {
  std::vector<std::string> logs;
  for (const int threads : {1, 2, 8}) {
    const std::string dir =
        scratch_dir("threads" + std::to_string(threads));
    svc::SvcConfig config = small_config(dir);
    config.max_active_jobs = 2;
    config.admission.bucket_capacity = 1;
    write_file(config.control,
               std::string("submit a ") + kTinyScale + " threads " +
                   std::to_string(threads) + " nets 3\n" +
                   "submit b " + kTinyScale + " seed 5 threads " +
                   std::to_string(threads) + " nets 3\n" +
                   "at 3 submit c " + kTinyScale + " seed 9 threads " +
                   std::to_string(threads) + "\n" +
                   "drain\n");
    std::string events = run_to_drain(config);
    // The thread count appears in no event line, so the logs must match
    // byte for byte.
    logs.push_back(std::move(events));
  }
  EXPECT_EQ(logs[0], logs[1]);
  EXPECT_EQ(logs[0], logs[2]);
}

// Reports are byte-identical across job thread counts too (the underlying
// study guarantee, re-checked through the service path).
TEST(SvcServiceDeterminism, ReportsInvariantAcrossJobThreadCounts) {
  std::vector<std::string> reports;
  for (const int threads : {1, 4}) {
    const std::string dir =
        scratch_dir("rthreads" + std::to_string(threads));
    svc::SvcConfig config = small_config(dir);
    write_file(config.control,
               std::string("submit a ") + kTinyScale + " threads " +
                   std::to_string(threads) +
                   " scenario forwarding\ndrain\n");
    run_to_drain(config);
    reports.push_back(read_file(config.dir + "/a.report"));
  }
  EXPECT_EQ(reports[0], reports[1]);
  EXPECT_NE(reports[0].find("scenario forwarding"), std::string::npos);
}

// Kill the service at every hook point of several ticks; each restart must
// finish with byte-identical reports, event log, and metric files. A kill
// after the log append leaves the logs a tick ahead of svc_state (at tick 0,
// with no svc_state at all), so the restart must cut them back.
TEST(SvcServiceRestart, KillAnywhereRestartsByteIdentical) {
  using KP = svc::KillPoint;
  struct Script {
    std::string name;
    std::string control;
    int max_active_jobs;
    std::vector<std::string> jobs;
    std::vector<std::pair<std::uint64_t, KP>> kills;
  };
  const std::vector<Script> scripts{
      // Two jobs contending for one network: the second runs behind the
      // first.
      {"contend",
       std::string("submit a ") + kTinyScale + " nets 2\n" + "submit b " +
           kTinyScale + " seed 5 nets 2\n" + "drain\n",
       2,
       {"a", "b"},
       {{0, KP::AfterAdmission},
        {0, KP::AfterLogAppend},
        {1, KP::AfterJobCheckpoint},
        {2, KP::AfterStateSave},
        {3, KP::AfterLogAppend},
        {4, KP::AfterJobCheckpoint},
        {4, KP::AfterReportWrite},
        {5, KP::AfterStateSave}}},
      // Three jobs side by side on every tick: a kill at the first job's
      // checkpoint or report lands after the other two computed that tick
      // but before their side effects were committed.
      {"side",
       std::string("submit a ") + kTinyScale + " nets 1\n" + "submit b " +
           kTinyScale + " seed 5 nets 2\n" + "submit c " + kTinyScale +
           " seed 9 nets 3\n" + "drain\n",
       3,
       {"a", "b", "c"},
       {{1, KP::AfterJobCheckpoint},
        {2, KP::AfterLogAppend},
        {3, KP::AfterJobCheckpoint},
        {4, KP::AfterReportWrite},
        {4, KP::AfterLogAppend}}},
  };

  for (const Script& script : scripts) {
    const auto config_in = [&script](const std::string& dir) {
      svc::SvcConfig config = small_config(dir);
      config.max_active_jobs = script.max_active_jobs;
      config.admission.bucket_capacity = 1;
      config.metrics_path = dir + "/metrics.jsonl";
      write_file(config.control, script.control);
      return config;
    };
    const auto outputs = [&script](const svc::SvcConfig& config) {
      std::vector<std::string> files;
      for (const std::string& job : script.jobs) {
        files.push_back(read_file(config.dir + "/" + job + ".report"));
      }
      files.push_back(read_file(config.dir + "/events.log"));
      files.push_back(read_file(config.metrics_path));
      files.push_back(read_file(config.metrics_path + ".prom"));
      return files;
    };

    // Uninterrupted baseline.
    const svc::SvcConfig base =
        config_in(scratch_dir("kill_" + script.name + "_base"));
    run_to_drain(base);
    const std::vector<std::string> want = outputs(base);

    for (const auto& [tick, point] : script.kills) {
      const svc::SvcConfig config = config_in(scratch_dir(
          "kill_" + script.name + "_t" + std::to_string(tick) + "_p" +
          std::to_string(static_cast<int>(point))));
      svc::ServiceOptions options;
      options.kill_at = svc::ServiceOptions::KillAt{tick, point};
      {
        svc::ServiceLoop victim(config, options);
        ASSERT_EQ(victim.run(), svc::ServiceLoop::Status::Killed)
            << script.name << " tick " << tick;
      }
      {
        svc::ServiceLoop revived(config);
        ASSERT_EQ(revived.run(), svc::ServiceLoop::Status::Drained)
            << script.name << " tick " << tick;
      }
      const std::vector<std::string> got = outputs(config);
      ASSERT_EQ(got.size(), want.size());
      for (std::size_t i = 0; i < want.size(); ++i) {
        EXPECT_EQ(got[i], want[i]) << script.name << " tick " << tick
                                   << " point " << static_cast<int>(point)
                                   << " output " << i;
      }
    }
  }
}

TEST(SvcServiceRestart, RecurringJobRunsTwiceWithIdenticalReports) {
  const std::string dir = scratch_dir("recur");
  svc::SvcConfig config = small_config(dir);
  write_file(config.control,
             std::string("submit cron ") + kTinyScale +
                 " recur 3 runs 2\nat 40 drain\n");
  const std::string events = run_to_drain(config);
  EXPECT_NE(events.find("done job=cron run=1"), std::string::npos);
  EXPECT_NE(events.find("done job=cron run=2"), std::string::npos);
  // Same spec, same seeds: the recurring re-scan reproduces the report
  // byte for byte (nothing in the simulated world changed between runs).
  EXPECT_EQ(read_file(config.dir + "/cron.report"),
            read_file(config.dir + "/cron.run2.report"));
}

TEST(SvcServiceRestart, CorruptStateFileIsRejected) {
  const std::string dir = scratch_dir("corrupt");
  svc::SvcConfig config = small_config(dir);
  config.max_ticks = 2;  // stop mid-run with live state
  write_file(config.control, std::string("submit a ") + kTinyScale + "\n");
  {
    svc::ServiceLoop loop(config);
    ASSERT_EQ(loop.run(), svc::ServiceLoop::Status::MaxTicks);
  }
  std::string state = read_file(config.dir + "/svc_state");
  state[state.size() / 2] ^= 0x5A;
  write_file(config.dir + "/svc_state", state);
  svc::ServiceLoop loop(config);
  EXPECT_THROW(loop.run(), snapshot::SnapshotError);
}

// The container body of a saved svc_state file.
std::string state_payload(const std::string& file) {
  return std::string(snapshot::open_file(file, snapshot::kSvcStateFile));
}

// `payload` framed as an svc_state file with a fresh checksum, so only
// restore's field decoders and value checks can refuse it.
std::string reframe_state(std::string_view payload) {
  snapshot::Writer w;
  const std::size_t slot = snapshot::begin_file(w, snapshot::kSvcStateFile);
  w.raw(payload);
  snapshot::end_file(w, slot);
  return w.take();
}

// One field of the first job record in a saved svc_state.
enum class RecordField { Phase, Run, RoundsDone };

// Overwrites `field` of job record 0 with `value` and re-frames the file
// with a valid checksum, so only restore's value checks can refuse it.
void patch_first_job(const std::string& path, RecordField field,
                     std::uint64_t value) {
  std::string payload = state_payload(read_file(path));
  snapshot::Reader r(payload);
  r.u64();      // completed ticks
  r.u64();      // seq counter
  r.u64();      // commands consumed
  r.boolean();  // drain
  ASSERT_GE(r.u32(), 1u);
  svc::JobSpec::decode(r);
  r.u64();  // seq
  // The record continues: phase u8, run u32, rounds_done u64, ...
  const std::size_t phase_at = payload.size() - r.remaining();
  snapshot::Writer w;
  std::size_t at = phase_at;
  switch (field) {
    case RecordField::Phase:
      w.u8(static_cast<std::uint8_t>(value));
      break;
    case RecordField::Run:
      w.u32(static_cast<std::uint32_t>(value));
      at = phase_at + 1;
      break;
    case RecordField::RoundsDone:
      w.u64(value);
      at = phase_at + 1 + 4;
      break;
  }
  payload.replace(at, w.bytes().size(), w.bytes());
  write_file(path, reframe_state(payload));
}

// A record whose values no service could have saved is refused even when
// its checksum is valid: rounds past the study, run numbers outside
// [1, runs], and the intra-tick phases Admitted and Running.
TEST(SvcServiceRestart, RejectsOutOfRangeJobRecords) {
  struct Case {
    const char* name;
    RecordField field;
    std::uint64_t value;
    bool valid;
  };
  for (const Case& c : {
           Case{"rounds-as-saved", RecordField::RoundsDone, 16, true},
           Case{"rounds-past-study", RecordField::RoundsDone, 99, false},
           Case{"run-zero", RecordField::Run, 0, false},
           Case{"run-past-runs", RecordField::Run, 2, false},
           Case{"phase-admitted", RecordField::Phase,
                static_cast<std::uint64_t>(svc::JobPhase::Admitted), false},
           Case{"phase-running", RecordField::Phase,
                static_cast<std::uint64_t>(svc::JobPhase::Running), false},
       }) {
    const std::string dir = scratch_dir(std::string("range_") + c.name);
    svc::SvcConfig config = small_config(dir);
    write_file(config.control,
               std::string("submit a ") + kTinyScale + "\ndrain\n");
    config.max_ticks = 2;  // a is Checkpointed at 16 of 34 rounds
    {
      svc::ServiceLoop loop(config);
      ASSERT_EQ(loop.run(), svc::ServiceLoop::Status::MaxTicks) << c.name;
    }
    patch_first_job(config.dir + "/svc_state", c.field, c.value);
    config.max_ticks = 0;
    svc::ServiceLoop loop(config);
    if (c.valid) {
      EXPECT_EQ(loop.run(), svc::ServiceLoop::Status::Drained) << c.name;
    } else {
      EXPECT_THROW(loop.run(), snapshot::SnapshotError) << c.name;
    }
  }
}

// A job that fails while the tick's jobs run side by side surfaces at its
// place in submit order: the jobs before it commit their tick, the ones
// after it and the service state stay as the last completed tick left them.
TEST(SvcService, JobFailureSurfacesInSubmitOrder) {
  const std::string dir = scratch_dir("failure_order");
  svc::SvcConfig config = small_config(dir);
  config.max_active_jobs = 3;
  config.max_ticks = 2;
  write_file(config.control,
             std::string("submit a ") + kTinyScale + " nets 1\n" +
                 "submit b " + kTinyScale + " seed 5 nets 2\n" +
                 "submit c " + kTinyScale + " seed 9 nets 3\ndrain\n");
  {
    svc::ServiceLoop loop(config);
    ASSERT_EQ(loop.run(), svc::ServiceLoop::Status::MaxTicks);
    for (const char* id : {"a", "b", "c"}) {
      ASSERT_EQ(loop.job_phase(id), svc::JobPhase::Checkpointed) << id;
    }
  }
  const std::string a_before = read_file(config.dir + "/a.ckpt");
  const std::string c_before = read_file(config.dir + "/c.ckpt");
  const std::string state_before = read_file(config.dir + "/svc_state");
  std::string b = read_file(config.dir + "/b.ckpt");
  b[b.size() / 2] ^= 0x5A;
  write_file(config.dir + "/b.ckpt", b);

  config.max_ticks = 0;
  svc::ServiceLoop loop(config);
  EXPECT_THROW(loop.run(), snapshot::SnapshotError);
  // Binary files: compare without printing them.
  EXPECT_TRUE(read_file(config.dir + "/a.ckpt") != a_before)
      << "a committed its tick before b failed";
  EXPECT_TRUE(read_file(config.dir + "/c.ckpt") == c_before)
      << "c's tick must not be committed after b failed";
  EXPECT_TRUE(read_file(config.dir + "/svc_state") == state_before)
      << "the failed tick must not save svc_state";
}

// The service's outputs for one fixed script, pinned by fnv1a and length:
// three slots, a recurring job, a scenario job, and two jobs contending for
// one network. The constants were captured from the service that advanced
// its jobs one after another on the loop's thread; running them side by
// side must not move a byte. scen.report was re-pinned when the per-round
// scenario replay and its ` rounds N` report field were deleted.
TEST(SvcGolden, ServiceOutputsArePinned) {
  const std::string dir = scratch_dir("golden");
  svc::SvcConfig config = small_config(dir);
  config.max_active_jobs = 3;
  config.admission.bucket_capacity = 1;
  config.metrics_path = dir + "/metrics.jsonl";
  write_file(config.control,
             std::string("submit p ") + kTinyScale + " nets 7\n" +
                 "submit q " + kTinyScale + " seed 5 nets 7\n" +
                 "submit cron " + kTinyScale +
                 " seed 9 recur 2 runs 2\n" + "submit scen " + kTinyScale +
                 " seed 11 scenario forwarding\n" +
                 "at 30 drain\n");
  run_to_drain(config);

  struct Golden {
    std::string path;
    std::size_t length;
    std::uint64_t digest;
  };
  for (const Golden& golden : {
           Golden{config.dir + "/events.log", 1620, 15104564440667049906ULL},
           Golden{config.dir + "/p.report", 275, 17169423421168214697ULL},
           Golden{config.dir + "/q.report", 269, 2827512260364495501ULL},
           Golden{config.dir + "/cron.report", 272, 10202069978301699089ULL},
           Golden{config.dir + "/cron.run2.report", 272, 10202069978301699089ULL},
           Golden{config.dir + "/scen.report", 347, 11159554828281053213ULL},
           Golden{config.metrics_path, 24657, 14524132331956941651ULL},
           Golden{config.metrics_path + ".prom", 1334,
                  13623796568452344580ULL},
       }) {
    const std::string text = read_file(golden.path);
    EXPECT_EQ(text.size(), golden.length) << golden.path;
    EXPECT_EQ(util::fnv1a(text), golden.digest) << golden.path;
  }
}

TEST(SvcService, StatusCommandWritesStatusFile) {
  const std::string dir = scratch_dir("status");
  svc::SvcConfig config = small_config(dir);
  write_file(config.control, std::string("submit a ") + kTinyScale +
                                 "\nat 2 status\nat 2 drain\n");
  run_to_drain(config);
  const std::string status = read_file(config.dir + "/status.txt");
  EXPECT_NE(status.find("tick 2"), std::string::npos);
  EXPECT_NE(status.find("job a phase"), std::string::npos);
}

TEST(SvcService, DuplicateJobIdIsFatal) {
  const std::string dir = scratch_dir("dup");
  svc::SvcConfig config = small_config(dir);
  write_file(config.control, std::string("submit a ") + kTinyScale + "\n" +
                                 "submit a " + kTinyScale + "\ndrain\n");
  svc::ServiceLoop loop(config);
  EXPECT_THROW(loop.run(), svc::ControlError);
}

TEST(SvcService, MaxTicksBoundsAnIdleService) {
  const std::string dir = scratch_dir("idle");
  svc::SvcConfig config = small_config(dir);
  config.max_ticks = 3;
  write_file(config.control, "# nothing yet\n");
  svc::ServiceLoop loop(config);
  EXPECT_EQ(loop.run(), svc::ServiceLoop::Status::MaxTicks);
  EXPECT_EQ(loop.ticks(), 3u);
}

// --- bounded state: svc_state commits log lengths, not log lines ---

TEST(SvcState, StateSizeIsFlatAcrossTicks) {
  // An idle service appends a metrics line every tick; the state file must
  // not grow with them.
  const std::string dir = scratch_dir("flat");
  svc::SvcConfig config = small_config(dir);
  config.metrics_path = dir + "/metrics.jsonl";
  write_file(config.control, "# idle\n");
  std::vector<std::uintmax_t> sizes;
  for (const std::uint64_t ticks : {50, 500}) {
    config.max_ticks = ticks;
    svc::ServiceLoop loop(config);
    ASSERT_EQ(loop.run(), svc::ServiceLoop::Status::MaxTicks);
    sizes.push_back(std::filesystem::file_size(config.dir + "/svc_state"));
  }
  EXPECT_EQ(sizes[0], sizes[1]);
  const std::string jsonl = read_file(config.metrics_path);
  EXPECT_EQ(std::count(jsonl.begin(), jsonl.end(), '\n'), 500);
}

TEST(SvcServiceRestart, LogShorterThanCommittedIsRefused) {
  // svc_state commits each log's length; a log that lost committed bytes,
  // or a restart that no longer names the metrics file, cannot continue it.
  const std::string dir = scratch_dir("short_log");
  svc::SvcConfig config = small_config(dir);
  config.metrics_path = dir + "/metrics.jsonl";
  config.max_ticks = 2;
  write_file(config.control,
             std::string("submit a ") + kTinyScale + "\ndrain\n");
  {
    svc::ServiceLoop loop(config);
    ASSERT_EQ(loop.run(), svc::ServiceLoop::Status::MaxTicks);
  }
  const std::string events = read_file(config.dir + "/events.log");
  const std::string jsonl = read_file(config.metrics_path);
  ASSERT_FALSE(events.empty());
  ASSERT_FALSE(jsonl.empty());

  const auto expect_refused = [&config](const std::string& which) {
    svc::ServiceLoop loop(config);
    EXPECT_THROW(loop.run(), snapshot::SnapshotError) << which;
  };
  write_file(config.dir + "/events.log", events.substr(0, events.size() - 1));
  expect_refused("short event log");
  std::filesystem::remove(config.dir + "/events.log");
  expect_refused("missing event log");
  write_file(config.dir + "/events.log", events);
  write_file(config.metrics_path, jsonl.substr(0, jsonl.size() - 1));
  expect_refused("short metrics JSONL");
  write_file(config.metrics_path, jsonl);
  config.metrics_path.clear();
  expect_refused("metrics off");

  // Whole logs restore, and bytes past the committed length are cut.
  config.metrics_path = dir + "/metrics.jsonl";
  write_file(config.dir + "/events.log", events + "tick 2: torn\n");
  {
    svc::ServiceLoop loop(config);
    ASSERT_EQ(loop.run(), svc::ServiceLoop::Status::MaxTicks);
    EXPECT_EQ(loop.events().size(),
              static_cast<std::size_t>(
                  std::count(events.begin(), events.end(), '\n')));
  }
  EXPECT_EQ(read_file(config.dir + "/events.log"), events);
  EXPECT_EQ(read_file(config.metrics_path), jsonl);
}

// --- mutation lane: corrupt svc_state payloads reach restore's decoders --
//
// Every case must restore or throw one of the three errors spfail_svc maps
// to exit 2 (SnapshotError, ScanConfigError, ControlError). Anything else —
// a std::bad_alloc from a count read off the file, say — or a sanitizer
// report in the asan_faults / ubsan_net lanes is a decoder bug. Each mutated
// payload is re-framed through the container with a fresh checksum, so the
// mutation reaches the field decoders instead of stopping at the checksum.

// The completed-tick counter: the payload's first field.
constexpr std::size_t kTickBytes = 8;

// A scratch directory named after the running test as well: ctest runs
// each case in its own process, in parallel, so a shared name would race.
std::string test_scratch_dir(const std::string& name) {
  return scratch_dir(
      name + "_" +
      testing::UnitTest::GetInstance()->current_test_info()->name());
}

// A saved service directory: svc_state and the event log it commits.
struct SavedState {
  std::string state;
  std::string events;
};

// A real multi-job state: three jobs (one with explicit nets, one
// recurring) stopped after two ticks, with admission, registry and event
// log filled in.
const SavedState& multi_job_saved() {
  static const SavedState saved = [] {
    const std::string dir = test_scratch_dir("mutation_base");
    svc::SvcConfig config = small_config(dir);
    config.max_ticks = 2;
    write_file(config.control,
               std::string("submit a ") + kTinyScale + "\n" + "submit b " +
                   kTinyScale + " seed 4 nets 7,9\n" + "submit c " +
                   kTinyScale + " recur 3 runs 2\n");
    svc::ServiceLoop loop(config);
    EXPECT_EQ(loop.run(), svc::ServiceLoop::Status::MaxTicks);
    return SavedState{read_file(config.dir + "/svc_state"),
                      read_file(config.dir + "/events.log")};
  }();
  return saved;
}

const std::string& multi_job_state() { return multi_job_saved().state; }

// Restores `state` in a scratch service directory, beside a fresh copy of
// the event log it was saved with (restore cuts the log to the length the
// state commits). max_ticks is below the saved tick counter, so run()
// returns straight after the restore without running a job.
svc::ServiceLoop::Status restore(const std::string& state) {
  static const std::string dir = test_scratch_dir("mutation_case");
  svc::SvcConfig config = small_config(dir);
  config.max_ticks = 1;
  std::filesystem::create_directories(config.dir);
  write_file(config.dir + "/svc_state", state);
  write_file(config.dir + "/events.log", multi_job_saved().events);
  svc::ServiceLoop loop(config);
  return loop.run();
}

// False when restore threw one of the errors spfail_svc maps to exit 2.
bool restores_or_rejects(const std::string& state, const std::string& which) {
  try {
    restore(state);
    return true;
  } catch (const snapshot::SnapshotError&) {
  } catch (const session::ScanConfigError&) {
  } catch (const svc::ControlError&) {
  } catch (const std::exception& e) {
    ADD_FAILURE() << which << " escaped as an unmapped error: " << e.what();
  }
  return false;
}

TEST(SvcStateMutation, SeededByteFlipsRestoreOrReject) {
  const std::string& state = multi_job_state();
  const std::string payload = state_payload(state);
  ASSERT_EQ(reframe_state(payload), state);  // the split is exact
  EXPECT_TRUE(restores_or_rejects(state, "unmutated state"));
  // Flips skip the tick counter: it is a plain u64 no decoder checks, and a
  // counter flipped below max_ticks would run a job on the mutated specs.
  util::Rng rng(0x5EED3);
  for (int i = 0; i < 300; ++i) {
    std::string mutated = payload;
    const std::uint64_t flips = rng.uniform(1, 4);
    for (std::uint64_t f = 0; f < flips; ++f) {
      mutated[rng.uniform(kTickBytes, mutated.size() - 1)] ^=
          static_cast<char>(rng.uniform(1, 255));
    }
    restores_or_rejects(reframe_state(mutated),
                        "flip case " + std::to_string(i));
  }
}

TEST(SvcStateMutation, EveryTruncationRestoresOrRejects) {
  const std::string& state = multi_job_state();
  const std::string payload = state_payload(state);
  for (std::size_t cut = 0; cut < payload.size(); ++cut) {
    EXPECT_FALSE(restores_or_rejects(
        reframe_state(std::string_view(payload).substr(0, cut)),
        "truncation at " + std::to_string(cut)))
        << "truncation at " << cut << " restored";
  }
}

// The payload with the u32 at `at` overwritten by 0xFFFFFFFF.
std::string inflate_count(std::string payload, std::size_t at) {
  snapshot::Writer count;
  count.u32(0xFFFFFFFFu);
  payload.replace(at, 4, count.bytes());
  return reframe_state(payload);
}

TEST(SvcStateMutation, InflatedJobCountIsRejectedBeforeReserving) {
  // tick, seq counter and commands consumed (u64 each), then drain (u8).
  constexpr std::size_t kJobCountAt = 3 * 8 + 1;
  const std::string payload = state_payload(multi_job_state());
  snapshot::Reader r(std::string_view(payload).substr(kJobCountAt));
  ASSERT_EQ(r.u32(), 3u);
  EXPECT_THROW(restore(inflate_count(payload, kJobCountAt)),
               snapshot::SnapshotError);
}

TEST(SvcStateMutation, InflatedNetCountIsRejectedBeforeReserving) {
  // Walk to the first job's nets count: the JobSpec fields before it.
  const std::string payload = state_payload(multi_job_state());
  snapshot::Reader r(payload);
  r.u64();
  r.u64();
  r.u64();
  r.boolean();
  ASSERT_EQ(r.u32(), 3u);
  r.str();  // id
  for (int i = 0; i < 4; ++i) r.u64();  // scale, seed, study seed, threads
  r.str();  // scenario
  for (int i = 0; i < 4; ++i) r.u64();  // rate, seed, priority, recur
  r.u32();  // runs
  const std::size_t net_count_at = payload.size() - r.remaining();
  ASSERT_EQ(r.u32(), 0u);  // job a derives its networks
  EXPECT_THROW(restore(inflate_count(payload, net_count_at)),
               snapshot::SnapshotError);
}

TEST(SvcStateMutation, IntFieldPastIntIsRejected) {
  // Walk to two int fields written as i64: the first job's threads, and
  // the admission controller's bucket capacity after the last job record.
  const std::string payload = state_payload(multi_job_state());
  // tick, seq counter, commands consumed, drain; returns the job count.
  const auto skip_header = [](snapshot::Reader& r) {
    r.u64();
    r.u64();
    r.u64();
    r.boolean();
    return r.u32();
  };
  snapshot::Reader first(payload);
  ASSERT_EQ(skip_header(first), 3u);
  first.str();  // id
  for (int i = 0; i < 3; ++i) first.u64();  // scale, seed, study seed
  const std::size_t threads_at = payload.size() - first.remaining();

  snapshot::Reader r(payload);
  const std::uint32_t job_count = skip_header(r);
  for (std::uint32_t i = 0; i < job_count; ++i) {
    svc::JobSpec::decode(r);
    r.u64();  // seq
    r.u8();   // phase
    r.u32();  // run
    for (int f = 0; f < 7; ++f) r.u64();  // rounds, ticks, budget, counts
  }
  const std::size_t capacity_at = payload.size() - r.remaining();
  ASSERT_EQ(r.i64(), svc::AdmissionConfig{}.bucket_capacity);

  // Flipping a bit of the high word moves the value 2^32 away: outside
  // int, where a truncating decode would read the field back unchanged
  // and the state would not re-encode to its own bytes.
  for (const std::size_t at : {threads_at, capacity_at}) {
    std::string mutated = payload;
    mutated[at + 4] ^= 1;
    EXPECT_THROW(restore(reframe_state(mutated)), snapshot::SnapshotError)
        << "high word of the i64 at " << at;
  }
}

TEST(SvcStateMutation, SmallestJobSpecEncodingIsTheDecodeBound) {
  // The bound restore divides by must never exceed a real encoding, or a
  // valid state would be refused.
  svc::JobSpec spec;
  spec.id.clear();
  snapshot::Writer w;
  spec.encode(w);
  EXPECT_EQ(w.bytes().size(), svc::JobSpec::kMinEncodedBytes);
}

// --- svc flag registry ---

TEST(SvcFlagRegistry, ParsesArgsOverEnvAndRejectsDuplicates) {
  const char* argv[] = {"spfail_svc", "--dir", "d", "--max-active-jobs",
                        "3", "--rounds-per-tick", "2"};
  const svc::SvcConfig config =
      svc::svc_config_from_args(7, argv);
  EXPECT_EQ(config.dir, "d");
  EXPECT_EQ(config.max_active_jobs, 3);
  EXPECT_EQ(config.rounds_per_tick, 2);

  const char* dup[] = {"spfail_svc", "--dir", "a", "--dir", "b"};
  EXPECT_THROW(svc::svc_config_from_args(5, dup),
               session::ScanConfigError);
  const char* bad[] = {"spfail_svc", "--max-active-jobs", "0"};
  EXPECT_THROW(svc::svc_config_from_args(3, bad),
               session::ScanConfigError);
  const char* unknown[] = {"spfail_svc", "--bogus"};
  EXPECT_THROW(svc::svc_config_from_args(2, unknown),
               session::ScanConfigError);
}

TEST(SvcFlagRegistry, FlagTableListsEveryFlag) {
  const std::string table = svc::svc_flag_table_markdown();
  for (const svc::SvcFlagDef& row : svc::svc_flag_registry()) {
    EXPECT_NE(table.find(row.flag), std::string::npos) << row.flag;
  }
}

}  // namespace
}  // namespace spfail
