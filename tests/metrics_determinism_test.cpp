// Determinism of the metric output surface (DESIGN.md §12): the JSONL round
// snapshots and the Prometheus exposition must be byte-identical at any
// thread count, and a run halted at a checkpoint and resumed in a fresh
// process must re-emit exactly the stream an uninterrupted run produces.
#include <gtest/gtest.h>

#include <cstdio>
#include <sstream>
#include <string>
#include <vector>

#include "obs/export.hpp"
#include "scratch_path.hpp"
#include "session/scan_session.hpp"

namespace spfail {
namespace {

session::ScanConfig metered_config() {
  session::ScanConfig config;
  config.scale = 0.004;
  config.faults.rate = 0.02;
  // Any non-empty path enables metrics; these tests never write the files.
  config.metrics_path = testutil::scratch_path("metrics_unwritten.jsonl");
  return config;
}

// The full metric output surface of a session, rendered to one string.
std::string metric_output(session::ScanSession& session) {
  std::ostringstream os;
  for (const std::string& line : session.metric_lines()) os << line << "\n";
  obs::write_prometheus(*session.metrics(), os);
  return os.str();
}

TEST(MetricsDeterminism, OutputIsThreadCountInvariant) {
  std::vector<std::string> outputs;
  for (const int threads : {1, 2, 8}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    session::ScanConfig config = metered_config();
    config.threads = threads;
    session::ScanSession session(config);
    ASSERT_NE(session.study(), nullptr);
    outputs.push_back(metric_output(session));
    EXPECT_FALSE(outputs.back().empty());
    EXPECT_EQ(outputs.back(), outputs.front());
  }
}

TEST(MetricsDeterminism, InitialOnlyCampaignIsThreadCountInvariant) {
  std::vector<std::string> outputs;
  for (const int threads : {1, 4}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    session::ScanConfig config = metered_config();
    config.initial_only = true;
    config.threads = threads;
    session::ScanSession session(config);
    session.initial();
    outputs.push_back(metric_output(session));
    EXPECT_FALSE(outputs.back().empty());
    EXPECT_EQ(outputs.back(), outputs.front());
  }
}

TEST(MetricsDeterminism, HaltAndResumeReEmitIdenticalMetricStream) {
  const std::string path = testutil::scratch_path("metrics_ckpt.bin");

  session::ScanConfig halting = metered_config();
  halting.checkpoint_path = path;
  halting.halt_after_rounds = 7;
  session::ScanSession first(halting);
  EXPECT_EQ(first.study(), nullptr);
  EXPECT_TRUE(first.halted());

  session::ScanConfig resuming = metered_config();
  resuming.resume_path = path;
  resuming.threads = 4;
  session::ScanSession second(resuming);
  ASSERT_NE(second.study(), nullptr);

  session::ScanConfig uninterrupted = metered_config();
  session::ScanSession third(uninterrupted);
  ASSERT_NE(third.study(), nullptr);

  EXPECT_EQ(metric_output(second), metric_output(third));
  std::remove(path.c_str());
}

TEST(MetricsDeterminism, RestoreRefusesMetricsPresenceMismatch) {
  population::FleetConfig fleet_config;
  fleet_config.scale = 0.004;
  fleet_config.seed = 2021;

  // Snapshot taken with metrics enabled...
  obs::Registry metrics;
  longitudinal::StudyConfig with_metrics;
  with_metrics.faults.rate = 0.02;
  with_metrics.metrics = &metrics;
  population::Fleet fleet(fleet_config);
  longitudinal::Study study(fleet, with_metrics);
  longitudinal::Study::State state = study.begin();
  const snapshot::StudySnapshot snap = study.capture(state);
  ASSERT_TRUE(snap.has_metrics);

  {
    // ...refuses to restore into a run with them disabled...
    longitudinal::StudyConfig without;
    without.faults.rate = 0.02;
    population::Fleet fresh(fleet_config);
    longitudinal::Study mismatched(fresh, without);
    EXPECT_THROW(mismatched.restore(snap), snapshot::SnapshotError);
  }
  {
    // ...and a metrics-off snapshot refuses a metrics-on run.
    longitudinal::StudyConfig without;
    without.faults.rate = 0.02;
    population::Fleet plain_fleet(fleet_config);
    longitudinal::Study plain(plain_fleet, without);
    longitudinal::Study::State plain_state = plain.begin();
    const snapshot::StudySnapshot plain_snap = plain.capture(plain_state);
    ASSERT_FALSE(plain_snap.has_metrics);

    obs::Registry other;
    longitudinal::StudyConfig wants_metrics;
    wants_metrics.faults.rate = 0.02;
    wants_metrics.metrics = &other;
    population::Fleet fresh(fleet_config);
    longitudinal::Study mismatched(fresh, wants_metrics);
    EXPECT_THROW(mismatched.restore(plain_snap), snapshot::SnapshotError);
  }
}

TEST(MetricsDeterminism, RestoredRegistryContinuesFromCheckpointedState) {
  population::FleetConfig fleet_config;
  fleet_config.scale = 0.004;
  fleet_config.seed = 2021;

  obs::Registry metrics;
  longitudinal::StudyConfig config;
  config.faults.rate = 0.02;
  config.metrics = &metrics;
  population::Fleet fleet(fleet_config);
  longitudinal::Study study(fleet, config);
  longitudinal::Study::State state = study.begin();
  study.run_round(state);
  study.run_round(state);
  const snapshot::StudySnapshot snap = study.capture(state);

  obs::Registry restored_metrics;
  longitudinal::StudyConfig resumed_config;
  resumed_config.faults.rate = 0.02;
  resumed_config.metrics = &restored_metrics;
  population::Fleet fresh(fleet_config);
  longitudinal::Study resumed(fresh, resumed_config);
  resumed.restore(snap);
  EXPECT_EQ(restored_metrics, metrics);
}

// --- flag plumbing ----------------------------------------------------------

TEST(MetricsConfig, FlagsParseAndValidate) {
  const char* argv[] = {"spfail_scan", "--metrics", "/tmp/m.jsonl",
                        "--metrics-wall"};
  const session::ScanConfig config = session::ScanConfig::from_args(4, argv);
  EXPECT_EQ(config.metrics_path, "/tmp/m.jsonl");
  EXPECT_TRUE(config.metrics());
  EXPECT_TRUE(config.metrics_wall);

  // --metrics-wall without --metrics has nowhere to write.
  const char* bad[] = {"spfail_scan", "--metrics-wall"};
  EXPECT_THROW(session::ScanConfig::from_args(2, bad),
               session::ScanConfigError);
}

TEST(MetricsConfig, EnvironmentIsHonoured) {
  ::setenv("SPFAIL_METRICS", "/tmp/env-metrics.jsonl", 1);
  ::setenv("SPFAIL_METRICS_WALL", "1", 1);
  const session::ScanConfig config = session::ScanConfig::from_env();
  EXPECT_EQ(config.metrics_path, "/tmp/env-metrics.jsonl");
  EXPECT_TRUE(config.metrics_wall);

  ::setenv("SPFAIL_METRICS_WALL", "maybe", 1);
  EXPECT_THROW(session::ScanConfig::from_env(), session::ScanConfigError);
  ::unsetenv("SPFAIL_METRICS_WALL");
  ::unsetenv("SPFAIL_METRICS");
}

}  // namespace
}  // namespace spfail
