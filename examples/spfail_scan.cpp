// spfail_scan: drive the whole measurement study from the command line —
// the operator tool the paper's authors effectively ran, against the
// simulated Internet.
//
//   usage: spfail_scan [--scale S] [--seed N] [--scenario NAMES]
//                      [--threads N] [--initial-only]
//                      [--sched auto|static|steal]
//                      [--steal-mode auto|none|random|adversarial]
//                      [--fault-rate R] [--fault-seed N] [--csv DIR]
//                      [--trace FILE] [--metrics FILE] [--metrics-wall]
//                      [--checkpoint FILE] [--checkpoint-every N]
//                      [--resume FILE] [--halt-after-rounds N]
//                      [--flag-table]
//
//   --scale S        population scale, 0 < S <= 1 (default 0.05)
//   --seed N         fleet seed (default 2021)
//   --scenario NAMES comma-separated attack-matrix scenarios (DESIGN.md §17):
//                    baseline, forwarding, alignment, misconfig. The fleet is
//                    staged with the specs' merged policy mix, the scan runs
//                    over it as usual, and one measured outcome table per
//                    spec is printed after the results (default:
//                    SPFAIL_SCENARIO). Scenario outcomes are bit-identical
//                    at any thread count and across halt/resume;
//                    `--scenario baseline` is byte-identical to no flag
//   --flag-table     print the generated markdown flag table (the README's
//                    "Flags" section) and exit
//   --threads N      scan worker threads (default: SPFAIL_THREADS, else all
//                    cores); results are bit-identical at any count
//   --initial-only   run only the 2021-10-11 measurement, skip the
//                    longitudinal study
//   --sched P        slice scheduler (DESIGN.md §16): `steal` (default)
//                    splits each phase into fine batches on per-worker
//                    work-stealing deques; `static` forces the legacy
//                    one-shard-per-thread split (default: SPFAIL_SCHED);
//                    outputs are byte-identical either way
//   --steal-mode M   stealing discipline under --sched steal: `random`
//                    (default), `none` (batches stay home), `adversarial`
//                    (every worker raids all victims before its own work —
//                    a determinism stress mode for tests; default:
//                    SPFAIL_STEAL)
//   --fault-rate R   inject transient faults (SMTP tempfails, connection
//                    drops, latency spikes) into R of all probe attempts,
//                    0 <= R <= 1 (default: SPFAIL_FAULT_RATE, else 0); a
//                    degradation report is printed when R > 0
//   --fault-seed N   fault-plan seed (default: SPFAIL_FAULT_SEED); same
//                    seed + rate => bit-identical run at any thread count
//   --csv DIR        also write figure series as CSV into DIR
//   --trace FILE     record every SMTP/DNS wire frame the scan exchanges as
//                    JSONL into FILE (default: SPFAIL_TRACE when set) and
//                    print a trace summary; the file is bit-identical at any
//                    thread count for a fixed seed
//   --metrics FILE   record deterministic metrics (DESIGN.md §12): per-round
//                    JSONL snapshots into FILE, the final Prometheus text
//                    exposition into FILE.prom, and print a summary table
//                    (default: SPFAIL_METRICS when set); both files are
//                    bit-identical at any thread count for a fixed seed, and
//                    across --halt-after-rounds / --resume
//   --metrics-wall   additionally record real wall-clock stage timings
//                    (<name>_wall_ns families; SPFAIL_METRICS_WALL=1). These
//                    are profiling data, not deterministic — they appear in
//                    the metric outputs only with this flag
//   --checkpoint FILE
//                    write a resumable snapshot of the study state to FILE
//                    (atomically, at round boundaries)
//   --checkpoint-every N
//                    checkpoint every N-th round boundary (default 1)
//   --resume FILE    restore a snapshot written by --checkpoint and continue;
//                    the finished run's stdout, CSVs, and trace are
//                    byte-identical to an uninterrupted run (seed, scale,
//                    fault plan, and tracing must match the snapshot)
//   --halt-after-rounds N
//                    stop after N longitudinal rounds, writing a final
//                    checkpoint (requires --checkpoint); exit code 0
//
// SIGINT/SIGTERM are caught: the run stops at the next round boundary,
// writes a final checkpoint when --checkpoint is set, and exits with code
// 130 (resume with --resume).
//
// All flags reject malformed values (e.g. `--threads x`, `--fault-rate 2`)
// with exit code 2 instead of silently coercing them.
#include <fstream>
#include <iostream>
#include <optional>
#include <string_view>

#include "net/trace_stats.hpp"
#include "obs/lane.hpp"
#include "report/tables.hpp"
#include "session/flag_registry.hpp"
#include "session/scan_session.hpp"
#include "util/shutdown.hpp"
#include "util/stats.hpp"
#include "util/strings.hpp"

using namespace spfail;

namespace {

void write_csv(const std::string& dir, const char* slug,
               const util::TextTable& table) {
  const std::string path = dir + "/" + slug + ".csv";
  std::ofstream out(path);
  if (!out) {
    std::cerr << "cannot write " << path << "\n";
    return;
  }
  table.to_csv(out);
  std::cout << "  wrote " << path << "\n";
}

// Write the trace as JSONL and print its summary table.
void emit_trace(const std::string& path, const net::WireTrace& trace) {
  std::ofstream out(path);
  if (!out) {
    std::cerr << "cannot write " << path << "\n";
    return;
  }
  trace.write_jsonl(out);
  std::cout << "\n" << report::trace_summary(net::TraceStats::from(trace))
            << "\n  wrote " << path << " (" << trace.size() << " frames)\n";
}

// Print the per-scenario outcome tables (--scenario). Reports that measured
// nothing (baseline, or a mix that stages no senders) are suppressed so a
// `--scenario baseline` run keeps stdout byte-identical to a scenario-less
// one.
void emit_scenarios(session::ScanSession& session) {
  std::vector<scenario::ScenarioReport> measured;
  for (const scenario::ScenarioReport& report : session.scenario_reports()) {
    const std::uint64_t flows =
        report.legit.flows + report.forwarded.flows + report.spoof.flows;
    if (report.domains_staged == 0 && flows == 0) continue;
    measured.push_back(report);
  }
  if (measured.empty()) return;
  std::cout << "\n" << report::scenario_outcomes(measured);
}

// Write the JSONL round snapshots + Prometheus exposition and print the
// metric summary table.
void emit_metrics(session::ScanSession& session) {
  const session::ScanConfig& config = session.config();
  session.write_metrics_files();
  std::cout << "\n"
            << report::metrics_summary(*session.metrics(), config.metrics_wall)
            << "\n  wrote " << config.metrics_path << " ("
            << session.metric_lines().size() << " snapshots)\n  wrote "
            << config.metrics_path << ".prom\n";
}

int run(const session::ScanConfig& config) {
  // Worker threads read this process-wide flag, so it is installed for the
  // whole run, before the session spawns anything.
  std::optional<obs::WallProfileScope> wall;
  if (config.metrics_wall) wall.emplace();

  session::ScanSession session(config);

  std::cout << "[1/3] Synthesising the Internet (scale " << config.scale
            << ", seed " << config.fleet_seed << ")...\n";
  population::Fleet& fleet = session.fleet();
  std::cout << "      "
            << util::with_commas(static_cast<long long>(fleet.domains().size()))
            << " domains, "
            << util::with_commas(static_cast<long long>(fleet.address_count()))
            << " MTA addresses\n";

  if (config.initial_only) {
    std::cout << "[2/3] Initial measurement (2021-10-11)...\n";
    const scan::CampaignReport& report = session.initial();
    std::cout << "[3/3] Results\n\n"
              << report::table3_outcomes(fleet, report) << "\n"
              << report::table4_breakdown(fleet, report) << "\n"
              << report::table7_behaviors(fleet, report) << "\n";
    if (config.faults.rate > 0.0) {
      std::cout << report::degradation_table(report.degradation) << "\n";
    }
    if (session.trace()) emit_trace(config.trace_path, *session.trace());
    if (session.metrics() != nullptr) emit_metrics(session);
    emit_scenarios(session);
    return 0;
  }

  std::cout << "[2/3] Four-month longitudinal study (initial scan, private\n"
               "      notification, public disclosure, 34 rounds, snapshot)"
               "...\n";
  const longitudinal::StudyReport* report = session.study();
  if (report == nullptr) {
    // Halted at a checkpoint (--halt-after-rounds or a caught termination
    // signal); the stderr status line already named the snapshot to resume
    // from. The metric stream so far rides in the checkpoint, so no partial
    // files are written here.
    return session.interrupted() ? 130 : 0;
  }

  std::cout << "[3/3] Results\n\n"
            << "Initial: "
            << util::with_commas(static_cast<long long>(
                   report->initially_vulnerable_addresses))
            << " vulnerable addresses hosting "
            << util::with_commas(static_cast<long long>(
                   report->initially_vulnerable_domains))
            << " domains\n\n"
            << report::fig2_final_distribution(fleet, *report) << "\n"
            << report::table5_tld_patch(fleet, *report) << "\n"
            << report::notification_funnel(*report) << "\n";

  for (const auto cohort :
       {longitudinal::Cohort::All, longitudinal::Cohort::AlexaTopList,
        longitudinal::Cohort::TwoWeekMx}) {
    const auto series = report::vulnerability_series(fleet, *report, cohort);
    std::cout << "  " << util::sparkline(series) << "  " << to_string(cohort)
              << " (% vulnerable over time)\n";
  }

  if (config.faults.rate > 0.0) {
    std::cout << "\n" << report::degradation_table(report->degradation) << "\n";
  }
  if (session.trace()) emit_trace(config.trace_path, *session.trace());
  if (session.metrics() != nullptr) emit_metrics(session);
  emit_scenarios(session);

  if (!config.csv_dir.empty()) {
    std::cout << "\nCSV export:\n";
    write_csv(config.csv_dir, "fig5_conclusive",
              report::fig5_conclusive_series(fleet, *report,
                                             longitudinal::Cohort::All));
    write_csv(config.csv_dir, "fig7_full",
              report::fig67_vulnerability_series(fleet, *report, false));
    write_csv(config.csv_dir, "fig2_final",
              report::fig2_final_distribution(fleet, *report));
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  // Graceful shutdown: SIGINT/SIGTERM set a flag the study loop checks at
  // round boundaries (checkpoint, clean exit) instead of killing the run.
  util::install_shutdown_handlers();
  // --flag-table is a meta flag (documentation generator), not a scan knob:
  // handle it before config parsing so it needs no valid configuration.
  for (int i = 1; i < argc; ++i) {
    if (std::string_view(argv[i]) == "--flag-table") {
      std::cout << session::flag_table_markdown();
      return 0;
    }
  }
  try {
    return run(session::ScanConfig::from_args(argc, argv));
  } catch (const session::ScanConfigError& e) {
    std::cerr << e.what() << "\n";
    return 2;
  } catch (const snapshot::SnapshotError& e) {
    std::cerr << e.what() << "\n";
    return 2;
  }
}
