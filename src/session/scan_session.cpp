#include "session/scan_session.hpp"

#include <fstream>
#include <iostream>
#include <sstream>
#include <utility>

#include "obs/export.hpp"
#include "snapshot/snapshot.hpp"
#include "util/shutdown.hpp"
#include "util/strings.hpp"

namespace spfail::session {

namespace {

snapshot::StudySnapshot load_snapshot(const std::string& path) {
  return snapshot::StudySnapshot::decode(snapshot::load_file(path));
}

}  // namespace

ScanSession::ScanSession(ScanConfig config) : config_(std::move(config)) {
  config_.validate();
}

population::Fleet& ScanSession::fleet() {
  if (!fleet_) {
    population::FleetConfig fleet_config;
    fleet_config.scale = config_.scale;
    fleet_config.seed = config_.fleet_seed;
    fleet_config.lazy_hosts = config_.lazy_hosts;
    fleet_config.mix = scenario::resolve_mix(scenarios());
    fleet_ = std::make_unique<population::Fleet>(fleet_config);
  }
  return *fleet_;
}

const std::vector<scenario::ScenarioSpec>& ScanSession::scenarios() {
  if (!scenarios_.has_value()) {
    scenarios_ = config_.scenario.empty()
                     ? std::vector<scenario::ScenarioSpec>{}
                     : scenario::parse_scenario_list(config_.scenario);
  }
  return *scenarios_;
}

const std::vector<scenario::ScenarioReport>& ScanSession::scenario_reports() {
  if (scenario_reports_.has_value()) return *scenario_reports_;
  scenario_reports_.emplace();

  const population::PolicyMix mix = scenario::resolve_mix(scenarios());
  // A mix that stages nothing (baseline, or no --scenario) measures nothing:
  // report zero flows per spec without paying for a second fleet.
  std::unique_ptr<population::Fleet> staged;
  if (mix.stages_senders()) {
    population::FleetConfig fleet_config;
    fleet_config.scale = config_.scale;
    fleet_config.seed = config_.fleet_seed;
    fleet_config.lazy_hosts = config_.lazy_hosts;
    fleet_config.mix = mix;
    staged = std::make_unique<population::Fleet>(fleet_config);
  }

  scenario::RunnerOptions options;
  options.seed = config_.fleet_seed;
  options.rounds = config_.scenario_rounds < 0
                       ? longitudinal::Study::standard_round_count()
                       : static_cast<std::size_t>(config_.scenario_rounds);
  for (const scenario::ScenarioSpec& spec : scenarios()) {
    if (staged) {
      scenario_reports_->push_back(
          scenario::run_scenario(*staged, spec, options));
    } else {
      scenario::ScenarioReport report;
      report.name = spec.name;
      report.version = spec.version;
      scenario_reports_->push_back(std::move(report));
    }
  }
  return *scenario_reports_;
}

longitudinal::StudyConfig ScanSession::study_config() {
  longitudinal::StudyConfig study_config;
  study_config.seed = config_.study_seed;
  study_config.threads = config_.threads;
  study_config.sched.policy = config_.sched;
  study_config.sched.steal = config_.steal_mode;
  study_config.faults = config_.faults;
  study_config.trace = trace();
  study_config.metrics = metrics();
  return study_config;
}

void ScanSession::record_metric_line(std::string_view phase, int round) {
  metric_lines_.push_back(obs::round_snapshot_json(metrics_, phase, round,
                                                   config_.metrics_wall));
}

void ScanSession::write_metrics_files() {
  if (!config_.metrics()) return;
  {
    std::ofstream out(config_.metrics_path, std::ios::trunc);
    for (const auto& line : metric_lines_) out << line << "\n";
  }
  {
    std::ofstream out(config_.metrics_path + ".prom", std::ios::trunc);
    obs::write_prometheus(metrics_, out, config_.metrics_wall);
  }
}

void ScanSession::check_snapshot_strings(const snapshot::StudySnapshot& snap) {
  if (!snap.has_strings) return;
  if (!(snap.strings == fleet().strings())) {
    throw snapshot::SnapshotError(
        "snapshot intern table does not match the rebuilt fleet's (the "
        "population this process generated differs from the one the "
        "checkpoint was taken over)");
  }
}

void ScanSession::discard_orphan_checkpoint() {
  if (config_.checkpoint_path.empty()) return;
  if (snapshot::discard_partial(config_.checkpoint_path)) {
    std::cerr << "checkpoint: removed orphaned " << config_.checkpoint_path
              << ".tmp left by a writer killed mid-checkpoint\n";
  }
}

void ScanSession::write_checkpoint(const longitudinal::Study& study,
                                   const longitudinal::Study::State& state) {
  snapshot::StudySnapshot snap = study.capture(state);
  snap.metric_lines = metric_lines_;
  if (config_.checkpoint_strings) {
    snap.has_strings = true;
    snap.strings = fleet().strings();
  }
  snapshot::save_atomically(config_.checkpoint_path, snap.encode());
  std::cerr << "checkpoint: wrote " << config_.checkpoint_path << " (round "
            << snap.rounds_done << "/" << study.total_rounds() << ")\n";
}

const scan::CampaignReport& ScanSession::initial() {
  if (initial_ != nullptr) return initial_->report();
  if (study_report_.has_value()) {
    // The study ran its own initial campaign; expose it.
    initial_ = study_report_->initial;
    return initial_->report();
  }

  if (!config_.resume_path.empty()) {
    const snapshot::StudySnapshot snap = load_snapshot(config_.resume_path);
    if (snap.meta.kind != snapshot::SnapshotKind::Campaign) {
      throw snapshot::SnapshotError(
          "'" + config_.resume_path + "' is a " + to_string(snap.meta.kind) +
          " snapshot; an initial-only run resumes campaign snapshots");
    }
    if (snap.meta.fleet_seed != config_.fleet_seed ||
        snap.meta.scale != config_.scale ||
        snap.meta.fault_seed != config_.faults.seed ||
        snap.meta.fault_rate != config_.faults.rate ||
        snap.meta.tracing != config_.tracing()) {
      throw snapshot::SnapshotError(
          "campaign snapshot '" + config_.resume_path +
          "' was taken under a different configuration (seed/scale/faults/"
          "tracing must match)");
    }
    check_snapshot_strings(snap);
    fleet().clock().advance_to(snap.clock_now);
    if (config_.tracing()) {
      trace_.clear();
      for (const auto& frame : snap.trace) trace_.record(frame);
    }
    if (snap.has_metrics != config_.metrics()) {
      throw snapshot::SnapshotError(
          snap.has_metrics
              ? "campaign snapshot carries metrics, this run has them disabled"
              : "campaign snapshot has no metrics, this run expects them");
    }
    if (config_.metrics()) {
      metrics_ = snap.metrics;
      metric_lines_ = snap.metric_lines;
    }
    initial_ = snap.initial;
    std::cerr << "resume: restored completed campaign from "
              << config_.resume_path << "\n";
    return initial_->report();
  }

  discard_orphan_checkpoint();
  scan::CampaignConfig campaign_config;
  campaign_config.prober.responder = fleet().responder();
  campaign_config.threads = config_.threads;
  campaign_config.sched.policy = config_.sched;
  campaign_config.sched.steal = config_.steal_mode;
  campaign_config.faults = config_.faults;
  campaign_config.trace = trace();
  campaign_config.metrics = metrics();
  scan::Campaign campaign(campaign_config, fleet().dns(), fleet().clock(),
                          fleet());
  // Stream targets straight from the fleet's compact records — no
  // std::string/vector copies of the whole population (DESIGN.md §14).
  initial_ = snapshot::freeze(campaign.run(fleet().target_source()));
  if (config_.metrics()) record_metric_line("initial");

  if (!config_.checkpoint_path.empty()) {
    snapshot::StudySnapshot snap;
    snap.meta.kind = snapshot::SnapshotKind::Campaign;
    snap.meta.fleet_seed = config_.fleet_seed;
    snap.meta.scale = config_.scale;
    snap.meta.fault_seed = config_.faults.seed;
    snap.meta.fault_rate = config_.faults.rate;
    snap.meta.tracing = config_.tracing();
    snap.clock_now = fleet().clock().now();
    snap.initial = initial_;
    snap.degradation = initial_->report().degradation;
    if (config_.tracing()) snap.trace = trace_.frames();
    if (config_.metrics()) {
      snap.has_metrics = true;
      snap.metrics = metrics_;
      snap.metric_lines = metric_lines_;
    }
    if (config_.checkpoint_strings) {
      snap.has_strings = true;
      snap.strings = fleet().strings();
    }
    snapshot::save_atomically(config_.checkpoint_path, snap.encode());
    std::cerr << "checkpoint: wrote " << config_.checkpoint_path
              << " (campaign)\n";
  }
  return initial_->report();
}

const longitudinal::StudyReport* ScanSession::study() {
  if (study_report_.has_value()) return &*study_report_;
  if (study_ran_) return nullptr;  // halted earlier
  study_ran_ = true;

  longitudinal::Study study(fleet(), study_config());

  longitudinal::Study::State state;
  if (config_.resume_path.empty()) {
    discard_orphan_checkpoint();
    state = study.begin();
    if (config_.metrics()) record_metric_line("initial");
  } else {
    const snapshot::StudySnapshot snap = load_snapshot(config_.resume_path);
    check_snapshot_strings(snap);
    state = study.restore(snap);
    // restore() reloaded the registry; the rendered lines the halted run had
    // already emitted come back verbatim so the stream continues seamlessly.
    if (config_.metrics()) metric_lines_ = snap.metric_lines;
    std::cerr << "resume: restored " << config_.resume_path << " at round "
              << state.next_round << "/" << study.total_rounds() << "\n";
  }

  const bool checkpointing = !config_.checkpoint_path.empty();
  const auto at_halt = [&]() {
    return config_.halt_after_rounds >= 0 &&
           state.next_round >=
               static_cast<std::size_t>(config_.halt_after_rounds);
  };
  const auto on_cadence = [&]() {
    return state.next_round %
               static_cast<std::size_t>(config_.checkpoint_every) ==
           0;
  };

  // Boundary protocol, applied after begin()/restore() and after every
  // round: checkpoint on cadence, honour a caught termination signal like a
  // halt request (final checkpoint, clean exit), then honour
  // --halt-after-rounds. Both stop paths always re-checkpoint so the
  // on-disk state matches the stop point exactly.
  for (;;) {
    const bool signalled = util::shutdown_requested();
    if (checkpointing && (on_cadence() || at_halt() || signalled)) {
      write_checkpoint(study, state);
    }
    if (signalled) {
      if (checkpointing) {
        std::cerr << "interrupt: caught termination signal after "
                  << state.next_round
                  << " rounds; state saved (resume with --resume "
                  << config_.checkpoint_path << ")\n";
      } else {
        std::cerr << "interrupt: caught termination signal after "
                  << state.next_round
                  << " rounds; no --checkpoint, progress not saved\n";
      }
      halted_ = true;
      interrupted_ = true;
      return nullptr;
    }
    if (at_halt()) {
      std::cerr << "halt: stopping after " << state.next_round
                << " rounds as requested (resume with --resume "
                << config_.checkpoint_path << ")\n";
      halted_ = true;
      return nullptr;
    }
    if (!study.rounds_remaining(state)) break;
    study.run_round(state);
    if (config_.metrics()) {
      record_metric_line("round", static_cast<int>(state.next_round) - 1);
    }
  }

  study_report_ = study.finish(std::move(state));
  if (config_.metrics()) record_metric_line("final");
  initial_ = study_report_->initial;
  return &*study_report_;
}

std::string ScanSession::banner() {
  std::ostringstream os;
  os << "SPFail reproduction | scale=" << config_.scale
     << " (set SPFAIL_SCALE=1 for the paper's full population) | domains="
     << util::with_commas(static_cast<long long>(fleet().domains().size()))
     << " addresses="
     << util::with_commas(static_cast<long long>(fleet().address_count()));
  return os.str();
}

}  // namespace spfail::session
