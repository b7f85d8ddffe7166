#include "svc/job.hpp"

#include <algorithm>
#include <fstream>
#include <sstream>
#include <utility>

#include "scenario/runner.hpp"
#include "scenario/scenario.hpp"
#include "snapshot/snapshot.hpp"
#include "util/rng.hpp"

namespace spfail::svc {

std::string to_string(JobPhase phase) {
  switch (phase) {
    case JobPhase::Queued: return "queued";
    case JobPhase::Admitted: return "admitted";
    case JobPhase::Running: return "running";
    case JobPhase::Checkpointed: return "checkpointed";
    case JobPhase::Waiting: return "waiting";
    case JobPhase::Done: return "done";
  }
  return "unknown";
}

session::ScanConfig JobSpec::to_scan_config() const {
  session::ScanConfig config;
  config.scale = scale;
  config.fleet_seed = seed;
  config.study_seed = study_seed;
  config.threads = threads;
  config.scenario = scenario;
  config.scenario_rounds = scenario_rounds;
  config.faults.rate = fault_rate;
  config.faults.seed = fault_seed;
  return config;
}

void JobSpec::validate() const {
  const auto fail = [this](const std::string& what) {
    throw session::ScanConfigError("job '" + id + "': " + what);
  };
  if (id.empty()) {
    throw session::ScanConfigError("job id must not be empty");
  }
  for (const char c : id) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '-' || c == '_';
    if (!ok) fail("id may use only [A-Za-z0-9_-] (it names files)");
  }
  if (runs == 0) fail("runs must be at least 1");
  if (runs > 1 && recur == 0) fail("runs > 1 requires a recur interval");
  // The rest of the knobs share ScanConfig's range rules.
  to_scan_config().validate();
}

void JobSpec::encode(snapshot::Writer& w) const {
  w.str(id);
  w.f64(scale);
  w.u64(seed);
  w.u64(study_seed);
  w.i64(threads);
  w.str(scenario);
  w.i64(scenario_rounds);
  w.f64(fault_rate);
  w.u64(fault_seed);
  w.i64(priority);
  w.u64(recur);
  w.u32(runs);
  w.u32(static_cast<std::uint32_t>(nets.size()));
  for (const std::uint64_t net : nets) w.u64(net);
}

JobSpec JobSpec::decode(snapshot::Reader& r) {
  JobSpec spec;
  spec.id = r.str();
  spec.scale = r.f64();
  spec.seed = r.u64();
  spec.study_seed = r.u64();
  spec.threads = static_cast<int>(r.i64());
  spec.scenario = r.str();
  spec.scenario_rounds = static_cast<int>(r.i64());
  spec.fault_rate = r.f64();
  spec.fault_seed = r.u64();
  spec.priority = static_cast<int>(r.i64());
  spec.recur = r.u64();
  spec.runs = r.u32();
  const std::uint32_t net_count = r.u32();
  spec.nets.reserve(net_count);
  for (std::uint32_t i = 0; i < net_count; ++i) spec.nets.push_back(r.u64());
  spec.validate();
  return spec;
}

std::vector<std::uint64_t> target_networks(const JobSpec& spec) {
  std::vector<std::uint64_t> nets = spec.nets;
  if (nets.empty()) {
    // Footprint model: one /24 per ~1.5% of full scale, at least one. The
    // keys are a pure function of the population seed, so two jobs scanning
    // the same seeded population contend for the same networks — which is
    // exactly the situation per-network rate limiting exists for.
    const std::size_t count = std::max<std::size_t>(
        1, static_cast<std::size_t>(spec.scale * 64.0));
    const std::uint64_t base =
        util::fnv1a("svc-net") ^ (spec.seed * 0x9E3779B97F4A7C15ULL);
    nets.reserve(count);
    for (std::size_t i = 0; i < count; ++i) {
      // splitmix-style finalizer keeps nearby seeds from mapping to nearby
      // network keys.
      std::uint64_t x = base + i * 0xBF58476D1CE4E5B9ULL;
      x ^= x >> 27;
      x *= 0x94D049BB133111EBULL;
      x ^= x >> 31;
      nets.push_back(x & 0x3FF);  // 1024 distinct /24 keys
    }
  }
  std::sort(nets.begin(), nets.end());
  nets.erase(std::unique(nets.begin(), nets.end()), nets.end());
  return nets;
}

Job::Job(JobSpec spec, std::string ckpt_path)
    : spec_(std::move(spec)), ckpt_path_(std::move(ckpt_path)) {}

Job::~Job() = default;

void Job::open() {
  if (state_.has_value()) return;
  const session::ScanConfig scan = spec_.to_scan_config();
  const std::vector<scenario::ScenarioSpec> specs =
      scan.scenario.empty() ? std::vector<scenario::ScenarioSpec>{}
                            : scenario::parse_scenario_list(scan.scenario);

  population::FleetConfig fleet_config;
  fleet_config.scale = scan.scale;
  fleet_config.seed = scan.fleet_seed;
  fleet_config.mix = scenario::resolve_mix(specs);
  fleet_ = std::make_unique<population::Fleet>(fleet_config);

  longitudinal::StudyConfig study_config;
  study_config.seed = scan.study_seed;
  study_config.threads = scan.threads;
  study_config.faults = scan.faults;
  study_ = std::make_unique<longitudinal::Study>(*fleet_, study_config);

  // A leftover .tmp from a checkpoint the dying service never renamed is
  // garbage; the named file (when present) is the last complete state.
  snapshot::discard_partial(ckpt_path_);
  if (std::ifstream probe(ckpt_path_, std::ios::binary); probe.good()) {
    probe.close();
    state_ = study_->restore(
        snapshot::StudySnapshot::decode(snapshot::load_file(ckpt_path_)));
  } else {
    state_ = study_->begin();
  }
}

std::size_t Job::rounds_done() const { return state_->next_round; }

std::size_t Job::total_rounds() const { return study_->total_rounds(); }

bool Job::rounds_remaining() const { return study_->rounds_remaining(*state_); }

void Job::ensure_rounds(std::size_t target) {
  target = std::min(target, total_rounds());
  while (state_->next_round < target) study_->run_round(*state_);
}

std::string Job::encode_checkpoint() const {
  return study_->capture(*state_).encode();
}

std::string Job::finish_report() {
  const longitudinal::StudyReport report =
      study_->finish(std::move(*state_));
  state_.reset();

  std::size_t patched = 0, still_vulnerable = 0, unknown = 0;
  for (const longitudinal::DomainTrack& track : report.tracks) {
    switch (track.final_status) {
      case longitudinal::FinalStatus::Patched: ++patched; break;
      case longitudinal::FinalStatus::Vulnerable: ++still_vulnerable; break;
      case longitudinal::FinalStatus::Unknown: ++unknown; break;
    }
  }

  std::ostringstream out;
  out << "spfail svc report: job " << spec_.id << "\n"
      << "scale " << spec_.scale << " seed " << spec_.seed << " study-seed "
      << spec_.study_seed << " fault-rate " << spec_.fault_rate << "\n"
      << "addresses tested " << report.initial->report().addresses_tested()
      << "\n"
      << "initially vulnerable addresses "
      << report.initially_vulnerable_addresses << "\n"
      << "initially vulnerable domains "
      << report.initially_vulnerable_domains << "\n"
      << "remeasurable addresses " << report.remeasurable_addresses << "\n"
      << "rounds " << report.round_times.size() << "\n"
      << "final patched " << patched << " vulnerable " << still_vulnerable
      << " unknown " << unknown << "\n"
      << "probe attempts " << report.degradation.probe_attempts << " retries "
      << report.degradation.retries << "\n";

  // Scenario outcome blocks ride the same report: a pure function of the
  // spec (the runner builds its own staged fleet), so interrupted and
  // uninterrupted services render identical bytes.
  const session::ScanConfig scan = spec_.to_scan_config();
  if (!scan.scenario.empty()) {
    const std::vector<scenario::ScenarioSpec> specs =
        scenario::parse_scenario_list(scan.scenario);
    const population::PolicyMix mix = scenario::resolve_mix(specs);
    std::unique_ptr<population::Fleet> staged;
    if (mix.stages_senders()) {
      population::FleetConfig fleet_config;
      fleet_config.scale = scan.scale;
      fleet_config.seed = scan.fleet_seed;
      fleet_config.mix = mix;
      staged = std::make_unique<population::Fleet>(fleet_config);
    }
    scenario::RunnerOptions options;
    options.seed = scan.fleet_seed;
    options.rounds = scan.scenario_rounds < 0
                         ? longitudinal::Study::standard_round_count()
                         : static_cast<std::size_t>(scan.scenario_rounds);
    for (const scenario::ScenarioSpec& spec : specs) {
      scenario::ScenarioReport sr;
      if (staged) sr = scenario::run_scenario(*staged, spec, options);
      out << "scenario " << spec.name << " staged " << sr.domains_staged
          << " spoof-delivered " << sr.spoof.delivered << "/" << sr.spoof.flows
          << " legit-rejected " << sr.legit.rejected << "/" << sr.legit.flows
          << " rounds " << sr.rounds.size() << "\n";
    }
  }

  fleet_.reset();
  study_.reset();
  return out.str();
}

}  // namespace spfail::svc
