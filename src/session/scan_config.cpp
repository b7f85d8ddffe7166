#include "session/scan_config.hpp"

#include <cstdlib>
#include <stdexcept>
#include <string_view>

#include "scenario/scenario.hpp"
#include "session/flag_registry.hpp"
#include "util/thread_pool.hpp"

namespace spfail::session {

void ScanConfig::validate() const {
  if (!(scale > 0.0 && scale <= 1.0)) {
    throw ScanConfigError("--scale must be in (0, 1], got " +
                          std::to_string(scale));
  }
  if (threads < 0 || threads > util::kMaxThreads) {
    throw ScanConfigError("--threads must be in [0, " +
                          std::to_string(util::kMaxThreads) + "], got " +
                          std::to_string(threads));
  }
  if (!(faults.rate >= 0.0 && faults.rate <= 1.0)) {
    throw ScanConfigError("--fault-rate must be in [0, 1], got " +
                          std::to_string(faults.rate));
  }
  if (checkpoint_every < 1) {
    throw ScanConfigError("--checkpoint-every must be >= 1, got " +
                          std::to_string(checkpoint_every));
  }
  if (halt_after_rounds < -1) {
    throw ScanConfigError("--halt-after-rounds must be >= 0, got " +
                          std::to_string(halt_after_rounds));
  }
  if (halt_after_rounds >= 0 && checkpoint_path.empty()) {
    throw ScanConfigError(
        "--halt-after-rounds requires --checkpoint (halting without writing "
        "a checkpoint would lose the run)");
  }
  if (metrics_wall && metrics_path.empty()) {
    throw ScanConfigError(
        "--metrics-wall requires --metrics (there is nowhere to write the "
        "wall-clock lane)");
  }
  if (!scenario.empty()) {
    try {
      scenario::parse_scenario_list(scenario);
    } catch (const std::invalid_argument& error) {
      throw ScanConfigError("--scenario: " + std::string(error.what()));
    }
  }
  // The thread pool reads these two itself, mid-run; parse them now, and
  // SPFAIL_THREADS only when the pool will read it (threads == 0).
  try {
    if (threads == 0) util::resolve_thread_count(0);
    util::resolve_steal_mode(util::StealMode::Auto);
  } catch (const std::invalid_argument& error) {
    throw ScanConfigError(error.what());
  }
}

ScanConfig ScanConfig::from_env() { return from_env(ScanConfig{}); }

ScanConfig ScanConfig::from_args(int argc, const char* const* argv) {
  return from_args(argc, argv, ScanConfig{});
}

ScanConfig ScanConfig::from_env(const ScanConfig& defaults) {
  ScanConfig config = apply_env(defaults);
  config.validate();
  return config;
}

ScanConfig ScanConfig::apply_env(ScanConfig config) {
  apply_env_rows(flag_registry(), config);
  return config;
}

ScanConfig ScanConfig::from_args(int argc, const char* const* argv,
                                 const ScanConfig& defaults) {
  ScanConfig config = apply_env(defaults);
  apply_arg_rows(flag_registry(), argc, argv, config);
  config.validate();
  return config;
}

}  // namespace spfail::session
