// One configuration struct for every scan entry point (DESIGN.md §11).
//
// spfail_scan, the examples, and the bench programs used to each parse their
// own flag/env subset with silent atof/atoi coercion (a typo like
// `--threads x` quietly became 0). ScanConfig centralises the knobs:
// from_env() resolves the SPFAIL_* environment over caller defaults,
// from_args() layers command-line flags on top (CLI > env > defaults), and
// both reject malformed or out-of-range values with a ScanConfigError naming
// the offending input instead of coercing it.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>

#include "faults/fault.hpp"

namespace spfail::session {

// Invalid flag/env input. The message names the flag and the rejected value.
class ScanConfigError : public std::runtime_error {
 public:
  explicit ScanConfigError(const std::string& what)
      : std::runtime_error(what) {}
};

struct ScanConfig {
  // Population.
  double scale = 0.05;             // (0, 1]; SPFAIL_SCALE / --scale
  std::uint64_t fleet_seed = 2021;  // --seed
  std::uint64_t study_seed = 20211011;
  // Comma-separated ScenarioSpec names (src/scenario/): the fleet builds
  // with the specs' merged PolicyMix and each spec's outcome table is
  // measured after the scan. Empty = the plain paper population.
  // SPFAIL_SCENARIO / --scenario.
  std::string scenario;

  // Scan engine.
  int threads = 0;  // 0 = SPFAIL_THREADS / hardware; --threads
  bool initial_only = false;

  // Fault injection (SPFAIL_FAULT_SEED / SPFAIL_FAULT_RATE,
  // --fault-seed / --fault-rate).
  faults::FaultConfig faults;

  // Outputs.
  std::string trace_path;  // SPFAIL_TRACE / --trace; empty = off
  std::string csv_dir;     // SPFAIL_CSV_DIR / --csv; empty = off

  // Metrics (DESIGN.md §12): per-round JSONL snapshots go to metrics_path
  // and the final Prometheus text exposition to metrics_path + ".prom".
  // metrics_wall additionally records the opt-in wall-clock lane, which is
  // excluded from the deterministic files unless requested.
  std::string metrics_path;   // SPFAIL_METRICS / --metrics; empty = off
  bool metrics_wall = false;  // SPFAIL_METRICS_WALL / --metrics-wall

  // Checkpoint/resume (DESIGN.md §11).
  std::string checkpoint_path;  // --checkpoint; empty = no checkpoints
  int checkpoint_every = 1;     // --checkpoint-every: round-boundary cadence
  std::string resume_path;      // --resume; empty = fresh run
  // --halt-after-rounds: stop after N longitudinal rounds, writing a final
  // checkpoint (a deterministic stand-in for killing the process mid-study).
  // -1 = run to completion.
  int halt_after_rounds = -1;

  bool tracing() const noexcept { return !trace_path.empty(); }
  bool metrics() const noexcept { return !metrics_path.empty(); }

  // Environment over `defaults`: every SPFAIL_* variable named in the flag
  // registry (session/flag_registry.hpp — the registry is the single source
  // of truth for the flag/env surface). (SPFAIL_THREADS is read by the
  // thread pool itself; validate() checks it.)
  // Throws ScanConfigError on malformed or out-of-range values.
  static ScanConfig from_env(const ScanConfig& defaults);
  static ScanConfig from_env();

  // Command line over environment over `defaults`. Recognises the
  // spfail_scan flag set; throws ScanConfigError for unknown flags, missing
  // or malformed values, and out-of-range numerics.
  static ScanConfig from_args(int argc, const char* const* argv,
                              const ScanConfig& defaults);
  static ScanConfig from_args(int argc, const char* const* argv);

  // Range checks shared by both builders (callers constructing a ScanConfig
  // by hand can run them too), plus a parse of SPFAIL_THREADS when
  // threads == 0 (the one variable the thread pool reads outside the
  // registry), so a malformed value fails here instead of inside a wave.
  // Throws ScanConfigError.
  void validate() const;

 private:
  // Environment layer without the final validate() — from_args() defers
  // validation until the command line has been applied, so a flag can
  // legally complete a combination the environment alone would fail (e.g.
  // SPFAIL_METRICS_WALL=1 in the environment plus --metrics on the CLI).
  static ScanConfig apply_env(ScanConfig config);
};

}  // namespace spfail::session
