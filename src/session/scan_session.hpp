// The single owner of a scan run's lifetime (DESIGN.md §11).
//
// ScanSession fronts the whole apparatus behind one object: it builds the
// Fleet, owns the WireTrace when tracing is on, runs the initial campaign or
// the longitudinal study, and drives the checkpoint/resume/halt protocol
// from one ScanConfig. Callers (spfail_scan, the examples, ReproSession and
// with it every bench) no longer assemble CampaignConfig/StudyConfig by
// hand, so every entry point agrees on seeds, fault plans, and trace wiring
// — the precondition for a snapshot taken by one binary resuming in another.
//
// Checkpoint protocol: with `checkpoint_path` set, the study state is
// serialised atomically at every `checkpoint_every`-th round boundary (and
// at a --halt-after-rounds stop). With `resume_path` set, the session
// restores that snapshot instead of re-running the completed prefix; the
// resumed run's reports, traces, and degradation tables are byte-identical
// to an uninterrupted run at any thread count. Status lines about
// checkpointing go to stderr so stdout stays byte-comparable across
// interrupted and uninterrupted runs.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "longitudinal/study.hpp"
#include "net/wire_trace.hpp"
#include "obs/metrics.hpp"
#include "population/fleet.hpp"
#include "scan/campaign.hpp"
#include "scenario/runner.hpp"
#include "scenario/scenario.hpp"
#include "session/scan_config.hpp"

namespace spfail::session {

class ScanSession {
 public:
  explicit ScanSession(ScanConfig config);

  const ScanConfig& config() const noexcept { return config_; }

  // Lazily built fleet (scale/seed from the config). When --scenario names
  // specs, the fleet builds with their merged PolicyMix (resolve_mix), so
  // the scanned population reflects the staging.
  population::Fleet& fleet();

  // The parsed --scenario specs (empty without --scenario).
  const std::vector<scenario::ScenarioSpec>& scenarios();

  // One measured outcome table per configured spec (cached). The runner
  // drives its flows over a dedicated fleet built fresh from the same
  // scale/seed/mix — a pure function of the config, so the reports are
  // bit-identical across thread counts, schedulers, and halt/resume, and
  // independent of whatever host state the scan built up.
  // Baseline specs (and a mix that stages nothing) yield all-zero reports
  // without building the extra fleet.
  const std::vector<scenario::ScenarioReport>& scenario_reports();

  // The session-owned wire trace; nullptr when tracing is off.
  net::WireTrace* trace() noexcept {
    return config_.tracing() ? &trace_ : nullptr;
  }

  // The session-owned master metrics registry (DESIGN.md §12); nullptr when
  // metrics are off. Shard lanes merge into it in shard-index order, so its
  // contents are bit-identical at any thread count.
  obs::Registry* metrics() noexcept {
    return config_.metrics() ? &metrics_ : nullptr;
  }

  // Rendered per-phase JSONL snapshot lines ("initial", one per longitudinal
  // round, "final"), accumulated as the run progresses. Rides in checkpoints
  // so a resumed run re-emits the same stream.
  const std::vector<std::string>& metric_lines() const noexcept {
    return metric_lines_;
  }

  // Write the metric outputs: the JSONL round snapshots to
  // config().metrics_path and the Prometheus text exposition to
  // metrics_path + ".prom". No-op when metrics are off.
  void write_metrics_files();

  // The 2021-10-11 initial measurement (cached). Honours resume: a
  // Campaign-kind snapshot short-circuits the scan entirely. Writes a
  // Campaign-kind checkpoint when configured and the campaign actually ran.
  const scan::CampaignReport& initial();

  // The full longitudinal study (cached; runs the initial campaign
  // internally — do not mix with initial() on one session). Returns nullptr
  // when the run halted at a checkpoint (--halt-after-rounds) instead of
  // completing; halted() reports the same.
  const longitudinal::StudyReport* study();

  // True when study() stopped at --halt-after-rounds after writing the
  // checkpoint instead of finishing.
  bool halted() const noexcept { return halted_; }

  // True when the run stopped because a termination signal (SIGINT/SIGTERM)
  // was caught: the session checkpointed at the next round boundary and
  // exited cleanly instead of finishing. Implies halted().
  bool interrupted() const noexcept { return interrupted_; }

  // A short banner describing the session (scale, seed, population sizes).
  std::string banner();

 private:
  longitudinal::StudyConfig study_config();
  // Refuses a resume whose embedded intern table (when present) differs from
  // the rebuilt fleet's — a whole-population fingerprint check (§14).
  void check_snapshot_strings(const snapshot::StudySnapshot& snap);
  // Removes an orphaned checkpoint .tmp a killed writer left behind.
  void discard_orphan_checkpoint();
  void write_checkpoint(const longitudinal::Study& study,
                        const longitudinal::Study::State& state);
  void record_metric_line(std::string_view phase, int round = -1);

  ScanConfig config_;
  std::optional<std::vector<scenario::ScenarioSpec>> scenarios_;
  std::optional<std::vector<scenario::ScenarioReport>> scenario_reports_;
  net::WireTrace trace_;
  obs::Registry metrics_;
  std::vector<std::string> metric_lines_;
  std::unique_ptr<population::Fleet> fleet_;
  // Shared with the study report or the campaign checkpoint, never copied.
  snapshot::SharedReport initial_;
  std::optional<longitudinal::StudyReport> study_report_;
  bool study_ran_ = false;
  bool halted_ = false;
  bool interrupted_ = false;
};

}  // namespace spfail::session
