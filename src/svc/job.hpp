// One scan job inside the long-running service (DESIGN.md §18).
//
// A JobSpec is the durable description of one scan an operator submitted: a
// named ScanConfig subset (scale, seeds, threads, scenario staging, fault
// plan), a queue priority, and an optional recurrence (re-run every N
// service ticks, for the paper's periodic re-measurement posture). Specs are
// snapshot-encoded so the service state file can restore the queue exactly.
//
// Job is the runtime: it owns the Fleet + longitudinal Study of one run and
// drives the same round-boundary seam ScanSession uses for checkpointing
// (begin / run_round / finish, capture / restore), but paced externally —
// the ServiceLoop asks for a few rounds per tick per job on the job's own
// thread, then writes each job's checkpoint bytes independently under
// <dir>/<job-id>.ckpt from the loop's thread. ensure_rounds() is
// skip-ahead: if the restored checkpoint is already at or past the target
// round (the service died between a job checkpoint and the service-state
// save), it runs nothing, so a resumed service replays its schedule without
// re-executing — the foundation of the byte-identical restart guarantee.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "longitudinal/study.hpp"
#include "population/fleet.hpp"
#include "session/scan_config.hpp"
#include "snapshot/codec.hpp"

namespace spfail::svc {

// Lifecycle phase of a queued/running job. The numeric values are frozen
// wire codes (the service state file stores them; do not renumber). They are
// also the svc_job_phase gauge values, so the metric stream and the state
// file agree on the state machine.
enum class JobPhase : std::uint8_t {
  Queued = 1,        // submitted, not yet admitted
  Admitted = 2,      // past admission control, not yet opened
  Running = 3,       // fleet/study live, rounds executing this tick
  Checkpointed = 4,  // between ticks, state on disk at a round boundary
  Waiting = 5,       // recurring job parked until its next scheduled run
  Done = 6,          // all runs finished, report(s) written
};

std::string to_string(JobPhase phase);

// Durable description of one submitted scan job.
struct JobSpec {
  std::string id;  // unique per service, names the checkpoint/report files
  double scale = 0.01;
  std::uint64_t seed = 2021;        // fleet seed
  std::uint64_t study_seed = 20211011;
  int threads = 1;
  std::string scenario;             // comma-separated ScenarioSpec names
  int scenario_rounds = 0;          // per-round outcome series depth
  double fault_rate = 0.0;
  std::uint64_t fault_seed = 0xFA17ULL;
  int priority = 0;                 // higher admits first; ties by submit seq
  // Recurrence: re-run the same spec every `recur` ticks after a run
  // completes, `runs` times in total. recur == 0 means one-shot.
  std::uint64_t recur = 0;
  std::uint32_t runs = 1;
  // Explicit target-network override (/24 provider-group keys) for admission
  // control; empty = derive the footprint from (seed, scale).
  std::vector<std::uint64_t> nets;

  // The ScanConfig equivalent — jobs are ordinary scan sessions underneath,
  // so every knob keeps ScanConfig's validation semantics.
  session::ScanConfig to_scan_config() const;

  // Range checks (id non-empty, scale/priority/recurrence sane). Throws
  // session::ScanConfigError naming the offending field.
  void validate() const;

  void encode(snapshot::Writer& w) const;
  static JobSpec decode(snapshot::Reader& r);

  friend bool operator==(const JobSpec&, const JobSpec&) = default;
};

// The /24 provider-group footprint a job's scan concentrates on, for the
// admission controller's per-network token buckets. Derived from the spec's
// explicit `nets` override when present, else deterministically from
// (seed, scale): the same population seed always maps to the same networks
// (it generates the same addresses), and a larger scale occupies more of
// them. Sorted ascending, deduplicated.
std::vector<std::uint64_t> target_networks(const JobSpec& spec);

class Job {
 public:
  // `ckpt_path` is where this run checkpoints (and restores from when the
  // file exists).
  Job(JobSpec spec, std::string ckpt_path);
  ~Job();

  const JobSpec& spec() const noexcept { return spec_; }

  // Build the fleet and study; restore from ckpt_path when the file exists
  // (throws snapshot::SnapshotError on a corrupt or mismatched checkpoint),
  // else run the study's begin() phase. Idempotent.
  void open();

  // Completed longitudinal rounds (valid after open()).
  std::size_t rounds_done() const;
  std::size_t total_rounds() const;
  bool rounds_remaining() const;

  // Run rounds until rounds_done() == min(target, total_rounds()). A target
  // at or below rounds_done() runs nothing (skip-ahead on resume).
  void ensure_rounds(std::size_t target);

  // The study state at its round boundary, encoded as the checkpoint the
  // caller writes to ckpt_path.
  std::string encode_checkpoint() const;

  // Finish the study (consumes the state) and render the deterministic
  // run report: the scan roll-up plus one outcome block per staged scenario.
  // The text is a pure function of the spec, so an interrupted service that
  // re-finishes the job rewrites the identical bytes.
  std::string finish_report();

 private:
  JobSpec spec_;
  std::string ckpt_path_;
  std::unique_ptr<population::Fleet> fleet_;
  std::unique_ptr<longitudinal::Study> study_;
  std::optional<longitudinal::Study::State> state_;
};

}  // namespace spfail::svc
