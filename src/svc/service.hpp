// spfaild: the long-running scan service (DESIGN.md §18).
//
// The ServiceLoop turns the one-shot scan session into an operated service:
// operators append submit/status/drain commands to a control file, the loop
// multiplexes up to --max-active-jobs concurrent scan jobs — each paced at
// --rounds-per-tick longitudinal rounds per service tick and checkpointed
// independently under <dir>/<job-id>.ckpt — and every queued job passes the
// admission controller (per-/24 token buckets, breakers, defer budgets)
// before it may start.
//
// Determinism discipline: a tick is a fixed serial sequence (consume
// commands, refill buckets, wake recurrences, admission in priority order,
// run, commit in submit order, export metrics, save state), and every
// piece of cross-tick state — the queue, the admission controller, the
// metrics registry, the event log, the consumed-command count — rides the
// service state file <dir>/svc_state, saved atomically at the end of every
// tick. A SIGTERM'd or crashed service therefore restarts by replaying at
// most one tick: per-job checkpoints written inside the torn tick may be
// AHEAD of the restored service state, which is why jobs resume through the
// skip-ahead Job::ensure_rounds — the replayed tick emits its events and
// metrics from the deterministic schedule and re-executes only rounds whose
// checkpoints were lost. Final reports, the event log, and the metric files
// come out byte-identical to an uninterrupted service.
//
// The run step is the only concurrent part: every runnable job computes its
// tick at once, each on a thread it owns from open to teardown, and the
// loop's thread then commits their side effects (files, events, metrics,
// kill points, rethrown failures) in submit order, exactly as a serial pass
// would have.
#pragma once

#include <cstdint>
#include <exception>
#include <iosfwd>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "session/flag_registry.hpp"
#include "svc/admission.hpp"
#include "svc/control.hpp"
#include "svc/job.hpp"

namespace spfail::svc {

struct SvcConfig {
  std::string dir = "svc-state";  // state directory (created if missing)
  std::string control;            // control file path; empty = no front end
  int max_active_jobs = 2;        // concurrent scan sessions
  int rounds_per_tick = 4;        // study rounds one job advances per tick
  AdmissionConfig admission;
  std::uint64_t max_ticks = 0;    // stop after N ticks; 0 = until drained
  std::string metrics_path;       // JSONL per tick + .prom; empty = off

  bool metrics() const noexcept { return !metrics_path.empty(); }

  // Throws session::ScanConfigError on out-of-range values.
  void validate() const;
};

using SvcFlagDef = session::FlagRow<SvcConfig>;

// Every SvcConfig flag, in generated-table order (same discipline as the
// ScanConfig registry: one row per knob, table-driven parse/env/docs).
std::span<const SvcFlagDef> svc_flag_registry();

// CLI over SPFAIL_SVC_* environment over defaults; validates. Throws
// session::ScanConfigError.
SvcConfig svc_config_from_args(int argc, const char* const* argv);

// The README flag table for the service registry.
std::string svc_flag_table_markdown();

// Crash-injection points for the restart tests: the loop stops dead (as a
// SIGKILL would) immediately after the named side effect of the given tick.
enum class KillPoint : std::uint8_t {
  AfterAdmission = 1,      // decisions made, nothing persisted yet
  AfterJobCheckpoint = 2,  // first job checkpoint of the tick written
  AfterReportWrite = 3,    // first final report of the tick written
  AfterStateSave = 4,      // svc_state written; metric/event files stale
};

struct ServiceOptions {
  struct KillAt {
    std::uint64_t tick = 0;
    KillPoint point = KillPoint::AfterStateSave;
  };
  // Simulated crash for the smoke/restart tests; run() returns Killed.
  std::optional<KillAt> kill_at;
  // Live event stream (stderr in the binary); the canonical event log is
  // written to <dir>/events.log regardless. Not owned; null = silent.
  std::ostream* log = nullptr;
};

class ServiceLoop {
 public:
  explicit ServiceLoop(SvcConfig config, ServiceOptions options = {});
  ~ServiceLoop();

  enum class Status : std::uint8_t {
    Drained = 1,   // drain seen and every job finished
    MaxTicks = 2,  // --max-ticks reached first
    Killed = 3,    // a kill_at hook fired (tests only)
  };

  // Restore <dir>/svc_state when present, then tick until drained, the tick
  // budget runs out, or a kill hook fires. Each tick ends with the state
  // file, event log, and metric files on disk, so calling run() again after
  // any outcome continues exactly where the last completed tick left off.
  Status run();

  // Observability for tests.
  std::uint64_t ticks() const noexcept { return tick_; }
  const std::vector<std::string>& events() const noexcept { return events_; }
  const obs::Registry& metrics() const noexcept { return registry_; }
  const AdmissionController& admission() const noexcept { return admission_; }

  // Phase of a submitted job (nullopt when the id is unknown).
  std::optional<JobPhase> job_phase(std::string_view id) const;

 private:
  class JobThread;

  // One tick of one job as its thread computed it, for the commit phase.
  struct Step {
    bool opened = false;     // the job was open when its rounds started
    std::size_t target = 0;  // rounds done once the tick commits
    std::size_t total = 0;
    std::string bytes;       // the checkpoint, or the final report
  };

  struct JobRecord {
    JobSpec spec;
    std::uint64_t seq = 0;  // global submit order, ties broken by this
    JobPhase phase = JobPhase::Queued;
    std::uint32_t run = 1;             // 1-based run number (recurrence)
    std::uint64_t rounds_done = 0;     // service-side schedule position
    std::uint64_t submit_tick = 0;     // when the current run was queued
    std::uint64_t admit_tick = 0;
    std::uint64_t next_run_tick = 0;   // Waiting only
    int defer_budget_left = 0;
    std::uint64_t deferrals = 0;
    std::uint64_t force_runs = 0;
    std::vector<std::uint64_t> nets;   // cached target footprint
    std::unique_ptr<Job> job;          // runtime; rebuilt lazily on resume
    Step step;                         // this tick's compute-phase result
    // Runs the job from open to teardown; declared last so it is joined
    // before the members its steps write are destroyed.
    std::unique_ptr<JobThread> thread;
  };

  std::string state_path() const;
  std::string ckpt_path(const JobRecord& rec) const;
  std::string report_path(const JobRecord& rec) const;

  void restore_state();
  void save_state() const;
  void write_event_log() const;
  void write_metrics_files() const;
  void write_status_file() const;

  void event(std::string line);
  void consume_commands();
  void submit(JobSpec spec);
  void admission_pass();
  void run_pass();
  // The compute phase of one job's tick, on the job's thread: touches only
  // `rec`.
  void compute_step(JobRecord& rec) const;
  // The commit phase of one job's tick, on the loop's thread: rethrows
  // `error` at the job's place in submit order.
  void commit_step(JobRecord& rec, const std::exception_ptr& error);
  void update_gauges();
  std::size_t active_jobs() const;
  bool all_done() const;

  // Throws KilledSignal when options_.kill_at matches (tick_, point).
  void maybe_kill(KillPoint point);

  SvcConfig config_;
  ServiceOptions options_;
  std::uint64_t tick_ = 0;            // completed ticks
  std::uint64_t seq_counter_ = 0;
  std::uint64_t commands_consumed_ = 0;
  bool drain_ = false;
  std::vector<JobRecord> jobs_;       // in submit (seq) order
  AdmissionController admission_;
  obs::Registry registry_;
  std::vector<std::string> metric_lines_;
  std::vector<std::string> events_;
};

std::string to_string(ServiceLoop::Status status);

}  // namespace spfail::svc
