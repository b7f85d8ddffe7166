#include "svc/service.hpp"

#include <algorithm>
#include <condition_variable>
#include <filesystem>
#include <functional>
#include <mutex>
#include <ostream>
#include <sstream>
#include <thread>
#include <utility>

#include "obs/export.hpp"
#include "session/flag_parse.hpp"
#include "snapshot/fields.hpp"
#include "snapshot/snapshot.hpp"

namespace spfail::svc {

namespace {

using session::parse_int;
using session::parse_u64;

// Thrown by the kill hook, caught by run(): the loop stops with no further
// side effects, exactly as a SIGKILL at that syscall boundary would.
struct KilledSignal {};

constexpr char kMagic[8] = {'S', 'P', 'F', 'S', 'V', 'C', '0', '1'};
constexpr std::uint16_t kVersion = 1;

constexpr SvcFlagDef kSvcFlags[] = {
    {"--dir", "SPFAIL_SVC_DIR", "DIR", "svc-state",
     "state directory: svc_state, per-job checkpoints, reports, events.log",
     [](SvcConfig& c, std::string_view, const char* text) { c.dir = text; }},
    {"--control", "SPFAIL_SVC_CONTROL", "PATH", "(none)",
     "control file re-read every tick (submit/status/drain commands)",
     [](SvcConfig& c, std::string_view, const char* text) {
       c.control = text;
     }},
    {"--max-active-jobs", "SPFAIL_SVC_MAX_ACTIVE", "N", "2",
     "concurrent scan jobs; the rest queue FIFO within priority",
     [](SvcConfig& c, std::string_view what, const char* text) {
       c.max_active_jobs = parse_int(what, text);
     }},
    {"--rounds-per-tick", "SPFAIL_SVC_ROUNDS_PER_TICK", "N", "4",
     "longitudinal rounds one running job advances per service tick",
     [](SvcConfig& c, std::string_view what, const char* text) {
       c.rounds_per_tick = parse_int(what, text);
     }},
    {"--bucket-capacity", "SPFAIL_SVC_BUCKET_CAPACITY", "N", "4",
     "admission token-bucket capacity per target /24 network",
     [](SvcConfig& c, std::string_view what, const char* text) {
       c.admission.bucket_capacity = parse_int(what, text);
     }},
    {"--bucket-refill", "SPFAIL_SVC_BUCKET_REFILL", "N", "1",
     "tokens refilled per tick per network",
     [](SvcConfig& c, std::string_view what, const char* text) {
       c.admission.bucket_refill = parse_int(what, text);
     }},
    {"--breaker-threshold", "SPFAIL_SVC_BREAKER_THRESHOLD", "N", "3",
     "consecutive deferrals that open a network's breaker",
     [](SvcConfig& c, std::string_view what, const char* text) {
       c.admission.breaker_threshold = parse_int(what, text);
     }},
    {"--breaker-cooldown", "SPFAIL_SVC_BREAKER_COOLDOWN", "N", "2",
     "ticks an opened breaker refuses the network's jobs",
     [](SvcConfig& c, std::string_view what, const char* text) {
       c.admission.breaker_cooldown = parse_int(what, text);
     }},
    {"--defer-budget", "SPFAIL_SVC_DEFER_BUDGET", "N", "16",
     "deferrals one job absorbs before it force-runs instead of starving",
     [](SvcConfig& c, std::string_view what, const char* text) {
       c.admission.defer_budget = parse_int(what, text);
     }},
    {"--max-ticks", "SPFAIL_SVC_MAX_TICKS", "N", "0 (until drained)",
     "hard tick budget; the service exits MaxTicks when it runs out",
     [](SvcConfig& c, std::string_view what, const char* text) {
       c.max_ticks = parse_u64(what, text);
     }},
    {"--metrics", "SPFAIL_SVC_METRICS", "PATH", "(off)",
     "per-tick JSONL metric snapshots to PATH, Prometheus text to PATH.prom",
     [](SvcConfig& c, std::string_view, const char* text) {
       c.metrics_path = text;
     }},
};

}  // namespace

void SvcConfig::validate() const {
  const auto fail = [](const std::string& what) {
    throw session::ScanConfigError("svc config: " + what);
  };
  if (dir.empty()) fail("--dir must not be empty");
  if (max_active_jobs < 1) fail("--max-active-jobs must be at least 1");
  if (rounds_per_tick < 1) fail("--rounds-per-tick must be at least 1");
  admission.validate();
}

std::span<const SvcFlagDef> svc_flag_registry() { return kSvcFlags; }

SvcConfig svc_config_from_args(int argc, const char* const* argv) {
  SvcConfig config;
  session::apply_env_rows(svc_flag_registry(), config);
  session::apply_arg_rows(svc_flag_registry(), argc, argv, config);
  config.validate();
  return config;
}

std::string svc_flag_table_markdown() {
  return session::flag_table_markdown_for(svc_flag_registry());
}

// The thread one job runs on from open to teardown. Keeping a job on one
// thread keeps its fleet, rounds and teardown allocating in one malloc
// arena, and gives its lane-scoped state (SimClock, LogLane, WireTrace
// lanes: one per thread) a thread no other job shares. The loop starts one
// step per tick and waits for it before the commit phase.
class ServiceLoop::JobThread {
 public:
  JobThread() : thread_([this] { serve(); }) {}

  ~JobThread() {
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      stopping_ = true;
    }
    wake_.notify_all();
    thread_.join();
  }

  JobThread(const JobThread&) = delete;
  JobThread& operator=(const JobThread&) = delete;

  // Run `step` on this thread. The previous step must have been awaited.
  void start(std::function<void()> step) {
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      step_ = std::move(step);
      error_ = nullptr;
      done_ = false;
    }
    wake_.notify_all();
  }

  // Block until the started step returned; what it threw, if anything.
  std::exception_ptr wait() {
    std::unique_lock<std::mutex> lock(mutex_);
    wake_.wait(lock, [this] { return done_; });
    return error_;
  }

 private:
  void serve() {
    std::unique_lock<std::mutex> lock(mutex_);
    while (true) {
      wake_.wait(lock, [this] { return stopping_ || step_ != nullptr; });
      if (step_ == nullptr) return;
      std::function<void()> step = std::move(step_);
      step_ = nullptr;
      lock.unlock();
      std::exception_ptr error;
      try {
        step();
      } catch (...) {
        error = std::current_exception();
      }
      lock.lock();
      error_ = std::move(error);
      done_ = true;
      wake_.notify_all();
    }
  }

  std::mutex mutex_;
  std::condition_variable wake_;  // a step started, finished, or stopping
  std::function<void()> step_;    // guarded by mutex_
  std::exception_ptr error_;      // guarded by mutex_
  bool done_ = true;              // guarded by mutex_
  bool stopping_ = false;         // guarded by mutex_
  std::thread thread_;            // last: starts once the rest exists
};

std::string to_string(ServiceLoop::Status status) {
  switch (status) {
    case ServiceLoop::Status::Drained: return "drained";
    case ServiceLoop::Status::MaxTicks: return "max-ticks";
    case ServiceLoop::Status::Killed: return "killed";
  }
  return "unknown";
}

ServiceLoop::ServiceLoop(SvcConfig config, ServiceOptions options)
    : config_(std::move(config)),
      options_(options),
      admission_(config_.admission) {
  config_.validate();
}

ServiceLoop::~ServiceLoop() = default;

std::string ServiceLoop::state_path() const {
  return config_.dir + "/svc_state";
}

std::string ServiceLoop::ckpt_path(const JobRecord& rec) const {
  std::string path = config_.dir + "/" + rec.spec.id;
  if (rec.run > 1) path += ".run" + std::to_string(rec.run);
  return path + ".ckpt";
}

std::string ServiceLoop::report_path(const JobRecord& rec) const {
  std::string path = config_.dir + "/" + rec.spec.id;
  if (rec.run > 1) path += ".run" + std::to_string(rec.run);
  return path + ".report";
}

std::optional<JobPhase> ServiceLoop::job_phase(std::string_view id) const {
  for (const JobRecord& rec : jobs_) {
    if (rec.spec.id == id) return rec.phase;
  }
  return std::nullopt;
}

void ServiceLoop::event(std::string line) {
  std::string full = "tick " + std::to_string(tick_) + ": " + std::move(line);
  if (options_.log != nullptr) *options_.log << full << "\n";
  events_.push_back(std::move(full));
}

void ServiceLoop::maybe_kill(KillPoint point) {
  if (options_.kill_at.has_value() && options_.kill_at->tick == tick_ &&
      options_.kill_at->point == point) {
    throw KilledSignal{};
  }
}

std::size_t ServiceLoop::active_jobs() const {
  std::size_t active = 0;
  for (const JobRecord& rec : jobs_) {
    if (rec.phase == JobPhase::Admitted || rec.phase == JobPhase::Running ||
        rec.phase == JobPhase::Checkpointed) {
      ++active;
    }
  }
  return active;
}

bool ServiceLoop::all_done() const {
  for (const JobRecord& rec : jobs_) {
    if (rec.phase != JobPhase::Done) return false;
  }
  return true;
}

void ServiceLoop::submit(JobSpec spec) {
  for (const JobRecord& rec : jobs_) {
    if (rec.spec.id == spec.id) {
      throw ControlError("duplicate job id '" + spec.id + "'");
    }
  }
  JobRecord rec;
  rec.nets = target_networks(spec);
  rec.spec = std::move(spec);
  rec.seq = seq_counter_++;
  rec.phase = JobPhase::Queued;
  rec.submit_tick = tick_;
  rec.defer_budget_left = config_.admission.defer_budget;
  ++registry_.counter("svc_jobs_submitted_total");
  event("queued job=" + rec.spec.id + " priority=" +
        std::to_string(rec.spec.priority) + " nets=" +
        std::to_string(rec.nets.size()));
  jobs_.push_back(std::move(rec));
}

void ServiceLoop::consume_commands() {
  if (config_.control.empty()) return;
  const std::vector<Command> commands = read_control_file(config_.control);
  if (commands.size() < commands_consumed_) {
    throw ControlError("control file shrank below the consumed prefix (" +
                       std::to_string(commands.size()) + " < " +
                       std::to_string(commands_consumed_) + " commands)");
  }
  for (std::size_t i = commands_consumed_; i < commands.size(); ++i) {
    const Command& command = commands[i];
    // Positional consumption: a not-yet-due `at` command blocks everything
    // behind it, and nothing is consumed past a drain.
    if (command.at_tick > tick_ || drain_) break;
    ++commands_consumed_;
    ++registry_.counter("svc_commands_total",
                        {{"verb", to_string(command.kind)}});
    switch (command.kind) {
      case Command::Kind::Submit:
        submit(command.spec);
        break;
      case Command::Kind::Status:
        write_status_file();
        event("status written");
        break;
      case Command::Kind::Drain:
        drain_ = true;
        event("drain requested");
        // Recurrences stop: parked runs are cancelled, not started.
        for (JobRecord& rec : jobs_) {
          if (rec.phase == JobPhase::Waiting) {
            rec.phase = JobPhase::Done;
            event("drained job=" + rec.spec.id + " recurrence-cancelled");
          }
        }
        break;
    }
  }
}

void ServiceLoop::admission_pass() {
  // Wake recurring jobs whose interval elapsed; they re-enter the queue.
  for (JobRecord& rec : jobs_) {
    if (rec.phase == JobPhase::Waiting && rec.next_run_tick <= tick_) {
      rec.phase = JobPhase::Queued;
      rec.submit_tick = tick_;
      event("queued job=" + rec.spec.id + " run=" + std::to_string(rec.run));
    }
  }

  // FIFO within priority: higher priority first, submit order breaks ties.
  std::vector<JobRecord*> queued;
  for (JobRecord& rec : jobs_) {
    if (rec.phase == JobPhase::Queued) queued.push_back(&rec);
  }
  std::sort(queued.begin(), queued.end(),
            [](const JobRecord* a, const JobRecord* b) {
              if (a->spec.priority != b->spec.priority) {
                return a->spec.priority > b->spec.priority;
              }
              return a->seq < b->seq;
            });

  for (JobRecord* rec : queued) {
    if (active_jobs() >= static_cast<std::size_t>(config_.max_active_jobs)) {
      break;  // backpressure: everyone else stays queued
    }
    const Decision decision =
        admission_.decide(rec->nets, rec->defer_budget_left);
    switch (decision) {
      case Decision::Admit:
      case Decision::ForceRun: {
        rec->phase = JobPhase::Admitted;
        rec->admit_tick = tick_;
        const std::int64_t wait =
            static_cast<std::int64_t>(tick_ - rec->submit_tick);
        registry_.histogram("svc_admission_wait_ticks").observe(wait);
        if (decision == Decision::ForceRun) {
          ++rec->force_runs;
          ++registry_.counter("svc_force_runs_total");
          event("force-run job=" + rec->spec.id + " wait=" +
                std::to_string(wait));
        } else {
          event("admitted job=" + rec->spec.id + " wait=" +
                std::to_string(wait));
        }
        break;
      }
      case Decision::Defer:
        ++rec->deferrals;
        ++registry_.counter("svc_deferrals_total");
        event("deferred job=" + rec->spec.id + " budget-left=" +
              std::to_string(rec->defer_budget_left));
        break;
    }
  }
}

void ServiceLoop::run_pass() {
  // Compute: every runnable job advances its tick at once, each on its own
  // thread. Threads are made before any step starts, so a failed spawn
  // leaves no step running.
  std::vector<JobRecord*> runnable;
  for (JobRecord& rec : jobs_) {
    if (rec.phase != JobPhase::Admitted && rec.phase != JobPhase::Running &&
        rec.phase != JobPhase::Checkpointed) {
      continue;
    }
    if (!rec.thread) rec.thread = std::make_unique<JobThread>();
    runnable.push_back(&rec);
  }
  for (JobRecord* rec : runnable) {
    rec->thread->start([this, rec] { compute_step(*rec); });
  }
  std::vector<std::exception_ptr> errors;
  errors.reserve(runnable.size());
  for (JobRecord* rec : runnable) errors.push_back(rec->thread->wait());

  // Commit: the serial pass's side effects, in submit order.
  for (std::size_t i = 0; i < runnable.size(); ++i) {
    commit_step(*runnable[i], errors[i]);
  }
}

void ServiceLoop::compute_step(JobRecord& rec) const {
  Step& step = rec.step;
  step = Step{};
  if (!rec.job) {
    rec.job = std::make_unique<Job>(rec.spec, ckpt_path(rec));
    rec.job->open();
  }
  step.opened = true;

  step.total = rec.job->total_rounds();
  step.target = std::min(
      step.total, static_cast<std::size_t>(rec.rounds_done) +
                      static_cast<std::size_t>(config_.rounds_per_tick));
  // Skip-ahead: after a torn tick the job's own checkpoint may already be
  // at `target`; ensure_rounds then re-executes nothing and the commit
  // replays the original events/metrics exactly.
  rec.job->ensure_rounds(step.target);
  if (step.target < step.total) {
    step.bytes = rec.job->encode_checkpoint();
  } else {
    step.bytes = rec.job->finish_report();
    rec.job.reset();
  }
}

void ServiceLoop::commit_step(JobRecord& rec,
                              const std::exception_ptr& error) {
  const Step step = std::exchange(rec.step, Step{});
  if (step.opened) {
    if (rec.phase == JobPhase::Admitted) {
      event("running job=" + rec.spec.id + " run=" + std::to_string(rec.run));
    }
    rec.phase = JobPhase::Running;
  }
  if (error) std::rethrow_exception(error);

  registry_.counter("svc_rounds_total") += step.target - rec.rounds_done;
  rec.rounds_done = step.target;

  if (step.target < step.total) {
    snapshot::save_atomically(ckpt_path(rec), step.bytes);
    rec.phase = JobPhase::Checkpointed;
    event("checkpointed job=" + rec.spec.id + " rounds=" +
          std::to_string(step.target) + "/" + std::to_string(step.total));
    maybe_kill(KillPoint::AfterJobCheckpoint);
  } else {
    snapshot::save_atomically(report_path(rec), step.bytes);
    rec.thread.reset();
    ++registry_.counter("svc_jobs_completed_total");
    event("done job=" + rec.spec.id + " run=" + std::to_string(rec.run) +
          " rounds=" + std::to_string(step.total));
    maybe_kill(KillPoint::AfterReportWrite);
    if (!drain_ && rec.run < rec.spec.runs) {
      rec.run += 1;
      rec.rounds_done = 0;
      rec.next_run_tick = tick_ + rec.spec.recur;
      rec.defer_budget_left = config_.admission.defer_budget;
      rec.phase = JobPhase::Waiting;
      event("waiting job=" + rec.spec.id + " next-run-tick=" +
            std::to_string(rec.next_run_tick));
    } else {
      rec.phase = JobPhase::Done;
    }
  }
}

void ServiceLoop::update_gauges() {
  std::int64_t queued = 0, waiting = 0, done = 0;
  for (const JobRecord& rec : jobs_) {
    if (rec.phase == JobPhase::Queued) ++queued;
    if (rec.phase == JobPhase::Waiting) ++waiting;
    if (rec.phase == JobPhase::Done) ++done;
  }
  registry_.gauge("svc_active_jobs") =
      static_cast<std::int64_t>(active_jobs());
  registry_.gauge("svc_queued_jobs") = queued;
  registry_.gauge("svc_waiting_jobs") = waiting;
  registry_.gauge("svc_done_jobs") = done;
  registry_.gauge("svc_open_breakers") =
      static_cast<std::int64_t>(admission_.open_breakers().size());
  registry_.counter("svc_breaker_trips_total") = admission_.breaker_trips();
  for (const JobRecord& rec : jobs_) {
    registry_.gauge("svc_job_phase", {{"job", rec.spec.id}}) =
        static_cast<std::int64_t>(rec.phase);
    registry_.gauge("svc_job_rounds", {{"job", rec.spec.id}}) =
        static_cast<std::int64_t>(rec.rounds_done);
    registry_.gauge("svc_job_run", {{"job", rec.spec.id}}) =
        static_cast<std::int64_t>(rec.run);
  }
}

void ServiceLoop::save_state() const {
  snapshot::Writer payload;
  // The state file records *completed* ticks: the tick being executed when
  // this save runs is complete once the file hits the disk, so a restart
  // resumes at tick_ + 1.
  payload.u64(tick_ + 1);
  payload.u64(seq_counter_);
  payload.u64(commands_consumed_);
  payload.boolean(drain_);
  payload.u32(static_cast<std::uint32_t>(jobs_.size()));
  for (const JobRecord& rec : jobs_) {
    rec.spec.encode(payload);
    payload.u64(rec.seq);
    payload.u8(static_cast<std::uint8_t>(rec.phase));
    payload.u32(rec.run);
    payload.u64(rec.rounds_done);
    payload.u64(rec.submit_tick);
    payload.u64(rec.admit_tick);
    payload.u64(rec.next_run_tick);
    payload.i64(rec.defer_budget_left);
    payload.u64(rec.deferrals);
    payload.u64(rec.force_runs);
  }
  admission_.encode(payload);
  registry_.encode(payload);
  payload.u32(static_cast<std::uint32_t>(metric_lines_.size()));
  for (const std::string& line : metric_lines_) payload.str(line);
  payload.u32(static_cast<std::uint32_t>(events_.size()));
  for (const std::string& line : events_) payload.str(line);

  std::string file(kMagic, sizeof(kMagic));
  snapshot::Writer head;
  head.u16(kVersion);
  file += head.bytes();
  file += payload.bytes();
  snapshot::Writer tail;
  tail.u64(snapshot::payload_checksum(payload.bytes()));
  file += tail.bytes();
  snapshot::save_atomically(state_path(), file);
}

void ServiceLoop::restore_state() {
  snapshot::discard_partial(state_path());
  if (!std::filesystem::exists(state_path())) return;  // a fresh service
  const std::string bytes = snapshot::load_file(state_path());
  constexpr std::size_t kOverhead = sizeof(kMagic) + 2 + 8;
  if (bytes.size() < kOverhead) {
    throw snapshot::SnapshotError("svc state truncated");
  }
  for (std::size_t i = 0; i < sizeof(kMagic); ++i) {
    if (bytes[i] != kMagic[i]) {
      throw snapshot::SnapshotError("bad magic (not an spfail svc state)");
    }
  }
  snapshot::Reader head(
      std::string_view(bytes).substr(sizeof(kMagic), 2));
  if (head.u16() != kVersion) {
    throw snapshot::SnapshotError("unsupported svc state version");
  }
  const std::string_view payload_bytes =
      std::string_view(bytes).substr(sizeof(kMagic) + 2,
                                     bytes.size() - kOverhead);
  snapshot::Reader tail(std::string_view(bytes).substr(bytes.size() - 8));
  if (tail.u64() != snapshot::payload_checksum(payload_bytes)) {
    throw snapshot::SnapshotError("svc state checksum mismatch");
  }

  snapshot::Reader r(payload_bytes);
  tick_ = r.u64();
  seq_counter_ = r.u64();
  commands_consumed_ = r.u64();
  drain_ = r.boolean();
  const std::uint32_t job_count = r.u32();
  jobs_.clear();
  jobs_.reserve(job_count);
  for (std::uint32_t i = 0; i < job_count; ++i) {
    JobRecord rec;
    rec.spec = JobSpec::decode(r);
    rec.nets = target_networks(rec.spec);
    rec.seq = r.u64();
    const std::uint8_t phase = r.u8();
    if (phase < static_cast<std::uint8_t>(JobPhase::Queued) ||
        phase > static_cast<std::uint8_t>(JobPhase::Done)) {
      throw snapshot::SnapshotError("svc state: bad job phase");
    }
    rec.phase = static_cast<JobPhase>(phase);
    // Admitted and Running live only inside a tick; no save records them.
    if (rec.phase == JobPhase::Admitted || rec.phase == JobPhase::Running) {
      throw snapshot::SnapshotError("svc state: job '" + rec.spec.id +
                                    "' saved mid-tick as " +
                                    to_string(rec.phase));
    }
    rec.run = r.u32();
    if (rec.run == 0 || rec.run > rec.spec.runs) {
      throw snapshot::SnapshotError("svc state: job '" + rec.spec.id +
                                    "' run " + std::to_string(rec.run) +
                                    " outside 1.." +
                                    std::to_string(rec.spec.runs));
    }
    rec.rounds_done = r.u64();
    if (rec.rounds_done > longitudinal::Study::standard_round_count()) {
      throw snapshot::SnapshotError(
          "svc state: job '" + rec.spec.id + "' rounds_done " +
          std::to_string(rec.rounds_done) + " past the study's " +
          std::to_string(longitudinal::Study::standard_round_count()));
    }
    rec.submit_tick = r.u64();
    rec.admit_tick = r.u64();
    rec.next_run_tick = r.u64();
    rec.defer_budget_left = static_cast<int>(r.i64());
    rec.deferrals = r.u64();
    rec.force_runs = r.u64();
    jobs_.push_back(std::move(rec));
  }
  admission_ = AdmissionController::decode(r);
  registry_ = obs::Registry::decode(r);
  metric_lines_.clear();
  const std::uint32_t line_count = r.u32();
  for (std::uint32_t i = 0; i < line_count; ++i) {
    metric_lines_.push_back(r.str());
  }
  events_.clear();
  const std::uint32_t event_count = r.u32();
  for (std::uint32_t i = 0; i < event_count; ++i) {
    events_.push_back(r.str());
  }
  r.expect_done();
}

void ServiceLoop::write_event_log() const {
  std::string text;
  for (const std::string& line : events_) {
    text += line;
    text += '\n';
  }
  snapshot::save_atomically(config_.dir + "/events.log", text);
}

void ServiceLoop::write_metrics_files() const {
  std::string jsonl;
  for (const std::string& line : metric_lines_) {
    jsonl += line;
    jsonl += '\n';
  }
  snapshot::save_atomically(config_.metrics_path, jsonl);
  std::ostringstream prom;
  obs::write_prometheus(registry_, prom);
  snapshot::save_atomically(config_.metrics_path + ".prom", prom.str());
}

void ServiceLoop::write_status_file() const {
  std::ostringstream out;
  out << "tick " << tick_ << (drain_ ? " draining" : "") << "\n";
  for (const JobRecord& rec : jobs_) {
    out << "job " << rec.spec.id << " phase " << to_string(rec.phase)
        << " run " << rec.run << " rounds " << rec.rounds_done
        << " deferrals " << rec.deferrals << "\n";
  }
  snapshot::save_atomically(config_.dir + "/status.txt", out.str());
}

ServiceLoop::Status ServiceLoop::run() {
  std::filesystem::create_directories(config_.dir);
  restore_state();
  try {
    while (true) {
      if (all_done() && (drain_ || config_.control.empty())) {
        // A restart can land here with the state file ahead of the output
        // files (killed between the two writes): rewrite them so the exit
        // state is complete regardless of where the previous process died.
        write_event_log();
        if (config_.metrics()) write_metrics_files();
        return Status::Drained;
      }
      if (config_.max_ticks > 0 && tick_ >= config_.max_ticks) {
        write_event_log();
        if (config_.metrics()) write_metrics_files();
        return Status::MaxTicks;
      }
      consume_commands();
      admission_.refill();
      admission_pass();
      maybe_kill(KillPoint::AfterAdmission);
      run_pass();
      ++registry_.counter("svc_ticks_total");
      update_gauges();
      if (config_.metrics()) {
        metric_lines_.push_back(obs::round_snapshot_json(
            registry_, "tick", static_cast<int>(tick_)));
      }
      save_state();
      maybe_kill(KillPoint::AfterStateSave);
      write_event_log();
      if (config_.metrics()) write_metrics_files();
      ++tick_;
    }
  } catch (const KilledSignal&) {
    return Status::Killed;
  }
}

}  // namespace spfail::svc
