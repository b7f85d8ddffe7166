// perfbench: one iteration of one benchmark workload, driven only through
// the library's public calls, printed as one JSON object on stdout.
//
//   perfbench --workload study|sweep|durable|service --seed N --work DIR
//             [--trace]
//   perfbench --env
//
// run.py starts one process per iteration, so every iteration pays the same
// cold caches and its VmHWM / wchar figures belong to it alone. This file
// measures; run.py checks outputs, aggregates and prints the metrics.
//
// With --trace the iteration records a span around every public call
// (layer, name, start, end, parent, CPU seconds, and the counts read at that
// boundary), enables the metrics registry plus obs::WallProfileScope for the
// per-stage probe timings, and prints the spans with the result. Without it
// no span is recorded and the registry stays off unless the workload itself
// uses it (durable).
#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <streambuf>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "longitudinal/study.hpp"
#include "obs/export.hpp"
#include "obs/lane.hpp"
#include "obs/metrics.hpp"
#include "population/fleet.hpp"
#include "report/tables.hpp"
#include "scan/campaign.hpp"
#include "snapshot/snapshot.hpp"
#include "svc/service.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/strings.hpp"

namespace {

using namespace spfail;
namespace fs = std::filesystem;

// ---------------------------------------------------------------- probes --

// CLOCK_MONOTONIC seconds: the clock run.py reads before it launches this
// process, so set-up can be timed from the launch and spans placed on the
// run's timeline.
double now_s() {
  timespec ts{};
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

double cpu_s() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) * 1e-6;
}

// One "key: value" field of a /proc/self file, or 0 when absent.
std::uint64_t proc_field(const char* file, std::string_view key) {
  std::ifstream in(file);
  std::string line;
  while (std::getline(in, line)) {
    if (line.starts_with(key)) {
      return std::strtoull(line.c_str() + key.size(), nullptr, 10);
    }
  }
  return 0;
}

std::uint64_t written_bytes() { return proc_field("/proc/self/io", "wchar:"); }
std::uint64_t peak_rss_kb() {
  return proc_field("/proc/self/status", "VmHWM:");
}

std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t salt) {
  std::uint64_t x = seed * 0x9E3779B97F4A7C15ULL + salt;
  x ^= x >> 30;
  x *= 0xBF58476D1CE4E5B9ULL;
  x ^= x >> 27;
  x *= 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

// ------------------------------------------------------------------ json --

std::string json_str(std::string_view s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string json_num(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string json_list(const std::vector<double>& values) {
  std::string out = "[";
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (i > 0) out += ",";
    out += json_num(values[i]);
  }
  return out + "]";
}

using Counts = std::vector<std::pair<std::string, double>>;

std::string json_counts(const Counts& counts) {
  std::string out = "{";
  for (std::size_t i = 0; i < counts.size(); ++i) {
    if (i > 0) out += ",";
    out += json_str(counts[i].first) + ":" + json_num(counts[i].second);
  }
  return out + "}";
}

// ----------------------------------------------------------------- spans --

// In-memory span recorder. Spans nest by call order on the one thread that
// drives the workload; a disabled tracer records nothing.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  bool enabled() const noexcept { return enabled_; }

  int open(std::string layer, std::string name) {
    if (!enabled_) return -1;
    const int parent = stack_.empty() ? -1 : stack_.back();
    spans_.push_back(Span{std::move(layer), std::move(name), parent, now_s(),
                          0.0, cpu_s(), {}});
    stack_.push_back(static_cast<int>(spans_.size()) - 1);
    return stack_.back();
  }

  void close(int id, Counts args) {
    if (id < 0) return;
    Span& span = spans_[static_cast<std::size_t>(id)];
    span.end = now_s();
    args.emplace_back("cpu_s", cpu_s() - span.cpu);
    span.args = std::move(args);
    stack_.pop_back();
  }

  std::string json() const {
    std::string out = "[";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      if (i > 0) out += ",";
      out += "{\"layer\":" + json_str(s.layer) + ",\"name\":" +
             json_str(s.name) + ",\"parent\":" + std::to_string(s.parent) +
             ",\"start\":" + json_num(s.start) + ",\"end\":" +
             json_num(s.end) + ",\"args\":" + json_counts(s.args) + "}";
    }
    return out + "]";
  }

 private:
  struct Span {
    std::string layer;
    std::string name;
    int parent = -1;
    double start = 0.0;
    double end = 0.0;
    double cpu = 0.0;
    Counts args;
  };

  bool enabled_;
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

// RAII span; counts read at the boundary ride along as args.
class Span {
 public:
  Span(Tracer& tracer, std::string layer, std::string name)
      : tracer_(tracer), id_(tracer.open(std::move(layer), std::move(name))) {}
  ~Span() { tracer_.close(id_, std::move(args_)); }

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  void arg(std::string key, double value) {
    if (id_ >= 0) args_.emplace_back(std::move(key), value);
  }

 private:
  Tracer& tracer_;
  int id_;
  Counts args_;
};

// ---------------------------------------------------------------- result --

struct Check {
  std::string name;
  bool ok = true;
  std::string detail;
};

struct Result {
  std::string workload;
  std::uint64_t seed = 0;
  int threads = 1;
  double setup_s = 0.0;   // the in-process part of set-up
  double ready_at = 0.0;  // now_s() when set-up ended
  double wall_s = 0.0;
  double cpu_s = 0.0;
  double probes = 0.0;
  std::uint64_t written = 0;
  std::map<std::string, std::vector<double>> samples;
  Counts counts;
  std::string digest;
  std::vector<Check> checks;

  void check(std::string name, bool ok, std::string detail = {}) {
    checks.push_back(Check{std::move(name), ok, std::move(detail)});
  }
};

std::string hex_digest(std::string_view bytes) {
  char buf[20];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(util::fnv1a(bytes)));
  return buf;
}

void write_text(const fs::path& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << text;
}

// Whole-run measurement window: wall, CPU and bytes written between start()
// and stop().
class Window {
 public:
  void start() {
    wall_ = now_s();
    cpu_ = cpu_s();
    io_ = written_bytes();
  }
  void stop(Result& r) const {
    r.wall_s = now_s() - wall_;
    r.cpu_s = cpu_s() - cpu_;
    r.written = written_bytes() - io_;
  }

 private:
  double wall_ = 0.0;
  double cpu_ = 0.0;
  std::uint64_t io_ = 0;
};

// Registry families enabled in traced runs, summed over matching cells.
double family_sum(const obs::Registry& reg, std::string_view family,
                  std::string_view label_part, bool histogram_sum = false) {
  const obs::Family* f = reg.find(family);
  if (f == nullptr) return 0.0;
  double total = 0.0;
  for (const auto& [labels, cell] : f->cells) {
    if (labels.find(label_part) == std::string::npos) continue;
    total += histogram_sum ? static_cast<double>(cell.histogram.sum())
                           : static_cast<double>(cell.counter);
  }
  return total;
}

void registry_counts(const obs::Registry& reg, Result& r) {
  for (const char* stage : {"connect", "helo", "mail", "rcpt", "data"}) {
    const std::string label = std::string("stage=\"") + stage + "\"";
    r.counts.emplace_back(
        std::string("scan.stage_ms.") + stage,
        family_sum(reg, "probe_stage_sim_seconds_wall_ns", label, true) / 1e6);
  }
  r.counts.emplace_back("net.smtp_frames",
                        family_sum(reg, "net_frames_total", "proto=\"smtp\""));
  r.counts.emplace_back("net.dns_frames",
                        family_sum(reg, "net_frames_total", "proto=\"dns\""));
  r.counts.emplace_back("dns.cache_hits",
                        family_sum(reg, "dns_cache_total", "result=\"hit\""));
  r.counts.emplace_back("dns.cache_misses",
                        family_sum(reg, "dns_cache_total", "result=\"miss\""));
}

void fleet_counts(population::Fleet& fleet, Result& r) {
  const spf::SharedRecordCache& cache = fleet.record_cache();
  const std::size_t capacity = std::bit_ceil(std::max<std::size_t>(
      16, spf::SharedRecordCache::kDefaultExpected * 2));
  r.counts.emplace_back("population.hosts",
                        static_cast<double>(fleet.address_count()));
  r.counts.emplace_back("population.domains",
                        static_cast<double>(fleet.domains().size()));
  r.counts.emplace_back("spf.cache_hits", static_cast<double>(cache.hits()));
  r.counts.emplace_back("spf.cache_misses",
                        static_cast<double>(cache.misses()));
  r.counts.emplace_back("spf.cache_size", static_cast<double>(cache.size()));
  r.counts.emplace_back("spf.cache_full", cache.size() >= capacity ? 1.0 : 0.0);
  const dns::QueryLog& log = fleet.dns().query_log();
  r.counts.emplace_back("dns.log_entries", static_cast<double>(log.size()));
  r.counts.emplace_back("dns.distinct_qnames",
                        static_cast<double>(log.names().size()));
}

void degradation_counts(const faults::DegradationReport& d, Result& r) {
  r.probes = static_cast<double>(d.probe_attempts);
  r.counts.emplace_back("scan.probe_attempts",
                        static_cast<double>(d.probe_attempts));
  r.counts.emplace_back("scan.retries", static_cast<double>(d.retries));
  r.counts.emplace_back("faults.injected",
                        static_cast<double>(d.injected_total()));
  r.counts.emplace_back("faults.requeued", static_cast<double>(d.requeued));
  r.counts.emplace_back("faults.breaker_trips",
                        static_cast<double>(d.breaker_trips));
  r.counts.emplace_back("faults.exhausted", static_cast<double>(d.exhausted));
  r.counts.emplace_back("faults.addresses_tested",
                        static_cast<double>(d.addresses_tested));
  r.check("transient == recovered + exhausted",
          d.transient_addresses == d.recovered + d.exhausted,
          std::to_string(d.transient_addresses) + " vs " +
              std::to_string(d.recovered) + " + " +
              std::to_string(d.exhausted));
}

std::unique_ptr<population::Fleet> build_fleet(Tracer& tracer, double scale,
                                               std::uint64_t seed,
                                               Result& r) {
  population::FleetConfig config;
  config.scale = scale;
  config.seed = seed;
  Span span(tracer, "population", "Fleet");
  const double t0 = now_s();
  auto fleet = std::make_unique<population::Fleet>(config);
  r.setup_s = now_s() - t0;
  r.ready_at = now_s();
  span.arg("hosts", static_cast<double>(fleet->address_count()));
  return fleet;
}

// ------------------------------------------------------- study / durable --

// What `spfail_scan` prints for a finished study.
std::string render_study(const population::Fleet& fleet,
                         const longitudinal::StudyReport& report) {
  std::ostringstream os;
  os << "Initial: "
     << util::with_commas(
            static_cast<long long>(report.initially_vulnerable_addresses))
     << " vulnerable addresses hosting "
     << util::with_commas(
            static_cast<long long>(report.initially_vulnerable_domains))
     << " domains\n\n"
     << report::fig2_final_distribution(fleet, report) << "\n"
     << report::table5_tld_patch(fleet, report) << "\n"
     << report::notification_funnel(report) << "\n";
  for (const auto cohort :
       {longitudinal::Cohort::All, longitudinal::Cohort::AlexaTopList,
        longitudinal::Cohort::TwoWeekMx}) {
    const auto series = report::vulnerability_series(fleet, report, cohort);
    os << "  " << util::sparkline(series) << "  " << to_string(cohort)
       << " (% vulnerable over time)\n";
  }
  return os.str();
}

// The study pipeline at scale 0.1. `durable` adds what an operator's
// checkpointed, metered run does: capture + encode + save_atomically after
// begin() and after every round, one metrics JSONL line per phase, and the
// final Prometheus file.
void run_study(Tracer& tracer, const fs::path& work, bool durable, Result& r) {
  r.threads = durable ? 1 : 4;
  auto fleet = build_fleet(tracer, 0.1, mix_seed(r.seed, 1), r);

  obs::Registry registry;
  const bool metered = durable || tracer.enabled();
  std::vector<std::string> lines;
  const fs::path ckpt = work / "durable.ckpt";
  std::vector<double> capture_ms, encode_ms, write_ms, line_ms;
  std::uint64_t snapshot_bytes = 0;

  const auto meter_line = [&](std::string_view phase, int round) {
    if (!durable) return;
    Span span(tracer, "obs", "round_snapshot_json");
    const double t0 = now_s();
    lines.push_back(obs::round_snapshot_json(registry, phase, round));
    line_ms.push_back((now_s() - t0) * 1e3);
  };

  Window window;
  window.start();
  std::optional<Span> root;
  root.emplace(tracer, "bench", r.workload);

  longitudinal::StudyConfig config;
  config.seed = mix_seed(r.seed, 2);
  config.threads = r.threads;
  config.metrics = metered ? &registry : nullptr;
  longitudinal::Study study(*fleet, config);

  const auto checkpoint = [&](const longitudinal::Study::State& state) {
    if (!durable) return;
    Span span(tracer, "snapshot", "checkpoint");
    const double t0 = now_s();
    snapshot::StudySnapshot snap;
    {
      Span s(tracer, "snapshot", "Study::capture");
      snap = study.capture(state);
      snap.metric_lines = lines;
    }
    const double t1 = now_s();
    std::string bytes;
    {
      Span s(tracer, "snapshot", "StudySnapshot::encode");
      bytes = snap.encode();
    }
    const double t2 = now_s();
    {
      Span s(tracer, "snapshot", "save_atomically");
      snapshot::save_atomically(ckpt.string(), bytes);
    }
    const double t3 = now_s();
    capture_ms.push_back((t1 - t0) * 1e3);
    encode_ms.push_back((t2 - t1) * 1e3);
    write_ms.push_back((t3 - t2) * 1e3);
    snapshot_bytes = bytes.size();
    span.arg("bytes", static_cast<double>(bytes.size()));
  };

  const auto boundary_args = [&](Span& span,
                                 const longitudinal::Study::State& state,
                                 std::size_t probes_before) {
    span.arg("probes", static_cast<double>(
                           state.report.degradation.probe_attempts -
                           probes_before));
    span.arg("dns_log_entries",
             static_cast<double>(fleet->dns().query_log().size()));
    span.arg("spf_cache_size",
             static_cast<double>(fleet->record_cache().size()));
  };

  std::optional<longitudinal::Study::State> state;
  {
    Span span(tracer, "longitudinal", "Study::begin");
    const double t0 = now_s();
    state.emplace(study.begin());
    r.counts.emplace_back("longitudinal.begin_s", now_s() - t0);
    boundary_args(span, *state, 0);
  }
  r.counts.emplace_back("dns.log_entries_begin",
                        static_cast<double>(fleet->dns().query_log().size()));
  meter_line("initial", -1);
  checkpoint(*state);

  std::vector<double> round_ms, round_probes;
  while (study.rounds_remaining(*state)) {
    const std::size_t k = state->next_round;
    const std::size_t probes_before = state->report.degradation.probe_attempts;
    {
      Span span(tracer, "longitudinal",
                "Study::run_round[" + std::to_string(k) + "]");
      const double t0 = now_s();
      study.run_round(*state);
      round_ms.push_back((now_s() - t0) * 1e3);
      boundary_args(span, *state, probes_before);
    }
    round_probes.push_back(static_cast<double>(
        state->report.degradation.probe_attempts - probes_before));
    meter_line("round", static_cast<int>(k));
    checkpoint(*state);
  }

  std::optional<longitudinal::StudyReport> report;
  {
    Span span(tracer, "longitudinal", "Study::finish");
    const double t0 = now_s();
    report.emplace(study.finish(std::move(*state)));
    r.counts.emplace_back("longitudinal.finish_s", now_s() - t0);
  }
  meter_line("final", -1);

  double prom_ms = 0.0;
  if (durable) {
    {
      std::ofstream out(work / "durable.metrics.jsonl", std::ios::trunc);
      for (const std::string& line : lines) out << line << "\n";
    }
    Span span(tracer, "obs", "write_prometheus");
    const double t0 = now_s();
    std::ofstream out(work / "durable.metrics.jsonl.prom", std::ios::trunc);
    obs::write_prometheus(registry, out);
    out.flush();
    prom_ms = (now_s() - t0) * 1e3;
  }

  std::string text;
  {
    Span span(tracer, "report", "render");
    const double t0 = now_s();
    text = render_study(*fleet, *report);
    r.counts.emplace_back("report.render_ms", (now_s() - t0) * 1e3);
  }
  write_text(work / (r.workload + ".report.txt"), text);
  root->arg("probes", static_cast<double>(report->degradation.probe_attempts));
  root.reset();
  window.stop(r);

  r.digest = hex_digest(text);
  r.samples["round_ms"] = round_ms;
  r.samples["round_probes"] = round_probes;
  degradation_counts(report->degradation, r);
  fleet_counts(*fleet, r);
  if (metered) registry_counts(registry, r);
  if (durable) {
    r.samples["snapshot.capture_ms"] = capture_ms;
    r.samples["snapshot.encode_ms"] = encode_ms;
    r.samples["snapshot.write_ms"] = write_ms;
    r.samples["obs.line_ms"] = line_ms;
    r.counts.emplace_back("snapshot.bytes",
                          static_cast<double>(snapshot_bytes));
    r.counts.emplace_back("obs.prom_ms", prom_ms);
    r.counts.emplace_back("obs.families",
                          static_cast<double>(registry.families().size()));
    const std::string saved = snapshot::load_file(ckpt.string());
    r.check("final checkpoint decodes and re-encodes to the same bytes",
            snapshot::StudySnapshot::decode(saved).encode() == saved);
  }
}

// ----------------------------------------------------------------- sweep --

void run_sweep(Tracer& tracer, const fs::path& work, Result& r) {
  r.threads = 2;
  auto fleet = build_fleet(tracer, 0.5, mix_seed(r.seed, 1), r);

  obs::Registry registry;
  Window window;
  window.start();
  std::optional<Span> root;
  root.emplace(tracer, "bench", r.workload);

  scan::CampaignConfig config;
  config.prober.responder = fleet->responder();
  config.threads = r.threads;
  config.faults.rate = 0.05;
  config.faults.seed = mix_seed(r.seed, 3);
  config.metrics = tracer.enabled() ? &registry : nullptr;
  scan::Campaign campaign(config, fleet->dns(), fleet->clock(), *fleet);

  std::optional<scan::CampaignReport> report;
  {
    Span span(tracer, "scan", "Campaign::run");
    const double t0 = now_s();
    report.emplace(campaign.run(fleet->target_source()));
    r.counts.emplace_back("scan.campaign_s", now_s() - t0);
    span.arg("probes",
             static_cast<double>(report->degradation.probe_attempts));
    span.arg("dns_log_entries",
             static_cast<double>(fleet->dns().query_log().size()));
  }

  std::string text;
  {
    Span span(tracer, "report", "render");
    const double t0 = now_s();
    std::ostringstream os;
    os << report::table3_outcomes(*fleet, *report) << "\n"
       << report::table4_breakdown(*fleet, *report) << "\n"
       << report::table7_behaviors(*fleet, *report) << "\n"
       << report::degradation_table(report->degradation) << "\n";
    text = os.str();
    r.counts.emplace_back("report.render_ms", (now_s() - t0) * 1e3);
  }
  write_text(work / "sweep.report.txt", text);
  root.reset();
  window.stop(r);

  r.digest = hex_digest(text);
  degradation_counts(report->degradation, r);
  fleet_counts(*fleet, r);
  if (tracer.enabled()) registry_counts(registry, r);
}

// --------------------------------------------------------------- service --

// Timestamps every line the service writes to its live event stream, so job
// turnaround is measured in wall time without touching the service.
class StampedLines : public std::streambuf {
 public:
  std::vector<std::pair<double, std::string>> lines;

 protected:
  int overflow(int ch) override {
    if (ch == '\n') {
      lines.emplace_back(now_s(), std::move(current_));
      current_.clear();
    } else if (ch != traits_type::eof()) {
      current_ += static_cast<char>(ch);
    }
    return ch;
  }
  std::streamsize xsputn(const char* s, std::streamsize n) override {
    for (std::streamsize i = 0; i < n; ++i) overflow(s[i]);
    return n;
  }

 private:
  std::string current_;
};

// `key=value` out of an event line, or "" when absent.
std::string event_field(std::string_view line, std::string_view key) {
  const std::string needle = " " + std::string(key) + "=";
  const std::size_t at = line.find(needle);
  if (at == std::string_view::npos) return {};
  const std::size_t from = at + needle.size();
  return std::string(line.substr(from, line.find(' ', from) - from));
}

// Many small recurring jobs that share the service's few active slots, and
// a drain scheduled after the last run can finish.
constexpr int kServiceJobs = 12;
constexpr int kServiceRuns = 5;

std::string service_script(std::uint64_t seed) {
  std::ostringstream os;
  for (int j = 0; j < kServiceJobs; ++j) {
    os << "submit job" << j << " scale 0.004 seed "
       << mix_seed(seed, 100 + j) % 100000 << " study-seed "
       << mix_seed(seed, 200 + j) % 100000 << " threads 1 priority "
       << j % 3 << " recur 2 runs " << kServiceRuns << "\n";
  }
  os << "at 125 drain\n";
  return os.str();
}

void run_service(Tracer& tracer, const fs::path& work, Result& r) {
  r.threads = 1;
  const fs::path dir = work / "service";
  fs::remove_all(dir);
  fs::create_directories(dir);
  const fs::path control = dir / "control.txt";

  svc::SvcConfig config;
  config.dir = (dir / "state").string();
  config.control = control.string();
  config.max_active_jobs = 3;
  config.rounds_per_tick = 6;
  config.metrics_path = (dir / "metrics.jsonl").string();

  StampedLines stamped;
  std::ostream log(&stamped);
  svc::ServiceOptions options;
  options.log = &log;
  write_text(control, service_script(r.seed));

  std::optional<svc::ServiceLoop> loop;
  {
    Span span(tracer, "svc", "ServiceLoop::ServiceLoop");
    const double t0 = now_s();
    loop.emplace(config, options);
    r.setup_s = now_s() - t0;
    r.ready_at = now_s();
  }

  Window window;
  window.start();
  svc::ServiceLoop::Status status;
  {
    Span root(tracer, "bench", r.workload);
    Span span(tracer, "svc", "ServiceLoop::run");
    const double t0 = now_s();
    status = loop->run();
    r.counts.emplace_back("svc.run_s", now_s() - t0);
    span.arg("ticks", static_cast<double>(loop->ticks()));
  }
  window.stop(r);

  r.check("service drained", status == svc::ServiceLoop::Status::Drained,
          svc::to_string(status));

  // Job-run turnaround: queued -> done, keyed by (job, run).
  std::map<std::pair<std::string, std::string>, double> queued_at;
  std::vector<double> job_s, waits;
  std::size_t queued = 0, done = 0;
  for (const auto& [t, line] : stamped.lines) {
    const std::string job = event_field(line, "job");
    std::string run = event_field(line, "run");
    if (run.empty()) run = "1";
    if (line.find(": queued ") != std::string::npos) {
      ++queued;
      queued_at[{job, run}] = t;
    } else if (line.find(": done ") != std::string::npos) {
      ++done;
      const auto it = queued_at.find({job, run});
      if (it != queued_at.end()) job_s.push_back(t - it->second);
    }
    const std::string wait = event_field(line, "wait");
    if (!wait.empty()) waits.push_back(std::strtod(wait.c_str(), nullptr));
  }
  r.check("every submitted job run reaches Done",
          queued == done && job_s.size() == done &&
              done == kServiceJobs * kServiceRuns,
          std::to_string(done) + " of " + std::to_string(queued) + " done");
  for (int j = 0; j < kServiceJobs; ++j) {
    const std::string id = "job" + std::to_string(j);
    const auto phase = loop->job_phase(id);
    if (!phase || *phase != svc::JobPhase::Done) {
      r.check("job " + id + " ends Done", false);
    }
  }

  // The deterministic outputs: every run report, then the event log.
  std::vector<fs::path> reports;
  for (const auto& entry : fs::directory_iterator(config.dir)) {
    if (entry.path().extension() == ".report") reports.push_back(entry.path());
  }
  std::sort(reports.begin(), reports.end());
  std::string outputs;
  for (const fs::path& path : reports) {
    const std::string text = snapshot::load_file(path.string());
    const std::string key = "probe attempts ";
    const std::size_t at = text.find(key);
    if (at != std::string::npos) {
      r.probes += std::strtod(text.c_str() + at + key.size(), nullptr);
    }
    outputs += path.filename().string() + "\n" + text;
  }
  outputs += snapshot::load_file(config.dir + "/events.log");
  r.digest = hex_digest(outputs);

  r.samples["job_s"] = job_s;
  r.samples["svc.admission_wait_ticks"] = waits;
  const double ticks = static_cast<double>(loop->ticks());
  r.counts.emplace_back("svc.ticks", ticks);
  r.counts.emplace_back("svc.job_runs", static_cast<double>(done));
  r.counts.emplace_back("svc.events",
                        static_cast<double>(loop->events().size()));
  r.counts.emplace_back(
      "svc.state_bytes",
      static_cast<double>(fs::file_size(config.dir + "/svc_state")));
  r.counts.emplace_back("svc.bytes_per_tick",
                        ticks > 0 ? static_cast<double>(r.written) / ticks : 0);
  r.counts.emplace_back("obs.families",
                        static_cast<double>(loop->metrics().families().size()));
  // Leave nothing for the next iteration's set-up to delete.
  fs::remove_all(dir);
}

// ------------------------------------------------------------------ main --

std::string env_json() {
#ifdef __OPTIMIZE__
  constexpr bool optimized = true;
#else
  constexpr bool optimized = false;
#endif
#ifdef NDEBUG
  constexpr bool ndebug = true;
#else
  constexpr bool ndebug = false;
#endif
#ifdef __VERSION__
  const std::string compiler = __VERSION__;
#else
  const std::string compiler = "unknown";
#endif
  return "{\"compiler\":" + json_str(compiler) +
         ",\"optimize\":" + (optimized ? "true" : "false") +
         ",\"ndebug\":" + (ndebug ? "true" : "false") + "}";
}

int usage() {
  std::cerr << "usage: perfbench --workload study|sweep|durable|service "
               "--seed N --work DIR [--trace] | perfbench --env\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  std::uint64_t seed = 0;
  fs::path work;
  bool trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg == "--env") {
      std::cout << env_json() << "\n";
      return 0;
    }
    if (arg == "--trace") {
      trace = true;
    } else if (i + 1 < argc && arg == "--workload") {
      workload = argv[++i];
    } else if (i + 1 < argc && arg == "--seed") {
      seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (i + 1 < argc && arg == "--work") {
      work = argv[++i];
    } else {
      return usage();
    }
  }
  if (work.empty()) return usage();
  fs::create_directories(work);

  // Worker threads read the wall-profile flag, so it is set before any
  // workload spawns them.
  std::optional<obs::WallProfileScope> wall;
  if (trace) wall.emplace();

  Tracer tracer(trace);
  Result r;
  r.workload = workload;
  r.seed = seed;
  try {
    if (workload == "study" || workload == "durable") {
      run_study(tracer, work, workload == "durable", r);
    } else if (workload == "sweep") {
      run_sweep(tracer, work, r);
    } else if (workload == "service") {
      run_service(tracer, work, r);
    } else {
      return usage();
    }
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << workload << " failed: " << e.what() << "\n";
    return 1;
  }

  std::string checks = "[";
  for (std::size_t i = 0; i < r.checks.size(); ++i) {
    const Check& c = r.checks[i];
    if (i > 0) checks += ",";
    checks += "{\"name\":" + json_str(c.name) + ",\"ok\":" +
              (c.ok ? "true" : "false") + ",\"detail\":" + json_str(c.detail) +
              "}";
  }
  checks += "]";
  std::string samples = "{";
  for (const auto& [name, values] : r.samples) {
    if (samples.size() > 1) samples += ",";
    samples += json_str(name) + ":" + json_list(values);
  }
  samples += "}";

  std::cout << "{\"workload\":" << json_str(r.workload)
            << ",\"seed\":" << r.seed << ",\"threads\":" << r.threads
            << ",\"setup_s\":" << json_num(r.setup_s)
            << ",\"ready_at\":" << json_num(r.ready_at)
            << ",\"wall_s\":" << json_num(r.wall_s)
            << ",\"cpu_s\":" << json_num(r.cpu_s)
            << ",\"probes\":" << json_num(r.probes)
            << ",\"written_bytes\":" << r.written
            << ",\"peak_rss_kb\":" << peak_rss_kb()
            << ",\"digest\":" << json_str(r.digest)
            << ",\"checks\":" << checks << ",\"samples\":" << samples
            << ",\"counts\":" << json_counts(r.counts)
            << ",\"spans\":" << tracer.json() << "}\n";
  return 0;
}
