// Scan-service throughput bench (DESIGN.md §18).
//
// Drives the ServiceLoop end to end: submits a batch of small scan jobs
// through the control file, runs the service to drain, and reports
//
//   - jobs/sec: completed runs over wall time (the service's end-to-end
//     throughput, scan work included);
//   - ticks/sec: scheduler overhead lane — how fast the tick machinery
//     itself turns over;
//   - time-to-admission: the svc_admission_wait_ticks histogram's p50/p95
//     and max, in ticks — what queueing plus admission control cost jobs
//     before their first round ran.
//
// The wall-clock numbers are machine-dependent (informational); the
// admission-wait distribution is deterministic for a fixed script, so a
// shifted p95 in CI is a real scheduling regression, not noise. Results go
// to stdout and to --out (default BENCH_svc.json).
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <string>

#include "session/flag_parse.hpp"
#include "svc/service.hpp"

namespace {

using namespace spfail;

}  // namespace

// Every numeric flag goes through the strict session parsers: a malformed
// value exits 2 with the parser's message instead of running as 0.
int main(int argc, char** argv) try {
  std::string out_path = "BENCH_svc.json";
  std::string work_dir = "bench_svc_work";
  double scale = 0.004;
  std::size_t jobs = 6;
  int max_active = 2;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::cerr << "missing value for " << arg << "\n";
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--out") {
      out_path = next();
    } else if (arg == "--dir") {
      work_dir = next();
    } else if (arg == "--scale") {
      scale = session::parse_double(arg, next());
    } else if (arg == "--jobs") {
      jobs = session::parse_u64(arg, next());
    } else if (arg == "--max-active") {
      max_active = session::parse_int(arg, next());
    } else {
      std::cerr << "unknown option " << arg
                << " (expected --out PATH, --dir DIR, --scale S, --jobs N, "
                   "--max-active N)\n";
      return 2;
    }
  }

  if (jobs == 0 || scale <= 0.0 || max_active < 1) {
    std::cerr << "need --jobs >= 1, --scale > 0, --max-active >= 1\n";
    return 2;
  }

  std::filesystem::remove_all(work_dir);
  std::filesystem::create_directories(work_dir);

  // Build the control script: `jobs` submissions with distinct seeds (so the
  // derived network footprints overlap only by chance) and a final drain.
  std::string script;
  for (std::size_t i = 0; i < jobs; ++i) {
    script += "submit job" + std::to_string(i) + " scale " +
              std::to_string(scale) + " seed " + std::to_string(100 + i) +
              "\n";
  }
  script += "drain\n";
  const std::string control_path = work_dir + "/control.txt";
  {
    std::ofstream control(control_path, std::ios::trunc);
    control << script;
  }

  svc::SvcConfig config;
  config.dir = work_dir + "/state";
  config.control = control_path;
  config.max_active_jobs = max_active;
  config.rounds_per_tick = 8;

  svc::ServiceLoop loop(config);
  const auto start = std::chrono::steady_clock::now();
  const svc::ServiceLoop::Status status = loop.run();
  const auto stop = std::chrono::steady_clock::now();
  const double seconds =
      std::chrono::duration<double>(stop - start).count();

  if (status != svc::ServiceLoop::Status::Drained) {
    std::cerr << "service did not drain: " << svc::to_string(status) << "\n";
    return 1;
  }

  const obs::Registry& reg = loop.metrics();
  const std::uint64_t completed =
      reg.find("svc_jobs_completed_total")->cells.at("").counter;
  if (completed != jobs) {
    std::cerr << "expected " << jobs << " completed jobs, saw " << completed
              << "\n";
    return 1;
  }
  const obs::Histogram& wait =
      reg.find("svc_admission_wait_ticks")->cells.at("").histogram;

  const double jobs_per_sec = completed / seconds;
  const double ticks_per_sec = loop.ticks() / seconds;
  std::cout << "Scan service bench (DESIGN.md §18): " << jobs
            << " jobs at scale " << scale << ", " << max_active
            << " active slots\n"
            << "  drained in " << seconds << " s over " << loop.ticks()
            << " ticks\n"
            << "  jobs/sec  " << jobs_per_sec << "\n"
            << "  ticks/sec " << ticks_per_sec << "\n"
            << "  time-to-admission (ticks): p50 " << wait.quantile(0.5)
            << ", p95 " << wait.quantile(0.95) << ", max " << wait.max()
            << "\n";

  std::ofstream out(out_path, std::ios::trunc);
  if (!out) {
    std::cerr << "warning: cannot write " << out_path << "\n";
    return 0;
  }
  out << "{\n  \"jobs\": " << jobs << ",\n  \"scale\": " << scale
      << ",\n  \"max_active\": " << max_active
      << ",\n  \"ticks\": " << loop.ticks()
      << ",\n  \"seconds\": " << seconds
      << ",\n  \"jobs_per_sec\": " << jobs_per_sec
      << ",\n  \"ticks_per_sec\": " << ticks_per_sec
      << ",\n  \"admission_wait_ticks\": {\"p50\": " << wait.quantile(0.5)
      << ", \"p95\": " << wait.quantile(0.95) << ", \"max\": " << wait.max()
      << ", \"count\": " << wait.count() << "}\n}\n";
  std::cout << "(json written to " << out_path << ")\n";
  return 0;
} catch (const session::ScanConfigError& e) {
  std::cerr << e.what() << "\n";
  return 2;
}
