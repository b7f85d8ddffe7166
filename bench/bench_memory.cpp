// Memory-shape bench for the interned, streaming population (DESIGN.md §14).
//
// Memory, not CPU, is what caps campaign size. This binary measures the
// fleet's one shape under a counting global allocator: hosts stream through
// Fleet::find_host / release_host and the campaign consumes the zero-copy
// scan::TargetSource view.
//
// It reports heap allocation count/bytes and peak heap during population
// build + target walk, then runs the initial campaign and reports its peak
// on top. bytes/host is the whole-run peak heap divided by the address
// count. Interner statistics (hits/misses/distinct bytes) show how much text
// the table deduplicated. Results go to stdout as a table and to --out
// (default BENCH_memory.json) as machine-readable JSON; --budget N makes the
// process exit nonzero when bytes/host exceeds N, which is what the
// `memory_budget` ctest pins.
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <new>
#include <string>

#if defined(__GLIBC__)
#include <malloc.h>
#endif

#include "population/fleet.hpp"
#include "scan/campaign.hpp"
#include "util/table.hpp"

// ----------------------------------------------------------- counting new
// Every allocation in the binary flows through here. Freed size is recovered
// with malloc_usable_size so current/peak stay exact without a side table.

namespace {

std::atomic<std::uint64_t> g_alloc_count{0};
std::atomic<std::uint64_t> g_alloc_bytes{0};
std::atomic<std::uint64_t> g_current_bytes{0};
std::atomic<std::uint64_t> g_peak_bytes{0};

void note_alloc(void* ptr, std::size_t requested) {
#if defined(__GLIBC__)
  const std::uint64_t bytes = malloc_usable_size(ptr);
#else
  (void)ptr;
  const std::uint64_t bytes = requested;
#endif
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  g_alloc_bytes.fetch_add(bytes, std::memory_order_relaxed);
  const std::uint64_t now =
      g_current_bytes.fetch_add(bytes, std::memory_order_relaxed) + bytes;
  std::uint64_t peak = g_peak_bytes.load(std::memory_order_relaxed);
  while (now > peak &&
         !g_peak_bytes.compare_exchange_weak(peak, now,
                                             std::memory_order_relaxed)) {
  }
  (void)requested;
}

void note_free(void* ptr) {
  if (ptr == nullptr) return;
#if defined(__GLIBC__)
  g_current_bytes.fetch_sub(malloc_usable_size(ptr),
                            std::memory_order_relaxed);
#endif
}

}  // namespace

void* operator new(std::size_t size) {
  void* ptr = std::malloc(size == 0 ? 1 : size);
  if (ptr == nullptr) throw std::bad_alloc();
  note_alloc(ptr, size);
  return ptr;
}

void* operator new[](std::size_t size) { return ::operator new(size); }

void operator delete(void* ptr) noexcept {
  note_free(ptr);
  std::free(ptr);
}

void operator delete[](void* ptr) noexcept { ::operator delete(ptr); }
void operator delete(void* ptr, std::size_t) noexcept { ::operator delete(ptr); }
void operator delete[](void* ptr, std::size_t) noexcept {
  ::operator delete(ptr);
}

// ----------------------------------------------------------------- harness

namespace {

using namespace spfail;

struct PhaseStats {
  std::uint64_t alloc_count = 0;
  std::uint64_t alloc_bytes = 0;
  std::uint64_t peak_bytes = 0;  // high-water of live heap during the phase
  double wall_seconds = 0.0;
};

// Deltas between construction and finish(); peak is re-based at the start so
// each phase reports its own high-water mark, not the process's.
class AllocMeter {
 public:
  AllocMeter()
      : count_(g_alloc_count.load()),
        bytes_(g_alloc_bytes.load()),
        start_(std::chrono::steady_clock::now()) {
    g_peak_bytes.store(g_current_bytes.load());
  }

  PhaseStats finish() const {
    PhaseStats s;
    s.alloc_count = g_alloc_count.load() - count_;
    s.alloc_bytes = g_alloc_bytes.load() - bytes_;
    s.peak_bytes = g_peak_bytes.load();
    s.wall_seconds = std::chrono::duration<double>(
                         std::chrono::steady_clock::now() - start_)
                         .count();
    return s;
  }

 private:
  std::uint64_t count_;
  std::uint64_t bytes_;
  std::chrono::steady_clock::time_point start_;
};

struct FleetResult {
  PhaseStats build;     // fleet construction + target walk
  PhaseStats campaign;  // the initial measurement itself
  std::size_t hosts = 0;
  std::size_t domains = 0;
  std::size_t conclusive = 0;
  std::uint64_t intern_hits = 0;
  std::uint64_t intern_misses = 0;
  std::uint64_t intern_distinct_bytes = 0;
  std::size_t live_hosts_after = 0;
};

FleetResult run_fleet(double scale) {
  FleetResult result;
  const AllocMeter build_meter;
  population::FleetConfig config;
  config.scale = scale;
  config.mix = population::PolicyMix::paper_baseline();
  population::Fleet fleet(config);
  // Streaming consumers never copy; walking the view is the whole cost.
  std::size_t target_domains = 0;
  fleet.target_source().for_each(
      [&](std::string_view, std::span<const util::IpAddress>) {
        ++target_domains;
      });
  result.build = build_meter.finish();
  result.hosts = fleet.address_count();
  result.domains = target_domains;

  const AllocMeter campaign_meter;
  scan::CampaignConfig campaign_config;
  campaign_config.prober.responder = fleet.responder();
  campaign_config.threads = 1;
  scan::Campaign campaign(campaign_config, fleet.dns(), fleet.clock(), fleet);
  const scan::CampaignReport report = campaign.run(fleet.target_source());
  result.campaign = campaign_meter.finish();
  for (const auto& [address, outcome] : report.addresses) {
    result.conclusive += outcome.verdict == scan::AddressVerdict::Measured;
  }
  result.intern_hits = fleet.strings().hits();
  result.intern_misses = fleet.strings().misses();
  result.intern_distinct_bytes = fleet.strings().distinct_bytes();
  result.live_hosts_after = fleet.live_hosts();
  return result;
}

// VmHWM (peak resident set) in kilobytes; 0 when /proc is unavailable.
std::uint64_t vm_hwm_kb() {
#if defined(__linux__)
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtoull(line.c_str() + 6, nullptr, 10);
    }
  }
#endif
  return 0;
}

double per_host(std::uint64_t bytes, std::size_t hosts) {
  return hosts == 0 ? 0.0 : static_cast<double>(bytes) /
                                static_cast<double>(hosts);
}

// The number the budget pins: whole-run peak live heap over the host count.
// Both phase peaks are absolute high-water marks, so the max covers the run.
std::uint64_t overall_peak(const FleetResult& r) {
  return std::max(r.build.peak_bytes, r.campaign.peak_bytes);
}

void write_json(const std::string& path, double scale, const FleetResult& r) {
  std::ofstream out(path, std::ios::trunc);
  if (!out) {
    std::cerr << "warning: cannot write " << path << "\n";
    return;
  }
  out << "{\n"
      << "  \"scale\": " << scale << ",\n"
      << "  \"hosts\": " << r.hosts << ",\n"
      << "  \"domains\": " << r.domains << ",\n"
      << "  \"build_alloc_count\": " << r.build.alloc_count << ",\n"
      << "  \"build_alloc_bytes\": " << r.build.alloc_bytes << ",\n"
      << "  \"build_peak_bytes\": " << r.build.peak_bytes << ",\n"
      << "  \"bytes_per_host\": " << per_host(overall_peak(r), r.hosts)
      << ",\n"
      << "  \"build_wall_seconds\": " << r.build.wall_seconds << ",\n"
      << "  \"campaign_alloc_count\": " << r.campaign.alloc_count << ",\n"
      << "  \"campaign_peak_bytes\": " << r.campaign.peak_bytes << ",\n"
      << "  \"campaign_wall_seconds\": " << r.campaign.wall_seconds << ",\n"
      << "  \"live_hosts_after\": " << r.live_hosts_after << ",\n"
      << "  \"conclusive\": " << r.conclusive << ",\n"
      << "  \"interner\": {\n"
      << "    \"hits\": " << r.intern_hits << ",\n"
      << "    \"misses\": " << r.intern_misses << ",\n"
      << "    \"distinct_bytes\": " << r.intern_distinct_bytes << "\n"
      << "  },\n"
      << "  \"vm_hwm_kb\": " << vm_hwm_kb() << "\n"
      << "}\n";
  std::cout << "(json written to " << path << ")\n";
}

}  // namespace

int main(int argc, char** argv) {
  double scale = 0.05;
  std::string out_path = "BENCH_memory.json";
  double budget_bytes_per_host = 0.0;  // 0 = no budget enforcement
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::cerr << "missing value for " << arg << "\n";
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--scale") {
      scale = std::strtod(next(), nullptr);
    } else if (arg == "--out") {
      out_path = next();
    } else if (arg == "--budget") {
      budget_bytes_per_host = std::strtod(next(), nullptr);
    } else {
      std::cerr << "unknown option " << arg
                << " (expected --scale S, --out PATH, --budget BYTES)\n";
      return 2;
    }
  }

  std::cout << "Memory shape: interned streaming fleet (scale=" << scale
            << ")\n\n";
  const FleetResult r = run_fleet(scale);

  util::TextTable table(
      {"Build allocs", "Build peak MiB", "Bytes/host", "Campaign peak MiB",
       "Live hosts after", "Wall s"},
      {util::Align::Right, util::Align::Right, util::Align::Right,
       util::Align::Right, util::Align::Right, util::Align::Right});
  const auto mib = [](std::uint64_t bytes) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.1f",
                  static_cast<double>(bytes) / (1024.0 * 1024.0));
    return std::string(buf);
  };
  char bph[32], wall[32];
  std::snprintf(bph, sizeof(bph), "%.0f", per_host(overall_peak(r), r.hosts));
  std::snprintf(wall, sizeof(wall), "%.2f",
                r.build.wall_seconds + r.campaign.wall_seconds);
  table.add_row({std::to_string(r.build.alloc_count), mib(r.build.peak_bytes),
                 bph, mib(r.campaign.peak_bytes),
                 std::to_string(r.live_hosts_after), wall});
  std::cout << table << "\n"
            << "Interner: " << r.intern_misses << " distinct strings ("
            << r.intern_distinct_bytes << " bytes), " << r.intern_hits
            << " repeat lookups answered from the table.\n"
            << "Hosts: " << r.hosts << " | conclusive: " << r.conclusive
            << " | peak RSS (VmHWM): " << vm_hwm_kb() << " KiB\n\n";

  write_json(out_path, scale, r);

  if (budget_bytes_per_host > 0.0) {
    const double got = per_host(overall_peak(r), r.hosts);
    if (got > budget_bytes_per_host) {
      std::cerr << "FAIL: bytes/host " << got << " exceeds budget "
                << budget_bytes_per_host << "\n";
      return 1;
    }
    std::cout << "memory budget OK: " << got << " <= " << budget_bytes_per_host
              << " bytes/host\n";
  }
  return 0;
}
