// Contention microbench for the lock-free scan core (DESIGN.md §16).
//
// Three surfaces, each at 1/2/8 threads:
//
//   table  — util::ConcurrentTable throughput on its two paths: the miss
//            path (CAS-claim a fresh slot, publish) and the hit path (probe
//            to an already-published slot), all threads hammering one shared
//            table the way the record cache and breaker groups do.
//   steal  — scheduler overhead: the same deliberately skewed synthetic
//            workload dispatched through the work-stealing batch scheduler
//            under each steal mode (none / random / adversarial), so the
//            steal machinery's cost — and the rebalancing it buys under
//            skew — is a number, not a hunch.
//   cache  — spf::SharedRecordCache fed distinct record texts, four times
//            its capacity, the way per-probe templated policies arrive:
//            lookups/s while it admits (parse + insert) and after its
//            admission bound (turned away). A cache whose past-the-bound
//            lookups cost O(capacity) or throw shows up here as a cliff.
//
// Results go to stdout as a table and to --out (default
// BENCH_contention.json) as machine-readable JSON. Wall-clock numbers are
// hardware-dependent by nature; nothing here feeds the deterministic
// outputs.
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "spf/record_cache.hpp"
#include "util/concurrent_table.hpp"
#include "util/table.hpp"
#include "util/thread_pool.hpp"

namespace {

using namespace spfail;

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

// ------------------------------------------------------------------ table

struct Counter {
  std::atomic<std::uint64_t> value{0};
};

struct TableRates {
  double miss_mops = 0.0;  // million find_or_insert misses / second
  double hit_mops = 0.0;   // million hit-path lookups / second
};

// `keys` distinct keys split across `threads` inserters (miss path), then
// every thread re-probes the full key set `rounds` times (hit path).
TableRates measure_table(int threads, std::uint64_t keys, int rounds) {
  util::ConcurrentTable<Counter> table(keys);
  TableRates rates;
  {
    const auto start = std::chrono::steady_clock::now();
    std::vector<std::thread> inserters;
    for (int t = 0; t < threads; ++t) {
      inserters.emplace_back([&, t] {
        for (std::uint64_t k = static_cast<std::uint64_t>(t); k < keys;
             k += static_cast<std::uint64_t>(threads)) {
          table.find_or_insert(k, [&](Counter& c) { c.value.store(k); });
        }
      });
    }
    for (auto& thread : inserters) thread.join();
    rates.miss_mops =
        static_cast<double>(keys) / seconds_since(start) / 1e6;
  }
  {
    const auto start = std::chrono::steady_clock::now();
    std::vector<std::thread> readers;
    for (int t = 0; t < threads; ++t) {
      readers.emplace_back([&] {
        std::uint64_t sink = 0;
        for (int r = 0; r < rounds; ++r) {
          for (std::uint64_t k = 0; k < keys; ++k) {
            sink += table.find_or_insert(k).payload->value.load(
                std::memory_order_relaxed);
          }
        }
        // Defeat dead-code elimination without atomics in the hot loop.
        if (sink == 0xdeadbeef) std::fprintf(stderr, "impossible\n");
      });
    }
    for (auto& thread : readers) thread.join();
    rates.hit_mops = static_cast<double>(keys) * rounds * threads /
                     seconds_since(start) / 1e6;
  }
  return rates;
}

// ------------------------------------------------------------------ steal

// Skewed per-item cost — the first tenth of the range is 16x heavier, the
// shape a no-steal drain handles worst (the first workers' batches become
// the stragglers).
std::uint64_t item_work(std::size_t i, std::size_t n, int spin) {
  const int reps = (i < n / 10) ? spin * 16 : spin;
  std::uint64_t h = 1469598103934665603ULL ^ i;
  for (int r = 0; r < reps; ++r) {
    h ^= r;
    h *= 1099511628211ULL;
  }
  return h;
}

double measure_dispatch(int threads, std::size_t n, int spin,
                        util::StealMode mode) {
  util::ThreadPool pool(threads);
  std::vector<std::uint64_t> sums(pool.batch_count(n));
  const auto start = std::chrono::steady_clock::now();
  pool.parallel_for_batches(
      n, mode, [&](std::size_t batch, std::size_t begin, std::size_t end) {
        std::uint64_t sum = 0;
        for (std::size_t i = begin; i < end; ++i) sum += item_work(i, n, spin);
        sums[batch] = sum;
      });
  return seconds_since(start);
}

struct StealTimes {
  double none_s = 0.0;
  double random_s = 0.0;
  double adversarial_s = 0.0;
};

StealTimes measure_steal(int threads, std::size_t n, int spin) {
  StealTimes times;
  times.none_s = measure_dispatch(threads, n, spin, util::StealMode::None);
  times.random_s = measure_dispatch(threads, n, spin, util::StealMode::Random);
  times.adversarial_s =
      measure_dispatch(threads, n, spin, util::StealMode::Adversarial);
  return times;
}

// ------------------------------------------------------------------ cache

struct CacheRates {
  double admit_mlps = 0.0;      // million lookups / second below the bound
  double saturated_mlps = 0.0;  // million lookups / second past the bound
  std::size_t size = 0;
  std::uint64_t uncached = 0;
};

// Runs lookup() over texts[begin, end) split across `threads`; seconds.
double lookup_all(spf::SharedRecordCache& cache,
                  const std::vector<std::string>& texts, std::size_t begin,
                  std::size_t end, int threads) {
  const auto start = std::chrono::steady_clock::now();
  std::vector<std::thread> workers;
  for (int t = 0; t < threads; ++t) {
    workers.emplace_back([&, t] {
      for (std::size_t i = begin + static_cast<std::size_t>(t); i < end;
           i += static_cast<std::size_t>(threads)) {
        cache.lookup(texts[i]);
      }
    });
  }
  for (auto& worker : workers) worker.join();
  return seconds_since(start);
}

// One default-sized cache, like the fleet's: the first capacity/2 distinct
// texts are admitted, every later one is past the bound.
CacheRates measure_cache(int threads, const std::vector<std::string>& texts) {
  spf::SharedRecordCache cache;
  const std::size_t bound = cache.capacity() / 2;
  CacheRates rates;
  rates.admit_mlps = static_cast<double>(bound) /
                     lookup_all(cache, texts, 0, bound, threads) / 1e6;
  rates.saturated_mlps =
      static_cast<double>(texts.size() - bound) /
      lookup_all(cache, texts, bound, texts.size(), threads) / 1e6;
  rates.size = cache.size();
  rates.uncached = cache.uncached();
  return rates;
}

}  // namespace

int main(int argc, char** argv) {
  std::string out_path = "BENCH_contention.json";
  std::uint64_t keys = 1 << 16;  // distinct table keys per lane
  int rounds = 8;                // hit-path sweeps per thread
  std::size_t items = 1 << 15;   // scheduler workload size
  int spin = 64;                 // base per-item spin reps
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
    } else if (arg == "--keys") {
      keys = std::strtoull(next(), nullptr, 10);
    } else if (arg == "--rounds") {
      rounds = static_cast<int>(std::strtol(next(), nullptr, 10));
    } else if (arg == "--items") {
      items = std::strtoull(next(), nullptr, 10);
    } else if (arg == "--spin") {
      spin = static_cast<int>(std::strtol(next(), nullptr, 10));
    } else {
      std::cerr << "unknown option " << arg
                << " (expected --out PATH, --keys N, --rounds N, --items N, "
                   "--spin N)\n";
      return 2;
    }
  }

  const int lanes[] = {1, 2, 8};
  std::cout << "Lock-free scan core contention (DESIGN.md §16): "
            << keys << " keys, " << items << " items\n\n";

  // Distinct record texts, pre-rendered so the cache lanes time lookups.
  const std::size_t cache_capacity = spf::SharedRecordCache().capacity();
  std::vector<std::string> texts(4 * cache_capacity);
  for (std::size_t i = 0; i < texts.size(); ++i) {
    texts[i] = "v=spf1 a:" + std::to_string(i) + ".probe.example.com -all";
  }

  std::vector<TableRates> table_rates;
  std::vector<StealTimes> steal_times;
  std::vector<CacheRates> cache_rates;
  for (const int threads : lanes) {
    table_rates.push_back(measure_table(threads, keys, rounds));
    steal_times.push_back(measure_steal(threads, items, spin));
    cache_rates.push_back(measure_cache(threads, texts));
  }
  // The lane is informational, but a cache that grew past its admission
  // bound or answered a turned-away text would make its numbers meaningless.
  for (std::size_t i = 0; i < std::size(lanes); ++i) {
    if (cache_rates[i].size != cache_capacity / 2 ||
        cache_rates[i].uncached != texts.size() - cache_capacity / 2) {
      std::cerr << "record cache lane at " << lanes[i] << " threads: size "
                << cache_rates[i].size << ", uncached "
                << cache_rates[i].uncached << "; expected "
                << cache_capacity / 2 << " and "
                << texts.size() - cache_capacity / 2 << "\n";
      return 1;
    }
  }

  util::TextTable table(
      {"Threads", "Table miss Mop/s", "Table hit Mop/s", "Steal(none) s",
       "Steal(random) s", "Steal(adv) s"},
      {util::Align::Right, util::Align::Right, util::Align::Right,
       util::Align::Right, util::Align::Right, util::Align::Right});
  const auto fmt = [](double v) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.3f", v);
    return std::string(buf);
  };
  for (std::size_t i = 0; i < std::size(lanes); ++i) {
    table.add_row({std::to_string(lanes[i]), fmt(table_rates[i].miss_mops),
                   fmt(table_rates[i].hit_mops), fmt(steal_times[i].none_s),
                   fmt(steal_times[i].random_s),
                   fmt(steal_times[i].adversarial_s)});
  }
  std::cout << table << "\n";

  util::TextTable cache_table(
      {"Threads", "Cache admit Mlookup/s", "Cache past-bound Mlookup/s"},
      {util::Align::Right, util::Align::Right, util::Align::Right});
  for (std::size_t i = 0; i < std::size(lanes); ++i) {
    cache_table.add_row({std::to_string(lanes[i]),
                         fmt(cache_rates[i].admit_mlps),
                         fmt(cache_rates[i].saturated_mlps)});
  }
  std::cout << "SPF record cache: " << texts.size()
            << " distinct texts through capacity " << cache_capacity
            << " (admission bound " << cache_capacity / 2 << ")\n"
            << cache_table << "\n";

  std::ofstream out(out_path, std::ios::trunc);
  if (!out) {
    std::cerr << "warning: cannot write " << out_path << "\n";
    return 0;
  }
  out << "{\n  \"keys\": " << keys << ",\n  \"items\": " << items
      << ",\n  \"record_cache_texts\": " << texts.size()
      << ",\n  \"record_cache_capacity\": " << cache_capacity
      << ",\n  \"lanes\": [\n";
  for (std::size_t i = 0; i < std::size(lanes); ++i) {
    out << "    {\n      \"threads\": " << lanes[i] << ",\n"
        << "      \"table_miss_mops\": " << table_rates[i].miss_mops << ",\n"
        << "      \"table_hit_mops\": " << table_rates[i].hit_mops << ",\n"
        << "      \"steal\": {\n"
        << "        \"none_seconds\": " << steal_times[i].none_s << ",\n"
        << "        \"random_seconds\": " << steal_times[i].random_s << ",\n"
        << "        \"adversarial_seconds\": " << steal_times[i].adversarial_s
        << "\n      },\n"
        << "      \"record_cache\": {\n"
        << "        \"admit_mlookups_per_s\": " << cache_rates[i].admit_mlps
        << ",\n"
        << "        \"past_bound_mlookups_per_s\": "
        << cache_rates[i].saturated_mlps << "\n      }\n    }"
        << (i + 1 < std::size(lanes) ? "," : "")
        << "\n";
  }
  out << "  ]\n}\n";
  std::cout << "(json written to " << out_path << ")\n";
  return 0;
}
