// Scenario attack-matrix bench (DESIGN.md §17).
//
// For every non-baseline built-in ScenarioSpec, builds a fleet staged with
// that spec's own PolicyMix, drives the scenario runner's mail flows over
// it, prints the measured outcome table, and checks the four oracle rates
// against the spec's expected-outcome windows. The baseline spec is also
// exercised, as the control: it must stage zero domains and measure zero
// flows. Any oracle violation makes the bench exit nonzero, so CI catches a
// regression in the SPF/DKIM/DMARC receiver pipeline that shifts scenario
// outcomes — not just one that crashes.
//
// Everything here is simulated and deterministic: the same binary, seed,
// and scale produce byte-identical tables and JSON (modulo nothing — there
// is no wall-clock lane in this bench).
//
// Results go to stdout as a table and to --out (default
// BENCH_scenarios.json) as machine-readable JSON.
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "population/fleet.hpp"
#include "scenario/runner.hpp"
#include "scenario/scenario.hpp"
#include "session/flag_parse.hpp"
#include "util/table.hpp"

namespace {

using namespace spfail;

struct Measured {
  const scenario::ScenarioSpec* spec = nullptr;
  scenario::ScenarioReport report;
  bool ok = false;
};

std::string fmt_rate(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.3f", v);
  return std::string(buf);
}

std::string fmt_window(const scenario::RateWindow& w) {
  return "[" + fmt_rate(w.lo) + ", " + fmt_rate(w.hi) + "]";
}

}  // namespace

// Every numeric flag goes through the strict session parsers: a malformed
// value exits 2 with the parser's message instead of running as 0.
int main(int argc, char** argv) try {
  std::string out_path = "BENCH_scenarios.json";
  double scale = 0.02;
  std::uint64_t seed = 2021;
  std::size_t max_domains = 4096;
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
    } else if (arg == "--scale") {
      scale = session::parse_double(arg, next());
    } else if (arg == "--seed") {
      seed = session::parse_u64(arg, next());
    } else if (arg == "--max-domains") {
      max_domains = session::parse_u64(arg, next());
    } else {
      std::cerr << "unknown option " << arg
                << " (expected --out PATH, --scale S, --seed N, "
                   "--max-domains N)\n";
      return 2;
    }
  }

  std::cout << "Scenario attack matrix (DESIGN.md §17): scale " << scale
            << ", seed " << seed << "\n\n";

  std::vector<Measured> results;
  bool all_ok = true;
  for (const scenario::ScenarioSpec& spec : scenario::builtin_scenarios()) {
    population::FleetConfig config;
    config.scale = scale;
    config.seed = seed;
    config.mix = spec.mix;
    population::Fleet fleet(config);

    scenario::RunnerOptions options;
    options.seed = seed;
    options.max_domains = max_domains;

    Measured measured;
    measured.spec = &spec;
    measured.report = scenario::run_scenario(fleet, spec, options);
    if (spec.focus == scenario::Focus::Baseline) {
      // The control: nothing staged, nothing measured.
      measured.ok = measured.report.domains_staged == 0 &&
                    measured.report.legit.flows == 0 &&
                    measured.report.forwarded.flows == 0 &&
                    measured.report.spoof.flows == 0;
    } else {
      measured.ok = measured.report.domains_staged > 0 &&
                    measured.report.satisfies(spec.oracle);
    }
    all_ok = all_ok && measured.ok;
    results.push_back(std::move(measured));
  }

  util::TextTable table(
      {"Scenario", "Domains", "Spoof deliv", "Spoof rej", "Legit rej",
       "PermErr", "Oracle"},
      {util::Align::Left, util::Align::Right, util::Align::Right,
       util::Align::Right, util::Align::Right, util::Align::Right,
       util::Align::Left});
  for (const Measured& m : results) {
    table.add_row({m.spec->name + " v" + std::to_string(m.spec->version),
                   std::to_string(m.report.domains_staged),
                   fmt_rate(m.report.spoof_delivered_rate()),
                   fmt_rate(m.report.spoof_rejected_rate()),
                   fmt_rate(m.report.legit_rejected_rate()),
                   fmt_rate(m.report.permerror_rate()),
                   m.ok ? "pass" : "FAIL"});
  }
  std::cout << table << "\n";

  for (const Measured& m : results) {
    if (m.ok) continue;
    std::cerr << "oracle violation: " << m.spec->name << " expected "
              << "spoof_delivered " << fmt_window(m.spec->oracle.spoof_delivered)
              << ", spoof_rejected " << fmt_window(m.spec->oracle.spoof_rejected)
              << ", legit_rejected " << fmt_window(m.spec->oracle.legit_rejected)
              << ", permerror " << fmt_window(m.spec->oracle.permerror)
              << "; measured " << fmt_rate(m.report.spoof_delivered_rate())
              << " / " << fmt_rate(m.report.spoof_rejected_rate()) << " / "
              << fmt_rate(m.report.legit_rejected_rate()) << " / "
              << fmt_rate(m.report.permerror_rate()) << " over "
              << m.report.domains_staged << " domains\n";
  }

  std::ofstream out(out_path, std::ios::trunc);
  if (!out) {
    std::cerr << "warning: cannot write " << out_path << "\n";
    return all_ok ? 0 : 1;
  }
  out << "{\n  \"scale\": " << scale << ",\n  \"seed\": " << seed
      << ",\n  \"scenarios\": [\n";
  for (std::size_t i = 0; i < results.size(); ++i) {
    const Measured& m = results[i];
    const auto tally = [&](const char* key, const scenario::FlowTally& t,
                           const char* trailing) {
      out << "      \"" << key << "\": {\"flows\": " << t.flows
          << ", \"delivered\": " << t.delivered
          << ", \"rejected\": " << t.rejected
          << ", \"quarantined\": " << t.quarantined
          << ", \"spf_permerror\": " << t.spf_permerror
          << ", \"dmarc_sampled_out\": " << t.dmarc_sampled_out << "}"
          << trailing << "\n";
    };
    out << "    {\n      \"name\": \"" << m.spec->name << "\",\n"
        << "      \"version\": " << m.spec->version << ",\n"
        << "      \"domains_staged\": " << m.report.domains_staged << ",\n"
        << "      \"truncated\": " << (m.report.truncated ? "true" : "false")
        << ",\n";
    tally("legit", m.report.legit, ",");
    tally("forwarded", m.report.forwarded, ",");
    tally("spoof", m.report.spoof, ",");
    out << "      \"spoof_delivered_rate\": "
        << m.report.spoof_delivered_rate() << ",\n"
        << "      \"spoof_rejected_rate\": " << m.report.spoof_rejected_rate()
        << ",\n"
        << "      \"legit_rejected_rate\": " << m.report.legit_rejected_rate()
        << ",\n"
        << "      \"permerror_rate\": " << m.report.permerror_rate() << ",\n"
        << "      \"oracle_ok\": " << (m.ok ? "true" : "false")
        << "\n    }" << (i + 1 < results.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
  std::cout << "(json written to " << out_path << ")\n";
  return all_ok ? 0 : 1;
} catch (const session::ScanConfigError& e) {
  std::cerr << e.what() << "\n";
  return 2;
}
