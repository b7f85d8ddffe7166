// ScenarioSpec: named, versioned attack-matrix workloads.
//
// The paper measures one corner of the sender-validation threat model (the
// SPFail macro-expansion vulnerability). The related work shows the
// interesting failures live in *composition*: SPF across forwarding hops
// ("Forward Pass", arXiv 2302.07287), SPF/DKIM/DMARC alignment mismatches
// ("Weak Links in Authentication Chains", arXiv 2011.08420), and plain
// policy misconfiguration ("Lazy Gatekeepers", arXiv 2502.08240). A
// ScenarioSpec bundles the three ingredients one such workload needs:
//
//   * a fleet policy mix — how the population is staged (population::
//     PolicyMix sender rates drawn per domain at fleet build),
//   * a mail-flow topology — which flows the runner drives (src/scenario/
//     runner.hpp selects domains by the spec's Focus),
//   * an expected-outcome oracle — rate windows the measured outcome table
//     must land in (ScenarioRunner.EveryBuiltinLandsInsideItsOracle
//     enforces these).
//
// Specs compose: `--scenario forwarding,misconfig` resolves to one merged
// mix (resolve_mix), and each spec's own outcome table is still reported
// because the Focus keeps attribution clean. The registry is closed — specs
// are versioned in-code so a name always means the same workload.
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "population/policy_mix.hpp"

namespace spfail::scenario {

// Which staged domains a scenario's flows exercise (and which outcome
// windows its oracle constrains).
enum class Focus {
  Baseline,    // nothing staged, zero flows — the control
  Forwarding,  // domains routed through the forwarder hop (plain or SRS)
  Alignment,   // ESP envelopes and/or DKIM-signing domains
  Misconfig,   // domains publishing a broken SPF record
};

std::string to_string(Focus focus);
// Strict inverse of to_string; throws std::invalid_argument on unknown text.
Focus parse_focus(std::string_view text);

// Closed interval of acceptable rates for one outcome.
struct RateWindow {
  double lo = 0.0;
  double hi = 0.0;
  bool contains(double value) const noexcept {
    return value >= lo && value <= hi;
  }
};

// What the scenario is expected to measure, as rate windows over the
// runner's flow tallies (see runner.hpp for the exact denominators).
struct Oracle {
  RateWindow spoof_delivered;  // delivered / spoof flows
  RateWindow spoof_rejected;   // rejected / spoof flows
  RateWindow legit_rejected;   // rejected / (legit + forwarded) flows
  RateWindow permerror;        // SPF permerror / all flows
};

struct ScenarioSpec {
  std::string name;     // registry key, also the --scenario token
  int version = 1;      // bumped whenever mix/oracle semantics change
  std::string summary;  // one line for reports and --help
  Focus focus = Focus::Baseline;
  population::PolicyMix mix;
  Oracle oracle;
};

// The built-in registry: baseline, forwarding, alignment, misconfig.
const std::vector<ScenarioSpec>& builtin_scenarios();

// Registry lookup; nullptr when `name` is not a built-in.
const ScenarioSpec* find_scenario(std::string_view name);

// Parse "NAME[,NAME...]" (the --scenario / SPFAIL_SCENARIO value) into
// specs. Throws std::invalid_argument — listing the valid names — on an
// unknown, duplicate, or empty token.
std::vector<ScenarioSpec> parse_scenario_list(std::string_view csv);

// Merge the specs' mixes into the one PolicyMix the fleet builds with:
// receiver rates must agree across specs (they do for all built-ins),
// sender rates add, DMARC policy shares combine publish-weighted, and pct=
// takes the minimum over publishing specs. Validates the result.
population::PolicyMix resolve_mix(const std::vector<ScenarioSpec>& specs);

}  // namespace spfail::scenario
