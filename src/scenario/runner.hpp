// The scenario mail-flow runner: drives real SMTP dialogs through staged
// fleets and tallies the outcomes the scenario oracles constrain.
//
// For every staged domain a spec's Focus selects, the runner plays the
// domain's legitimate delivery (routed per its SenderPolicy — direct, via
// the forwarder hop with or without SRS, or via the ESP) and one spoofed
// delivery (the fixed attacker address using the domain's identity, no
// DKIM). Receivers are real fleet MailHosts: their SPF engines, the new
// dmarc::Evaluator (DKIM verification, alignment, pct= sampling), greylist
// and recipient policy all run exactly as they do under the scanner.
//
// Determinism contract: the runner is single-threaded and a pure function
// of (fleet, spec, options) — receiver choice is an FNV hash of the domain
// name and flow class over the fleet's sorted receiver list, message bodies
// are fixed, and the pct= lanes are stateless. Reports are therefore
// bit-identical across thread counts, schedulers, and halt/resume, with no
// coordination needed.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "population/fleet.hpp"
#include "scenario/scenario.hpp"

namespace spfail::scenario {

// How a flow reached the receiver.
enum class FlowClass {
  Legit,      // the domain's own mail: direct or ESP envelope
  Forwarded,  // the domain's own mail after the forwarder hop
  Spoof,      // the attacker using the domain's identity
};

std::string to_string(FlowClass flow);
// Strict inverse of to_string; throws std::invalid_argument on unknown text.
FlowClass parse_flow_class(std::string_view text);

struct FlowTally {
  std::uint64_t flows = 0;
  std::uint64_t delivered = 0;    // final "." accepted (2xx)
  std::uint64_t rejected = 0;     // any step answered 4xx/5xx
  std::uint64_t quarantined = 0;  // delivered, but DMARC said quarantine
  std::uint64_t spf_permerror = 0;   // receiver's primary SPF permerrored
  std::uint64_t dmarc_sampled_out = 0;  // pct= excluded a failing message

  friend bool operator==(const FlowTally&, const FlowTally&) = default;
};

struct ScenarioReport {
  std::string name;  // spec name
  int version = 1;
  std::uint64_t domains_staged = 0;  // focus domains the runner exercised
  bool truncated = false;  // focus set exceeded RunnerOptions::max_domains
  FlowTally legit;
  FlowTally forwarded;
  FlowTally spoof;

  // Oracle denominators (0 flows -> rate 0).
  double spoof_delivered_rate() const noexcept;
  double spoof_rejected_rate() const noexcept;
  double legit_rejected_rate() const noexcept;  // legit + forwarded
  double permerror_rate() const noexcept;       // over all flows

  // All four rates inside `oracle`'s windows.
  bool satisfies(const Oracle& oracle) const noexcept;
};

struct RunnerOptions {
  std::uint64_t seed = 2021;  // salts the receiver-choice hash only
  // Upper bound on focus domains exercised, so full-scale fleets stay
  // affordable; selection is prefix-deterministic (first N in domain order).
  std::size_t max_domains = 4096;
};

// Run `spec`'s flows against `fleet` (which must have been built with a mix
// that stages the spec's focus — typically resolve_mix of a list including
// it). Baseline specs yield an all-zero report.
ScenarioReport run_scenario(population::Fleet& fleet, const ScenarioSpec& spec,
                            const RunnerOptions& options = {});

// One report per spec, in order, measured over one fleet built fresh at
// (scale, seed) with the specs' merged mix (resolve_mix), the runner salted
// with `seed`. A mix that stages no senders (baseline, or no specs) builds
// no fleet: each spec gets an empty report carrying only its name and
// version.
std::vector<ScenarioReport> run_scenarios(
    const std::vector<ScenarioSpec>& specs, double scale, std::uint64_t seed);

}  // namespace spfail::scenario
