// The scenario layer (DESIGN.md §17): registry, --scenario grammar, mix
// resolution, fleet staging, and the mail-flow runner's determinism.
#include <gtest/gtest.h>

#include <stdexcept>

#include "population/fleet.hpp"
#include "scenario/runner.hpp"
#include "scenario/scenario.hpp"

namespace spfail {
namespace {

using population::PolicyMix;

population::FleetConfig small_fleet_config(const PolicyMix& mix) {
  population::FleetConfig config;
  config.scale = 0.01;
  config.seed = 2021;
  config.mix = mix;
  return config;
}

TEST(ScenarioRegistry, BuiltinsAreClosedAndNamed) {
  const auto& specs = scenario::builtin_scenarios();
  ASSERT_EQ(specs.size(), 4u);
  for (const char* name :
       {"baseline", "forwarding", "alignment", "misconfig"}) {
    const scenario::ScenarioSpec* spec = scenario::find_scenario(name);
    ASSERT_NE(spec, nullptr) << name;
    EXPECT_EQ(spec->name, name);
    EXPECT_GE(spec->version, 1);
    EXPECT_FALSE(spec->summary.empty());
    EXPECT_NO_THROW(spec->mix.validate());
  }
  EXPECT_EQ(scenario::find_scenario("nope"), nullptr);
}

TEST(ScenarioRegistry, OnlyBaselineStagesNothing) {
  EXPECT_FALSE(scenario::find_scenario("baseline")->mix.stages_senders());
  for (const char* name : {"forwarding", "alignment", "misconfig"}) {
    EXPECT_TRUE(scenario::find_scenario(name)->mix.stages_senders()) << name;
  }
}

TEST(ScenarioParse, AcceptsListsAndTrimsWhitespace) {
  const auto specs = scenario::parse_scenario_list(" forwarding , misconfig");
  ASSERT_EQ(specs.size(), 2u);
  EXPECT_EQ(specs[0].name, "forwarding");
  EXPECT_EQ(specs[1].name, "misconfig");
}

TEST(ScenarioParse, RejectsUnknownDuplicateAndEmpty) {
  EXPECT_THROW(scenario::parse_scenario_list("bogus"), std::invalid_argument);
  EXPECT_THROW(scenario::parse_scenario_list("forwarding,forwarding"),
               std::invalid_argument);
  EXPECT_THROW(scenario::parse_scenario_list("forwarding,,misconfig"),
               std::invalid_argument);
  EXPECT_THROW(scenario::parse_scenario_list(""), std::invalid_argument);
  // The error names the valid tokens, so the CLI message is self-serve.
  try {
    scenario::parse_scenario_list("bogus");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& error) {
    EXPECT_NE(std::string(error.what()).find("forwarding"),
              std::string::npos);
  }
}

TEST(ScenarioResolveMix, EmptyListIsTheBaselineMix) {
  EXPECT_EQ(scenario::resolve_mix({}), PolicyMix::paper_baseline());
}

TEST(ScenarioResolveMix, SingleSpecIsItsOwnMix) {
  const auto specs = scenario::parse_scenario_list("forwarding");
  EXPECT_EQ(scenario::resolve_mix(specs), PolicyMix::forwarding());
}

TEST(ScenarioResolveMix, CompositionSumsSenderRates) {
  const auto specs = scenario::parse_scenario_list("forwarding,misconfig");
  const PolicyMix mix = scenario::resolve_mix(specs);
  const PolicyMix fwd = PolicyMix::forwarding();
  const PolicyMix mis = PolicyMix::misconfig();
  EXPECT_DOUBLE_EQ(mix.forward_plain_rate,
                   fwd.forward_plain_rate + mis.forward_plain_rate);
  EXPECT_DOUBLE_EQ(mix.spf_plus_all_rate,
                   fwd.spf_plus_all_rate + mis.spf_plus_all_rate);
  EXPECT_DOUBLE_EQ(mix.spf_long_chain_rate,
                   fwd.spf_long_chain_rate + mis.spf_long_chain_rate);
  // Receiver rates are shared, not summed.
  EXPECT_DOUBLE_EQ(mix.reject_spf_fail_rate, fwd.reject_spf_fail_rate);
  EXPECT_NO_THROW(mix.validate());
}

TEST(ScenarioResolveMix, PctTakesTheStrictestPublishingSpec) {
  const auto specs = scenario::parse_scenario_list("forwarding,alignment");
  const PolicyMix mix = scenario::resolve_mix(specs);
  EXPECT_EQ(mix.dmarc_pct, PolicyMix::alignment().dmarc_pct);  // 60 < 100
  EXPECT_GT(mix.dmarc_publish_rate, 0.0);
}

TEST(ScenarioFleet, BaselineMixBuildsTheHistoricalPopulation) {
  // The determinism keystone: a baseline-mix fleet is the same population as
  // a default-config fleet — same intern table, same address count, no
  // sender staging, no scenario receivers.
  population::Fleet plain(small_fleet_config(PolicyMix{}));
  population::Fleet baseline(
      small_fleet_config(scenario::find_scenario("baseline")->mix));
  EXPECT_TRUE(plain.strings() == baseline.strings());
  EXPECT_EQ(plain.address_count(), baseline.address_count());
  EXPECT_TRUE(baseline.scenario_receivers().empty());
  EXPECT_FALSE(baseline.sender_policy(0).staged());
}

TEST(ScenarioFleet, StagedMixPublishesPoliciesAndReceivers) {
  population::Fleet fleet(small_fleet_config(PolicyMix::forwarding()));
  EXPECT_FALSE(fleet.scenario_receivers().empty());
  std::size_t staged = 0, forwarded = 0;
  for (std::size_t i = 0; i < fleet.domains().size(); ++i) {
    const population::SenderPolicy& policy = fleet.sender_policy(i);
    if (!policy.staged()) continue;
    ++staged;
    forwarded += policy.routing == population::SenderRouting::ForwardPlain ||
                 policy.routing == population::SenderRouting::ForwardSrs;
  }
  EXPECT_EQ(staged, fleet.domains().size());  // every domain publishes SPF
  EXPECT_GT(forwarded, 0u);
}

TEST(ScenarioRunner, ReportsAreBitIdenticalAcrossRuns) {
  const scenario::ScenarioSpec& spec = *scenario::find_scenario("forwarding");
  const auto run_once = [&] {
    population::Fleet fleet(small_fleet_config(spec.mix));
    return scenario::run_scenario(fleet, spec);
  };
  const scenario::ScenarioReport first = run_once();
  const scenario::ScenarioReport second = run_once();
  EXPECT_EQ(first.domains_staged, second.domains_staged);
  EXPECT_EQ(first.legit, second.legit);
  EXPECT_EQ(first.forwarded, second.forwarded);
  EXPECT_EQ(first.spoof, second.spoof);
}

TEST(ScenarioRunner, ForwardingLandsInsideItsOracle) {
  const scenario::ScenarioSpec& spec = *scenario::find_scenario("forwarding");
  population::Fleet fleet(small_fleet_config(spec.mix));
  const scenario::ScenarioReport report = scenario::run_scenario(fleet, spec);
  EXPECT_GT(report.domains_staged, 0u);
  EXPECT_EQ(report.spoof.flows, report.domains_staged);
  EXPECT_TRUE(report.satisfies(spec.oracle))
      << "spoof_delivered=" << report.spoof_delivered_rate()
      << " spoof_rejected=" << report.spoof_rejected_rate()
      << " legit_rejected=" << report.legit_rejected_rate()
      << " permerror=" << report.permerror_rate();
}

TEST(ScenarioRunner, MisconfigSpoofsSailThroughAndChainsPermerror) {
  const scenario::ScenarioSpec& spec = *scenario::find_scenario("misconfig");
  population::Fleet fleet(small_fleet_config(spec.mix));
  const scenario::ScenarioReport report = scenario::run_scenario(fleet, spec);
  EXPECT_GT(report.domains_staged, 0u);
  EXPECT_TRUE(report.satisfies(spec.oracle));
  // +all / broad-CIDR records admit the attacker outright.
  EXPECT_GT(report.spoof.delivered, report.spoof.rejected);
  // The >10-lookup include chains show up as SPF permerrors on both flows.
  EXPECT_GT(report.spoof.spf_permerror + report.legit.spf_permerror, 0u);
}

TEST(ScenarioRunner, BaselineMeasuresNothing) {
  const scenario::ScenarioSpec& spec = *scenario::find_scenario("baseline");
  population::Fleet fleet(small_fleet_config(spec.mix));
  const scenario::ScenarioReport report = scenario::run_scenario(fleet, spec);
  EXPECT_EQ(report.domains_staged, 0u);
  EXPECT_EQ(report.legit.flows + report.forwarded.flows + report.spoof.flows,
            0u);
  EXPECT_TRUE(report.satisfies(spec.oracle));  // all-zero windows
}

// The oracle gate over every built-in, alignment included: each spec's own
// mix at scale 0.02 (seed 2021, default RunnerOptions) must land inside its
// oracle windows, and the baseline control must stage and measure nothing.
TEST(ScenarioRunner, EveryBuiltinLandsInsideItsOracle) {
  for (const scenario::ScenarioSpec& spec : scenario::builtin_scenarios()) {
    population::FleetConfig config = small_fleet_config(spec.mix);
    config.scale = 0.02;
    population::Fleet fleet(config);
    const scenario::ScenarioReport report = scenario::run_scenario(fleet, spec);
    if (spec.focus == scenario::Focus::Baseline) {
      EXPECT_EQ(report.domains_staged, 0u);
      EXPECT_EQ(
          report.legit.flows + report.forwarded.flows + report.spoof.flows,
          0u);
    } else {
      EXPECT_GT(report.domains_staged, 0u) << spec.name;
    }
    EXPECT_TRUE(report.satisfies(spec.oracle))
        << spec.name << ": spoof_delivered=" << report.spoof_delivered_rate()
        << " spoof_rejected=" << report.spoof_rejected_rate()
        << " legit_rejected=" << report.legit_rejected_rate()
        << " permerror=" << report.permerror_rate() << " over "
        << report.domains_staged << " domains";
  }
}

TEST(ScenarioRunner, MaxDomainsTruncatesDeterministically) {
  const scenario::ScenarioSpec& spec = *scenario::find_scenario("misconfig");
  population::Fleet full(small_fleet_config(spec.mix));
  population::Fleet capped(small_fleet_config(spec.mix));
  const scenario::ScenarioReport all = scenario::run_scenario(full, spec);
  ASSERT_GT(all.domains_staged, 4u);
  scenario::RunnerOptions options;
  options.max_domains = 4;
  const scenario::ScenarioReport few =
      scenario::run_scenario(capped, spec, options);
  EXPECT_TRUE(few.truncated);
  EXPECT_FALSE(all.truncated);
  EXPECT_EQ(few.domains_staged, 4u);
}

TEST(ScenarioOracle, RateWindowIsClosed) {
  const scenario::RateWindow window{0.2, 0.5};
  EXPECT_TRUE(window.contains(0.2));
  EXPECT_TRUE(window.contains(0.5));
  EXPECT_FALSE(window.contains(0.19));
  EXPECT_FALSE(window.contains(0.51));
}

}  // namespace
}  // namespace spfail
