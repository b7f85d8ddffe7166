// Renderers for every table and figure in the paper's evaluation.
//
// Each function takes the simulation artefacts (fleet, initial campaign
// report, longitudinal study report) and returns the text table whose rows
// mirror the paper's. spfail_repro prints them all, spfail_scan a subset;
// EXPERIMENTS.md records paper-value vs measured-value per row.
#pragma once

#include <string>
#include <string_view>

#include "longitudinal/study.hpp"
#include "net/trace_stats.hpp"
#include "obs/metrics.hpp"
#include "population/fleet.hpp"
#include "scenario/runner.hpp"
#include "util/table.hpp"

namespace spfail::report {

// Table 1: overlap in domain measurement sets (row set ∩ column set).
util::TextTable table1_overlap(const population::Fleet& fleet);

// Table 2: most common TLDs per domain set (top 15).
util::TextTable table2_tlds(const population::Fleet& fleet);

// Table 3: NoMsg/BlankMsg funnel by domain set (domains and addresses), plus
// the Top-Email-Providers domain column.
util::TextTable table3_outcomes(const population::Fleet& fleet,
                                const scan::CampaignReport& initial);

// Table 4: initial SPF results breakdown (vulnerable / erroneous / compliant
// of conclusively measured, per set).
util::TextTable table4_breakdown(const population::Fleet& fleet,
                                 const scan::CampaignReport& initial);

// Table 5: best/worst TLD patch rates among TLDs with >= threshold initially
// vulnerable domains (threshold scales with the fleet).
util::TextTable table5_tld_patch(const population::Fleet& fleet,
                                 const longitudinal::StudyReport& study);

// Table 6: package-manager patch latencies (static feed).
util::TextTable table6_pkgmgr();

// Table 7: SPF macro-expansion behaviour census by IP address.
util::TextTable table7_behaviors(const population::Fleet& fleet,
                                 const scan::CampaignReport& initial);

// Figure 2: final patched/vulnerable/unknown distribution per cohort.
util::TextTable fig2_final_distribution(const population::Fleet& fleet,
                                        const longitudinal::StudyReport& study);

// Figure 3: geographic buckets — vulnerable addresses and patch rates.
util::TextTable fig3_geography(const population::Fleet& fleet,
                               const longitudinal::StudyReport& study);

// Figure 4: vulnerable/patched domains across 20 rank buckets, one table per
// ranking metric (Alexa rank; 2-Week MX query count).
util::TextTable fig4_rank_buckets(const population::Fleet& fleet,
                                  const longitudinal::StudyReport& study,
                                  longitudinal::Cohort cohort);

// Figure 5 (and Fig 8 when cohort = Alexa1000): conclusive and inferred
// domain counts per measurement round.
util::TextTable fig5_conclusive_series(const population::Fleet& fleet,
                                       const longitudinal::StudyReport& study,
                                       longitudinal::Cohort cohort);

// Figures 6/7: percent-vulnerable (of inferable) per cohort per round;
// window1_only selects Figure 6's zoomed first window.
util::TextTable fig67_vulnerability_series(
    const population::Fleet& fleet, const longitudinal::StudyReport& study,
    bool window1_only);

// §7.7: the private-notification funnel.
util::TextTable notification_funnel(const longitudinal::StudyReport& study);

// The raw percent-vulnerable-of-inferable series for one cohort (the numbers
// behind Figures 6/7) — used for sparklines and CSV export.
std::vector<double> vulnerability_series(const population::Fleet& fleet,
                                         const longitudinal::StudyReport& study,
                                         longitudinal::Cohort cohort);

// Graceful-degradation summary for a fault-injected run (campaign- or
// study-wide): injected fault mix, retry/re-queue recovery, conclusive rate.
util::TextTable degradation_table(const faults::DegradationReport& report);

// `spfail_scan --trace` summary: frame counts by kind, per-protocol hop
// sim-latency quantiles, the SMTP verb and DNS rcode mixes, distinct
// lanes/endpoints, and the injected-frame share.
util::TextTable trace_summary(const net::TraceStats& stats);

// `spfail_scan --scenario` summary: per configured ScenarioSpec, the flow
// tallies (legit / forwarded / spoof) and the four oracle rates the spec's
// windows constrain. One block per report, in configuration order.
util::TextTable scenario_outcomes(
    const std::vector<scenario::ScenarioReport>& reports);

// `spfail_scan --metrics` summary: one row per metric cell — counters and
// gauges with their value, histograms with count/p50/p95/max in simulated
// units. Wall-clock families are skipped unless `include_wall`; rows follow
// the registry's ordered-map iteration, so the table is deterministic.
util::TextTable metrics_summary(const obs::Registry& registry,
                                bool include_wall = false);

// The --csv export of spfail_scan and spfail_repro: write `table` to
// DIR/SLUG.csv and print "  wrote PATH" on stdout. A file that cannot be
// opened is reported on stderr and skipped.
void write_csv(const std::string& dir, std::string_view slug,
               const util::TextTable& table);

}  // namespace spfail::report
