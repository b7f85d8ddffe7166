// spfail_repro: the paper's evaluation from one run — Tables 1–7, Figures
// 2–8 and the §7.7 notification funnel from one scan session (one initial
// scan, one 34-round study) in DESIGN.md §4's order, then the five
// ablations of DESIGN.md §5.
//
//   usage: spfail_repro [--scale S] [--seed N] [--threads N]
//                       [--fault-rate R] [--fault-seed N] [--scenario NAMES]
//                       [--csv DIR]
//
// Flags and SPFAIL_* variables mean what they mean to spfail_scan (one flag
// registry; default scale 0.05). Flags for outputs this program never writes
// (--initial-only, --trace, --metrics, --checkpoint, --resume,
// --halt-after-rounds, or their variables) exit 2. The ablations run fixed
// configurations of their own, named in their headers, so only --threads
// reaches them; the inference ablation reads the session's study. Stdout is
// identical at any thread count: results/scale0.5.txt and
// results/scale0.05.txt are this program's output at those scales, and the
// repro_reference ctest compares the second byte for byte.
#include <algorithm>
#include <cstdio>
#include <iostream>
#include <memory>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "dns/forwarder.hpp"
#include "net/trace_stats.hpp"
#include "report/tables.hpp"
#include "scan/prober.hpp"
#include "session/flag_registry.hpp"
#include "session/scan_session.hpp"
#include "util/stats.hpp"

using namespace spfail;

namespace {

void header(std::string_view title, std::string_view reference) {
  constexpr std::string_view kRule =
      "================================================================\n";
  std::cout << kRule << title << "\n(" << reference << ")\n" << kRule;
}

std::string percent(double fraction) {
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%.2f%%", fraction * 100.0);
  return buffer;
}

// ------------------------------------------------------- paper artifacts

void paper_artifacts(session::ScanSession& session,
                     const longitudinal::StudyReport& study) {
  population::Fleet& fleet = session.fleet();
  // With the study run, initial() is the study's own initial campaign.
  const scan::CampaignReport& initial = session.initial();
  const std::string& csv_dir = session.config().csv_dir;
  const auto export_csv = [&](const char* slug, const util::TextTable& table) {
    if (!csv_dir.empty()) report::write_csv(csv_dir, slug, table);
  };
  // Header, table, then the paper's own numbers; a slug also exports the
  // table under --csv.
  const auto artifact = [&](std::string_view title, std::string_view reference,
                            const util::TextTable& table,
                            std::string_view paper,
                            const char* slug = nullptr) {
    header(title, reference);
    if (slug != nullptr) export_csv(slug, table);
    std::cout << table << "\n" << paper << "\n\n";
  };

  artifact("Table 1: Overlap in domain measurement sets", "SPFail, section 5.2",
           report::table1_overlap(fleet),
           "Paper (full scale): 2-Week MX 22,911; 135 (0.5%) in Alexa 1000; "
           "2,922 (12.7%) in Alexa Top List (418,842).");
  artifact("Table 2: Most common TLDs per domain set", "SPFail, section 5.2",
           report::table2_tlds(fleet),
           "Paper (full scale) leaders: Alexa — com 230,801; ru 19,844; "
           "ir 17,207; net 16,672; org 14,427.\n"
           "2-Week MX — com 11,182; org 3,946; edu 2,108; net 1,441; us 828.");
  artifact("Table 3: NoMsg/BlankMsg test outcomes by domain set",
           "SPFail, section 7.1", report::table3_outcomes(fleet, initial),
           "Paper (addresses): Alexa — 47% refused; of NoMsg-tested 37% SMTP "
           "failure, 13% measured; of BlankMsg-tested 58% measured; 23% "
           "measured in total.\n"
           "2-Week MX — 25% refused; 23% measured in NoMsg; 38% total.\n"
           "Top providers: 0 refused, 2 SMTP-broken, 5 NoMsg-measured, "
           "8 BlankMsg-measured, 13 measured of 20.");
  artifact("Table 4: SPF initial results breakdown", "SPFail, section 7.1",
           report::table4_breakdown(fleet, initial),
           "Paper: ~1 in 6 measured addresses vulnerable on the Alexa list "
           "(1 in 10 for 2-Week MX); close to a quarter expanded macros "
           "incorrectly overall (1 in 6 for 2-Week MX); 7,212 vulnerable "
           "addresses across both sets.");
  artifact("Table 5: Best/worst patch rates for TLDs with enough initially "
           "vulnerable domains",
           "SPFail, section 7.3", report::table5_tld_patch(fleet, study),
           "Paper: best — za 79%, gr 75%, de 46%, eu 29%, tr 28%; worst — "
           "ir 3%, il 3%, by 2%, ru 2%, tw 0%. Reference: com patched 1,266 "
           "of 8,412 (15%).");
  artifact("Table 6: Package-manager patch timeline (days from disclosure)",
           "SPFail, section 7.8", report::table6_pkgmgr(),
           "Paper: Debian/Alpine patched CVE-2021-20314 on disclosure day; "
           "RedHat/Gentoo/Arch bundled the 33912/13 fixes with that update "
           "(0*); Ubuntu, FreeBSD Ports, NetBSD and SUSE Hub remained "
           "unpatched through the study.");
  artifact("Table 7: Behaviours in SPF macro expansion by IP address",
           "SPFail, section 7.9", report::table7_behaviors(fleet, initial),
           "Paper: ~1 in 6 measured addresses vulnerable; ~6% erroneous but "
           "not vulnerable (failure to expand being the most common error); "
           "2,615 servers (6% of measurable) showed two or more distinct "
           "expansion patterns.");
  artifact("Figure 2: Final vulnerability distribution of initially "
           "vulnerable domains (February 2022 snapshot)",
           "SPFail, section 7.2", report::fig2_final_distribution(fleet, study),
           "Paper: ~15% of all initially vulnerable domains patched; the Alexa "
           "Top 1000 patched least (<10%); the 2-Week MX set had the most "
           "inconclusive domains.");
  artifact("Figure 3: Geographic distribution of vulnerable (a) and patched "
           "(b) IP addresses, aggregated into regional buckets",
           "SPFail, section 7.3", report::fig3_geography(fleet, study),
           "Paper: vulnerable servers across all populous regions with a "
           "higher concentration in Europe; high patch rates in South Africa "
           "and pockets of Europe; almost none in China/Taiwan, Russia, and "
           "Central/South America.");

  header("Figure 4: Vulnerable and patched domains by site ranking (20 "
         "buckets)",
         "SPFail, section 7.4");
  std::cout << "--- (a) Alexa Top List, by Alexa rank ---\n"
            << report::fig4_rank_buckets(fleet, study,
                                         longitudinal::Cohort::AlexaTopList)
            << "\n--- (b) 2-Week MX, by MX-query count ---\n"
            << report::fig4_rank_buckets(fleet, study,
                                         longitudinal::Cohort::TwoWeekMx)
            << "\nPaper: the bottom 20K Alexa domains held nearly twice as "
               "many vulnerable servers as the top 20K; higher-ranked domains "
               "patched slightly more, but no rank group exceeded a 40% patch "
               "rate.\n\n";

  header("Figure 5: Conclusive vulnerability results over time (all "
         "initially vulnerable domains)",
         "SPFail, section 7.6");
  const util::TextTable fig5 =
      report::fig5_conclusive_series(fleet, study, longitudinal::Cohort::All);
  export_csv("fig5_conclusive", fig5);
  std::cout << fig5 << "\n"
            << "Re-measurable inconclusive cohort (section 6.1): "
            << study.remeasurable_addresses << " addresses; resolved "
            << study.remeasurable_resolved_vulnerable << " vulnerable / "
            << study.remeasurable_resolved_compliant
            << " compliant during the rounds.\n"
            << "Paper: 18,660 domains on 7,212 addresses at the start; "
               "successful measurements fluctuated early and stabilised in "
               "late November; gaps between measured and inferable reflect "
               "hosts lost to scanner blacklisting.\n\n";
  if (study.degradation.configured_rate > 0.0) {
    // --fault-rate was set: the conclusive-rate row is this figure's
    // fault-injected counterpart.
    std::cout << report::degradation_table(study.degradation) << "\n";
  }

  artifact("Figure 6: libSPF2 vulnerability rates per domain list, first "
           "measurement window (Oct 26 - Nov 30, 2021)",
           "SPFail, section 7.6",
           report::fig67_vulnerability_series(fleet, study, true),
           "Paper: during window 1 about 10% of the 2-Week MX domains and 4% "
           "of the Alexa Top List domains started validating safely — mostly "
           "before the private notification (proactive package monitoring), "
           "which itself was minimally effective.",
           "fig6_window1");

  header("Figure 7: libSPF2 vulnerability rates per domain list across the "
         "full measurement period (Oct 2021 - Feb 2022)",
         "SPFail, section 7.6");
  const util::TextTable fig7 =
      report::fig67_vulnerability_series(fleet, study, false);
  export_csv("fig7_full", fig7);
  std::cout << fig7 << "\n";
  for (const auto cohort :
       {longitudinal::Cohort::All, longitudinal::Cohort::AlexaTopList,
        longitudinal::Cohort::TwoWeekMx}) {
    const auto series = report::vulnerability_series(fleet, study, cohort);
    std::cout << "  " << util::sparkline(series) << "  " << to_string(cohort)
              << " (% vulnerable over time)\n";
  }
  std::cout << "\nPaper: a pronounced drop right after the public disclosure "
               "(Jan 19, 2022, coinciding with the Debian patch), strongest "
               "in the Alexa Top List; just over 80% of inferable domains "
               "were still vulnerable at the end.\n\n";

  artifact("Figure 8: Conclusive vulnerability results over time, Alexa Top "
           "1000",
           "SPFail, sections 7.5-7.6",
           report::fig5_conclusive_series(fleet, study,
                                          longitudinal::Cohort::Alexa1000),
           "Paper: 28 Top-1000 domains (87 servers) initially vulnerable; "
           "conclusive measurements collapsed around mid-November (scanner "
           "blacklisting by high-profile infrastructure); no longitudinal "
           "patching was observed, and only the final re-resolved snapshot "
           "recovered most of the cohort.",
           "fig8_alexa1000");
  artifact("Section 7.7: Response to private notification (funnel)",
           "SPFail, section 7.7", report::notification_funnel(study),
           "Paper: 6,488 sent; 2,054 (31.6%) undelivered; 512 (12%) of "
           "delivered were opened; 177 openers eventually patched; only 9 "
           "patched between private and public disclosure; 37 unnotified "
           "domains patched in that span (package updates).");
}

// -------------------------------------------------------------- ablations

// §5.1/§6.2: NoMsg first with a BlankMsg fallback, against BlankMsg for
// every host: coverage, and the (empty) messages hosts accepted.
struct OrderResult {
  std::size_t probed = 0;
  std::size_t measured = 0;
  std::size_t messages_accepted = 0;
  std::size_t smtp_transactions = 0;
};

OrderResult run_order(bool nomsg_first) {
  population::FleetConfig fleet_config;
  fleet_config.scale = 0.05;
  population::Fleet fleet(fleet_config);
  scan::ProberConfig config;
  config.responder = fleet.responder();
  net::Transport transport(fleet.clock());
  scan::Prober prober(config, fleet.dns(), transport);
  scan::LabelAllocator labels(util::Rng(99), fleet.responder().base);
  const std::string suite = labels.new_suite();

  OrderResult result;
  std::set<util::IpAddress> seen;
  for (const auto& domain : fleet.domains()) {
    const std::string recipient(domain.name);
    for (const auto& address : domain.addresses) {
      if (!seen.insert(address).second) continue;
      mta::MailHost* host = fleet.find_host(address);
      if (host == nullptr) continue;
      ++result.probed;
      const auto probe = [&](scan::TestKind kind) {
        ++result.smtp_transactions;
        return prober.probe(
            *host, recipient, labels.mail_from_domain(labels.new_id(), suite),
            kind);
      };
      // BlankMsg runs for every host, or after a NoMsg that elicited no SPF
      // activity.
      scan::ProbeStatus status = scan::ProbeStatus::SpfNotMeasured;
      if (nomsg_first) status = probe(scan::TestKind::NoMsg).status;
      if (status == scan::ProbeStatus::SpfNotMeasured) {
        const scan::ProbeResult blank = probe(scan::TestKind::BlankMsg);
        status = blank.status;
        result.messages_accepted +=
            blank.failing_code == 0 &&
            status != scan::ProbeStatus::ConnectionRefused;
      }
      result.measured += status == scan::ProbeStatus::SpfMeasured;
    }
  }
  return result;
}

void ablation_test_order() {
  header("Ablation: NoMsg-first vs BlankMsg-only test ordering at scale 0.05",
         "SPFail, sections 5.1 and 6.2 — why the paper probes NoMsg first");
  util::TextTable table({"Strategy", "Hosts probed", "SPF measured",
                         "Blank messages accepted", "SMTP transactions"},
                        {util::Align::Left, util::Align::Right,
                         util::Align::Right, util::Align::Right,
                         util::Align::Right});
  for (const bool nomsg_first : {true, false}) {
    const OrderResult r = run_order(nomsg_first);
    table.add_row({nomsg_first ? "NoMsg first, BlankMsg fallback"
                               : "BlankMsg only",
                   std::to_string(r.probed), std::to_string(r.measured),
                   std::to_string(r.messages_accepted),
                   std::to_string(r.smtp_transactions)});
  }
  std::cout << table << "\n"
            << "Reading: both orders measure essentially the same host set, "
               "but BlankMsg-only transmits an accepted (if empty) message to "
               "every host that takes mail — the NoMsg-first order confines "
               "that to hosts that would otherwise stay unmeasured.\n\n";
}

// §7.6: per quartile round of the session's study, the domains direct
// conclusive measurement knows against those the monotonicity rules fill in.
void ablation_inference(const population::Fleet& fleet,
                        const longitudinal::StudyReport& study) {
  header("Ablation: measurement coverage with and without the section 7.6 "
         "inference rules",
         "SPFail, section 7.6 — Figure 5's measured vs inferred bands");
  util::TextTable table(
      {"Date", "Measured only", "With inference", "Recovered", "Total"},
      {util::Align::Left, util::Align::Right, util::Align::Right,
       util::Align::Right, util::Align::Right});
  const std::size_t n = study.round_times.size();
  for (const std::size_t round :
       {std::size_t{0}, n / 4, n / 2, 3 * n / 4, n - 1}) {
    const auto counts = longitudinal::Study::domain_counts_at(
        study, fleet, round, longitudinal::Cohort::All);
    table.add_row({util::format_date(study.round_times[round]),
                   std::to_string(counts.measured),
                   std::to_string(counts.inferable),
                   std::to_string(counts.inferable - counts.measured),
                   std::to_string(counts.total)});
  }
  std::cout << table << "\n"
            << "Reading: without the rules, every transiently failed or "
               "blacklisted host would drop out of the denominator the round "
               "it fails; the rules recover the growing 'Recovered' band — "
               "exactly Figure 5's gap between successful and inferred "
               "measurements.\n\n";
}

// §5.1: kHosts MTAs behind one shared caching site resolver, each probed
// kProbes times with a unique <id>.<suite> label per test or with one reused
// MAIL FROM domain. Returns how many queries reached the authoritative server.
constexpr int kHosts = 10;
constexpr int kProbes = 10;

std::size_t authoritative_queries(bool unique_labels) {
  dns::AuthoritativeServer authority;
  util::SimClock clock;
  const auto responder = scan::install_test_responder(authority);
  dns::CachingForwarder site_resolver(authority, clock);
  std::vector<std::unique_ptr<mta::MailHost>> hosts;
  for (int h = 0; h < kHosts; ++h) {
    mta::HostProfile profile;
    profile.address =
        util::IpAddress::v4(203, 0, 113, static_cast<std::uint8_t>(50 + h));
    profile.behaviors = {spfvuln::SpfBehavior::VulnerableLibspf2};
    hosts.push_back(
        std::make_unique<mta::MailHost>(profile, site_resolver, clock));
  }

  scan::ProberConfig config;
  config.responder = responder;
  net::Transport transport(clock);
  scan::Prober prober(config, authority, transport);
  scan::LabelAllocator labels(util::Rng(3), responder.base);
  const std::string suite = labels.new_suite();
  const dns::Name fixed = labels.mail_from_domain(labels.new_id(), suite);
  for (int i = 0; i < kProbes; ++i) {
    for (auto& host : hosts) {
      const dns::Name mail_from =
          unique_labels ? labels.mail_from_domain(labels.new_id(), suite)
                        : fixed;
      prober.probe(*host, "target.example", mail_from, scan::TestKind::NoMsg);
    }
  }
  return authority.query_log().size();
}

void ablation_labels() {
  header("Ablation: unique per-test labels vs a reused MAIL FROM domain "
         "(10 MTAs behind one shared site resolver, probed 10 times each)",
         "SPFail, section 5.1 — cache-busting labels");
  util::TextTable table({"Strategy", "Total probes",
                         "Authoritative queries seen", "Queries per probe"},
                        {util::Align::Left, util::Align::Right,
                         util::Align::Right, util::Align::Right});
  constexpr std::size_t kTotal = kHosts * kProbes;
  for (const bool unique : {true, false}) {
    const std::size_t queries = authoritative_queries(unique);
    table.add_row({unique ? "Unique <id> per probe" : "Reused MAIL FROM domain",
                   std::to_string(kTotal), std::to_string(queries),
                   std::to_string(queries / kTotal)});
  }
  std::cout << table << "\n"
            << "Reading: with a reused domain, the shared caching resolver "
               "answers everything after the very first probe — across ALL "
               "ten hosts — and the authoritative server (the measurement "
               "instrument) goes blind: per-host verdicts become impossible "
               "and longitudinal re-measurement sees nothing. The unique "
               "<id>.<suite> labels guarantee every lookup reaches the "
               "authority.\n\n";
}

// One initial campaign over a fresh paper-baseline fleet at scale 0.02,
// and the simulated time the round took.
struct CampaignRun {
  scan::CampaignReport report;
  util::SimTime duration = 0;
};

CampaignRun run_campaign(scan::CampaignConfig config) {
  population::FleetConfig fleet_config;
  fleet_config.scale = 0.02;
  population::Fleet fleet(fleet_config);
  config.prober.responder = fleet.responder();
  scan::Campaign campaign(config, fleet.dns(), fleet.clock(), fleet);
  const util::SimTime start = fleet.clock().now();
  CampaignRun run{campaign.run(fleet.target_source())};
  run.duration = fleet.clock().now() - start;
  return run;
}

// §6.1: the 250-connection cap against serial and wider scanning, as the
// simulated duration of one full round.
void ablation_concurrency(int threads) {
  header("Ablation: scanner concurrency cap vs simulated scan duration at "
         "scale 0.02",
         "SPFail, section 6.1 — 250 concurrent connections, 90 s gaps");
  util::TextTable table({"Concurrency cap", "Simulated round duration",
                         "Relative"},
                        std::vector<util::Align>(3, util::Align::Right));
  const std::vector<int> caps = {1, 25, 250, 1000};
  std::vector<util::SimTime> durations;
  util::SimTime base = 1;
  for (const int cap : caps) {
    scan::CampaignConfig config;
    config.threads = threads;
    config.max_concurrent_connections = cap;
    durations.push_back(run_campaign(config).duration);
    if (cap == 250) base = std::max<util::SimTime>(1, durations.back());
  }
  for (std::size_t i = 0; i < caps.size(); ++i) {
    char day_buf[64], rel_buf[64];
    std::snprintf(day_buf, sizeof(day_buf), "%.2f days",
                  static_cast<double>(durations[i]) / util::kDay);
    std::snprintf(rel_buf, sizeof(rel_buf), "%.1fx",
                  static_cast<double>(durations[i]) /
                      static_cast<double>(base));
    table.add_row({std::to_string(caps[i]), day_buf, rel_buf});
  }
  std::cout << table << "\n"
            << "Reading: a serial scanner (cap 1) would need months per "
               "round — incompatible with the 2-day longitudinal cadence — "
               "while caps beyond 250 stop paying because per-host gaps and "
               "greylist backoffs dominate. 250 keeps a full round well "
               "under the cadence with bounded per-target load.\n\n";
}

// §6.1: the conclusive rate as the injected transient-fault rate sweeps
// 0–20%, with the 10% run's wire trace summarised.
void ablation_faults(int threads, const std::string& csv_dir) {
  header("Ablation: conclusive rate vs injected transient-fault rate "
         "(same fleet, SMTP tempfails / connection drops / latency spikes) "
         "at scale 0.02",
         "SPFail, section 6.1 — conclusive vs inconclusive tests");
  util::TextTable table(
      {"Fault rate", "Addresses", "Conclusive", "Conclusive rate", "Injected",
       "Retries", "Recovered", "Exhausted", "Re-queued", "Breaker trips"},
      std::vector<util::Align>(10, util::Align::Right));
  // The 10% run also records its wire frames; the summary's injected row
  // counts synthesised tempfail replies, drop markers and SERVFAILs.
  // Tracing changes no report.
  net::WireTrace trace;
  for (const double rate : {0.0, 0.02, 0.05, 0.10, 0.20}) {
    scan::CampaignConfig config;
    config.threads = threads;
    config.faults.rate = rate;
    if (rate == 0.10) config.trace = &trace;
    const faults::DegradationReport deg =
        run_campaign(config).report.degradation;
    table.add_row({percent(rate), std::to_string(deg.addresses_tested),
                   std::to_string(deg.conclusive),
                   percent(deg.conclusive_rate()),
                   std::to_string(deg.injected_total()),
                   std::to_string(deg.retries), std::to_string(deg.recovered),
                   std::to_string(deg.exhausted),
                   std::to_string(deg.requeued),
                   std::to_string(deg.breaker_trips)});
  }
  if (!csv_dir.empty()) report::write_csv(csv_dir, "ablation_faults", table);
  std::cout << report::trace_summary(net::TraceStats::from(trace)) << "\n"
            << table << "\n"
            << "Reading: every row is bit-identical across reruns and thread "
               "counts (the plan is keyed by address/round/attempt, never by "
               "schedule). The conclusive rate decays far slower than the "
               "fault rate rises because the retry engine recovers most "
               "transients and the re-queue wave catches stragglers; what "
               "remains is surfaced as 'exhausted' rather than silently "
               "misclassified.\n\n";
}

// The flag of the first output `config` asks for that this program never
// writes; nullptr when there is none.
const char* unsupported_flag(const session::ScanConfig& config) {
  if (config.initial_only) return "--initial-only";
  if (config.tracing()) return "--trace";
  if (config.metrics()) return "--metrics";
  if (!config.checkpoint_path.empty()) return "--checkpoint";
  if (!config.resume_path.empty()) return "--resume";
  if (config.halt_after_rounds >= 0) return "--halt-after-rounds";
  return nullptr;
}

int run(const session::ScanConfig& config) {
  if (const char* flag = unsupported_flag(config)) {
    std::string what = flag;
    if (const char* env = session::find_flag(flag)->env) {
      what += std::string(" / ") + env;
    }
    throw session::ScanConfigError(
        "spfail_repro does not take " + what +
        " (it prints every paper artifact from one full study; use "
        "spfail_scan for that output)");
  }
  session::ScanSession session(config);
  std::cout << session.banner() << "\n\n";
  // Never null: the halt flags are refused above, and no signal handler is
  // installed to stop the study early.
  const longitudinal::StudyReport& study = *session.study();
  paper_artifacts(session, study);
  ablation_test_order();
  ablation_inference(session.fleet(), study);
  ablation_labels();
  ablation_concurrency(config.threads);
  ablation_faults(config.threads, config.csv_dir);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(session::ScanConfig::from_args(argc, argv));
  } catch (const session::ScanConfigError& e) {
    std::cerr << e.what() << "\n";
    return 2;
  }
}
