#include "report/tables.hpp"

#include <algorithm>
#include <array>
#include <fstream>
#include <iostream>
#include <limits>
#include <map>
#include <set>
#include <span>
#include <string_view>
#include <utility>

#include "longitudinal/pkgmgr.hpp"
#include "population/paper_constants.hpp"
#include "util/strings.hpp"

namespace spfail::report {

namespace {

using longitudinal::Cohort;
using population::DomainRecord;
using population::Fleet;
using scan::AddressOutcome;
using scan::AddressVerdict;
using scan::CampaignReport;
using scan::ProbeStatus;
using util::Align;
using util::percent;
using util::TextTable;
using util::with_commas;

bool domain_in(const DomainRecord& d, Cohort cohort) {
  return longitudinal::Study::in_cohort(d, cohort);
}

// ----------------------------------------------------------------- Table 1

TextTable table1_overlap_impl(const Fleet& fleet) {
  const std::array<std::string, 3> names = {"2-Week MX", "Alexa 1000",
                                            "Alexa Top List"};
  const std::array<Cohort, 3> sets = {Cohort::TwoWeekMx, Cohort::Alexa1000,
                                      Cohort::AlexaTopList};
  std::array<std::array<std::size_t, 3>, 3> counts{};
  for (const auto& d : fleet.domains()) {
    for (std::size_t row = 0; row < 3; ++row) {
      if (!domain_in(d, sets[row])) continue;
      for (std::size_t col = 0; col < 3; ++col) {
        counts[row][col] += domain_in(d, sets[col]);
      }
    }
  }

  TextTable table({"Domain Set", "2-Week MX", "Alexa 1000", "Alexa Top List"},
                  {Align::Left, Align::Right, Align::Right, Align::Right});
  for (std::size_t row = 0; row < 3; ++row) {
    std::vector<std::string> cells = {names[row]};
    for (std::size_t col = 0; col < 3; ++col) {
      cells.push_back(with_commas(static_cast<long long>(counts[row][col])) +
                      " (" +
                      percent(static_cast<long long>(counts[row][col]),
                              static_cast<long long>(counts[row][row]), 1) +
                      ")");
    }
    table.add_row(std::move(cells));
  }
  return table;
}

// ----------------------------------------------------------------- funnel

struct Funnel {
  std::size_t total = 0;
  std::size_t refused = 0;
  std::size_t nomsg_tested = 0;
  std::size_t nomsg_failure = 0;
  std::size_t nomsg_measured = 0;
  std::size_t nomsg_not_measured = 0;
  std::size_t blank_tested = 0;
  std::size_t blank_failure = 0;
  std::size_t blank_measured = 0;
  std::size_t blank_not_measured = 0;
  std::size_t total_measured = 0;
};

void accumulate_address(Funnel& f, const AddressOutcome& outcome) {
  ++f.total;
  if (outcome.verdict == AddressVerdict::Refused &&
      !outcome.nomsg.has_value()) {
    ++f.refused;
    return;
  }
  if (outcome.nomsg.has_value() &&
      outcome.nomsg->status == ProbeStatus::ConnectionRefused) {
    ++f.refused;
    return;
  }
  ++f.nomsg_tested;
  if (outcome.nomsg.has_value()) {
    switch (outcome.nomsg->status) {
      case ProbeStatus::SpfMeasured:
        ++f.nomsg_measured;
        break;
      case ProbeStatus::SpfNotMeasured:
        ++f.nomsg_not_measured;
        break;
      default:
        ++f.nomsg_failure;
        break;
    }
  }
  if (outcome.blankmsg.has_value()) {
    ++f.blank_tested;
    switch (outcome.blankmsg->status) {
      case ProbeStatus::SpfMeasured:
        ++f.blank_measured;
        break;
      case ProbeStatus::SpfNotMeasured:
        ++f.blank_not_measured;
        break;
      default:
        ++f.blank_failure;
        break;
    }
  }
  if (outcome.verdict == AddressVerdict::Measured) ++f.total_measured;
}

// Domain-level funnel: a domain inherits the most advanced stage any of its
// addresses reached.
void accumulate_domain(Funnel& f, const CampaignReport& report,
                       std::span<const util::IpAddress> addresses) {
  ++f.total;
  bool any_connected = false, nomsg_measured = false, nomsg_none = false,
       blank_tried = false, blank_measured = false, blank_none = false,
       measured = false;
  for (const auto& address : addresses) {
    const auto it = report.addresses.find(address);
    if (it == report.addresses.end()) continue;
    const AddressOutcome& outcome = it->second;
    if (outcome.nomsg.has_value() &&
        outcome.nomsg->status != ProbeStatus::ConnectionRefused) {
      any_connected = true;
      if (outcome.nomsg->status == ProbeStatus::SpfMeasured) {
        nomsg_measured = true;
      }
      if (outcome.nomsg->status == ProbeStatus::SpfNotMeasured) {
        nomsg_none = true;
      }
    }
    if (outcome.blankmsg.has_value()) {
      blank_tried = true;
      if (outcome.blankmsg->status == ProbeStatus::SpfMeasured) {
        blank_measured = true;
      }
      if (outcome.blankmsg->status == ProbeStatus::SpfNotMeasured) {
        blank_none = true;
      }
    }
    if (outcome.verdict == AddressVerdict::Measured) measured = true;
  }
  if (!any_connected) {
    ++f.refused;
    return;
  }
  ++f.nomsg_tested;
  if (nomsg_measured) {
    ++f.nomsg_measured;
  } else if (nomsg_none) {
    ++f.nomsg_not_measured;
  } else {
    ++f.nomsg_failure;
  }
  if (blank_tried) {
    ++f.blank_tested;
    if (blank_measured) {
      ++f.blank_measured;
    } else if (blank_none) {
      ++f.blank_not_measured;
    } else {
      ++f.blank_failure;
    }
  }
  if (measured) ++f.total_measured;
}

}  // namespace

TextTable table1_overlap(const Fleet& fleet) { return table1_overlap_impl(fleet); }

TextTable table2_tlds(const Fleet& fleet) {
  // Keyed by the fleet's interned TLD views (stable for the fleet's
  // lifetime); lexical map order is unchanged from the old string keys.
  std::map<std::string_view, std::size_t> alexa, mx;
  for (const auto& d : fleet.domains()) {
    if (d.in_alexa) ++alexa[d.tld];
    if (d.in_mx) ++mx[d.tld];
  }
  const auto top15 = [](const std::map<std::string_view, std::size_t>& counts) {
    std::vector<std::pair<std::string_view, std::size_t>> sorted(
        counts.begin(), counts.end());
    std::sort(sorted.begin(), sorted.end(), [](const auto& a, const auto& b) {
      return a.second > b.second;
    });
    sorted.resize(std::min<std::size_t>(15, sorted.size()));
    return sorted;
  };
  const auto alexa_top = top15(alexa);
  const auto mx_top = top15(mx);

  TextTable table({"Alexa TLD", "Count", "2-Week MX TLD", "Count"},
                  {Align::Left, Align::Right, Align::Left, Align::Right});
  for (std::size_t i = 0; i < 15; ++i) {
    std::vector<std::string> cells(4);
    if (i < alexa_top.size()) {
      cells[0] = std::string(alexa_top[i].first);
      cells[1] = with_commas(static_cast<long long>(alexa_top[i].second));
    }
    if (i < mx_top.size()) {
      cells[2] = std::string(mx_top[i].first);
      cells[3] = with_commas(static_cast<long long>(mx_top[i].second));
    }
    table.add_row(std::move(cells));
  }
  return table;
}

TextTable table3_outcomes(const Fleet& fleet, const CampaignReport& initial) {
  // Column layout: Alexa domains/addresses, 2-Week MX domains/addresses,
  // Top-Provider domains.
  Funnel alexa_domains, alexa_addresses, mx_domains, mx_addresses, providers;

  for (std::size_t i = 0; i < fleet.domains().size(); ++i) {
    const DomainRecord& d = fleet.domains()[i];
    if (d.in_alexa) accumulate_domain(alexa_domains, initial, d.addresses);
    if (d.in_mx) accumulate_domain(mx_domains, initial, d.addresses);
    if (d.is_top_provider) accumulate_domain(providers, initial, d.addresses);
  }
  for (const auto* outcome : initial.sorted_outcomes()) {
    const auto& info = fleet.info(outcome->address);
    if (info.in_alexa_set) accumulate_address(alexa_addresses, *outcome);
    if (info.in_mx_set) accumulate_address(mx_addresses, *outcome);
  }

  TextTable table(
      {"", "Alexa Domains", "Alexa Addresses", "MX Domains", "MX Addresses",
       "Provider Domains"},
      {Align::Left, Align::Right, Align::Right, Align::Right, Align::Right,
       Align::Right});

  const std::array<const Funnel*, 5> funnels = {
      &alexa_domains, &alexa_addresses, &mx_domains, &mx_addresses, &providers};
  const auto row = [&](const std::string& label, auto member,
                       auto denominator) {
    std::vector<std::string> cells = {label};
    for (const Funnel* f : funnels) {
      const auto value = static_cast<long long>(f->*member);
      const auto denom = static_cast<long long>(f->*denominator);
      cells.push_back(with_commas(value) + " (" + percent(value, denom) + ")");
    }
    table.add_row(std::move(cells));
  };

  row("Total Tested", &Funnel::total, &Funnel::total);
  row("Connection Refused", &Funnel::refused, &Funnel::total);
  row("NoMsg Test", &Funnel::nomsg_tested, &Funnel::total);
  row("  SMTP Failure", &Funnel::nomsg_failure, &Funnel::nomsg_tested);
  row("  SPF Measured", &Funnel::nomsg_measured, &Funnel::nomsg_tested);
  row("  SPF Not Measured", &Funnel::nomsg_not_measured, &Funnel::nomsg_tested);
  row("BlankMsg Test", &Funnel::blank_tested, &Funnel::total);
  row("  SMTP Failure", &Funnel::blank_failure, &Funnel::blank_tested);
  row("  SPF Measured", &Funnel::blank_measured, &Funnel::blank_tested);
  row("  SPF Not Measured", &Funnel::blank_not_measured, &Funnel::blank_tested);
  table.add_rule();
  row("Total SPF Measured", &Funnel::total_measured, &Funnel::total);
  return table;
}

TextTable table4_breakdown(const Fleet& fleet, const CampaignReport& initial) {
  struct Breakdown {
    std::size_t measured = 0;
    std::size_t vulnerable = 0;
    std::size_t erroneous = 0;  // non-vulnerable erroneous
    std::size_t compliant = 0;
  };
  Breakdown alexa, mx, combined;

  const auto tally = [](Breakdown& b, const AddressOutcome& outcome) {
    if (!outcome.conclusive()) return;
    ++b.measured;
    if (outcome.vulnerable()) {
      ++b.vulnerable;
    } else if (outcome.erroneous_but_not_vulnerable()) {
      ++b.erroneous;
    } else {
      ++b.compliant;
    }
  };
  for (const auto* outcome : initial.sorted_outcomes()) {
    const auto& info = fleet.info(outcome->address);
    if (info.in_alexa_set) tally(alexa, *outcome);
    if (info.in_mx_set) tally(mx, *outcome);
    tally(combined, *outcome);
  }

  TextTable table({"IP Addresses", "Alexa Top List", "2-Week MX", "Combined"},
                  {Align::Left, Align::Right, Align::Right, Align::Right});
  const auto row = [&](const std::string& label, auto member) {
    std::vector<std::string> cells = {label};
    for (const Breakdown* b : {&alexa, &mx, &combined}) {
      const auto value = static_cast<long long>(b->*member);
      cells.push_back(with_commas(value) + " (" +
                      percent(value, static_cast<long long>(b->measured)) +
                      ")");
    }
    table.add_row(std::move(cells));
  };
  row("SPF Measured", &Breakdown::measured);
  row("Vulnerable libSPF2", &Breakdown::vulnerable);
  row("Erroneous (not vulnerable)", &Breakdown::erroneous);
  row("RFC-compliant", &Breakdown::compliant);
  return table;
}

TextTable table5_tld_patch(const Fleet& fleet,
                           const longitudinal::StudyReport& study) {
  struct TldPatch {
    std::size_t vulnerable = 0;
    std::size_t patched = 0;
  };
  std::map<std::string_view, TldPatch> by_tld;
  for (const auto& track : study.tracks) {
    const DomainRecord& d = fleet.domains()[track.domain_index];
    auto& entry = by_tld[d.tld];
    ++entry.vulnerable;
    entry.patched += track.final_status == longitudinal::FinalStatus::Patched;
  }

  // The paper's threshold: TLDs with >= 50 initially vulnerable domains
  // (scaled down with the fleet).
  const std::size_t threshold = std::max<std::size_t>(
      3, static_cast<std::size_t>(50 * fleet.config().scale));
  std::vector<std::pair<std::string_view, TldPatch>> eligible;
  for (const auto& [tld, entry] : by_tld) {
    if (entry.vulnerable >= threshold) eligible.emplace_back(tld, entry);
  }
  std::sort(eligible.begin(), eligible.end(),
            [](const auto& a, const auto& b) {
              const double ra = static_cast<double>(a.second.patched) /
                                static_cast<double>(a.second.vulnerable);
              const double rb = static_cast<double>(b.second.patched) /
                                static_cast<double>(b.second.vulnerable);
              return ra > rb;
            });

  TextTable table({"TLD", "# Patched", "# Initially Vulnerable", "% Patched"},
                  {Align::Left, Align::Right, Align::Right, Align::Right});
  const auto add = [&](const std::pair<std::string_view, TldPatch>& entry) {
    table.add_row({"." + std::string(entry.first),
                   with_commas(static_cast<long long>(entry.second.patched)),
                   with_commas(static_cast<long long>(entry.second.vulnerable)),
                   percent(static_cast<long long>(entry.second.patched),
                           static_cast<long long>(entry.second.vulnerable))});
  };
  const std::size_t n = eligible.size();
  for (std::size_t i = 0; i < std::min<std::size_t>(5, n); ++i) add(eligible[i]);
  if (n > 10) table.add_rule();
  for (std::size_t i = n > 10 ? n - 5 : std::min<std::size_t>(5, n); i < n; ++i) {
    add(eligible[i]);
  }
  return table;
}

TextTable table6_pkgmgr() {
  TextTable table({"Package Manager", "CVE-2021-20314", "CVE-2021-33912/13"},
                  {Align::Left, Align::Right, Align::Right});
  for (const auto& record : longitudinal::package_manager_table()) {
    table.add_row({std::string(record.name),
                   longitudinal::patch_latency_cell(record, false),
                   longitudinal::patch_latency_cell(record, true)});
  }
  return table;
}

TextTable table7_behaviors(const Fleet& fleet, const CampaignReport& initial) {
  (void)fleet;
  std::map<spfvuln::SpfBehavior, std::size_t> counts;
  std::size_t measured = 0, multi = 0;
  for (const auto* outcome : initial.sorted_outcomes()) {
    if (!outcome->conclusive()) continue;
    ++measured;
    for (const auto behavior : outcome->behaviors) ++counts[behavior];
    if (outcome->behaviors.size() >= 2) ++multi;
  }

  TextTable table({"Behavior", "IP Addresses", "% of Measured"},
                  {Align::Left, Align::Right, Align::Right});
  for (const auto behavior :
       {spfvuln::SpfBehavior::RfcCompliant,
        spfvuln::SpfBehavior::VulnerableLibspf2,
        spfvuln::SpfBehavior::NoExpansion, spfvuln::SpfBehavior::NoTruncation,
        spfvuln::SpfBehavior::NoReversal, spfvuln::SpfBehavior::NoTransformers,
        spfvuln::SpfBehavior::OtherErroneous}) {
    const auto count = static_cast<long long>(counts[behavior]);
    table.add_row({to_string(behavior), with_commas(count),
                   percent(count, static_cast<long long>(measured), 1)});
  }
  table.add_rule();
  table.add_row({"Multiple expansion patterns",
                 with_commas(static_cast<long long>(multi)),
                 percent(static_cast<long long>(multi),
                         static_cast<long long>(measured), 1)});
  table.add_row({"Total measured", with_commas(static_cast<long long>(measured)),
                 "100%"});
  return table;
}

TextTable fig2_final_distribution(const Fleet& fleet,
                                  const longitudinal::StudyReport& study) {
  TextTable table({"Cohort", "Patched", "Vulnerable", "Unknown", "Total"},
                  {Align::Left, Align::Right, Align::Right, Align::Right,
                   Align::Right});
  for (const Cohort cohort : {Cohort::All, Cohort::AlexaTopList,
                              Cohort::Alexa1000, Cohort::TwoWeekMx}) {
    std::size_t patched = 0, vulnerable = 0, unknown = 0;
    for (const auto& track : study.tracks) {
      if (!domain_in(fleet.domains()[track.domain_index], cohort)) continue;
      switch (track.final_status) {
        case longitudinal::FinalStatus::Patched:
          ++patched;
          break;
        case longitudinal::FinalStatus::Vulnerable:
          ++vulnerable;
          break;
        case longitudinal::FinalStatus::Unknown:
          ++unknown;
          break;
      }
    }
    const long long total = static_cast<long long>(patched + vulnerable + unknown);
    table.add_row({to_string(cohort),
                   with_commas(static_cast<long long>(patched)) + " (" +
                       percent(static_cast<long long>(patched), total) + ")",
                   with_commas(static_cast<long long>(vulnerable)) + " (" +
                       percent(static_cast<long long>(vulnerable), total) + ")",
                   with_commas(static_cast<long long>(unknown)) + " (" +
                       percent(static_cast<long long>(unknown), total) + ")",
                   with_commas(total)});
  }
  return table;
}

TextTable fig3_geography(const Fleet& fleet,
                         const longitudinal::StudyReport& study) {
  struct RegionStats {
    std::size_t vulnerable = 0;
    std::size_t patched = 0;
  };
  std::map<std::string, RegionStats> regions;
  std::set<util::IpAddress> seen;
  for (const auto& track : study.tracks) {
    for (const auto& address : track.vulnerable_addresses) {
      if (!seen.insert(address).second) continue;
      const auto* point = fleet.geo().lookup(address);
      if (point == nullptr) continue;
      auto& stats = regions[point->region];
      ++stats.vulnerable;
      const auto* host = fleet.find_host(address);
      stats.patched += host != nullptr && host->is_patched();
    }
  }
  TextTable table({"Region", "Vulnerable IPs", "Patched IPs", "% Patched"},
                  {Align::Left, Align::Right, Align::Right, Align::Right});
  std::vector<std::pair<std::string, RegionStats>> sorted(regions.begin(),
                                                          regions.end());
  std::sort(sorted.begin(), sorted.end(), [](const auto& a, const auto& b) {
    return a.second.vulnerable > b.second.vulnerable;
  });
  for (const auto& [region, stats] : sorted) {
    table.add_row({region, with_commas(static_cast<long long>(stats.vulnerable)),
                   with_commas(static_cast<long long>(stats.patched)),
                   percent(static_cast<long long>(stats.patched),
                           static_cast<long long>(stats.vulnerable))});
  }
  return table;
}

TextTable fig4_rank_buckets(const Fleet& fleet,
                            const longitudinal::StudyReport& study,
                            Cohort cohort) {
  // Order the cohort's domains by their ranking metric, split into 20
  // equal-size buckets, and count vulnerable / eventually patched per bucket.
  struct Entry {
    std::size_t metric;
    bool vulnerable;
    bool patched;
  };
  std::map<std::size_t, const longitudinal::DomainTrack*> track_of;
  for (const auto& track : study.tracks) track_of[track.domain_index] = &track;

  std::vector<Entry> entries;
  entries.reserve(fleet.domains().size());
  for (std::size_t i = 0; i < fleet.domains().size(); ++i) {
    const DomainRecord& d = fleet.domains()[i];
    if (!domain_in(d, cohort)) continue;
    Entry entry;
    // Alexa: rank ascending = most popular first. MX: query count descending.
    entry.metric = cohort == Cohort::TwoWeekMx
                       ? std::numeric_limits<std::size_t>::max() -
                             d.mx_query_count
                       : d.alexa_rank;
    const auto it = track_of.find(i);
    entry.vulnerable = it != track_of.end();
    entry.patched = entry.vulnerable &&
                    it->second->final_status == longitudinal::FinalStatus::Patched;
    entries.push_back(entry);
  }
  std::sort(entries.begin(), entries.end(),
            [](const Entry& a, const Entry& b) { return a.metric < b.metric; });

  TextTable table({"Rank Bucket", "Domains", "Vulnerable", "Patched"},
                  {Align::Left, Align::Right, Align::Right, Align::Right});
  constexpr std::size_t kBuckets = 20;
  const std::size_t per_bucket =
      std::max<std::size_t>(1, entries.size() / kBuckets);
  for (std::size_t b = 0; b < kBuckets; ++b) {
    const std::size_t lo = b * per_bucket;
    if (lo >= entries.size()) break;
    const std::size_t hi =
        b + 1 == kBuckets ? entries.size() : std::min(entries.size(),
                                                      lo + per_bucket);
    std::size_t vulnerable = 0, patched = 0;
    for (std::size_t i = lo; i < hi; ++i) {
      vulnerable += entries[i].vulnerable;
      patched += entries[i].patched;
    }
    table.add_row({"bucket " + std::to_string(b + 1),
                   with_commas(static_cast<long long>(hi - lo)),
                   with_commas(static_cast<long long>(vulnerable)),
                   with_commas(static_cast<long long>(patched))});
  }
  return table;
}

TextTable fig5_conclusive_series(const Fleet& fleet,
                                 const longitudinal::StudyReport& study,
                                 Cohort cohort) {
  TextTable table({"Date", "Measured", "Inferable", "Vulnerable", "Patched",
                   "Total"},
                  {Align::Left, Align::Right, Align::Right, Align::Right,
                   Align::Right, Align::Right});
  for (std::size_t round = 0; round < study.round_times.size(); ++round) {
    const auto counts =
        longitudinal::Study::domain_counts_at(study, fleet, round, cohort);
    table.add_row({util::format_date(study.round_times[round]),
                   with_commas(static_cast<long long>(counts.measured)),
                   with_commas(static_cast<long long>(counts.inferable)),
                   with_commas(static_cast<long long>(counts.vulnerable)),
                   with_commas(static_cast<long long>(counts.patched)),
                   with_commas(static_cast<long long>(counts.total))});
  }
  return table;
}

TextTable fig67_vulnerability_series(const Fleet& fleet,
                                     const longitudinal::StudyReport& study,
                                     bool window1_only) {
  TextTable table(
      {"Date", "All", "Alexa Top List", "Alexa 1000", "2-Week MX"},
      {Align::Left, Align::Right, Align::Right, Align::Right, Align::Right});
  for (std::size_t round = 0; round < study.round_times.size(); ++round) {
    if (window1_only &&
        study.round_times[round] > population::paper::kMeasurementsPaused) {
      break;
    }
    std::vector<std::string> cells = {
        util::format_date(study.round_times[round])};
    for (const Cohort cohort : {Cohort::All, Cohort::AlexaTopList,
                                Cohort::Alexa1000, Cohort::TwoWeekMx}) {
      const auto counts =
          longitudinal::Study::domain_counts_at(study, fleet, round, cohort);
      cells.push_back(percent(static_cast<long long>(counts.vulnerable),
                              static_cast<long long>(counts.inferable), 1));
    }
    table.add_row(std::move(cells));
  }
  return table;
}

std::vector<double> vulnerability_series(const Fleet& fleet,
                                         const longitudinal::StudyReport& study,
                                         Cohort cohort) {
  std::vector<double> series;
  series.reserve(study.round_times.size());
  for (std::size_t round = 0; round < study.round_times.size(); ++round) {
    const auto counts =
        longitudinal::Study::domain_counts_at(study, fleet, round, cohort);
    series.push_back(counts.inferable == 0
                         ? 0.0
                         : 100.0 * static_cast<double>(counts.vulnerable) /
                               static_cast<double>(counts.inferable));
  }
  return series;
}

TextTable notification_funnel(const longitudinal::StudyReport& study) {
  TextTable table({"Stage", "Count", "Rate"},
                  {Align::Left, Align::Right, Align::Right});
  const auto& n = study.notification;
  table.add_row({"Notifications sent",
                 with_commas(static_cast<long long>(n.sent)), "100%"});
  table.add_row({"Returned undelivered",
                 with_commas(static_cast<long long>(n.bounced)),
                 percent(static_cast<long long>(n.bounced),
                         static_cast<long long>(n.sent), 1)});
  table.add_row({"Delivered",
                 with_commas(static_cast<long long>(n.delivered)),
                 percent(static_cast<long long>(n.delivered),
                         static_cast<long long>(n.sent), 1)});
  table.add_row({"Opened (tracking image)",
                 with_commas(static_cast<long long>(n.opened)),
                 percent(static_cast<long long>(n.opened),
                         static_cast<long long>(n.delivered), 1)});
  table.add_row(
      {"Openers eventually patched",
       with_commas(static_cast<long long>(study.opened_eventually_patched)),
       percent(static_cast<long long>(study.opened_eventually_patched),
               static_cast<long long>(std::max<std::size_t>(1, n.opened)), 1)});
  table.add_row(
      {"Openers patched between disclosures",
       with_commas(static_cast<long long>(
           study.opened_patched_between_disclosures)),
       percent(static_cast<long long>(study.opened_patched_between_disclosures),
               static_cast<long long>(std::max<std::size_t>(1, n.opened)), 1)});
  table.add_row(
      {"Unnotified patched between disclosures",
       with_commas(static_cast<long long>(
           study.bounced_patched_between_disclosures)),
       "-"});
  return table;
}

util::TextTable degradation_table(const faults::DegradationReport& report) {
  return report.to_table();
}

util::TextTable trace_summary(const net::TraceStats& stats) {
  TextTable table({"Wire trace", "Count"}, {Align::Left, Align::Right});
  const auto count = [](std::size_t n) {
    return with_commas(static_cast<long long>(n));
  };
  table.add_row({"Frames", count(stats.frames)});
  table.add_row({"SMTP commands", count(stats.smtp_commands)});
  table.add_row({"SMTP replies", count(stats.smtp_replies)});
  table.add_row({"DNS queries", count(stats.dns_queries)});
  table.add_row({"DNS responses", count(stats.dns_responses)});
  table.add_row({"Injected (faults)", count(stats.injected)});
  table.add_row({"Work lanes", count(stats.lanes)});
  table.add_row({"Endpoints", count(stats.endpoints)});
  const auto hop_rows = [&](const char* proto, const obs::Histogram& h) {
    if (h.count() == 0) return;
    const std::string prefix = std::string(proto) + " hop sim-latency ";
    table.add_row({prefix + "p50",
                   with_commas(static_cast<long long>(h.quantile(0.5)))});
    table.add_row({prefix + "p95",
                   with_commas(static_cast<long long>(h.quantile(0.95)))});
    table.add_row(
        {prefix + "max", with_commas(static_cast<long long>(h.max()))});
  };
  if (stats.smtp_hop_latency.count() > 0 ||
      stats.dns_hop_latency.count() > 0) {
    table.add_rule();
    hop_rows("SMTP", stats.smtp_hop_latency);
    hop_rows("DNS", stats.dns_hop_latency);
  }
  if (!stats.smtp_verbs.empty()) {
    table.add_rule();
    for (const auto& [verb, n] : stats.smtp_verbs) {
      table.add_row({"SMTP " + verb, count(n)});
    }
  }
  if (!stats.dns_rcodes.empty()) {
    table.add_rule();
    for (const auto& [rcode, n] : stats.dns_rcodes) {
      table.add_row({"DNS " + rcode, count(n)});
    }
  }
  return table;
}

util::TextTable scenario_outcomes(
    const std::vector<scenario::ScenarioReport>& reports) {
  TextTable table({"Scenario", "Outcome", "Value"},
                  {Align::Left, Align::Left, Align::Right});
  const auto count = [](std::uint64_t n) {
    return with_commas(static_cast<long long>(n));
  };
  bool first = true;
  for (const scenario::ScenarioReport& report : reports) {
    if (!first) table.add_rule();
    first = false;
    std::string label = report.name + " v" + std::to_string(report.version);
    const auto flow_rows = [&](const char* kind,
                               const scenario::FlowTally& tally) {
      table.add_row({std::exchange(label, ""), std::string(kind) + " flows",
                     count(tally.flows)});
      table.add_row({"", std::string(kind) + " delivered",
                     count(tally.delivered)});
      table.add_row({"", std::string(kind) + " rejected",
                     count(tally.rejected)});
    };
    table.add_row({std::exchange(label, ""), "domains staged",
                   count(report.domains_staged) +
                       (report.truncated ? " (truncated)" : "")});
    flow_rows("legit", report.legit);
    flow_rows("forwarded", report.forwarded);
    flow_rows("spoof", report.spoof);
    const std::uint64_t quarantined = report.legit.quarantined +
                                      report.forwarded.quarantined +
                                      report.spoof.quarantined;
    const std::uint64_t sampled_out = report.legit.dmarc_sampled_out +
                                      report.forwarded.dmarc_sampled_out +
                                      report.spoof.dmarc_sampled_out;
    table.add_row({"", "DMARC quarantined", count(quarantined)});
    table.add_row({"", "DMARC pct= sampled out", count(sampled_out)});
    const std::uint64_t legit_flows =
        report.legit.flows + report.forwarded.flows;
    const std::uint64_t all_flows = legit_flows + report.spoof.flows;
    table.add_row({"", "spoof delivered rate",
                   percent(static_cast<long long>(report.spoof.delivered),
                           static_cast<long long>(
                               std::max<std::uint64_t>(1, report.spoof.flows)),
                           1)});
    table.add_row({"", "spoof rejected rate",
                   percent(static_cast<long long>(report.spoof.rejected),
                           static_cast<long long>(
                               std::max<std::uint64_t>(1, report.spoof.flows)),
                           1)});
    table.add_row(
        {"", "legit rejected rate",
         percent(
             static_cast<long long>(report.legit.rejected +
                                    report.forwarded.rejected),
             static_cast<long long>(std::max<std::uint64_t>(1, legit_flows)),
             1)});
    table.add_row(
        {"", "SPF permerror rate",
         percent(static_cast<long long>(report.legit.spf_permerror +
                                        report.forwarded.spf_permerror +
                                        report.spoof.spf_permerror),
                 static_cast<long long>(std::max<std::uint64_t>(1, all_flows)),
                 1)});
  }
  return table;
}

util::TextTable metrics_summary(const obs::Registry& registry,
                                bool include_wall) {
  TextTable table({"Metric", "Kind", "Value"},
                  {Align::Left, Align::Left, Align::Right});
  const auto num = [](std::int64_t v) {
    return with_commas(static_cast<long long>(v));
  };
  for (const auto& [name, family] : registry.families()) {
    if (family.wall && !include_wall) continue;
    for (const auto& [labels, cell] : family.cells) {
      const std::string key = labels.empty() ? name : name + "{" + labels + "}";
      switch (family.kind) {
        case obs::MetricKind::Counter:
          table.add_row({key, "counter",
                         num(static_cast<std::int64_t>(cell.counter))});
          break;
        case obs::MetricKind::Gauge:
          table.add_row({key, "gauge", num(cell.gauge)});
          break;
        case obs::MetricKind::Histogram: {
          const obs::Histogram& h = cell.histogram;
          table.add_row(
              {key, "histogram",
               "n=" + num(static_cast<std::int64_t>(h.count())) +
                   " p50=" + num(h.quantile(0.5)) +
                   " p95=" + num(h.quantile(0.95)) + " max=" + num(h.max())});
          break;
        }
      }
    }
  }
  return table;
}

void write_csv(const std::string& dir, std::string_view slug,
               const util::TextTable& table) {
  const std::string path = dir + "/" + std::string(slug) + ".csv";
  std::ofstream out(path);
  if (!out) {
    std::cerr << "cannot write " << path << "\n";
    return;
  }
  table.to_csv(out);
  std::cout << "  wrote " << path << "\n";
}

}  // namespace spfail::report
