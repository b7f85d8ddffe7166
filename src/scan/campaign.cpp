#include "scan/campaign.hpp"

#include <algorithm>
#include <optional>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "util/intern.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace spfail::scan {

namespace {

// Adapts the legacy vector-of-TargetDomain interface onto the streaming
// TargetSource core; the vector overload of run() is now just this wrapper.
class VectorTargetSource final : public TargetSource {
 public:
  explicit VectorTargetSource(const std::vector<TargetDomain>& targets)
      : targets_(targets) {}

  std::size_t domain_count() const override { return targets_.size(); }

  std::size_t address_upper_bound() const override {
    std::size_t n = 0;
    for (const auto& target : targets_) n += target.addresses.size();
    return n;
  }

  void for_each(
      const std::function<void(std::string_view,
                               std::span<const util::IpAddress>)>& fn)
      const override {
    for (const auto& target : targets_) fn(target.domain, target.addresses);
  }

 private:
  const std::vector<TargetDomain>& targets_;
};

// Provider grouping for the circuit breaker: IPv4 /24, IPv6 by the hash of
// the textual form (tagged into a disjoint key space). Computed from merged
// whole-wave results only — never from per-shard streaks, which would vary
// with the thread count.
std::uint64_t provider_group(const util::IpAddress& address) {
  if (address.is_v4()) return address.v4_value() >> 8;
  return util::fnv1a(address.to_string()) | (1ULL << 63);
}

// One unit of wave work: an address plus the recipient domain for RCPT TO.
// The view aliases the round's recipient interner, which outlives every
// slice of the round.
struct WaveItem {
  util::IpAddress address;
  std::string_view recipient;
};

// Deduplicate the targets' addresses into the master work list, in
// ascending address order. Each address keeps the first domain that listed
// it as its RCPT TO recipient: the (address, recipient) edges are flattened
// in walk order, stable-sorted by address, and the first edge of each run of
// equal addresses wins. Domain names are interned once into `recipients`
// (DESIGN.md §14), which must outlive the returned items — they view its
// arena.
std::vector<WaveItem> dedupe(const TargetSource& targets,
                             util::Interner& recipients) {
  std::vector<std::pair<util::IpAddress, util::Symbol>> edges;
  edges.reserve(targets.address_upper_bound());
  targets.for_each([&](std::string_view domain,
                       std::span<const util::IpAddress> addresses) {
    if (addresses.empty()) return;
    const util::Symbol name = recipients.intern(domain);
    for (const auto& address : addresses) edges.emplace_back(address, name);
  });
  std::stable_sort(
      edges.begin(), edges.end(),
      [](const auto& a, const auto& b) { return a.first < b.first; });
  edges.erase(std::unique(edges.begin(), edges.end(),
                          [](const auto& a, const auto& b) {
                            return a.first == b.first;
                          }),
              edges.end());
  std::vector<WaveItem> items;
  items.reserve(edges.size());
  for (const auto& [address, name] : edges) {
    items.push_back(WaveItem{address, recipients.view(name)});
  }
  return items;
}

// Fold a NoMsg result into `outcome`. Returns whether the address still
// wants BlankMsg: NoMsg saw no SPF, or a settled mid-dialog 550 left room
// for SPF after DATA (e.g. the RCPT ladder ran dry; the paper's wave 2
// covered those too). A measured address does not: the paper retried almost
// all NoMsg successes with BlankMsg, but only the inconclusive ones feed it
// here.
bool apply_nomsg(AddressOutcome& outcome, ProbeResult nomsg) {
  bool want_blankmsg = false;
  switch (nomsg.status) {
    case ProbeStatus::ConnectionRefused:
      outcome.verdict = AddressVerdict::Refused;
      break;
    case ProbeStatus::SpfMeasured:
      outcome.verdict = AddressVerdict::Measured;
      outcome.behaviors = nomsg.behaviors;
      break;
    case ProbeStatus::SpfNotMeasured:
      outcome.verdict = AddressVerdict::NotMeasured;
      want_blankmsg = true;
      break;
    case ProbeStatus::Greylisted:  // retries exhausted
    case ProbeStatus::TempFailed:
    case ProbeStatus::Dropped:
    case ProbeStatus::SmtpFailure:
      outcome.verdict = AddressVerdict::SmtpFailure;
      want_blankmsg =
          nomsg.failing_code == 550 && !is_transient(nomsg.status);
      break;
  }
  outcome.nomsg = std::move(nomsg);
  return want_blankmsg;
}

// Fold a BlankMsg result into `outcome`: a measurement adds its behaviours,
// and an SMTP failure demotes an address NoMsg saw no SPF at.
void apply_blankmsg(AddressOutcome& outcome, ProbeResult blankmsg) {
  if (blankmsg.status == ProbeStatus::SpfMeasured) {
    outcome.verdict = AddressVerdict::Measured;
    outcome.behaviors.insert(blankmsg.behaviors.begin(),
                             blankmsg.behaviors.end());
  } else if (outcome.verdict == AddressVerdict::NotMeasured &&
             blankmsg.status == ProbeStatus::SmtpFailure) {
    outcome.verdict = AddressVerdict::SmtpFailure;
  }
  outcome.blankmsg = std::move(blankmsg);
}

// One measurement round, decided serially before any pass fans out: a slice
// is a pure function of its index range, this struct and the host
// registry's state.
struct Round {
  const LabelAllocator& labels;
  const ProbeEngine& engine;
  util::SimClock& clock;
  std::string suite;                   // this round's probe-label suite
  std::uint64_t fault_round = 0;       // fault-plan round salt
  util::SimTime per_test_advance = 0;  // concurrency-cap clock model
  std::vector<WaveItem> items;         // the master work list
  std::vector<AddressOutcome*> outcomes;  // items[i]'s report entry

  // Run one test of items[i] on `host` in the calling slice: charge the
  // per-test clock advance, record the dialog into trace pass `pass`, and
  // drive the shared ProbeEngine. The label slot and trace lane are 2i for
  // NoMsg and 2i+1 for BlankMsg — the master position, never the slice
  // layout. Attempt numbers continue across calls via
  // `probe_attempts`, keeping fault-plan keys fresh on every re-attempt,
  // and the round-level retry budget shrinks with `retries_used`.
  ProbeResult run_test(Prober& prober, ProbeSlice& slice, std::size_t pass,
                       mta::MailHost& host, TestKind kind,
                       std::size_t i) const {
    clock.advance_by(per_test_advance);
    const std::uint64_t slot = 2 * i + (kind == TestKind::BlankMsg ? 1 : 0);
    std::optional<net::WireTrace::Lane> lane;
    if (!slice.traces.empty()) lane.emplace(slice.traces[pass], slot, clock);
    AddressOutcome& outcome = *outcomes[i];
    ProbeRequest request;
    request.address = outcome.address;
    request.recipient_domain = items[i].recipient;
    // The campaign keeps one label per test across retries; labels only
    // differ per attempt in the longitudinal per-observation path.
    request.mail_from = labels.indexed_mail_from(slot, suite);
    request.retry_mail_from = request.mail_from;
    request.kind = kind;
    request.fault_round = fault_round;
    request.first_attempt = static_cast<std::uint64_t>(outcome.probe_attempts);
    request.retry_budget =
        engine.retry().config().per_address_budget - outcome.retries_used;
    ProbeOutcome settled = engine.run(prober, host, request, slice.deg);
    outcome.probe_attempts += settled.attempts;
    outcome.retries_used += settled.retries;
    outcome.saw_transient = outcome.saw_transient || settled.saw_transient;
    return std::move(settled.result);
  }
};

}  // namespace

std::string to_string(AddressVerdict verdict) {
  switch (verdict) {
    case AddressVerdict::Refused:
      return "refused";
    case AddressVerdict::SmtpFailure:
      return "smtp-failure";
    case AddressVerdict::Measured:
      return "measured";
    case AddressVerdict::NotMeasured:
      return "not-measured";
  }
  return "?";
}

bool AddressOutcome::erroneous_but_not_vulnerable() const {
  if (vulnerable()) return false;
  for (const auto behavior : behaviors) {
    if (spfvuln::is_erroneous(behavior)) return true;
  }
  return false;
}

std::vector<const AddressOutcome*> CampaignReport::sorted_outcomes() const {
  std::vector<const AddressOutcome*> out;
  out.reserve(addresses.size());
  for (const auto& [address, outcome] : addresses) out.push_back(&outcome);
  std::sort(out.begin(), out.end(),
            [](const AddressOutcome* a, const AddressOutcome* b) {
              return a->address < b->address;
            });
  return out;
}

std::size_t CampaignReport::count_verdict(AddressVerdict verdict) const {
  std::size_t n = 0;
  for (const auto& [addr, outcome] : addresses) {
    if (outcome.verdict == verdict) ++n;
  }
  return n;
}

std::size_t CampaignReport::vulnerable_addresses() const {
  std::size_t n = 0;
  for (const auto& [addr, outcome] : addresses) n += outcome.vulnerable();
  return n;
}

std::size_t CampaignReport::vulnerable_domains() const {
  std::size_t n = 0;
  for (const auto& d : domains) n += d.vulnerable;
  return n;
}

Campaign::Campaign(CampaignConfig config, dns::AuthoritativeServer& server,
                   util::SimClock& clock, HostRegistry& registry)
    : config_(std::move(config)),
      server_(server),
      clock_(clock),
      registry_(registry),
      labels_(util::Rng(config_.label_seed), config_.prober.responder.base),
      plan_(config_.faults),
      retry_(faults::resolve_retry(config_.retry,
                                   1 + config_.max_greylist_retries,
                                   config_.greylist_backoff)),
      engine_(plan_, retry_, clock_),
      batch_(config_.prober, server_, clock_, config_.trace, config_.metrics) {}

CampaignReport Campaign::run(const std::vector<TargetDomain>& targets) {
  return run(VectorTargetSource(targets));
}

CampaignReport Campaign::run(const TargetSource& targets) {
  CampaignReport report;
  report.suite_label = labels_.new_suite();
  report.degradation.configured_rate = plan_.config().rate;

  // The concurrency cap means wall-clock advances by (gap / cap) per test on
  // average; each slice accumulates that 250-lane model on its clock lane,
  // and the lane offsets sum to exactly the serial advance.
  const util::SimTime per_test_advance = std::max<util::SimTime>(
      1, config_.inter_connection_gap / config_.max_concurrent_connections);
  Round round{labels_, engine_, clock_, report.suite_label, next_round_++,
              per_test_advance, {}, {}};

  // 1. Deduplicate addresses into the master work list, in ascending address
  //    order. Slices are contiguous runs of this list, so every address (and
  //    with it every host: hosts are keyed by address) belongs to exactly one
  //    worker at a time. Probe labels derive from the position in this list,
  //    never from allocation order. Each address's report entry is created
  //    here, serially and in list order; the slices fill them in place.
  util::Interner recipients;  // outlives every item view below
  round.items = dedupe(targets, recipients);
  const std::size_t n = round.items.size();
  report.addresses.reserve(n);
  round.outcomes.reserve(n);
  for (const WaveItem& item : round.items) {
    AddressOutcome& outcome = report.addresses[item.address];
    outcome.address = item.address;
    round.outcomes.push_back(&outcome);
  }

  // 2+3. The two probe waves. Within a slice every NoMsg test runs first, in
  //    item order, then BlankMsg for the slice's addresses that accepted SMTP
  //    but showed no SPF. Both waves charge the per-test advance even where
  //    no host answers (the address stays Refused).
  util::ThreadPool pool(config_.threads);
  const auto find_or_charge = [&](std::size_t i) {
    mta::MailHost* host = registry_.find_host(round.items[i].address);
    if (host == nullptr) clock_.advance_by(round.per_test_advance);
    return host;
  };
  report.degradation.merge(batch_.run(
      pool, n, 2,
      [&](Prober& prober, ProbeSlice& slice, std::size_t begin,
          std::size_t end) {
        std::vector<std::size_t> want_blankmsg;
        for (std::size_t i = begin; i < end; ++i) {
          mta::MailHost* host = find_or_charge(i);
          if (host == nullptr) continue;
          ProbeResult nomsg =
              round.run_test(prober, slice, 0, *host, TestKind::NoMsg, i);
          registry_.release_host(round.items[i].address);
          if (apply_nomsg(*round.outcomes[i], std::move(nomsg))) {
            want_blankmsg.push_back(i);
          }
        }
        for (const std::size_t i : want_blankmsg) {
          mta::MailHost* host = find_or_charge(i);
          if (host == nullptr) continue;
          ProbeResult blankmsg =
              round.run_test(prober, slice, 1, *host, TestKind::BlankMsg, i);
          registry_.release_host(round.items[i].address);
          apply_blankmsg(*round.outcomes[i], std::move(blankmsg));
        }
      }));

  // 3b. Circuit breaker + inconclusive re-queue wave (fault layer only).
  //
  // Addresses whose retries exhausted mid-wave get one more pass after a
  // cool-down — unless their provider group (/24) looks systemically sick,
  // in which case the breaker opens and the group is skipped. Group stats
  // come from the complete merged wave results, so the decision (and with it
  // the whole report) is independent of the thread count.
  if (plan_.enabled()) {
    std::unordered_map<std::uint64_t, std::pair<std::size_t, std::size_t>>
        group_stats;  // group -> {tested, transient}
    for (std::size_t i = 0; i < n; ++i) {
      auto& [tested, transient] =
          group_stats[provider_group(round.items[i].address)];
      ++tested;
      if (round.outcomes[i]->pending_transient()) ++transient;
    }
    std::unordered_set<std::uint64_t> open_groups;
    for (const auto& [group, stats] : group_stats) {
      const auto [tested, transient] = stats;
      if (transient >= static_cast<std::size_t>(config_.breaker_min_transient) &&
          static_cast<double>(transient) >=
              config_.breaker_min_share * static_cast<double>(tested)) {
        open_groups.insert(group);
      }
    }
    report.degradation.breaker_trips += open_groups.size();

    // Re-queue candidates, in master (address) order so labels and fault
    // keys line up across thread counts.
    std::vector<std::size_t> requeue;
    for (std::size_t i = 0; i < n; ++i) {
      if (!round.outcomes[i]->pending_transient()) continue;
      if (open_groups.count(provider_group(round.items[i].address)) > 0) {
        ++report.degradation.breaker_skipped;
        continue;
      }
      requeue.push_back(i);
    }

    if (!requeue.empty()) {
      clock_.advance_by(config_.requeue_backoff);
      // One pass, one trace: the stuck test runs again, and a settled NoMsg
      // that wants the message-bearing test gets the wave-2 treatment
      // inline. A missing host is skipped without charging the clock.
      report.degradation.merge(batch_.run(
          pool, requeue.size(), 1,
          [&](Prober& prober, ProbeSlice& slice, std::size_t begin,
              std::size_t end) {
            for (std::size_t j = begin; j < end; ++j) {
              const std::size_t i = requeue[j];
              AddressOutcome& outcome = *round.outcomes[i];
              mta::MailHost* host = registry_.find_host(outcome.address);
              if (host == nullptr) continue;
              const TestKind pending = *outcome.pending_transient();
              bool want_blankmsg = pending == TestKind::BlankMsg;
              if (pending == TestKind::NoMsg) {
                want_blankmsg = apply_nomsg(
                    outcome, round.run_test(prober, slice, 0, *host,
                                            TestKind::NoMsg, i));
              }
              if (want_blankmsg) {
                apply_blankmsg(outcome,
                               round.run_test(prober, slice, 0, *host,
                                              TestKind::BlankMsg, i));
              }
              registry_.release_host(outcome.address);
            }
          }));
      for (const std::size_t i : requeue) {
        if (!round.outcomes[i]->pending_transient()) {
          ++report.degradation.requeue_recovered;
        }
      }
      report.degradation.requeued += requeue.size();
    }
  }

  // Final degradation accounting: every address that ever went transient is
  // either recovered (settled) or exhausted (still pending) — the invariant
  // the test suite checks.
  for (const auto& [address, outcome] : report.addresses) {
    ++report.degradation.addresses_tested;
    if (outcome.conclusive()) ++report.degradation.conclusive;
    if (outcome.saw_transient) {
      ++report.degradation.transient_addresses;
      if (outcome.pending_transient()) {
        ++report.degradation.exhausted;
      } else {
        ++report.degradation.recovered;
      }
    }
  }

  // Serial round roll-up into the master registry: counters accumulate
  // across rounds, the gauges snapshot this round (the per-round JSONL
  // stream is what gives them a time axis).
  if (config_.metrics != nullptr) {
    obs::Registry& m = *config_.metrics;
    m.counter("campaign_rounds_total") += 1;
    m.counter("campaign_addresses_tested_total") +=
        report.degradation.addresses_tested;
    m.counter("campaign_conclusive_total") += report.degradation.conclusive;
    m.counter("campaign_breaker_trips_total") +=
        report.degradation.breaker_trips;
    m.counter("campaign_requeued_total") += report.degradation.requeued;
    m.counter("campaign_requeue_recovered_total") +=
        report.degradation.requeue_recovered;
    m.gauge("campaign_round_addresses") =
        static_cast<std::int64_t>(report.degradation.addresses_tested);
    m.gauge("campaign_round_conclusive") =
        static_cast<std::int64_t>(report.degradation.conclusive);
  }

  // 4. Domain roll-up: a second streaming walk over the same source.
  report.domains.reserve(targets.domain_count());
  targets.for_each([&](std::string_view domain,
                       std::span<const util::IpAddress> addresses) {
    DomainOutcome domain_outcome;
    domain_outcome.domain = std::string(domain);
    domain_outcome.addresses.assign(addresses.begin(), addresses.end());
    for (const auto& address : addresses) {
      const auto it = report.addresses.find(address);
      if (it == report.addresses.end()) continue;
      const AddressOutcome& outcome = it->second;
      if (outcome.verdict == AddressVerdict::Refused) {
        domain_outcome.any_refused = true;
      }
      if (outcome.conclusive()) {
        domain_outcome.any_measured = true;
        domain_outcome.behaviors.insert(outcome.behaviors.begin(),
                                        outcome.behaviors.end());
      }
      if (outcome.vulnerable()) domain_outcome.vulnerable = true;
    }
    report.domains.push_back(std::move(domain_outcome));
  });
  return report;
}

}  // namespace spfail::scan
