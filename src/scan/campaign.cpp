#include "scan/campaign.hpp"

#include <algorithm>
#include <atomic>
#include <optional>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "obs/lane.hpp"
#include "util/concurrent_table.hpp"
#include "util/intern.hpp"
#include "util/rng.hpp"

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

// Serial reference dedupe: first-listing domain wins, items come out in
// ascending address order with recipients interned into `recipients` (which
// must outlive the returned items — they view its arena).
std::vector<WaveItem> dedupe_serial(const TargetSource& targets,
                                    util::Interner& recipients) {
  std::unordered_map<util::IpAddress, util::Symbol, util::IpAddressHash>
      recipient_for;
  recipient_for.reserve(targets.address_upper_bound());
  targets.for_each([&](std::string_view domain,
                       std::span<const util::IpAddress> addresses) {
    if (addresses.empty()) return;
    const util::Symbol name = recipients.intern(domain);
    for (const auto& address : addresses) {
      recipient_for.emplace(address, name);
    }
  });
  std::vector<const std::pair<const util::IpAddress, util::Symbol>*> order;
  order.reserve(recipient_for.size());
  for (const auto& entry : recipient_for) order.push_back(&entry);
  std::sort(order.begin(), order.end(),
            [](const auto* a, const auto* b) { return a->first < b->first; });
  std::vector<WaveItem> items;
  items.reserve(order.size());
  for (const auto* entry : order) {
    items.push_back(WaveItem{entry->first, recipients.view(entry->second)});
  }
  return items;
}

// Concurrent dedupe over a lock-free table (DESIGN.md §16), same output as
// dedupe_serial byte for byte. A serial walk flattens the (domain, address)
// edges, then workers race CAS-min claims of the flat position into a
// ConcurrentTable keyed by address hash: the minimum position is the first
// listing, i.e. exactly the entry emplace() would have kept. The claim is
// order-free (min is commutative), so the steal schedule is invisible.
// Addresses are wider than the u64 key, so a hit verifies the full address
// and re-probes under a salted key on a genuine 64-bit collision.
std::vector<WaveItem> dedupe_concurrent(const TargetSource& targets,
                                        util::Interner& recipients,
                                        util::ThreadPool& pool,
                                        const util::SchedulerOptions& sched) {
  // Phase A (serial): flatten the walk. flat position i carries the address
  // and the Symbol of the domain that listed it.
  std::vector<util::IpAddress> flat_addrs;
  std::vector<util::Symbol> flat_name;
  flat_addrs.reserve(targets.address_upper_bound());
  flat_name.reserve(targets.address_upper_bound());
  targets.for_each([&](std::string_view domain,
                       std::span<const util::IpAddress> addresses) {
    if (addresses.empty()) return;
    const util::Symbol name = recipients.intern(domain);
    for (const auto& address : addresses) {
      flat_addrs.push_back(address);
      flat_name.push_back(name);
    }
  });

  struct DedupeSlot {
    util::IpAddress address;                 // published pre-Ready, immutable
    std::atomic<std::uint64_t> claim{0};     // CAS-min of the flat position
  };
  constexpr std::uint64_t kSaltStep = 0x9E3779B97F4A7C15ULL;
  constexpr int kMaxSalt = 4;
  util::ConcurrentTable<DedupeSlot> table(flat_addrs.size());

  // Phase B (parallel): claim every flat position. Throws TableFullError on
  // a blown sizing bound (impossible while the table is sized to the flat
  // list) — the caller falls back to the serial path.
  pool.parallel_for_slices(
      flat_addrs.size(), sched,
      [&](std::size_t, std::size_t begin, std::size_t end) {
        for (std::size_t i = begin; i < end; ++i) {
          const util::IpAddress& address = flat_addrs[i];
          const std::uint64_t hash = util::IpAddressHash{}(address);
          for (int salt = 0;; ++salt) {
            if (salt > kMaxSalt) {
              throw util::TableFullError("dedupe salt chain exhausted");
            }
            const std::uint64_t key =
                hash + static_cast<std::uint64_t>(salt) * kSaltStep;
            const auto found = table.find_or_insert(key, [&](DedupeSlot& s) {
              s.address = address;
              s.claim.store(i, std::memory_order_relaxed);
            });
            if (found.inserted) break;
            if (found.payload->address == address) {
              std::atomic<std::uint64_t>& claim = found.payload->claim;
              std::uint64_t cur = claim.load(std::memory_order_relaxed);
              while (static_cast<std::uint64_t>(i) < cur &&
                     !claim.compare_exchange_weak(
                         cur, i, std::memory_order_acq_rel,
                         std::memory_order_relaxed)) {
              }
              break;
            }
            // 64-bit collision with a different address: re-probe salted.
          }
        }
      });

  // Phase C (quiescent): collect winners and restore address order.
  std::vector<std::pair<util::IpAddress, std::uint64_t>> winners;
  winners.reserve(table.size());
  table.for_each([&](std::uint64_t, const DedupeSlot& slot) {
    winners.emplace_back(slot.address,
                         slot.claim.load(std::memory_order_relaxed));
  });
  std::sort(winners.begin(), winners.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  std::vector<WaveItem> items;
  items.reserve(winners.size());
  for (const auto& [address, claim] : winners) {
    items.push_back(WaveItem{address, recipients.view(flat_name[claim])});
  }
  return items;
}

// Derive the effective retry policy. The zero sentinel maps the legacy
// greylist knobs onto the engine: 1 + max_greylist_retries attempts at a
// flat, unjittered greylist_backoff — the exact clock schedule of the old
// probe_with_greylist_retry loop, so a rate-0 run stays byte-identical.
faults::RetryConfig effective_retry(const CampaignConfig& config) {
  faults::RetryConfig retry = config.retry;
  if (retry.max_attempts == 0) {
    retry.max_attempts = 1 + config.max_greylist_retries;
    retry.base_backoff = config.greylist_backoff;
    retry.multiplier = 1.0;
    retry.max_backoff = config.greylist_backoff;
    retry.jitter = 0.0;
  }
  return retry;
}

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
      retry_(effective_retry(config_)),
      engine_(plan_, retry_, clock_) {}

ProbeResult Campaign::probe_settled(Prober& prober, mta::MailHost& host,
                                    std::string_view recipient_domain,
                                    const dns::Name& mail_from, TestKind kind,
                                    std::uint64_t round,
                                    AddressOutcome& outcome,
                                    faults::DegradationReport& deg) {
  ProbeRequest request;
  request.address = outcome.address;
  request.recipient_domain = recipient_domain;
  // The campaign keeps one label per test across retries; labels only differ
  // per attempt in the longitudinal per-observation path.
  request.mail_from = mail_from;
  request.retry_mail_from = mail_from;
  request.kind = kind;
  request.fault_round = round;
  request.first_attempt = static_cast<std::uint64_t>(outcome.probe_attempts);
  request.retry_budget =
      retry_.config().per_address_budget - outcome.retries_used;
  const ProbeOutcome settled = engine_.run(prober, host, request, deg);
  outcome.probe_attempts += settled.attempts;
  outcome.retries_used += settled.retries;
  outcome.saw_transient = outcome.saw_transient || settled.saw_transient;
  return settled.result;
}

CampaignReport Campaign::run(const std::vector<TargetDomain>& targets) {
  return run(VectorTargetSource(targets));
}

WaveSliceResult Campaign::run_wave_slice(std::span<const WaveItem> items,
                                         std::size_t base,
                                         const WaveContext& ctx) {
  WaveSliceResult out;
  out.outcomes.reserve(items.size());
  util::SimClock::Lane clock_lane(clock_);
  dns::AuthoritativeServer::LogLane log_lane(server_, out.log);
  std::optional<obs::MetricsLane> metrics_lane;
  if (ctx.metrics) metrics_lane.emplace(out.metrics);
  net::Transport transport(clock_);
  Prober prober(config_.prober, server_, transport);  // one per slice, reused

  // Wave 1: NoMsg over the slice. Label slots and trace lanes derive from the
  // master-order position base + k, never from the slice layout.
  std::vector<std::size_t> want_blankmsg;
  for (std::size_t k = 0; k < items.size(); ++k) {
    const std::size_t i = base + k;
    const auto& [address, recipient] = items[k];
    clock_.advance_by(ctx.per_test_advance);
    AddressOutcome outcome;
    outcome.address = address;

    mta::MailHost* host = registry_.find_host(address);
    if (host == nullptr) {
      outcome.verdict = AddressVerdict::Refused;
      out.outcomes.push_back(std::move(outcome));
      continue;
    }

    std::optional<net::WireTrace::Lane> lane;
    if (ctx.tracing) lane.emplace(out.wave1, 2 * i, clock_);
    const dns::Name mail_from = labels_.indexed_mail_from(2 * i, ctx.suite);
    const ProbeResult nomsg =
        probe_settled(prober, *host, recipient, mail_from, TestKind::NoMsg,
                      ctx.round, outcome, out.deg);
    lane.reset();
    registry_.release_host(address);
    outcome.nomsg = nomsg;

    switch (nomsg.status) {
      case ProbeStatus::ConnectionRefused:
        outcome.verdict = AddressVerdict::Refused;
        break;
      case ProbeStatus::SpfMeasured:
        outcome.verdict = AddressVerdict::Measured;
        outcome.behaviors = nomsg.behaviors;
        // The paper retried almost all NoMsg successes with BlankMsg too —
        // but only those that had NOT yet yielded a conclusive measurement
        // feed wave 2 here.
        break;
      case ProbeStatus::SpfNotMeasured:
        outcome.verdict = AddressVerdict::NotMeasured;
        want_blankmsg.push_back(k);
        break;
      case ProbeStatus::Greylisted:  // retries exhausted
      case ProbeStatus::TempFailed:
      case ProbeStatus::Dropped:
      case ProbeStatus::SmtpFailure:
        outcome.verdict = AddressVerdict::SmtpFailure;
        // A mid-dialog failure can still be followed by a BlankMsg attempt
        // when the failure left room for SPF-after-DATA (e.g. the RCPT
        // ladder ran dry): the paper's wave 2 covered those too.
        if (nomsg.failing_code == 550) want_blankmsg.push_back(k);
        break;
    }
    out.outcomes.push_back(std::move(outcome));
  }

  // Wave 2: BlankMsg for addresses that accepted SMTP but showed no SPF.
  for (const std::size_t k : want_blankmsg) {
    const std::size_t i = base + k;
    clock_.advance_by(ctx.per_test_advance);
    AddressOutcome& outcome = out.outcomes[k];
    mta::MailHost* host = registry_.find_host(outcome.address);
    if (host == nullptr) continue;

    std::optional<net::WireTrace::Lane> lane;
    if (ctx.tracing) lane.emplace(out.wave2, 2 * i + 1, clock_);
    const dns::Name mail_from = labels_.indexed_mail_from(2 * i + 1, ctx.suite);
    const ProbeResult blankmsg =
        probe_settled(prober, *host, items[k].recipient, mail_from,
                      TestKind::BlankMsg, ctx.round, outcome, out.deg);
    lane.reset();
    registry_.release_host(outcome.address);
    outcome.blankmsg = blankmsg;

    if (blankmsg.status == ProbeStatus::SpfMeasured) {
      outcome.verdict = AddressVerdict::Measured;
      outcome.behaviors.insert(blankmsg.behaviors.begin(),
                               blankmsg.behaviors.end());
    } else if (outcome.verdict == AddressVerdict::NotMeasured &&
               blankmsg.status == ProbeStatus::SmtpFailure) {
      outcome.verdict = AddressVerdict::SmtpFailure;
    }
  }
  out.advance = clock_lane.offset();
  return out;
}

RequeueSliceResult Campaign::run_requeue_slice(
    std::span<const RequeueItem> items, const WaveContext& ctx) {
  RequeueSliceResult out;
  out.outcomes.reserve(items.size());
  util::SimClock::Lane clock_lane(clock_);
  dns::AuthoritativeServer::LogLane log_lane(server_, out.log);
  std::optional<obs::MetricsLane> metrics_lane;
  if (ctx.metrics) metrics_lane.emplace(out.metrics);
  net::Transport transport(clock_);
  Prober prober(config_.prober, server_, transport);
  for (const RequeueItem& rq : items) {
    const std::size_t i = rq.index;
    const std::string_view recipient_domain = rq.item.recipient;
    AddressOutcome outcome = rq.outcome;
    mta::MailHost* host = registry_.find_host(rq.item.address);
    if (host == nullptr) {
      out.outcomes.push_back(std::move(outcome));
      continue;
    }

    const TestKind pending = *outcome.pending_transient();
    if (pending == TestKind::NoMsg) {
      clock_.advance_by(ctx.per_test_advance);
      std::optional<net::WireTrace::Lane> lane;
      if (ctx.tracing) lane.emplace(out.trace, 2 * i, clock_);
      const dns::Name mail_from = labels_.indexed_mail_from(2 * i, ctx.suite);
      const ProbeResult nomsg =
          probe_settled(prober, *host, recipient_domain, mail_from,
                        TestKind::NoMsg, ctx.round, outcome, out.deg);
      lane.reset();
      outcome.nomsg = nomsg;
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
          break;
        case ProbeStatus::Greylisted:
        case ProbeStatus::TempFailed:
        case ProbeStatus::Dropped:
        case ProbeStatus::SmtpFailure:
          outcome.verdict = AddressVerdict::SmtpFailure;
          break;
      }
    }
    // A settled NoMsg that wants the message-bearing test (either it just
    // recovered to "no SPF seen", or BlankMsg itself was the stuck test)
    // gets the wave-2 treatment inline.
    const bool want_blank =
        pending == TestKind::BlankMsg ||
        (outcome.nomsg && !is_transient(outcome.nomsg->status) &&
         (outcome.nomsg->status == ProbeStatus::SpfNotMeasured ||
          outcome.nomsg->failing_code == 550));
    if (want_blank) {
      clock_.advance_by(ctx.per_test_advance);
      std::optional<net::WireTrace::Lane> lane;
      if (ctx.tracing) lane.emplace(out.trace, 2 * i + 1, clock_);
      const dns::Name mail_from =
          labels_.indexed_mail_from(2 * i + 1, ctx.suite);
      const ProbeResult blankmsg =
          probe_settled(prober, *host, recipient_domain, mail_from,
                        TestKind::BlankMsg, ctx.round, outcome, out.deg);
      lane.reset();
      outcome.blankmsg = blankmsg;
      if (blankmsg.status == ProbeStatus::SpfMeasured) {
        outcome.verdict = AddressVerdict::Measured;
        outcome.behaviors.insert(blankmsg.behaviors.begin(),
                                 blankmsg.behaviors.end());
      } else if (outcome.verdict == AddressVerdict::NotMeasured &&
                 blankmsg.status == ProbeStatus::SmtpFailure) {
        outcome.verdict = AddressVerdict::SmtpFailure;
      }
    }
    registry_.release_host(rq.item.address);
    if (!outcome.pending_transient()) ++out.recovered;
    out.outcomes.push_back(std::move(outcome));
  }
  out.advance = clock_lane.offset();
  return out;
}

CampaignReport Campaign::run(const TargetSource& targets) {
  CampaignReport report;
  report.suite_label = labels_.new_suite();
  const std::uint64_t round = next_round_++;
  report.degradation.configured_rate = plan_.config().rate;

  // The worker pool comes first: the concurrent dedupe below runs on it.
  util::ThreadPool pool(config_.threads);

  // 1. Deduplicate addresses, remembering a recipient domain for each (the
  //    first domain that listed the address — used for RCPT TO). Domain names
  //    are interned once (DESIGN.md §14): the dedupe carries a 4-byte Symbol
  //    per address instead of a heap string copy. The dedupe races CAS-min
  //    claims through a lock-free table (DESIGN.md §16) — byte-identical to
  //    the serial walk, which it falls back to if the table fills.
  //
  //    The result is the master work list, in ascending address order.
  //    Slices are contiguous runs of this list, so every address (and with
  //    it every host: hosts are keyed by address) belongs to exactly one
  //    worker at a time, and the merge below reassembles results in address
  //    order — bit-identical at any thread count. Probe labels derive from
  //    the position in this list, never from allocation order.
  util::Interner recipients;  // outlives every item view below
  std::vector<WaveItem> items;
  try {
    items = dedupe_concurrent(targets, recipients, pool, config_.sched);
  } catch (const util::TableFullError&) {
    items = dedupe_serial(targets, recipients);
  }

  // 2+3. The two probe waves, sliced. The concurrency cap means wall-clock
  //    advances by (gap / cap) per test on average; each worker accumulates
  //    that 250-lane model on a private clock lane, and the lane offsets sum
  //    to exactly the serial advance.
  const util::SimTime per_test_advance =
      std::max<util::SimTime>(1, config_.inter_connection_gap /
                                     config_.max_concurrent_connections);

  WaveContext ctx;
  ctx.suite = report.suite_label;
  ctx.round = round;
  ctx.per_test_advance = per_test_advance;
  ctx.tracing = config_.trace != nullptr;
  ctx.metrics = config_.metrics != nullptr;

  std::vector<WaveSliceResult> slices(
      pool.slice_count(items.size(), config_.sched));
  pool.parallel_for_slices(
      items.size(), config_.sched,
      [&](std::size_t slice, std::size_t begin, std::size_t end) {
        slices[slice] = run_wave_slice(
            std::span<const WaveItem>(items).subspan(begin, end - begin),
            begin, ctx);
      });

  // Merge: fold lane clocks back into the shared one (the sum reproduces the
  // serial advance), drain lane query logs in slice — i.e. address — order,
  // and reassemble the report.
  util::SimTime total_advance = 0;
  report.addresses.reserve(items.size());
  for (auto& slice : slices) {
    total_advance += slice.advance;
    server_.query_log().splice(std::move(slice.log));
    report.degradation.merge(slice.deg);
    if (config_.metrics != nullptr) config_.metrics->merge(slice.metrics);
    for (auto& outcome : slice.outcomes) {
      const util::IpAddress address = outcome.address;
      report.addresses.emplace(address, std::move(outcome));
    }
  }
  clock_.advance_by(total_advance);

  // Canonical trace order is wave-major, then master (address) order within
  // the wave — exactly the sequence a single-threaded run records.
  if (ctx.tracing) {
    for (auto& slice : slices) config_.trace->splice(std::move(slice.wave1));
    for (auto& slice : slices) config_.trace->splice(std::move(slice.wave2));
  }

  // 3b. Circuit breaker + inconclusive re-queue wave (fault layer only).
  //
  // Addresses whose retries exhausted mid-wave get one more pass after a
  // cool-down — unless their provider group (/24) looks systemically sick,
  // in which case the breaker opens and the group is skipped. Group stats
  // come from the complete merged wave results, so the decision (and with it
  // the whole report) is independent of the thread count.
  if (plan_.enabled()) {
    // Per-group tested/transient tallies, accumulated through a lock-free
    // table of atomic counters (DESIGN.md §16) — the group key IS the u64
    // table key, so no wide-key verify is needed, and sums are order-free,
    // so the steal schedule is invisible. A full table falls back to the
    // serial walk, which computes the same tallies.
    std::unordered_map<std::uint64_t, std::pair<std::size_t, std::size_t>>
        group_stats;  // group -> {tested, transient}
    const auto tally_serial = [&] {
      for (const auto& item : items) {
        const auto it = report.addresses.find(item.address);
        if (it == report.addresses.end()) continue;
        auto& stats = group_stats[provider_group(item.address)];
        ++stats.first;
        if (it->second.pending_transient()) ++stats.second;
      }
    };
    struct GroupStats {
      std::atomic<std::uint32_t> tested{0};
      std::atomic<std::uint32_t> transient{0};
    };
    util::ConcurrentTable<GroupStats> groups(items.size());
    try {
      pool.parallel_for_slices(
          items.size(), config_.sched,
          [&](std::size_t, std::size_t begin, std::size_t end) {
            for (std::size_t i = begin; i < end; ++i) {
              const auto it = report.addresses.find(items[i].address);
              if (it == report.addresses.end()) continue;
              GroupStats* stats =
                  groups.find_or_insert(provider_group(items[i].address))
                      .payload;
              stats->tested.fetch_add(1, std::memory_order_relaxed);
              if (it->second.pending_transient()) {
                stats->transient.fetch_add(1, std::memory_order_relaxed);
              }
            }
          });
      groups.for_each([&](std::uint64_t group, const GroupStats& stats) {
        group_stats[group] = {stats.tested.load(std::memory_order_relaxed),
                              stats.transient.load(std::memory_order_relaxed)};
      });
    } catch (const util::TableFullError&) {
      group_stats.clear();
      tally_serial();
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
    for (std::size_t i = 0; i < items.size(); ++i) {
      const auto it = report.addresses.find(items[i].address);
      if (it == report.addresses.end()) continue;
      if (!it->second.pending_transient()) continue;
      if (open_groups.count(provider_group(items[i].address)) > 0) {
        ++report.degradation.breaker_skipped;
        continue;
      }
      requeue.push_back(i);
    }

    if (!requeue.empty()) {
      clock_.advance_by(config_.requeue_backoff);
      std::vector<RequeueItem> rq_items;
      rq_items.reserve(requeue.size());
      for (const std::size_t i : requeue) {
        RequeueItem item;
        item.index = i;
        item.item = items[i];
        item.outcome = report.addresses.find(items[i].address)->second;
        rq_items.push_back(std::move(item));
      }

      std::vector<RequeueSliceResult> rq_slices(
          pool.slice_count(rq_items.size(), config_.sched));
      pool.parallel_for_slices(
          rq_items.size(), config_.sched,
          [&](std::size_t slice, std::size_t begin, std::size_t end) {
            rq_slices[slice] = run_requeue_slice(
                std::span<const RequeueItem>(rq_items).subspan(begin,
                                                               end - begin),
                ctx);
          });

      util::SimTime rq_advance = 0;
      for (auto& slice : rq_slices) {
        rq_advance += slice.advance;
        server_.query_log().splice(std::move(slice.log));
        report.degradation.merge(slice.deg);
        report.degradation.requeue_recovered += slice.recovered;
        if (ctx.tracing) config_.trace->splice(std::move(slice.trace));
        if (config_.metrics != nullptr) config_.metrics->merge(slice.metrics);
        for (auto& outcome : slice.outcomes) {
          report.addresses.find(outcome.address)->second = std::move(outcome);
        }
      }
      clock_.advance_by(rq_advance);
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

CampaignReport Campaign::run_addresses(
    const std::vector<util::IpAddress>& addresses) {
  std::vector<TargetDomain> targets;
  targets.reserve(addresses.size());
  for (const auto& address : addresses) {
    // Recipient domain is synthesised from the address; longitudinal rounds
    // only need per-address verdicts, not domain roll-ups.
    targets.push_back(TargetDomain{"host-" + address.to_string(), {address}});
  }
  return run(targets);
}

}  // namespace spfail::scan
