// The full four-month longitudinal study (paper §5.3, §7).
//
// Orchestrates: the October 11 initial measurement; the private-notification
// campaign; per-address patch decisions; the measurement-loss (blacklisting)
// process; two windows of every-2-days re-measurement; the §7.6 inference
// pass; and the February 2022 snapshot with re-resolved addresses (§7.2).
//
// The run is decomposed at round boundaries so it can be checkpointed
// (DESIGN.md §11): begin() performs everything up to the first longitudinal
// round and returns the loop-carried State, run_round() executes one round,
// finish() runs the snapshot and final roll-ups. run() is the classic
// one-shot composition. capture()/restore() serialise State to/from a
// snapshot::StudySnapshot; a restored run continues byte-identically.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "longitudinal/inference.hpp"
#include "longitudinal/notification.hpp"
#include "longitudinal/patch_model.hpp"
#include "net/wire_trace.hpp"
#include "population/fleet.hpp"
#include "scan/campaign.hpp"
#include "scan/probe_batch.hpp"
#include "scan/probe_engine.hpp"
#include "snapshot/snapshot.hpp"
#include "util/thread_pool.hpp"

namespace spfail::longitudinal {

struct StudyConfig {
  std::uint64_t seed = 20211011;
  NotificationConfig notification;
  PatchModelConfig patch_model;

  // Worker threads for the sharded scan engine (initial campaign, the 34
  // longitudinal rounds, final snapshot). 0 resolves SPFAIL_THREADS /
  // hardware concurrency. The StudyReport is bit-identical at any count.
  int threads = 0;

  // Loss process (per round, per still-measurable vulnerable address).
  double transient_failure_rate = 0.05;
  double blacklist_rate = 0.004;
  // Top-1000 / provider infrastructure blacklists scanners faster (Fig 8's
  // mid-November losses).
  double top1000_blacklist_rate = 0.05;

  // §7.2: fraction of measurement-lost hosts the snapshot's re-resolved
  // addresses recover (changed IPs shed the scanner blacklist).
  double snapshot_recovery_rate = 0.75;

  // Fault injection for the whole scan apparatus: the initial campaign, the
  // 34 longitudinal rounds, and the snapshot. Rate 0 keeps the study
  // byte-identical to a build without the fault layer. `retry`'s zero
  // sentinel derives the legacy schedule (one greylist retry after the
  // paper's 8-minute backoff).
  faults::FaultConfig faults;
  faults::RetryConfig retry;

  // Structured wire capture for the whole study (initial campaign, every
  // longitudinal batch, the snapshot), appended in execution order. Each
  // observation records under its stable label-slot lane id, so the trace is
  // bit-identical at any thread count. Not owned; null = off.
  net::WireTrace* trace = nullptr;

  // Metrics destination for the whole study (DESIGN.md §12): threaded into
  // the initial campaign and installed as per-shard lanes around every
  // longitudinal batch, merged in shard order; the serial round pre-pass
  // books its own gauges/counters directly. Rides in capture()/restore() so
  // a resumed run's metric output is byte-identical. Not owned; null = off.
  obs::Registry* metrics = nullptr;
};

// Which domain set a series or total refers to.
enum class Cohort { All, AlexaTopList, Alexa1000, TwoWeekMx };
std::string to_string(Cohort cohort);

// Final Fig-2 style classification of an initially vulnerable domain.
enum class FinalStatus { Patched, Vulnerable, Unknown };

struct DomainTrack {
  std::size_t domain_index = 0;  // into Fleet::domains()
  std::vector<util::IpAddress> vulnerable_addresses;
  FinalStatus final_status = FinalStatus::Unknown;  // after the snapshot
};

struct StudyReport {
  // Initial measurement: the one frozen report begin() built, shared with
  // every checkpoint captured along the way.
  snapshot::SharedReport initial;
  std::size_t initially_vulnerable_addresses = 0;
  std::size_t initially_vulnerable_domains = 0;
  // §6.1: addresses whose initial result was inconclusive but potentially
  // re-measurable (SPF activity started — the policy TXT was fetched — but
  // no conclusive probe query arrived). These join every longitudinal
  // round alongside the vulnerable set (the paper's 721 addresses).
  std::size_t remeasurable_addresses = 0;
  std::size_t remeasurable_resolved_vulnerable = 0;
  std::size_t remeasurable_resolved_compliant = 0;

  // Longitudinal rounds.
  std::vector<util::SimTime> round_times;
  InferenceTable inference;  // per-address, per-round

  // Vulnerable-domain tracking.
  std::vector<DomainTrack> tracks;

  // Study-wide degradation accounting: the initial campaign's report merged
  // with every longitudinal batch and the snapshot.
  faults::DegradationReport degradation;

  // Notification funnel (§7.7).
  NotificationStats notification;
  std::size_t opened_groups = 0;
  std::size_t opened_eventually_patched = 0;
  std::size_t opened_patched_between_disclosures = 0;
  std::size_t bounced_patched_between_disclosures = 0;

  // --- derived series ---

  // Domain-level state at one round (Fig 5/6/7/8 inputs).
  struct DomainRoundCounts {
    std::size_t measured = 0;    // all vulnerable addresses conclusive
    std::size_t inferable = 0;   // status known incl. inference
    std::size_t vulnerable = 0;  // of the inferable
    std::size_t patched = 0;     // of the inferable
    std::size_t total = 0;       // cohort size
  };
};

class Study {
 public:
  Study(population::Fleet& fleet, StudyConfig config = {});

  // Everything the study loop carries between round boundaries. Built by
  // begin() or restore(); advanced by run_round(); consumed by finish().
  // The derived members (vulnerable set, notifications, patch plan, tracks)
  // are pure functions of report.initial, so capture() serialises only the
  // loop-carried core and restore() recomputes the rest. capture(),
  // restore() and finish() share report.initial; none of them copies it.
  struct State {
    StudyReport report;
    util::Rng loss_rng{0};
    std::size_t next_round = 0;  // == completed longitudinal rounds

    std::vector<util::IpAddress> vulnerable_addresses;  // ascending order
    std::unordered_map<util::IpAddress, scan::TestKind, util::IpAddressHash>
        working_test;
    std::vector<std::pair<util::IpAddress, std::uint64_t>> remeasurable;
    std::unordered_map<util::IpAddress, PatchDecision, util::IpAddressHash>
        patch_plan;
    std::optional<NotificationCampaign> notifications;
    std::optional<scan::LabelAllocator> labels;
    std::uint64_t suites_issued = 0;
    std::unordered_map<util::IpAddress, Series, util::IpAddressHash> series;
    std::unordered_set<util::IpAddress, util::IpAddressHash> blacklisted;
    std::unique_ptr<util::ThreadPool> pool;
  };

  // Initial measurement + notification campaign + patch planning; leaves the
  // state poised before longitudinal round 0.
  State begin();

  // Execute longitudinal round state.next_round (a round-time advance, the
  // serial loss/patch pre-pass, the sharded vulnerable batch, and the §6.1
  // re-measurable batch), then step the round counter.
  void run_round(State& state);

  std::size_t total_rounds() const { return round_times_.size(); }

  // The paper's longitudinal round count (the two every-2-days measurement
  // windows), without needing a Study instance — the scan service bounds
  // restored job records by it.
  static std::size_t standard_round_count();
  bool rounds_remaining(const State& state) const {
    return state.next_round < round_times_.size();
  }

  // The §7.2 snapshot, final classification, and notification-funnel
  // roll-up; consumes the state.
  StudyReport finish(State&& state);

  // Run everything; expensive. Idempotence is not supported — construct a
  // fresh Fleet and Study per run.
  StudyReport run();

  // Serialise the loop-carried state at a round boundary. Legal after
  // begin() and between run_round() calls — never after finish().
  snapshot::StudySnapshot capture(const State& state) const;

  // Rebuild a State from a snapshot taken by an identically configured run
  // (same fleet seed/scale and population, study seed, fault plan,
  // tracing). The fleet must be freshly constructed. Throws
  // snapshot::SnapshotError on any configuration mismatch or inconsistency.
  State restore(const snapshot::StudySnapshot& snap);

  // The meta block capture() stamps and restore() verifies.
  snapshot::SnapshotMeta meta() const;

  // --- post-run series helpers (valid on the returned report) ---
  static StudyReport::DomainRoundCounts domain_counts_at(
      const StudyReport& report, const population::Fleet& fleet,
      std::size_t round, Cohort cohort);

  static bool in_cohort(const population::DomainRecord& domain, Cohort cohort);

 private:
  // One longitudinal observation to run: which address, which test kind, and
  // the address's stable label slot (master index doubled).
  struct ObserveJob {
    util::IpAddress address;
    scan::TestKind kind = scan::TestKind::NoMsg;
    std::uint64_t slot = 0;
  };

  // One longitudinal observation of `address`, run on the calling worker's
  // prober via the shared ProbeEngine. `slot` is the address's stable master
  // index doubled: the first attempt uses label slot `slot`, every retry
  // (greylist or injected fault) uses `slot + 1`, so labels never depend on
  // execution order. `fault_round` salts the fault-plan key (1 + round
  // index; the initial campaign owns round 0) and `deg` is the owning
  // shard's degradation accumulator.
  Observation observe_address(scan::Prober& prober,
                              const util::IpAddress& address,
                              scan::TestKind kind,
                              const scan::LabelAllocator& labels,
                              const std::string& suite, std::uint64_t slot,
                              std::uint64_t fault_round,
                              faults::DegradationReport& deg);

  // Run one job batch through the probe-batch executor on the state's pool;
  // results[j] is jobs[j]'s observation.
  void run_batch(State& state, const std::vector<ObserveJob>& jobs,
                 std::vector<Observation>& results, const std::string& suite,
                 std::uint64_t fault_round);

  // Recompute everything derivable from state.report.initial: the
  // vulnerable/working-test/re-measurable sets, domain tracks, notification
  // campaign, patch plan, label allocator, series map, and worker pool.
  // Shared by begin() and restore().
  void derive_from_initial(State& state);

  population::Fleet& fleet_;
  StudyConfig config_;
  faults::FaultPlan plan_;
  faults::RetryPolicy retry_;
  scan::ProbeEngine engine_;
  scan::ProbeBatch batch_;
  std::vector<util::SimTime> round_times_;
  // The fleet's Interner::digest(), taken once per run: the population is
  // fixed once the fleet is built, and every checkpoint's meta carries it.
  std::uint64_t strings_digest_;
};

}  // namespace spfail::longitudinal
