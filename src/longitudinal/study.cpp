#include "longitudinal/study.hpp"

#include <algorithm>
#include <limits>
#include <optional>
#include <utility>
#include <vector>

#include "population/paper_constants.hpp"
#include "scan/prober.hpp"
#include "snapshot/fields.hpp"

namespace spfail::longitudinal {

namespace {

namespace paper = population::paper;

std::vector<util::SimTime> measurement_round_times() {
  std::vector<util::SimTime> times;
  for (util::SimTime t = paper::kLongitudinalStart;
       t <= paper::kMeasurementsPaused; t += paper::kMeasurementCadence) {
    times.push_back(t);
  }
  for (util::SimTime t = paper::kMeasurementsResumed;
       t <= paper::kFinalMeasurement; t += paper::kMeasurementCadence) {
    times.push_back(t);
  }
  return times;
}

// The study's probers: the fleet's responder, default scanner identity.
scan::ProberConfig prober_config(const population::Fleet& fleet) {
  scan::ProberConfig config;
  config.responder = fleet.responder();
  return config;
}

}  // namespace

std::size_t Study::standard_round_count() {
  return measurement_round_times().size();
}

std::string to_string(Cohort cohort) {
  switch (cohort) {
    case Cohort::All:
      return "All domains";
    case Cohort::AlexaTopList:
      return "Alexa Top List";
    case Cohort::Alexa1000:
      return "Alexa Top 1000";
    case Cohort::TwoWeekMx:
      return "2-Week MX";
  }
  return "?";
}

Study::Study(population::Fleet& fleet, StudyConfig config)
    : fleet_(fleet),
      config_(config),
      plan_(config_.faults),
      // The legacy schedule: one greylist retry after the paper's backoff.
      retry_(faults::resolve_retry(config_.retry, 2, paper::kGreylistBackoff)),
      engine_(plan_, retry_, fleet.clock()),
      batch_(prober_config(fleet), fleet.dns(), fleet.clock(), config_.trace,
             config_.metrics),
      round_times_(measurement_round_times()),
      strings_digest_(fleet.strings().digest()) {}

bool Study::in_cohort(const population::DomainRecord& domain, Cohort cohort) {
  switch (cohort) {
    case Cohort::All:
      return true;
    case Cohort::AlexaTopList:
      return domain.in_alexa;
    case Cohort::Alexa1000:
      return domain.in_alexa1000;
    case Cohort::TwoWeekMx:
      return domain.in_mx;
  }
  return false;
}

Observation Study::observe_address(scan::Prober& prober,
                                   const util::IpAddress& address,
                                   scan::TestKind kind,
                                   const scan::LabelAllocator& labels,
                                   const std::string& suite,
                                   std::uint64_t slot,
                                   std::uint64_t fault_round,
                                   faults::DegradationReport& deg) {
  mta::MailHost* host = fleet_.find_host(address);
  if (host == nullptr) return Observation::Inconclusive;

  scan::ProbeRequest request;
  request.address = address;
  request.recipient_domain = "host-" + address.to_string();
  request.mail_from = labels.indexed_mail_from(slot, suite);
  request.retry_mail_from = labels.indexed_mail_from(slot + 1, suite);
  request.kind = kind;
  request.fault_round = fault_round;
  // A longitudinal observation is a fresh single test: attempts start at 0
  // and the round-level budget never binds (max_attempts is the cap).
  request.retry_budget = std::numeric_limits<int>::max();
  const scan::ProbeOutcome outcome = engine_.run(prober, *host, request, deg);

  if (outcome.saw_transient) {
    ++deg.transient_addresses;
    if (outcome.settled()) {
      ++deg.recovered;
    } else {
      ++deg.exhausted;
    }
  }
  if (outcome.result.status != scan::ProbeStatus::SpfMeasured) {
    return Observation::Inconclusive;
  }
  return outcome.result.vulnerable() ? Observation::Vulnerable
                                     : Observation::Compliant;
}

void Study::run_batch(State& state, const std::vector<ObserveJob>& jobs,
                      std::vector<Observation>& results,
                      const std::string& suite, std::uint64_t fault_round) {
  results.assign(jobs.size(), Observation::Inconclusive);
  // Label slots are a pure function of the allocator's construction seed,
  // the slot and the suite, so the workers share the state's allocator
  // read-only.
  const scan::LabelAllocator& labels = *state.labels;
  state.report.degradation.merge(batch_.run(
      *state.pool, util::StealMode::Auto, jobs.size(), 1,
      [&](scan::Prober& prober, scan::ProbeSlice& slice, std::size_t begin,
          std::size_t end) {
        for (std::size_t j = begin; j < end; ++j) {
          const ObserveJob& job = jobs[j];
          std::optional<net::WireTrace::Lane> lane;
          if (!slice.traces.empty()) {
            lane.emplace(slice.traces[0], job.slot, fleet_.clock());
          }
          results[j] = observe_address(prober, job.address, job.kind, labels,
                                       suite, job.slot, fault_round,
                                       slice.deg);
        }
      }));
}

void Study::derive_from_initial(State& state) {
  StudyReport& report = state.report;
  const scan::CampaignReport& initial = report.initial->report();
  state.pool = std::make_unique<util::ThreadPool>(config_.threads);

  // Everything downstream walks outcomes in ascending address order: label
  // slots, RNG draw order, and report assembly all key off these positions.
  const std::vector<const scan::AddressOutcome*> initial_sorted =
      initial.sorted_outcomes();

  // Collect vulnerable addresses and the test kind that measured them.
  state.working_test.reserve(initial_sorted.size());
  for (const scan::AddressOutcome* outcome : initial_sorted) {
    if (!outcome->vulnerable()) continue;
    state.vulnerable_addresses.push_back(outcome->address);
    const bool via_nomsg =
        outcome->nomsg.has_value() &&
        outcome->nomsg->status == scan::ProbeStatus::SpfMeasured;
    state.working_test.emplace(outcome->address,
                               via_nomsg ? scan::TestKind::NoMsg
                                         : scan::TestKind::BlankMsg);
  }
  report.initially_vulnerable_addresses = state.vulnerable_addresses.size();

  // §6.1's re-measurable inconclusives: SPF evaluation visibly started (the
  // policy fetch was logged) but no macro-expansion probe query concluded.
  // Each carries its stable label slot — master indices continue past the
  // vulnerable block so slots stay unique within a suite.
  for (const scan::AddressOutcome* outcome : initial_sorted) {
    if (outcome->vulnerable() || outcome->conclusive()) continue;
    const bool fetch_seen =
        (outcome->nomsg.has_value() && outcome->nomsg->saw_policy_fetch) ||
        (outcome->blankmsg.has_value() && outcome->blankmsg->saw_policy_fetch);
    if (fetch_seen) {
      const std::uint64_t master_index =
          state.vulnerable_addresses.size() + state.remeasurable.size();
      state.remeasurable.emplace_back(outcome->address, 2 * master_index);
    }
  }
  report.remeasurable_addresses = state.remeasurable.size();

  // Vulnerable domains and their vulnerable addresses.
  const auto& domains = fleet_.domains();
  for (std::size_t i = 0; i < domains.size(); ++i) {
    const auto& outcome = initial.domains[i];
    if (!outcome.vulnerable) continue;
    DomainTrack track;
    track.domain_index = i;
    for (const auto& address : domains[i].addresses) {
      const auto it = initial.addresses.find(address);
      if (it != initial.addresses.end() && it->second.vulnerable()) {
        track.vulnerable_addresses.push_back(address);
      }
    }
    report.tracks.push_back(std::move(track));
  }
  report.initially_vulnerable_domains = report.tracks.size();

  // ---- 2. Private-notification campaign (sent 2021-11-15) ---------------
  NotificationConfig notification_config = config_.notification;
  notification_config.seed = config_.seed ^ 0xA07E5;
  state.notifications.emplace(notification_config);
  for (const auto& track : report.tracks) {
    state.notifications->add_domain(
        std::string(domains[track.domain_index].name),
        track.vulnerable_addresses);
  }
  state.notifications->send();
  report.notification = state.notifications->stats();

  // ---- 3. Patch decisions per vulnerable address -------------------------
  PatchModelConfig patch_config = config_.patch_model;
  patch_config.seed = config_.seed ^ 0x9A7C4;
  PatchModel patch_model(patch_config);
  state.patch_plan.reserve(state.vulnerable_addresses.size());
  for (const auto& address : state.vulnerable_addresses) {
    const auto& info = fleet_.info(address);
    const mta::MailHost* host = fleet_.find_host(address);
    PatchContext context;
    context.tld = std::string(info.tld);
    context.in_mx_set = info.in_mx_set;
    context.provider_pool = info.provider_pool;
    context.domains_hosted = std::max<std::size_t>(1, info.domains_hosted);
    context.named_top_provider =
        info.provider_pool && info.best_rank != 0 && info.best_rank <= 1000 &&
        host != nullptr && !host->profile().rejects_spf_fail &&
        info.domains_hosted <= 3;  // the hand-built §7.5 provider farms
    context.notification_opened =
        state.notifications->address_operator_opened(address);
    state.patch_plan.emplace(address, patch_model.decide(context));
  }

  // ---- 4. Longitudinal-round scaffolding ---------------------------------
  report.round_times = round_times_;
  state.labels.emplace(util::Rng(config_.seed ^ 0x1ABE15),
                       fleet_.responder().base);
  state.series.reserve(state.vulnerable_addresses.size());
  for (const auto& address : state.vulnerable_addresses) {
    state.series.emplace(
        address, Series(report.round_times.size(), Observation::Inconclusive));
  }
  state.blacklisted.reserve(state.vulnerable_addresses.size());
}

Study::State Study::begin() {
  State state;
  util::Rng rng(config_.seed);
  state.loss_rng = rng.fork("loss");

  // ---- 1. Initial measurement (2021-10-11) ------------------------------
  // One pool for the whole study: the initial campaign, every longitudinal
  // round, and the snapshot all shard their work lists over it. The pool is
  // created by derive_from_initial, so the campaign builds its own here —
  // sharding does not affect any output.
  scan::CampaignConfig campaign_config;
  campaign_config.prober.responder = fleet_.responder();
  campaign_config.label_seed = config_.seed ^ 0xC0FFEE;
  campaign_config.threads = config_.threads;
  campaign_config.faults = config_.faults;
  campaign_config.retry = config_.retry;
  campaign_config.trace = config_.trace;
  campaign_config.metrics = config_.metrics;
  scan::Campaign campaign(campaign_config, fleet_.dns(), fleet_.clock(),
                          fleet_);
  // Streaming target source: the round never materialises a TargetDomain
  // vector, which is what keeps the paper-size population affordable
  // (DESIGN.md §14).
  state.report.initial = snapshot::freeze(campaign.run(fleet_.target_source()));
  state.report.degradation.merge(state.report.initial->report().degradation);

  derive_from_initial(state);
  return state;
}

void Study::run_round(State& state) {
  StudyReport& report = state.report;
  const std::size_t round = state.next_round;
  const util::SimTime round_time = report.round_times.at(round);
  fleet_.clock().advance_to(round_time);
  const std::string suite = state.labels->new_suite();
  ++state.suites_issued;

  const bool in_window1 = round_time <= paper::kMeasurementsPaused;

  // Serial pre-pass in address order: patch events and the loss process
  // draw here, so the RNG sequence is independent of sharding; survivors
  // become this round's job list.
  std::size_t patch_events = 0;
  std::size_t blacklist_events = 0;
  std::size_t transient_skips = 0;
  std::vector<ObserveJob> jobs;
  std::vector<Observation> results;
  jobs.reserve(state.vulnerable_addresses.size());
  for (std::size_t i = 0; i < state.vulnerable_addresses.size(); ++i) {
    const util::IpAddress& address = state.vulnerable_addresses[i];
    mta::MailHost* host = fleet_.find_host(address);
    if (host == nullptr) continue;

    // Patch events due by this round.
    const PatchDecision& decision = state.patch_plan.at(address);
    if (decision.will_patch && !host->is_patched() &&
        decision.patch_time <= round_time) {
      host->apply_patch();
      ++patch_events;
    }

    // Loss process: permanent blacklisting plus transient failures. New
    // blacklisting only hits still-vulnerable hosts — patched operators
    // are the attentive ones, and the paper's patched curves stay smooth.
    if (state.blacklisted.count(address) == 0 && !host->is_patched()) {
      const auto& info = fleet_.info(address);
      const bool high_profile = info.best_rank != 0 && info.best_rank <= 1000;
      const double rate = high_profile && in_window1
                              ? config_.top1000_blacklist_rate
                              : config_.blacklist_rate;
      if (state.loss_rng.bernoulli(rate)) {
        state.blacklisted.insert(address);
        host->set_blacklisted(true);
        ++blacklist_events;
      }
    }
    if (state.blacklisted.count(address) > 0) continue;  // stays Inconclusive
    if (state.loss_rng.bernoulli(config_.transient_failure_rate)) {
      ++transient_skips;
      continue;
    }

    jobs.push_back(ObserveJob{address, state.working_test.at(address), 2 * i});
  }
  // Fault rounds: the initial campaign owns round 0; each longitudinal
  // round salts the plan with 1 + its index (the two batches below cover
  // disjoint address sets, so they can share the round key).
  run_batch(state, jobs, results, suite, 1 + round);
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    state.series.at(jobs[j].address)[round] = results[j];
  }

  // Re-measure the §6.1 inconclusive cohort until each address resolves.
  jobs.clear();
  jobs.reserve(state.remeasurable.size());
  for (const auto& [address, slot] : state.remeasurable) {
    jobs.push_back(ObserveJob{address, scan::TestKind::BlankMsg, slot});
  }
  run_batch(state, jobs, results, suite, 1 + round);
  std::size_t kept = 0;
  for (std::size_t j = 0; j < state.remeasurable.size(); ++j) {
    if (results[j] == Observation::Vulnerable) {
      ++report.remeasurable_resolved_vulnerable;
    } else if (results[j] == Observation::Compliant) {
      ++report.remeasurable_resolved_compliant;
    } else {
      state.remeasurable[kept++] = state.remeasurable[j];
    }
  }
  state.remeasurable.resize(kept);

  // Serial round roll-up: all gauges/counters below are written outside any
  // shard lane, per the §12 merge rule (gauges are serial-section-only).
  if (config_.metrics != nullptr) {
    obs::Registry& m = *config_.metrics;
    m.counter("study_rounds_total") += 1;
    m.counter("study_patch_events_total") += patch_events;
    m.counter("study_blacklist_events_total") += blacklist_events;
    m.counter("study_transient_skips_total") += transient_skips;
    m.gauge("study_round") = static_cast<std::int64_t>(round);
    m.gauge("study_round_patch_events") =
        static_cast<std::int64_t>(patch_events);
    m.gauge("study_blacklisted_addresses") =
        static_cast<std::int64_t>(state.blacklisted.size());
    m.gauge("study_remeasurable_pending") =
        static_cast<std::int64_t>(state.remeasurable.size());
  }

  state.next_round = round + 1;
}

StudyReport Study::finish(State&& state) {
  StudyReport& report = state.report;

  for (const auto& address : state.vulnerable_addresses) {
    report.inference.set_series(address, std::move(state.series.at(address)));
  }

  // ---- 5. Final snapshot with re-resolved addresses (§7.2) --------------
  fleet_.clock().advance_by(util::kHour);
  const std::string snapshot_suite = state.labels->new_suite();
  ++state.suites_issued;
  std::unordered_map<util::IpAddress, Observation, util::IpAddressHash>
      snapshot;
  snapshot.reserve(state.vulnerable_addresses.size());
  std::vector<ObserveJob> jobs;
  std::vector<Observation> results;
  jobs.reserve(state.vulnerable_addresses.size());
  for (std::size_t i = 0; i < state.vulnerable_addresses.size(); ++i) {
    const util::IpAddress& address = state.vulnerable_addresses[i];
    mta::MailHost* host = fleet_.find_host(address);
    if (host == nullptr) {
      snapshot.emplace(address, Observation::Inconclusive);
      continue;
    }
    if (host->blacklisted() &&
        state.loss_rng.bernoulli(config_.snapshot_recovery_rate)) {
      // The domain's MX re-resolved to a fresh front that has never seen the
      // scanner: measurement works again.
      host->set_blacklisted(false);
    }
    jobs.push_back(ObserveJob{address, state.working_test.at(address), 2 * i});
  }
  run_batch(state, jobs, results, snapshot_suite,
            1 + report.round_times.size());
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    snapshot.emplace(jobs[j].address, results[j]);
  }

  // Final per-domain classification (Fig 2).
  for (auto& track : report.tracks) {
    bool any_vulnerable = false;
    bool all_known_patched = true;
    bool any_known = false;
    for (const auto& address : track.vulnerable_addresses) {
      // Prefer the snapshot; fall back to the last inferred state.
      Observation observation = snapshot.at(address);
      if (observation == Observation::Inconclusive) {
        const auto& states = report.inference.states(address);
        const InferredState last = states.back();
        if (is_vulnerable(last)) {
          observation = Observation::Vulnerable;
        } else if (is_patched(last)) {
          observation = Observation::Compliant;
        }
      }
      switch (observation) {
        case Observation::Vulnerable:
          any_vulnerable = true;
          any_known = true;
          break;
        case Observation::Compliant:
          any_known = true;
          break;
        case Observation::Inconclusive:
          all_known_patched = false;
          break;
      }
    }
    if (any_vulnerable) {
      track.final_status = FinalStatus::Vulnerable;
    } else if (any_known && all_known_patched) {
      track.final_status = FinalStatus::Patched;
    } else {
      track.final_status = FinalStatus::Unknown;
    }
  }

  // ---- 6. Notification funnel outcomes (§7.7) ---------------------------
  for (const auto& group : state.notifications->groups()) {
    const auto patched_by = [&](util::SimTime deadline) {
      for (const auto& address : group.addresses) {
        const auto& decision = state.patch_plan.at(address);
        if (!decision.will_patch || decision.patch_time > deadline) {
          return false;
        }
      }
      return true;
    };
    if (group.opened) {
      ++report.opened_groups;
      if (patched_by(paper::kFinalMeasurement)) {
        ++report.opened_eventually_patched;
      }
      if (patched_by(paper::kPublicDisclosure) &&
          !patched_by(paper::kPrivateNotification)) {
        ++report.opened_patched_between_disclosures;
      }
    } else if (!group.delivered) {
      if (patched_by(paper::kPublicDisclosure) &&
          !patched_by(paper::kPrivateNotification)) {
        ++report.bounced_patched_between_disclosures;
      }
    }
  }

  return std::move(state.report);
}

StudyReport Study::run() {
  State state = begin();
  while (rounds_remaining(state)) run_round(state);
  return finish(std::move(state));
}

snapshot::SnapshotMeta Study::meta() const {
  snapshot::SnapshotMeta meta;
  meta.kind = snapshot::SnapshotKind::Study;
  meta.fleet_seed = fleet_.config().seed;
  meta.scale = fleet_.config().scale;
  meta.study_seed = config_.seed;
  meta.fault_seed = config_.faults.seed;
  meta.fault_rate = config_.faults.rate;
  meta.tracing = config_.trace != nullptr;
  meta.strings_digest = strings_digest_;
  return meta;
}

snapshot::StudySnapshot Study::capture(const State& state) const {
  snapshot::StudySnapshot snap;
  snap.meta = meta();
  snap.rounds_done = state.next_round;
  snap.clock_now = fleet_.clock().now();
  snap.loss_rng = state.loss_rng.state();
  snap.suites_issued = state.suites_issued;
  snap.initial = state.report.initial;
  snap.degradation = state.report.degradation;
  snap.remeasurable_resolved_vulnerable =
      state.report.remeasurable_resolved_vulnerable;
  snap.remeasurable_resolved_compliant =
      state.report.remeasurable_resolved_compliant;
  snap.remeasurable = state.remeasurable;
  for (const auto& address : state.vulnerable_addresses) {
    const mta::MailHost* host = fleet_.find_host(address);
    if (state.blacklisted.count(address) > 0) {
      snap.blacklisted.push_back(address);
    }
    if (host != nullptr && host->is_patched()) {
      snap.patched.push_back(address);
    }
    const Series& series = state.series.at(address);
    snap.series.emplace_back(series.begin(),
                             series.begin() + static_cast<std::ptrdiff_t>(
                                                  state.next_round));
  }
  // Hosts the continued run can still probe carry scanner-visible state of
  // their own (greylist first-contact map, flaky-path RNG cursor); capture
  // it so restore() can put the rebuilt hosts mid-conversation.
  const auto capture_host = [&](const util::IpAddress& address) {
    const mta::MailHost* host = fleet_.find_host(address);
    if (host != nullptr) {
      snap.hosts.push_back(snapshot::capture_host_state(address, *host));
    }
  };
  for (const auto& address : state.vulnerable_addresses) capture_host(address);
  for (const auto& [address, slot] : state.remeasurable) capture_host(address);
  if (config_.trace != nullptr) snap.trace = config_.trace->frames();
  if (config_.metrics != nullptr) {
    snap.has_metrics = true;
    snap.metrics = *config_.metrics;
  }
  return snap;
}

Study::State Study::restore(const snapshot::StudySnapshot& snap) {
  snapshot::check_meta(snap.meta, meta());
  if (snap.rounds_done > round_times_.size()) {
    throw snapshot::SnapshotError(
        "snapshot has " + std::to_string(snap.rounds_done) +
        " completed rounds, the study only has " +
        std::to_string(round_times_.size()));
  }

  // derive_from_initial() reads one domain outcome per fleet domain.
  if (snap.initial == nullptr ||
      snap.initial->report().domains.size() != fleet_.domains().size()) {
    throw snapshot::SnapshotError(
        "snapshot's initial report does not cover this fleet's " +
        std::to_string(fleet_.domains().size()) + " domains");
  }

  State state;
  state.report.initial = snap.initial;
  derive_from_initial(state);

  if (snap.series.size() != state.vulnerable_addresses.size()) {
    throw snapshot::SnapshotError(
        "snapshot carries " + std::to_string(snap.series.size()) +
        " observation series for " +
        std::to_string(state.vulnerable_addresses.size()) +
        " vulnerable addresses");
  }

  // Loop-carried core, overwriting what derive_from_initial seeded fresh.
  state.loss_rng.set_state(snap.loss_rng);
  state.next_round = snap.rounds_done;
  state.report.degradation = snap.degradation;
  state.report.remeasurable_resolved_vulnerable =
      snap.remeasurable_resolved_vulnerable;
  state.report.remeasurable_resolved_compliant =
      snap.remeasurable_resolved_compliant;
  state.remeasurable = snap.remeasurable;

  // Replay the label allocator to its serialised cursor: suite labels draw
  // from a dedup-checked RNG stream, so position is reproduced by issuing
  // (and discarding) the same number of suites.
  for (std::uint64_t i = 0; i < snap.suites_issued; ++i) {
    state.labels->new_suite();
  }
  state.suites_issued = snap.suites_issued;

  for (std::size_t i = 0; i < state.vulnerable_addresses.size(); ++i) {
    const util::IpAddress& address = state.vulnerable_addresses[i];
    const auto& done = snap.series[i];
    if (done.size() != snap.rounds_done) {
      throw snapshot::SnapshotError(
          "observation series for " + address.to_string() + " has " +
          std::to_string(done.size()) + " rounds, header says " +
          std::to_string(snap.rounds_done));
    }
    Series& series = state.series.at(address);
    std::copy(done.begin(), done.end(), series.begin());
  }

  // Re-apply the host-side flags the completed rounds produced on the
  // (freshly rebuilt, hence pristine) fleet.
  for (const auto& address : snap.patched) {
    mta::MailHost* host = fleet_.find_host(address);
    if (host == nullptr) {
      throw snapshot::SnapshotError("patched address " + address.to_string() +
                                    " has no host in this fleet");
    }
    if (!host->is_patched()) host->apply_patch();
  }
  for (const auto& address : snap.blacklisted) {
    mta::MailHost* host = fleet_.find_host(address);
    if (host == nullptr) {
      throw snapshot::SnapshotError("blacklisted address " +
                                    address.to_string() +
                                    " has no host in this fleet");
    }
    state.blacklisted.insert(address);
    host->set_blacklisted(true);
  }
  for (const auto& hs : snap.hosts) {
    mta::MailHost* host = fleet_.find_host(hs.address);
    if (host == nullptr) {
      throw snapshot::SnapshotError("captured host " + hs.address.to_string() +
                                    " does not exist in this fleet");
    }
    std::map<util::IpAddress, util::SimTime> greylist;
    for (const auto& [client_text, first_seen] : hs.greylist_seen) {
      const auto client = util::IpAddress::parse(client_text);
      if (!client.has_value()) {
        throw snapshot::SnapshotError("captured greylist entry \"" +
                                      client_text +
                                      "\" is not a valid address");
      }
      greylist.emplace(*client, first_seen);
    }
    host->set_greylist_seen(std::move(greylist));
    host->set_flaky_rng_state(hs.flaky_rng);
  }

  if (fleet_.clock().now() > snap.clock_now) {
    throw snapshot::SnapshotError(
        "fleet clock is already past the snapshot time (the fleet must be "
        "freshly constructed before restore)");
  }
  fleet_.clock().advance_to(snap.clock_now);

  // The wire trace is part of the byte-identical output contract: reload the
  // frames recorded up to the boundary so the resumed run appends to them.
  if (config_.trace != nullptr) {
    config_.trace->clear();
    for (const auto& frame : snap.trace) config_.trace->record(frame);
  }

  // Same contract for metrics: a resumed run must continue accumulating on
  // top of exactly the state the halted run checkpointed.
  if (snap.has_metrics != (config_.metrics != nullptr)) {
    throw snapshot::SnapshotError(
        snap.has_metrics
            ? "snapshot carries metrics, this run has them disabled"
            : "snapshot has no metrics, this run expects them");
  }
  if (config_.metrics != nullptr) {
    *config_.metrics = snap.metrics;
  }
  return state;
}

StudyReport::DomainRoundCounts Study::domain_counts_at(
    const StudyReport& report, const population::Fleet& fleet,
    std::size_t round, Cohort cohort) {
  StudyReport::DomainRoundCounts counts;
  const auto& domains = fleet.domains();
  for (const auto& track : report.tracks) {
    if (!in_cohort(domains[track.domain_index], cohort)) continue;
    ++counts.total;

    bool all_conclusive = true;
    bool any_vulnerable = false;
    bool all_patched = true;
    bool any_known = false;
    for (const auto& address : track.vulnerable_addresses) {
      const InferredState state = report.inference.states(address).at(round);
      if (state == InferredState::Unknown) {
        all_conclusive = false;
        all_patched = false;
        continue;
      }
      any_known = true;
      if (state == InferredState::InferredVulnerable ||
          state == InferredState::InferredPatched) {
        all_conclusive = false;
      }
      if (is_vulnerable(state)) {
        any_vulnerable = true;
        all_patched = false;
      }
    }
    if (all_conclusive && any_known) ++counts.measured;
    if (any_vulnerable) {
      ++counts.inferable;
      ++counts.vulnerable;
    } else if (any_known && all_patched) {
      ++counts.inferable;
      ++counts.patched;
    }
  }
  return counts;
}

}  // namespace spfail::longitudinal
