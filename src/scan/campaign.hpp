// A measurement campaign: the full §5.1/§6.1 procedure over a set of mail
// domains and their MX addresses.
//
// Per round:
//   1. Deduplicate addresses (a host serving many domains is tested once).
//   2. Wave 1: run the NoMsg test against every address, honouring the
//      concurrency cap; greylisted targets are collected, the scanner backs
//      off (8 simulated minutes), and they are retried — matching how a real
//      concurrent scanner batches retries.
//   3. Wave 2: addresses whose NoMsg dialog succeeded but elicited no SPF
//      lookup are retried with BlankMsg.
//   4. Verdicts are rolled up from addresses to domains: a domain is
//      vulnerable if *any* of its addresses is; conclusively non-vulnerable
//      only if all previously-vulnerable addresses now measure compliant.
#pragma once

#include <functional>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "faults/degradation.hpp"
#include "faults/fault.hpp"
#include "faults/retry.hpp"
#include "net/wire_trace.hpp"
#include "obs/metrics.hpp"
#include "scan/probe_batch.hpp"
#include "scan/probe_engine.hpp"
#include "scan/prober.hpp"
#include "util/thread_pool.hpp"

namespace spfail::scan {

// Where to find the simulated host behind an address. Implemented by
// population::Fleet; kept abstract so the scanner has no population
// dependency.
class HostRegistry {
 public:
  virtual ~HostRegistry() = default;
  // nullptr means "no host at this address" (connect times out).
  virtual mta::MailHost* find_host(const util::IpAddress& address) = 0;

  // Hint that the caller is done probing `address` for now.
  // population::Fleet (DESIGN.md §14) evicts the materialised host, keeping
  // its scanner-visible residue (greylist map, flaky-RNG cursor,
  // patch/blacklist flags) so a later find_host rebuilds it
  // mid-conversation. The default keeps every host live.
  virtual void release_host(const util::IpAddress& address) { (void)address; }
};

struct TargetDomain {
  std::string domain;
  std::vector<util::IpAddress> addresses;
};

// A streaming view over campaign targets (DESIGN.md §14): the campaign walks
// (domain, addresses) pairs twice — once to dedupe addresses, once for the
// domain roll-up — without ever materialising a vector of TargetDomain
// copies. Implementations yield spans/views into their own storage; both
// walks must yield the same sequence.
class TargetSource {
 public:
  virtual ~TargetSource() = default;
  virtual std::size_t domain_count() const = 0;
  // Total addresses over all domains, duplicates included (reserve sizing).
  virtual std::size_t address_upper_bound() const = 0;
  virtual void for_each(
      const std::function<void(std::string_view domain,
                               std::span<const util::IpAddress> addresses)>& fn)
      const = 0;
};

// Final per-address verdict for one round.
enum class AddressVerdict {
  Refused,      // no TCP connection
  SmtpFailure,  // dialog never reached a state where SPF could show
  Measured,     // conclusive: behaviours observed
  NotMeasured,  // SMTP fine but no SPF activity in either test
};

std::string to_string(AddressVerdict verdict);

struct AddressOutcome {
  util::IpAddress address;
  std::optional<ProbeResult> nomsg;
  std::optional<ProbeResult> blankmsg;
  AddressVerdict verdict = AddressVerdict::Refused;
  std::set<spfvuln::SpfBehavior> behaviors;

  // Retry-engine bookkeeping. `probe_attempts` numbers every SMTP dialog
  // driven at this address during the round (it keys the fault plan, so a
  // re-queue pass continues the attempt sequence instead of replaying it).
  int probe_attempts = 0;
  int retries_used = 0;
  bool saw_transient = false;

  bool vulnerable() const {
    return behaviors.count(spfvuln::SpfBehavior::VulnerableLibspf2) > 0;
  }
  bool conclusive() const { return verdict == AddressVerdict::Measured; }
  bool erroneous_but_not_vulnerable() const;

  // Which test is still stuck on a transient failure, if any — the re-queue
  // wave's candidate set. BlankMsg only runs after a settled NoMsg, so at
  // most one test is pending.
  std::optional<TestKind> pending_transient() const {
    if (blankmsg && is_transient(blankmsg->status)) return TestKind::BlankMsg;
    if (nomsg && is_transient(nomsg->status)) return TestKind::NoMsg;
    return std::nullopt;
  }
};

struct DomainOutcome {
  std::string domain;
  std::vector<util::IpAddress> addresses;
  bool any_refused = false;
  bool any_measured = false;
  bool vulnerable = false;

  // Observed behaviours over all the domain's addresses.
  std::set<spfvuln::SpfBehavior> behaviors;
};

struct CampaignConfig {
  ProberConfig prober;
  int max_concurrent_connections = 250;          // section 6.1
  util::SimTime inter_connection_gap = 90;       // seconds, same host/domain
  util::SimTime greylist_backoff = 8 * util::kMinute;
  int max_greylist_retries = 1;
  std::uint64_t label_seed = 1;

  // Real worker threads for the sharded scan. 0 resolves SPFAIL_THREADS /
  // hardware concurrency; the report is bit-identical at any count.
  int threads = 0;
  // How idle workers steal batches of a wave (DESIGN.md §16). Tests force
  // None or Adversarial here; the output is byte-identical at any thread
  // count, under any steal schedule.
  util::StealMode steal = util::StealMode::Auto;

  // --- fault injection & resilience (inert at the default rate 0) ---
  faults::FaultConfig faults;
  // max_attempts == 0 derives the policy from the greylist knobs above
  // through faults::resolve_retry (1 + max_greylist_retries attempts, flat
  // greylist_backoff, no jitter), which keeps a rate-0 run byte-identical to
  // the legacy retry loop.
  faults::RetryConfig retry;

  // Structured wire capture (DESIGN.md §10): when set, every SMTP and DNS
  // frame the campaign's probes exchange is recorded here, spliced at merge
  // time in wave-major master (address) order — the JSONL written from the
  // trace is bit-identical at any thread count. Not owned; null = off.
  net::WireTrace* trace = nullptr;

  // Metrics destination (DESIGN.md §12): when set, each worker records into
  // a shard-local obs::Registry behind an obs::MetricsLane, and the shard
  // registries are merged here in shard-index order — totals are
  // thread-count-invariant. Not owned; null = off.
  obs::Registry* metrics = nullptr;

  // Circuit breaker over provider groups (IPv4 /24): a group whose wave
  // results left at least `breaker_min_transient` addresses transient, and
  // where those make up at least `breaker_min_share` of the group's tested
  // addresses, is skipped by the re-queue wave — fail fast instead of
  // hammering a sick provider.
  int breaker_min_transient = 4;
  double breaker_min_share = 0.5;
  // Cool-down the scanner waits out before the inconclusive re-queue wave.
  util::SimTime requeue_backoff = 15 * util::kMinute;
};

struct CampaignReport {
  std::string suite_label;
  std::unordered_map<util::IpAddress, AddressOutcome, util::IpAddressHash>
      addresses;
  std::vector<DomainOutcome> domains;

  // How the round degraded under injected faults (all counters zero when the
  // fault layer is disabled, except the probe/attempt traffic counts).
  faults::DegradationReport degradation;

  // Outcomes in ascending address order — the stable iteration order for
  // tables, figures, and the longitudinal pipeline (the map itself hashes).
  std::vector<const AddressOutcome*> sorted_outcomes() const;

  // Aggregates.
  std::size_t addresses_tested() const { return addresses.size(); }
  std::size_t count_verdict(AddressVerdict verdict) const;
  std::size_t vulnerable_addresses() const;
  std::size_t vulnerable_domains() const;
};

class Campaign {
 public:
  Campaign(CampaignConfig config, dns::AuthoritativeServer& server,
           util::SimClock& clock, HostRegistry& registry);

  // Run one full measurement round over `targets`.
  CampaignReport run(const std::vector<TargetDomain>& targets);

  // Streaming variant: identical output, but targets are walked on demand —
  // the fleet never holds the whole target vector in memory.
  CampaignReport run(const TargetSource& targets);

 private:
  CampaignConfig config_;
  dns::AuthoritativeServer& server_;
  util::SimClock& clock_;
  HostRegistry& registry_;
  LabelAllocator labels_;
  faults::FaultPlan plan_;
  faults::RetryPolicy retry_;
  ProbeEngine engine_;
  ProbeBatch batch_;
  // Measurement-round counter: run() bumps it, and it salts the fault-plan
  // key so repeated rounds over the same fleet see fresh fault draws.
  std::uint64_t next_round_ = 0;
};

}  // namespace spfail::scan
