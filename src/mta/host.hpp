// A simulated Internet mail host (MTA).
//
// Each host binds together: an SMTP server FSM, zero or more SPF validation
// engines (one per software stack the host runs — 6% of hosts in the paper
// showed two or more distinct expansion patterns), a stub resolver pointed at
// the simulation's DNS service, and operational quirks (connection refusal,
// broken SMTP, greylisting, blacklisting of scanners, recipient policy).
//
// The scanner never sees any of this state directly; it sees SMTP replies
// and, through the authoritative DNS server's query log, the host's SPF
// lookups — exactly the observables of the paper's methodology.
#pragma once

#include <array>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "dmarc/evaluator.hpp"
#include "dns/resolver.hpp"
#include "smtp/server.hpp"
#include "spf/eval.hpp"
#include "spfvuln/behavior.hpp"
#include "util/rng.hpp"

namespace spfail::mta {

// When the host triggers SPF validation during a transaction.
enum class SpfTiming {
  AtMailFrom,  // validates as soon as MAIL FROM arrives (NoMsg-detectable)
  AfterData,   // defers until the message is received (needs BlankMsg)
};

struct HostProfile {
  util::IpAddress address;

  // Reachability tiers (Table 3 funnel).
  bool accepts_connections = true;  // false: TCP connect refused/timeout
  bool smtp_broken = false;         // accepts TCP, then fails the SMTP dialog

  bool greylists = false;  // first transaction per client deferred with 451
  util::SimTime greylist_delay = 8 * util::kMinute;

  bool validates_spf = true;
  SpfTiming spf_timing = SpfTiming::AtMailFrom;
  bool rejects_spf_fail = true;

  // Additionally performs DMARC policy discovery on received messages and
  // honours the published disposition (the paper's probe source domains
  // publish p=reject precisely so such receivers drop the blank probes,
  // section 6.2).
  bool checks_dmarc = false;

  // Probability that one SPF evaluation aborts after fetching the policy
  // (resolver timeouts, overloaded filters). These hosts are the paper's
  // "inconclusive but potentially re-measurable" cohort (§6.1): the
  // authoritative log shows the TXT fetch but no conclusive probe query.
  double flaky_spf_rate = 0.0;

  // Probability that a MAIL FROM is answered 450 (4.4.3 temporary DNS
  // failure) before any SPF runs — the host's own resolver path hiccuping.
  // Transient: the scanner's retry engine re-attempts these dialogs.
  double dns_tempfail_rate = 0.0;

  // SPF engines the host runs (primary stack first). Hosts with multiple
  // entries model chained SMTP hops / spam-filter stacks (section 7.9).
  std::vector<spfvuln::SpfBehavior> behaviors = {
      spfvuln::SpfBehavior::RfcCompliant};

  // Recipients accepted for delivery; empty accepts anything. A flat vector
  // (not a set): the lists are tiny and fixed, and linear scans beat a
  // node-per-name container both in lookups and in bytes per host.
  std::vector<std::string> known_recipients;

  // Accepts the whole dialog but rejects message content at end-of-DATA
  // (the Table 3 "BlankMsg SMTP failure" shape: fine under NoMsg, fails the
  // moment a message is actually transmitted).
  bool rejects_messages = false;
};

class MailHost : public smtp::SessionHandler {
 public:
  // `dns_service` and `clock` must outlive the host; so must `record_cache`
  // when set (optional, not owned): the fleet-wide shared SPF parse memo
  // every engine's evaluator reads through (DESIGN.md §16). Null means each
  // SPF check parses the records it fetches.
  MailHost(HostProfile profile, dns::DnsService& dns_service,
           const util::SimClock& clock,
           spf::SharedRecordCache* record_cache = nullptr);

  const HostProfile& profile() const noexcept { return profile_; }
  const util::IpAddress& address() const noexcept { return profile_.address; }

  // --- lifecycle operations driven by the longitudinal simulation ---

  // Replace every vulnerable engine with the patched library.
  void apply_patch();
  bool is_patched() const noexcept { return patched_; }

  // Once blacklisted, the host accepts TCP but aborts SMTP with 5XX/421
  // (the paper's dominant cause of lost longitudinal measurements).
  void set_blacklisted(bool value) noexcept { blacklisted_ = value; }
  bool blacklisted() const noexcept { return blacklisted_; }

  // Scanner-visible state a measurement leaves behind, exposed so a
  // checkpoint can rebuild the host exactly: the greylist first-contact map
  // and the flaky-path RNG cursor. Resolver cache entries need no such
  // treatment — record TTLs (300 s) expire long before the next round
  // (2 days), so the cache never carries across a checkpoint boundary.
  const std::map<util::IpAddress, util::SimTime>& greylist_seen()
      const noexcept {
    return greylist_seen_;
  }
  void set_greylist_seen(std::map<util::IpAddress, util::SimTime> seen) {
    greylist_seen_ = std::move(seen);
  }
  std::array<std::uint64_t, 4> flaky_rng_state() const noexcept {
    return flaky_rng_.state();
  }
  void set_flaky_rng_state(const std::array<std::uint64_t, 4>& state) noexcept {
    flaky_rng_.set_state(state);
  }

  // True if any engine is the vulnerable libSPF2.
  bool runs_vulnerable_engine() const noexcept;
  const std::vector<spfvuln::SpfBehavior>& behaviors() const noexcept {
    return behaviors_;
  }

  // --- the network-facing surface ---

  // Open an SMTP session. nullopt models a refused/timed-out TCP connect.
  std::optional<smtp::ServerSession> connect(const util::IpAddress& client);

  // smtp::SessionHandler:
  smtp::Reply on_hello(const std::string& client_identity,
                       const util::IpAddress& client) override;
  smtp::Reply on_mail_from(const std::string& sender_local,
                           const std::string& sender_domain,
                           const util::IpAddress& client) override;
  smtp::Reply on_rcpt_to(const std::string& recipient,
                         const util::IpAddress& client) override;
  smtp::Reply on_message(const smtp::Envelope& envelope,
                         const util::IpAddress& client) override;

  // The current dialog's most recent SPF results, one per engine
  // (diagnostics and tests). connect() clears them.
  const std::vector<spf::Result>& last_spf_results() const noexcept {
    return last_spf_results_;
  }

  // The DMARC evaluation of the current dialog's most recent on_message,
  // when this host checks DMARC and one ran (scenario runner and test
  // observability). connect() clears it.
  const std::optional<dmarc::Evaluation>& last_dmarc() const noexcept {
    return last_dmarc_;
  }

 private:
  // Run every SPF engine against the sender; returns the policy decision of
  // the primary (first) engine.
  spf::Result run_spf(const std::string& sender_local,
                      const std::string& sender_domain,
                      const util::IpAddress& client);

  HostProfile profile_;
  const util::SimClock& clock_;
  spf::SharedRecordCache* record_cache_ = nullptr;
  dns::StubResolver resolver_;
  std::vector<spfvuln::SpfBehavior> behaviors_;
  // One persistent evaluator per behaviour, over that behaviour's shared
  // engine (spfvuln::make_expander), rebuilt only when a patch swaps the
  // engine. Record parses are memoised fleet-wide by `record_cache_`.
  std::vector<std::unique_ptr<spf::Evaluator>> evaluators_;
  std::vector<spf::Result> last_spf_results_;
  // Client address -> first contact time. Keyed by the address value itself
  // (DESIGN.md §14): the lookup on every MAIL FROM is a 17-byte compare
  // instead of a to_string() allocation plus string compare.
  std::map<util::IpAddress, util::SimTime> greylist_seen_;
  util::Rng flaky_rng_;  // seeded from the address; deterministic per host
  // SPF result of the current transaction's MAIL FROM validation (AtMailFrom
  // hosts), fed to DMARC at on_message so an aligned pass can rescue a
  // message. Stateless pct= sampling keys off dmarc_seed_, so evaluation
  // order — and the host's eviction and rebuild — cannot shift outcomes.
  spf::Result mail_from_spf_result_ = spf::Result::None;
  std::uint64_t dmarc_seed_ = 0;
  std::optional<dmarc::Evaluation> last_dmarc_;
  bool blacklisted_ = false;
  bool patched_ = false;
};

}  // namespace spfail::mta
