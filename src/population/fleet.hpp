// Synthetic Internet mail fleet, calibrated to the paper's published
// distributions (DESIGN.md section 2 documents the substitution).
//
// The generator produces, deterministically per seed:
//   * the three domain sets with Table 1's sizes and overlaps,
//   * Table 2's TLD mix,
//   * an MX topology (domain -> addresses) with shared hosting pools so the
//     address/domain ratio matches Table 3 (~175K addresses for ~419K
//     domains; big providers concentrate many domains on few addresses),
//   * per-address MTA profiles hitting Table 3's reachability funnel and
//     Table 4's behaviour rates (including Table 7's erroneous-variant split
//     and the 6% multi-stack hosts of §7.9),
//   * rank-dependent vulnerability (Figure 4's gradient),
//   * the 20 top email providers of Table 3's last column, with §7.5's
//     vulnerable internationals (naver, mail.ru/vk, wp.pl, seznam/email.cz)
//     and the non-vulnerable majors (gmail, outlook, icloud, yahoo),
//   * DbIP-style geolocation for every address (Figure 3).
//
// `scale` shrinks every set proportionally so tests and benches run at
// laptop scale; rates are scale-invariant.
//
// Storage model (DESIGN.md §14): every name (domain, TLD, provider) lives
// once in an intern table, every MX address once in a flat pool; the public
// DomainRecord is views+spans into those, and host behaviour is packed into
// a ~48-byte HostSpec from which the full MailHost is materialised on demand:
// find_host builds it, release_host evicts it again.
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "dns/server.hpp"
#include "mta/host.hpp"
#include "population/geo.hpp"
#include "population/policy_mix.hpp"
#include "spf/record_cache.hpp"
#include "population/tld.hpp"
#include "scan/campaign.hpp"
#include "scan/test_responder.hpp"
#include "util/clock.hpp"
#include "util/intern.hpp"
#include "util/rng.hpp"

namespace spfail::population {

struct DomainRecord {
  // Views into the fleet's intern table; valid for the fleet's lifetime.
  std::string_view name;
  std::string_view tld;
  std::string_view provider_name;  // empty unless is_top_provider
  // Slice of the fleet's shared address pool.
  std::span<const util::IpAddress> addresses;
  std::uint32_t alexa_rank = 0;     // 1-based; 0 if not in the Alexa set
  std::uint32_t mx_query_count = 0; // the 2-Week MX usage metric; 0 if not
  bool in_alexa = false;
  bool in_alexa1000 = false;
  bool in_mx = false;
  bool is_top_provider = false;
};

struct AddressInfo {
  std::string_view tld;         // TLD of the first domain that used it
  std::size_t domains_hosted = 0;
  std::size_t best_rank = 0;    // lowest Alexa rank hosted (0 = none)
  bool provider_pool = false;
  bool in_alexa_set = false;
  bool in_mx_set = false;
};

struct FleetConfig {
  double scale = 0.1;        // 1.0 = the paper's full population
  std::uint64_t seed = 2021; // the year of the measurement, why not
  // Receiver behaviour rates plus the scenario layer's sender staging. The
  // default mix reproduces the historical population byte for byte and
  // stages nothing; a mix with positive sender rates additionally draws one
  // SenderPolicy per domain (from its own RNG fork, after all other build
  // lanes) and publishes the matching SPF/DKIM/DMARC DNS records.
  PolicyMix mix;
};

class Fleet : public scan::HostRegistry {
 public:
  explicit Fleet(FleetConfig config = {});

  // --- infrastructure shared with the scanner & longitudinal sim ---
  util::SimClock& clock() noexcept { return clock_; }
  dns::AuthoritativeServer& dns() noexcept { return dns_; }
  const scan::TestResponderConfig& responder() const noexcept {
    return responder_;
  }
  GeoDb& geo() noexcept { return geo_; }
  const GeoDb& geo() const noexcept { return geo_; }
  const FleetConfig& config() const noexcept { return config_; }

  // --- population access ---
  const std::vector<DomainRecord>& domains() const noexcept { return domains_; }
  const AddressInfo& info(const util::IpAddress& address) const;
  std::size_t address_count() const noexcept { return specs_.size(); }

  // The intern table behind every DomainRecord view — exposed for the
  // snapshot layer's integrity section.
  const util::Interner& strings() const noexcept { return strings_; }

  // The fleet-wide shared SPF record-parse memo every host's evaluators read
  // through (DESIGN.md §16); exposed for perfbench's cache metrics.
  const spf::SharedRecordCache& record_cache() const noexcept {
    return *record_cache_;
  }

  // The host at `address`, built from its HostSpec (plus any residue a
  // release left behind) if it is not live; nullptr for an address outside
  // the fleet. The pointer stays valid until release_host is called for that
  // address — a later find_host then returns a different object.
  mta::MailHost* find_host(const util::IpAddress& address) override;
  const mta::MailHost* find_host(const util::IpAddress& address) const;

  // Evict the live host, keeping its scanner-visible residue (greylist map,
  // flaky-RNG cursor, patch/blacklist flags) so the next find_host rebuilds
  // it mid-conversation. No-op for an address that is not live.
  void release_host(const util::IpAddress& address) override;
  // How many MailHosts are currently materialised (test observability).
  std::size_t live_hosts() const;

  // --- scenario staging (populated only when config().mix stages senders;
  // see src/scenario/) ---
  // The staged sender policy of domains()[domain_index]. In a baseline
  // fleet every entry is the default (unstaged) policy.
  const SenderPolicy& sender_policy(std::size_t domain_index) const;
  // Addresses of hosts a scenario flow can usefully dial: reachable,
  // SMTP-whole SPF validators without greylisting/flakiness that accept at
  // least administrative recipients. Sorted; empty in a baseline fleet.
  const std::vector<util::IpAddress>& scenario_receivers() const noexcept {
    return scenario_receivers_;
  }

  // All domains as campaign targets (optionally one set only).
  enum class SetFilter { All, AlexaTopList, Alexa1000, TwoWeekMx };
  std::vector<scan::TargetDomain> targets(SetFilter filter = SetFilter::All) const;

  // Streaming view of the same targets: yields (name, addresses) pairs
  // straight out of the intern table and address pool, so a campaign round
  // never materialises a TargetDomain vector.
  class TargetView final : public scan::TargetSource {
   public:
    TargetView(const Fleet& fleet, SetFilter filter)
        : fleet_(fleet), filter_(filter) {}
    std::size_t domain_count() const override;
    std::size_t address_upper_bound() const override;
    void for_each(
        const std::function<void(std::string_view,
                                 std::span<const util::IpAddress>)>& fn)
        const override;

   private:
    const Fleet& fleet_;
    SetFilter filter_;
  };
  TargetView target_source(SetFilter filter = SetFilter::All) const {
    return TargetView(*this, filter);
  }

  // Re-resolve a domain's addresses as the end-of-study snapshot does
  // (§7.2). In this model the mapping is stable — MX churn is represented
  // by the snapshot's blacklist-recovery draw in longitudinal::Study (a
  // changed front shedding the scanner block) rather than by address
  // renumbering, so this returns the build-time mapping.
  std::span<const util::IpAddress> current_addresses(
      const DomainRecord& domain) const {
    return domain.addresses;
  }

 private:
  // Everything new_host draws, packed flat. to_profile() reconstructs the
  // exact HostProfile the draw produced; fields the generator never sets
  // (greylist_delay, dns_tempfail_rate) come back as profile defaults.
  struct HostSpec {
    util::IpAddress address;
    spfvuln::SpfBehavior primary = spfvuln::SpfBehavior::RfcCompliant;
    mta::SpfTiming spf_timing = mta::SpfTiming::AtMailFrom;
    enum class Recipients : std::uint8_t { Any, NobodyReal, AdminSet };
    Recipients recipients = Recipients::Any;
    bool multi_stack = false;  // extra RfcCompliant engine (§7.9)
    bool accepts_connections = true;
    bool smtp_broken = false;
    bool validates_spf = true;
    bool greylists = false;
    bool checks_dmarc = false;
    bool flaky = false;  // flaky_spf_rate 0.9
    bool rejects_spf_fail = true;
    bool rejects_messages = false;

    mta::HostProfile to_profile() const;
  };

  // Scanner-visible state a released host leaves behind; applied back when
  // the address is rematerialised. Only saved when the host is non-pristine
  // (a few percent of hosts per round), so the residue map stays small.
  struct Residual {
    std::map<util::IpAddress, util::SimTime> greylist_seen;
    std::array<std::uint64_t, 4> flaky_rng{};
    bool has_flaky_rng = false;
    bool blacklisted = false;
    bool patched = false;
  };

  // Mutable build-time shapes; finalise() compacts them away.
  struct StagingDomain;

  void build();
  void finalise(std::vector<StagingDomain>&& staging,
                std::map<util::IpAddress, AddressInfo>&& info);
  util::IpAddress next_address();
  // `rank_pct`: the creating domain's rank percentile (0 = most popular,
  // 1 = tail) — drives Figure 4's vulnerability gradient.
  util::IpAddress new_host(const std::string& tld, bool provider_pool,
                           bool in_alexa, bool in_mx, double rank_pct,
                           util::Rng& rng,
                           std::map<util::IpAddress, AddressInfo>& info);
  void build_top_providers(util::Rng& rng,
                           std::vector<StagingDomain>& staging,
                           std::map<util::IpAddress, AddressInfo>& info);
  // Pack the freshly drawn profile into a HostSpec (the draw itself is
  // unchanged, so RNG sequences — and with them the whole population — stay
  // identical to the pre-§14 generator).
  void stage_host(const mta::HostProfile& profile);
  // Scenario staging: draw one SenderPolicy per domain from `rng` (a
  // dedicated fork; the historical lanes never see it), install the staged
  // SPF/DKIM/DMARC records as zones, and collect scenario_receivers_.
  // Runs after finalise(); no-op content-wise for the default mix (callers
  // skip it entirely then, so baseline builds touch no extra RNG state).
  void stage_sender_policies(util::Rng rng);

  // Index into specs_/hosts_ for `address`; npos when absent.
  std::size_t spec_index(const util::IpAddress& address) const;
  // Materialise (or fetch) the host at sorted index `index`. Logically
  // const: the host cache and residue map are mutable state.
  mta::MailHost* materialise(std::size_t index) const;

  FleetConfig config_;
  util::SimClock clock_{util::at_midnight(2021, 10, 11)};
  // Shared parse memo, created before any host so materialisation can hand
  // it to MailHost. unique_ptr keeps the Fleet movable-by-nobody while
  // letting hosts hold a stable pointer.
  std::unique_ptr<spf::SharedRecordCache> record_cache_ =
      std::make_unique<spf::SharedRecordCache>();
  dns::AuthoritativeServer dns_;
  scan::TestResponderConfig responder_;
  GeoDb geo_;

  // One copy of every name the population uses (domains, TLDs, providers).
  util::Interner strings_;
  // Every (domain -> address) edge, flattened; DomainRecord slices this.
  std::vector<util::IpAddress> address_pool_;
  std::vector<DomainRecord> domains_;
  // Address metadata, sorted by address (binary-searched).
  std::vector<std::pair<util::IpAddress, AddressInfo>> info_;

  // Scenario staging results; empty/default unless the mix stages senders.
  std::vector<SenderPolicy> sender_policies_;  // aligned with domains_
  std::vector<util::IpAddress> scenario_receivers_;

  // Host storage: specs sorted by address, hosts_ index-aligned. Slots fill
  // on find_host and empty on release_host under lazy_mutex_.
  std::vector<HostSpec> specs_;
  mutable std::vector<std::unique_ptr<mta::MailHost>> hosts_;
  mutable std::unordered_map<util::IpAddress, Residual, util::IpAddressHash>
      residuals_;
  mutable std::mutex lazy_mutex_;

  std::uint32_t next_address_value_ = 0x0B000001;  // 11.0.0.1 onwards
  std::uint32_t next_v6_value_ = 1;  // 2001:db8::/32, sequential
  std::uint32_t v6_interleave_ = 0;  // every 12th host gets a v6 address
};

}  // namespace spfail::population
