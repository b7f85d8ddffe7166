#include "population/fleet.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <set>
#include <stdexcept>

#include "dkim/dkim.hpp"
#include "population/paper_constants.hpp"

namespace spfail::population {

namespace {

// Address-level funnel rates per domain set (Table 3; see paper_constants).
struct FunnelRates {
  double refused;
  double smtp_failure;     // of NoMsg-tested
  double nomsg_measured;   // of NoMsg-tested (validates at MAIL FROM)
  double blank_failure;    // of BlankMsg-tested (breaks at/after DATA)
  double blank_measured;   // of BlankMsg-tested (validates after DATA)
  double vulnerable_of_measured;
  double erroneous_of_measured;
};

constexpr FunnelRates kAlexaRates = {
    paper::kAlexaAddrRefused,       paper::kAlexaAddrSmtpFailure,
    paper::kAlexaAddrNoMsgMeasured, paper::kAlexaAddrBlankFailure,
    paper::kAlexaAddrBlankMeasured, paper::kAlexaVulnerableOfMeasured,
    paper::kAlexaErroneousNonVulnOfMeasured};

constexpr FunnelRates kMxRates = {
    paper::kMxAddrRefused,       paper::kMxAddrSmtpFailure,
    paper::kMxAddrNoMsgMeasured, paper::kMxAddrBlankFailure,
    paper::kMxAddrBlankMeasured, paper::kMxVulnerableOfMeasured,
    paper::kMxErroneousNonVulnOfMeasured};

// Figure 4: the bottom rank bucket holds roughly twice the vulnerable
// servers of the top bucket; interpolate the multiplier across percentiles.
// The very top of the list (the Alexa Top 1000, percentile <= 0.25%) is
// suppressed harder still — §7.5 found only 28 of those 1000 domains
// vulnerable, well below the gradient's extrapolation.
double rank_multiplier(double rank_percentile) {
  if (rank_percentile <= 0.0025) return 0.30;
  return 0.65 + 0.70 * rank_percentile;
}

spfvuln::SpfBehavior pick_erroneous(util::Rng& rng) {
  const double weights[] = {
      paper::kErrNoExpansionWeight, paper::kErrNoTruncationWeight,
      paper::kErrNoReversalWeight, paper::kErrNoTransformersWeight,
      paper::kErrOtherWeight};
  switch (rng.weighted_index(weights)) {
    case 0:
      return spfvuln::SpfBehavior::NoExpansion;
    case 1:
      return spfvuln::SpfBehavior::NoTruncation;
    case 2:
      return spfvuln::SpfBehavior::NoReversal;
    case 3:
      return spfvuln::SpfBehavior::NoTransformers;
    default:
      return spfvuln::SpfBehavior::OtherErroneous;
  }
}

}  // namespace

// The mutable shape the generator works in; finalise() interns the strings
// and flattens the address lists, then this is thrown away.
struct Fleet::StagingDomain {
  std::string name;
  std::string tld;
  std::string provider_name;
  bool in_alexa = false;
  bool in_alexa1000 = false;
  bool in_mx = false;
  bool is_top_provider = false;
  std::size_t alexa_rank = 0;
  std::size_t mx_query_count = 0;
  std::vector<util::IpAddress> addresses;
};

mta::HostProfile Fleet::HostSpec::to_profile() const {
  mta::HostProfile profile;
  profile.address = address;
  profile.accepts_connections = accepts_connections;
  profile.smtp_broken = smtp_broken;
  profile.greylists = greylists;
  profile.validates_spf = validates_spf;
  profile.spf_timing = spf_timing;
  profile.rejects_spf_fail = rejects_spf_fail;
  profile.checks_dmarc = checks_dmarc;
  profile.flaky_spf_rate = flaky ? 0.9 : 0.0;
  profile.behaviors = {primary};
  if (multi_stack) {
    profile.behaviors.push_back(spfvuln::SpfBehavior::RfcCompliant);
  }
  switch (recipients) {
    case Recipients::Any:
      break;
    case Recipients::NobodyReal:
      profile.known_recipients = {"nobody-real"};
      break;
    case Recipients::AdminSet:
      profile.known_recipients = {"postmaster", "abuse", "admin", "info"};
      break;
  }
  profile.rejects_messages = rejects_messages;
  return profile;
}

void Fleet::stage_host(const mta::HostProfile& profile) {
  HostSpec spec;
  spec.address = profile.address;
  spec.accepts_connections = profile.accepts_connections;
  spec.smtp_broken = profile.smtp_broken;
  spec.greylists = profile.greylists;
  spec.validates_spf = profile.validates_spf;
  spec.spf_timing = profile.spf_timing;
  spec.rejects_spf_fail = profile.rejects_spf_fail;
  spec.checks_dmarc = profile.checks_dmarc;
  spec.flaky = profile.flaky_spf_rate > 0.0;
  spec.primary = profile.behaviors.front();
  spec.multi_stack = profile.behaviors.size() > 1;
  if (!profile.known_recipients.empty()) {
    spec.recipients = profile.known_recipients.front() == "nobody-real"
                          ? HostSpec::Recipients::NobodyReal
                          : HostSpec::Recipients::AdminSet;
  }
  spec.rejects_messages = profile.rejects_messages;
  specs_.push_back(spec);
}

Fleet::Fleet(FleetConfig config)
    : config_(config), geo_(util::Rng(config.seed ^ 0x9E01ULL)) {
  config_.mix.validate();
  responder_ = scan::install_test_responder(dns_);
  build();
}

const SenderPolicy& Fleet::sender_policy(std::size_t domain_index) const {
  static const SenderPolicy kUnstaged{};
  if (sender_policies_.empty()) return kUnstaged;
  return sender_policies_.at(domain_index);
}

const AddressInfo& Fleet::info(const util::IpAddress& address) const {
  const auto it = std::lower_bound(
      info_.begin(), info_.end(), address,
      [](const auto& entry, const util::IpAddress& key) {
        return entry.first < key;
      });
  if (it == info_.end() || !(it->first == address)) {
    throw std::out_of_range("no AddressInfo for " + address.to_string());
  }
  return it->second;
}

std::size_t Fleet::spec_index(const util::IpAddress& address) const {
  const auto it = std::lower_bound(
      specs_.begin(), specs_.end(), address,
      [](const HostSpec& spec, const util::IpAddress& key) {
        return spec.address < key;
      });
  if (it == specs_.end() || !(it->address == address)) return specs_.size();
  return static_cast<std::size_t>(it - specs_.begin());
}

mta::MailHost* Fleet::materialise(std::size_t index) const {
  const std::lock_guard<std::mutex> lock(lazy_mutex_);
  std::unique_ptr<mta::MailHost>& slot = hosts_[index];
  if (slot == nullptr) {
    const HostSpec& spec = specs_[index];
    // The cast mirrors MailHost's own non-const needs; materialisation is
    // logically const (the host cache is a view of the immutable specs).
    auto* self = const_cast<Fleet*>(this);
    slot = std::make_unique<mta::MailHost>(spec.to_profile(), self->dns_,
                                           clock_, record_cache_.get());
    const auto residual = residuals_.find(spec.address);
    if (residual != residuals_.end()) {
      slot->set_greylist_seen(residual->second.greylist_seen);
      if (residual->second.has_flaky_rng) {
        slot->set_flaky_rng_state(residual->second.flaky_rng);
      }
      slot->set_blacklisted(residual->second.blacklisted);
      if (residual->second.patched) slot->apply_patch();
      residuals_.erase(residual);
    }
  }
  return slot.get();
}

mta::MailHost* Fleet::find_host(const util::IpAddress& address) {
  const std::size_t index = spec_index(address);
  if (index == specs_.size()) return nullptr;
  return materialise(index);
}

const mta::MailHost* Fleet::find_host(const util::IpAddress& address) const {
  const std::size_t index = spec_index(address);
  if (index == specs_.size()) return nullptr;
  return materialise(index);
}

void Fleet::release_host(const util::IpAddress& address) {
  const std::size_t index = spec_index(address);
  if (index == specs_.size()) return;
  const std::lock_guard<std::mutex> lock(lazy_mutex_);
  std::unique_ptr<mta::MailHost>& slot = hosts_[index];
  if (slot == nullptr) return;
  // Pristine hosts (the overwhelming majority) are dropped outright; the
  // rest leave their scanner-visible residue for the next materialisation.
  // A flaky host's RNG cursor advances on every probe, so those always
  // carry residue even with an empty greylist map.
  const bool dirty = !slot->greylist_seen().empty() || slot->blacklisted() ||
                     slot->is_patched() || specs_[index].flaky;
  if (dirty) {
    Residual residual;
    residual.greylist_seen = slot->greylist_seen();
    residual.flaky_rng = slot->flaky_rng_state();
    residual.has_flaky_rng = true;
    residual.blacklisted = slot->blacklisted();
    residual.patched = slot->is_patched();
    residuals_[address] = std::move(residual);
  }
  slot.reset();
}

std::size_t Fleet::live_hosts() const {
  const std::lock_guard<std::mutex> lock(lazy_mutex_);
  std::size_t n = 0;
  for (const auto& host : hosts_) n += host != nullptr;
  return n;
}

std::vector<scan::TargetDomain> Fleet::targets(SetFilter filter) const {
  std::vector<scan::TargetDomain> out;
  out.reserve(target_source(filter).domain_count());
  for (const auto& d : domains_) {
    const bool wanted = filter == SetFilter::All ||
                        (filter == SetFilter::AlexaTopList && d.in_alexa) ||
                        (filter == SetFilter::Alexa1000 && d.in_alexa1000) ||
                        (filter == SetFilter::TwoWeekMx && d.in_mx);
    if (wanted) {
      out.push_back(scan::TargetDomain{
          std::string(d.name),
          std::vector<util::IpAddress>(d.addresses.begin(),
                                       d.addresses.end())});
    }
  }
  return out;
}

namespace {
bool filter_matches(const DomainRecord& d, Fleet::SetFilter filter) {
  return filter == Fleet::SetFilter::All ||
         (filter == Fleet::SetFilter::AlexaTopList && d.in_alexa) ||
         (filter == Fleet::SetFilter::Alexa1000 && d.in_alexa1000) ||
         (filter == Fleet::SetFilter::TwoWeekMx && d.in_mx);
}
}  // namespace

std::size_t Fleet::TargetView::domain_count() const {
  std::size_t n = 0;
  for (const auto& d : fleet_.domains()) n += filter_matches(d, filter_);
  return n;
}

std::size_t Fleet::TargetView::address_upper_bound() const {
  std::size_t n = 0;
  for (const auto& d : fleet_.domains()) {
    if (filter_matches(d, filter_)) n += d.addresses.size();
  }
  return n;
}

void Fleet::TargetView::for_each(
    const std::function<void(std::string_view,
                             std::span<const util::IpAddress>)>& fn) const {
  for (const auto& d : fleet_.domains()) {
    if (filter_matches(d, filter_)) fn(d.name, d.addresses);
  }
}

util::IpAddress Fleet::next_address() {
  // The paper's scan covered "unique IPv4/IPv6 addresses"; a slice of the
  // fleet lives on v6 (sequential 2001:db8::/32 addresses).
  if (++v6_interleave_ % 12 == 0) {
    std::array<std::uint8_t, 16> bytes{};
    bytes[0] = 0x20;
    bytes[1] = 0x01;
    bytes[2] = 0x0d;
    bytes[3] = 0xb8;
    const std::uint32_t value = next_v6_value_++;
    bytes[12] = static_cast<std::uint8_t>(value >> 24);
    bytes[13] = static_cast<std::uint8_t>(value >> 16);
    bytes[14] = static_cast<std::uint8_t>(value >> 8);
    bytes[15] = static_cast<std::uint8_t>(value);
    return util::IpAddress::v6(bytes);
  }
  return util::IpAddress::v4(next_address_value_++);
}

// Create one host; the profile is drawn from the funnel/behaviour rates of
// the set the creating domain belongs to.
util::IpAddress Fleet::new_host(const std::string& tld, bool provider_pool,
                                bool in_alexa, bool in_mx, double rank_pct,
                                util::Rng& rng,
                                std::map<util::IpAddress, AddressInfo>& info) {
  const FunnelRates& rates = in_alexa || !in_mx ? kAlexaRates : kMxRates;

  mta::HostProfile profile;
  profile.address = next_address();

  profile.accepts_connections = !rng.bernoulli(rates.refused);
  profile.validates_spf = false;  // set below for reachable validators
  if (profile.accepts_connections) {
    const double draw = rng.uniform01();
    const double p_fail = rates.smtp_failure;
    const double p_mailfrom = rates.nomsg_measured;
    const double p_unmeasured = 1.0 - p_fail - p_mailfrom;
    const double p_afterdata = p_unmeasured * rates.blank_measured;
    const double p_databroken = p_unmeasured * rates.blank_failure;

    if (draw < p_fail) {
      profile.smtp_broken = true;
      profile.validates_spf = false;
    } else if (draw < p_fail + p_mailfrom) {
      profile.validates_spf = true;
      profile.spf_timing = mta::SpfTiming::AtMailFrom;
    } else if (draw < p_fail + p_mailfrom + p_afterdata) {
      profile.validates_spf = true;
      profile.spf_timing = mta::SpfTiming::AfterData;
    } else if (draw < p_fail + p_mailfrom + p_afterdata + p_databroken) {
      // Accepts the dialog but rejects every recipient: the BlankMsg wave
      // walks the whole ladder and fails, matching Table 3's BlankMsg
      // "SMTP failure" row.
      profile.validates_spf = false;
      profile.known_recipients = {"nobody-real"};
    } else {
      profile.validates_spf = false;
    }
  }

  if (profile.validates_spf) {
    const auto tld_profile = find_tld(tld);
    const double tld_mult =
        tld_profile.has_value() ? tld_profile->vulnerability_multiplier : 1.0;

    const double p_vulnerable = std::min(
        0.90, rates.vulnerable_of_measured * tld_mult * rank_multiplier(rank_pct));
    const double p_erroneous = rates.erroneous_of_measured;

    const double draw = rng.uniform01();
    spfvuln::SpfBehavior primary = spfvuln::SpfBehavior::RfcCompliant;
    if (draw < p_vulnerable) {
      primary = spfvuln::SpfBehavior::VulnerableLibspf2;
    } else if (draw < p_vulnerable + p_erroneous) {
      primary = pick_erroneous(rng);
    }
    profile.behaviors = {primary};

    // §7.9: 6% of measurable hosts show >=2 *distinct* expansion patterns
    // (multiple SMTP hops, spam filters like SpamAssassin/Rspamd). Hosts
    // with a non-compliant primary stack run an additional compliant one
    // with the rate that makes the observed multi-pattern share ~6%:
    // P(multi | erroneous-or-vulnerable) * P(erroneous-or-vulnerable) =
    // 0.26 * ~0.23 = ~0.06.
    if (primary != spfvuln::SpfBehavior::RfcCompliant &&
        rng.bernoulli(config_.mix.multi_stack_rate)) {
      profile.behaviors.push_back(spfvuln::SpfBehavior::RfcCompliant);
    }

    // A sliver of hosts greylist; the scanner's 8-minute backoff absorbs it.
    profile.greylists = rng.bernoulli(config_.mix.greylist_rate);
    // A sizeable share of validators also enforce DMARC (Deccio et al. [3]
    // measured just over half of SPF validators running all three of
    // SPF/DKIM/DMARC) — these reject the blank probe per §6.2's p=reject.
    profile.checks_dmarc = rng.bernoulli(config_.mix.dmarc_check_rate);
    // ~2% of validators are flaky enough that the initial NoMsg+BlankMsg
    // pair usually stays inconclusive — the §6.1 re-measurable cohort.
    if (rng.bernoulli(config_.mix.flaky_rate)) profile.flaky_spf_rate = 0.9;
    // Some hosts only accept administrative mailboxes — the username ladder
    // walks to one of them.
    if (rng.bernoulli(config_.mix.admin_recipient_rate)) {
      profile.known_recipients = {"postmaster", "abuse", "admin", "info"};
    }
    profile.rejects_spf_fail = rng.bernoulli(config_.mix.reject_spf_fail_rate);
  }

  AddressInfo address_info;
  address_info.tld = strings_.view(strings_.intern(tld));
  address_info.provider_pool = provider_pool;
  address_info.in_alexa_set = in_alexa;
  address_info.in_mx_set = in_mx;
  info.emplace(profile.address, address_info);
  geo_.assign(profile.address, tld);

  const util::IpAddress address = profile.address;
  stage_host(profile);
  return address;
}

void Fleet::build_top_providers(util::Rng& rng,
                                std::vector<StagingDomain>& staging,
                                std::map<util::IpAddress, AddressInfo>& info) {
  // Table 3's "Top Email Providers" column (20 domains; Foster et al. [6])
  // with §7.5's vulnerable internationals. Outcomes are pinned, not drawn:
  //   MF  = validates at MAIL FROM (NoMsg-measured; 5 of 20)
  //   AD  = validates after DATA  (BlankMsg-measured; 8 of 20)
  //   SF  = SMTP broken           (NoMsg SMTP failure; 2 of 20)
  //   DB  = data broken           (BlankMsg SMTP failure; 4 of 20)
  //   NS  = no SPF validation     (never measured; 1 of 20)
  struct Provider {
    const char* name;
    const char* kind;        // MF/AD/SF/DB/NS
    bool vulnerable;
    const char* share_pool;  // providers sharing MX infrastructure
    std::size_t rank;
  };
  static constexpr Provider kProviders[] = {
      {"gmail.com", "MF", false, "", 3},
      {"yahoo.com", "MF", false, "", 11},
      {"icloud.com", "MF", false, "", 40},
      {"aol.com", "MF", false, "", 150},
      {"wp.pl", "MF", true, "", 320},
      {"outlook.com", "AD", false, "", 21},
      {"mail.ru", "AD", true, "", 35},
      {"vk.com", "AD", true, "mail.ru", 16},
      {"naver.com", "AD", true, "", 55},
      {"seznam.cz", "AD", true, "", 410},
      {"email.cz", "AD", true, "seznam.cz", 650},
      {"web.de", "AD", false, "", 470},
      {"mac.com", "AD", false, "", 800},
      {"comcast.net", "SF", false, "", 370},
      {"verizon.net", "SF", false, "", 520},
      {"163.com", "DB", false, "", 95},
      {"sina.com.cn", "DB", false, "", 130},
      {"rediffmail.com", "DB", false, "", 710},
      {"gmx.de", "DB", false, "", 560},
      {"qq.com", "NS", false, "", 28},
  };

  std::map<std::string, std::vector<util::IpAddress>> pools;
  for (const Provider& provider : kProviders) {
    StagingDomain record;
    record.name = provider.name;
    record.tld = dns::Name::from_string(provider.name).tld();
    record.in_alexa = true;
    record.in_alexa1000 = true;
    record.alexa_rank = provider.rank;
    record.is_top_provider = true;
    record.provider_name = provider.name;

    if (provider.share_pool[0] != '\0') {
      record.addresses = pools.at(provider.share_pool);
      for (const auto& address : record.addresses) {
        auto& address_info = info.at(address);
        ++address_info.domains_hosted;
        address_info.best_rank =
            address_info.best_rank == 0
                ? provider.rank
                : std::min(address_info.best_rank, provider.rank);
      }
      staging.push_back(std::move(record));
      continue;
    }

    // Big providers run 3–4 MX hosts with one software stack across the farm.
    const std::size_t farm = 3 + rng.uniform(0, 1);
    for (std::size_t i = 0; i < farm; ++i) {
      mta::HostProfile profile;
      profile.address = next_address();
      const std::string_view kind = provider.kind;
      if (kind == "SF") {
        profile.smtp_broken = true;
        profile.validates_spf = false;
      } else if (kind == "DB") {
        profile.validates_spf = false;
        profile.rejects_messages = true;
      } else if (kind == "NS") {
        profile.validates_spf = false;
      } else {
        profile.validates_spf = true;
        profile.spf_timing = kind == "MF" ? mta::SpfTiming::AtMailFrom
                                          : mta::SpfTiming::AfterData;
        profile.behaviors = {provider.vulnerable
                                 ? spfvuln::SpfBehavior::VulnerableLibspf2
                                 : spfvuln::SpfBehavior::RfcCompliant};
        profile.rejects_spf_fail = false;  // providers tag, not reject
      }

      AddressInfo address_info;
      address_info.tld = strings_.view(strings_.intern(record.tld));
      address_info.provider_pool = true;
      address_info.in_alexa_set = true;
      address_info.domains_hosted = 1;
      address_info.best_rank = provider.rank;
      info.emplace(profile.address, address_info);
      geo_.assign(profile.address, record.tld);

      record.addresses.push_back(profile.address);
      stage_host(profile);
    }
    pools.emplace(provider.name, record.addresses);
    staging.push_back(std::move(record));
  }
}

void Fleet::finalise(std::vector<StagingDomain>&& staging,
                     std::map<util::IpAddress, AddressInfo>&& info) {
  // Address metadata: the build map, flattened into a sorted flat array
  // (binary-searched by info(); a node per address would dwarf the payload).
  info_.assign(info.begin(), info.end());
  info.clear();

  // Host storage: specs in address order, hosts_ index-aligned. Slots start
  // empty; find_host fills them.
  std::sort(specs_.begin(), specs_.end(),
            [](const HostSpec& a, const HostSpec& b) {
              return a.address < b.address;
            });
  hosts_.resize(specs_.size());

  // Domains: one interned copy of each name, one flat pool slice per
  // address list. The pool is reserved exactly, so the spans stay valid.
  std::size_t total_addresses = 0;
  for (const auto& record : staging) total_addresses += record.addresses.size();
  address_pool_.reserve(total_addresses);
  domains_.reserve(staging.size());
  for (const auto& record : staging) {
    DomainRecord d;
    d.name = strings_.view(strings_.intern(record.name));
    d.tld = strings_.view(strings_.intern(record.tld));
    if (!record.provider_name.empty()) {
      d.provider_name = strings_.view(strings_.intern(record.provider_name));
    }
    const std::size_t offset = address_pool_.size();
    address_pool_.insert(address_pool_.end(), record.addresses.begin(),
                         record.addresses.end());
    d.addresses = std::span<const util::IpAddress>(
        address_pool_.data() + offset, record.addresses.size());
    d.alexa_rank = static_cast<std::uint32_t>(record.alexa_rank);
    d.mx_query_count = static_cast<std::uint32_t>(record.mx_query_count);
    d.in_alexa = record.in_alexa;
    d.in_alexa1000 = record.in_alexa1000;
    d.in_mx = record.in_mx;
    d.is_top_provider = record.is_top_provider;
    domains_.push_back(d);
  }
}

void Fleet::build() {
  util::Rng root(config_.seed);
  util::Rng rng_tld = root.fork("tld");
  util::Rng rng_topology = root.fork("topology");
  util::Rng rng_profiles = root.fork("profiles");

  std::vector<StagingDomain> staging;
  std::map<util::IpAddress, AddressInfo> info;

  const auto scaled = [&](std::size_t n) {
    return static_cast<std::size_t>(std::max<long long>(
        1, std::llround(static_cast<double>(n) * config_.scale)));
  };

  const std::size_t n_alexa = scaled(paper::kAlexaTopListDomains);
  const std::size_t n_alexa1000 = scaled(paper::kAlexaTop1000);
  const std::size_t n_mx = scaled(paper::kTwoWeekMxDomains);
  const std::size_t n_overlap = scaled(paper::kMxInAlexaTopList);
  const std::size_t n_mx_in_1000 = scaled(paper::kMxInAlexa1000);

  // TLD samplers: weight vectors over the profile table.
  const auto profiles = tld_profiles();
  std::vector<double> alexa_weights, mx_weights;
  alexa_weights.reserve(profiles.size());
  mx_weights.reserve(profiles.size());
  for (const auto& p : profiles) {
    alexa_weights.push_back(static_cast<double>(p.alexa_count));
    mx_weights.push_back(static_cast<double>(p.mx_count));
  }
  const auto sample_tld = [&](std::vector<double>& weights) -> std::string {
    return std::string(profiles[rng_tld.weighted_index(weights)].tld);
  };

  // --- 1. The 20 top providers occupy part of the Alexa Top 1000 ---
  build_top_providers(rng_topology, staging, info);
  const std::size_t n_providers = staging.size();

  // --- 2. Shared hosting pools (created lazily, Zipf-ish popularity) ---
  struct Pool {
    std::vector<util::IpAddress> addresses;
    std::string tld;
  };
  // Many small hosting pools (~10 domains each) rather than a few mega-pools:
  // the paper's vulnerable-domain/vulnerable-address ratio of 2.6 comes from
  // broad small-scale sharing, and small pools keep domain-level statistics
  // stable across simulation scales. Pools are TLD-homogeneous — a .za
  // domain is hosted on .za infrastructure — which is what lets Table 5's
  // per-TLD patch rates and Figure 3's geography come out of address-level
  // behaviour. The 2-Week MX cohort gets its own pool population.
  std::map<std::string, std::vector<Pool>> alexa_pools, mx_pools;
  auto* active_pools = &alexa_pools;
  // Per-TLD caps proportional to the TLD's weight in the active set.
  std::map<std::string, std::size_t> alexa_caps, mx_caps;
  {
    double alexa_total = 0, mx_total = 0;
    for (const auto& p : profiles) {
      alexa_total += static_cast<double>(p.alexa_count);
      mx_total += static_cast<double>(p.mx_count);
    }
    for (const auto& p : profiles) {
      // Country-code TLDs are served by many small national operators, so
      // they get twice the pool density (fewer domains per pool) — this is
      // what keeps Table 5's per-TLD patch rates statistically stable.
      const double density = p.lat < 900.0 ? 2.0 : 1.0;
      alexa_caps[std::string(p.tld)] = std::max<std::size_t>(
          1, static_cast<std::size_t>(density * scaled(23000) *
                                      static_cast<double>(p.alexa_count) /
                                      alexa_total));
      mx_caps[std::string(p.tld)] = std::max<std::size_t>(
          1, static_cast<std::size_t>(density * scaled(1600) *
                                      static_cast<double>(p.mx_count) /
                                      std::max(1.0, mx_total)));
    }
  }
  auto* active_caps = &alexa_caps;
  // Pool creation probability per shared use, tuned so creation spreads
  // across the whole (rank-ordered) domain walk instead of exhausting the
  // cap at the top of the list: cap / (shared-fraction * set size).
  double create_prob = static_cast<double>(scaled(23000)) /
                       (0.78 * static_cast<double>(n_alexa));
  const auto pick_pool = [&](const std::string& tld, bool in_alexa,
                             bool in_mx, double rank_pct) -> Pool& {
    std::vector<Pool>& pools = (*active_pools)[tld];
    const std::size_t cap = std::max<std::size_t>(1, (*active_caps)[tld]);
    if (pools.empty() ||
        (pools.size() < cap && rng_topology.bernoulli(create_prob))) {
      Pool pool;
      pool.tld = tld;
      const std::size_t size = 1 + rng_topology.uniform(0, 2);
      for (std::size_t i = 0; i < size; ++i) {
        pool.addresses.push_back(new_host(tld, true, in_alexa, in_mx,
                                          rank_pct, rng_profiles, info));
      }
      pools.push_back(std::move(pool));
      return pools.back();
    }
    // Prefer recently created pools: hosting choices are contemporaneous
    // with a domain's rank neighbourhood, which preserves Figure 4's
    // rank-vulnerability gradient through the shared-hosting layer.
    const std::size_t window =
        std::max<std::size_t>(4, pools.size() / 8);
    const std::size_t lo = pools.size() > window ? pools.size() - window : 0;
    return pools[rng_topology.uniform(lo, pools.size() - 1)];
  };

  const double n_alexa_d = static_cast<double>(n_alexa);
  const auto assign_addresses = [&](StagingDomain& record) {
    // Rank percentile: Alexa rank for ranked domains; the 2-Week MX tail
    // sits mid-distribution.
    const double rank_pct =
        record.alexa_rank != 0
            ? static_cast<double>(record.alexa_rank) / n_alexa_d
            : 0.5;
    const std::size_t want =
        record.in_alexa1000
            ? 2 + rng_topology.uniform(0, 2)
            : (rng_topology.bernoulli(0.15) ? 2 : 1);
    // ccTLD mail skews to dedicated national operators; generic TLDs skew
    // to large shared hosting.
    const auto tld_profile = find_tld(record.tld);
    const bool country_tld = tld_profile.has_value() && tld_profile->lat < 900.0;
    const bool shared = rng_topology.bernoulli(country_tld ? 0.62 : 0.82);
    if (shared) {
      Pool& pool =
          pick_pool(record.tld, record.in_alexa, record.in_mx, rank_pct);
      for (std::size_t i = 0; i < want && i < pool.addresses.size(); ++i) {
        record.addresses.push_back(pool.addresses[i]);
      }
    }
    while (record.addresses.size() < want) {
      record.addresses.push_back(new_host(record.tld, false, record.in_alexa,
                                          record.in_mx, rank_pct,
                                          rng_profiles, info));
    }
    for (const auto& address : record.addresses) {
      auto& address_info = info.at(address);
      ++address_info.domains_hosted;
      address_info.in_alexa_set |= record.in_alexa;
      address_info.in_mx_set |= record.in_mx;
      if (record.alexa_rank != 0) {
        address_info.best_rank = address_info.best_rank == 0
                                     ? record.alexa_rank
                                     : std::min(address_info.best_rank,
                                                record.alexa_rank);
      }
    }
  };

  // --- 3. Alexa Top List domains, rank order ---
  std::set<std::size_t> provider_ranks;
  for (std::size_t i = 0; i < n_providers; ++i) {
    provider_ranks.insert(staging[i].alexa_rank);
  }
  staging.reserve(n_alexa + n_mx);
  for (std::size_t rank = 1; rank <= n_alexa; ++rank) {
    if (provider_ranks.count(rank) > 0 && config_.scale >= 0.99) continue;
    StagingDomain record;
    record.tld = sample_tld(alexa_weights);
    record.name = "a" + std::to_string(rank) + "." + record.tld;
    record.in_alexa = true;
    record.in_alexa1000 = rank <= n_alexa1000;
    record.alexa_rank = rank;
    assign_addresses(record);
    staging.push_back(std::move(record));
  }

  // --- 4. 2-Week MX: overlap domains first, then MX-only ---
  // Overlap: existing Alexa domains also observed in the university's email
  // traffic; n_mx_in_1000 of them land inside the Top 1000.
  std::size_t marked = 0, marked_top = 0;
  for (auto& record : staging) {
    if (marked >= n_overlap) break;
    const bool want_top = marked_top < n_mx_in_1000;
    if (record.in_alexa1000 != want_top) continue;
    if (!record.in_alexa || record.in_mx) continue;
    record.in_mx = true;
    record.mx_query_count = 1 + rng_topology.uniform(0, 5000);
    // Note: the overlap domains' *addresses* stay tagged as Alexa hosting;
    // the MX-cohort patching dynamics belong to the dedicated/MX pools.
    ++marked;
    if (record.in_alexa1000) ++marked_top;
  }

  const std::size_t n_mx_only = n_mx > marked ? n_mx - marked : 0;
  active_pools = &mx_pools;
  active_caps = &mx_caps;
  create_prob = static_cast<double>(scaled(1600)) /
                (0.78 * static_cast<double>(std::max<std::size_t>(1, n_mx)));
  for (std::size_t i = 0; i < n_mx_only; ++i) {
    StagingDomain record;
    record.tld = sample_tld(mx_weights);
    record.name = "m" + std::to_string(i + 1) + "." + record.tld;
    record.in_mx = true;
    // The 2-week metric: mostly small counts, a heavy head (Zipf-like).
    record.mx_query_count =
        1 + static_cast<std::size_t>(
                5000.0 / (1.0 + rng_topology.uniform(0, 500)));
    assign_addresses(record);
    staging.push_back(std::move(record));
  }

  finalise(std::move(staging), std::move(info));

  // Scenario staging runs last, from its own fork of the root stream. The
  // three historical lanes above have already been forked, so a baseline
  // build (which skips this entirely) and a scenario build draw identical
  // tld/topology/profiles sequences — the population itself never shifts.
  if (config_.mix.stages_senders()) {
    stage_sender_policies(root.fork("scenario"));
  }
}

void Fleet::stage_sender_policies(util::Rng rng) {
  const PolicyMix& mix = config_.mix;
  sender_policies_.assign(domains_.size(), SenderPolicy{});

  // Staged records live in static zones keyed by TLD origin. Dynamic
  // responders (the measurement apparatus) are matched before zones, so
  // probe traffic cannot be shadowed by anything installed here.
  std::map<std::string, dns::Zone> zones;
  const auto zone_for = [&](std::string_view origin) -> dns::Zone& {
    auto it = zones.find(std::string(origin));
    if (it == zones.end()) {
      it = zones
               .emplace(std::string(origin),
                        dns::Zone(dns::Name::lenient(origin)))
               .first;
    }
    return it->second;
  };

  for (std::size_t i = 0; i < domains_.size(); ++i) {
    const DomainRecord& d = domains_[i];
    SenderPolicy policy;
    policy.publishes_spf = true;

    // Fixed draw count per domain (routing, spf, dkim, dmarc-publish,
    // dmarc-share) so one domain's outcome never shifts a later domain's.
    const double routing_draw = rng.uniform01();
    const double spf_draw = rng.uniform01();
    const double dkim_draw = rng.uniform01();
    const double publish_draw = rng.uniform01();
    const double share_draw = rng.uniform01();

    if (routing_draw < mix.forward_plain_rate) {
      policy.routing = SenderRouting::ForwardPlain;
    } else if (routing_draw < mix.forward_plain_rate + mix.forward_srs_rate) {
      policy.routing = SenderRouting::ForwardSrs;
    } else if (routing_draw < mix.forward_plain_rate + mix.forward_srs_rate +
                                  mix.esp_envelope_rate) {
      policy.routing = SenderRouting::EspEnvelope;
    }
    if (spf_draw < mix.spf_plus_all_rate) {
      policy.spf = SenderSpf::PlusAll;
    } else if (spf_draw < mix.spf_plus_all_rate + mix.spf_broad_cidr_rate) {
      policy.spf = SenderSpf::BroadCidr;
    } else if (spf_draw < mix.spf_plus_all_rate + mix.spf_broad_cidr_rate +
                              mix.spf_long_chain_rate) {
      policy.spf = SenderSpf::LongChain;
    }
    if (dkim_draw < mix.dkim_aligned_rate) {
      policy.dkim = SenderDkim::Aligned;
    } else if (dkim_draw < mix.dkim_aligned_rate + mix.dkim_misaligned_rate) {
      policy.dkim = SenderDkim::Misaligned;
    }
    if (publish_draw < mix.dmarc_publish_rate) {
      policy.publishes_dmarc = true;
      policy.dmarc_pct = static_cast<std::uint8_t>(mix.dmarc_pct);
      if (share_draw < mix.dmarc_reject_share) {
        policy.dmarc_policy = dmarc::Policy::Reject;
      } else if (share_draw <
                 mix.dmarc_reject_share + mix.dmarc_quarantine_share) {
        policy.dmarc_policy = dmarc::Policy::Quarantine;
      }
    }

    // --- publish the staged records ---
    dns::Zone& zone = zone_for(d.tld);
    const dns::Name name = dns::Name::lenient(d.name);
    const util::IpAddress origin_ip = d.addresses.front();
    const std::string orig_mech =
        (origin_ip.is_v4() ? "ip4:" : "ip6:") + origin_ip.to_string();

    switch (policy.spf) {
      case SenderSpf::Normal:
        zone.add(dns::ResourceRecord::txt(name,
                                          "v=spf1 " + orig_mech + " -all"));
        break;
      case SenderSpf::PlusAll:
        zone.add(dns::ResourceRecord::txt(name,
                                          "v=spf1 " + orig_mech + " +all"));
        break;
      case SenderSpf::BroadCidr:
        // A /8 "temporary" allowance that happens to cover the adversary.
        zone.add(dns::ResourceRecord::txt(
            name, "v=spf1 " + orig_mech + " ip4:198.0.0.0/8 -all"));
        break;
      case SenderSpf::LongChain: {
        // include:spfc0 -> spfc1 -> ... -> spfc10: eleven include lookups,
        // one past RFC 7208's limit of ten — every evaluation permerrors.
        zone.add(dns::ResourceRecord::txt(
            name, "v=spf1 include:spfc0." + std::string(d.name) + " -all"));
        for (int link = 0; link < 10; ++link) {
          zone.add(dns::ResourceRecord::txt(
              name.child("spfc" + std::to_string(link)),
              "v=spf1 include:spfc" + std::to_string(link + 1) + "." +
                  std::string(d.name) + " -all"));
        }
        zone.add(dns::ResourceRecord::txt(
            name.child("spfc10"), "v=spf1 " + orig_mech + " -all"));
        break;
      }
    }

    if (policy.dkim == SenderDkim::Aligned) {
      zone.add(dns::ResourceRecord::txt(
          dkim::key_record_name(name, kDkimSelector),
          dkim::key_record_text(dkim_secret_for(d.name))));
    }

    if (policy.publishes_dmarc) {
      dmarc::Record record;
      record.policy = policy.dmarc_policy;
      record.percent = policy.dmarc_pct;
      zone.add(dns::ResourceRecord::txt(name.child("_dmarc"),
                                        dmarc::to_text(record)));
    }

    sender_policies_[i] = policy;
  }

  // Fixed scenario infrastructure: the forwarder pool's and the ESP bounce
  // domain's SPF, and the ESP's (misaligned) DKIM key.
  dns::Zone& infra = zone_for(kScenarioZone);
  infra.add(dns::ResourceRecord::txt(
      dns::Name::lenient(kForwarderDomain),
      "v=spf1 ip4:" + forwarder_address().to_string() + " -all"));
  infra.add(dns::ResourceRecord::txt(
      dns::Name::lenient(kEspBounceDomain),
      "v=spf1 ip4:" + esp_address().to_string() + " -all"));
  dns::Zone& esp = zone_for(kEspSignerDomain);
  esp.add(dns::ResourceRecord::txt(
      dkim::key_record_name(dns::Name::lenient(kEspSignerDomain),
                            kDkimSelector),
      dkim::key_record_text(dkim_secret_for(kEspSignerDomain))));

  for (auto& [origin, zone] : zones) dns_.add_zone(std::move(zone));

  // Receivers a scenario flow can usefully dial. specs_ is address-sorted,
  // so this list is too (the runner's pick is an index hash over it).
  for (const HostSpec& spec : specs_) {
    if (spec.accepts_connections && !spec.smtp_broken && spec.validates_spf &&
        !spec.greylists && !spec.flaky && !spec.rejects_messages &&
        spec.recipients != HostSpec::Recipients::NobodyReal) {
      scenario_receivers_.push_back(spec.address);
    }
  }
}

}  // namespace spfail::population
