#include "dmarc/discovery.hpp"

#include <array>

namespace spfail::dmarc {

namespace {

// PSL-lite: two-level public suffixes the simulation's domains can produce;
// everything else is treated as a one-label suffix.
constexpr std::array<std::string_view, 8> kTwoLevelSuffixes = {
    "co.uk", "org.uk", "ac.uk", "com.au", "com.br", "co.za", "com.tr", "co.jp",
};

// The last `n` labels of a name's text, which must hold more than `n`.
std::string_view last_labels(std::string_view text, std::size_t n) {
  std::size_t start = text.size();
  for (std::size_t i = 0; i < n; ++i) start = text.rfind('.', start - 1);
  return text.substr(start + 1);
}

}  // namespace

dns::Name organizational_domain(const dns::Name& domain) {
  const std::size_t labels = domain.label_count();
  if (labels <= 2) return domain;

  // Check for a two-level public suffix.
  const std::string_view two_level = last_labels(domain.text(), 2);
  std::size_t suffix_labels = 1;
  for (const auto candidate : kTwoLevelSuffixes) {
    if (two_level == candidate) {
      suffix_labels = 2;
      break;
    }
  }
  const std::size_t keep = suffix_labels + 1;
  if (labels <= keep) return domain;
  return dns::Name::lenient(std::string(last_labels(domain.text(), keep)));
}

DiscoveryResult discover(dns::StubResolver& resolver,
                         const dns::Name& from_domain) {
  DiscoveryResult result;

  const auto try_fetch = [&](const dns::Name& where) -> bool {
    const dns::Name query = where.child("_dmarc");
    for (const auto& txt : resolver.txt(query)) {
      if (!looks_like_dmarc(txt)) continue;
      try {
        result.record = parse_record(txt);
        result.source = query;
        return true;
      } catch (const RecordSyntaxError&) {
        // RFC 7489: syntactically invalid records are ignored.
      }
    }
    return false;
  };

  if (try_fetch(from_domain)) return result;
  const dns::Name org = organizational_domain(from_domain);
  if (org != from_domain && try_fetch(org)) {
    result.from_organizational_fallback = true;
  }
  return result;
}

std::string to_string(Disposition disposition) {
  switch (disposition) {
    case Disposition::Deliver:
      return "deliver";
    case Disposition::Quarantine:
      return "quarantine";
    case Disposition::Reject:
      return "reject";
  }
  return "?";
}

bool aligned(const dns::Name& authenticated, const dns::Name& from_domain,
             Alignment alignment) {
  if (alignment == Alignment::Strict) return authenticated == from_domain;
  return organizational_domain(authenticated) ==
         organizational_domain(from_domain);
}

Disposition disposition_for(const DiscoveryResult& discovery,
                            spf::Result spf_result,
                            const dns::Name& spf_domain,
                            const dns::Name& from_domain) {
  return disposition_for(discovery, spf_result, spf_domain,
                         /*dkim_pass=*/false, dns::Name{}, from_domain);
}

Disposition disposition_for(const DiscoveryResult& discovery,
                            spf::Result spf_result,
                            const dns::Name& spf_domain, bool dkim_pass,
                            const dns::Name& dkim_domain,
                            const dns::Name& from_domain) {
  if (!discovery.record.has_value()) return Disposition::Deliver;
  const Record& record = *discovery.record;

  // DMARC passes when an authentication mechanism passes *and* aligns.
  const bool spf_ok = spf_result == spf::Result::Pass &&
                      aligned(spf_domain, from_domain, record.spf_alignment);
  const bool dkim_ok =
      dkim_pass && aligned(dkim_domain, from_domain, record.dkim_alignment);
  if (spf_ok || dkim_ok) return Disposition::Deliver;

  // Subdomain policy applies when the From domain is a proper subdomain of
  // the record's publisher (i.e. the record came from the org fallback).
  const Policy policy = discovery.from_organizational_fallback
                            ? record.effective_subdomain_policy()
                            : record.policy;
  switch (policy) {
    case Policy::None:
      return Disposition::Deliver;
    case Policy::Quarantine:
      return Disposition::Quarantine;
    case Policy::Reject:
      return Disposition::Reject;
  }
  return Disposition::Deliver;
}

}  // namespace spfail::dmarc
