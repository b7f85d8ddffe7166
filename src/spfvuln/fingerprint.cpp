#include "spfvuln/fingerprint.hpp"

namespace spfail::spfvuln {

namespace {

// The context of the test record's evaluation: the MAIL FROM domain is both
// the sender and the current domain.
spf::MacroContext probe_context(const dns::Name& domain) {
  spf::MacroContext ctx;
  ctx.sender_local = "postmaster";
  ctx.sender_domain = domain;
  ctx.current_domain = domain;
  ctx.client_ip = util::IpAddress::v4(192, 0, 2, 1);  // irrelevant to %{d...}
  return ctx;
}

// "<expansion>.<domain>": the name the mechanism a:<macro>.<domain> queries.
dns::Name expected_name(SpfBehavior behavior, std::string_view macro,
                        const spf::MacroContext& ctx) {
  std::string query = make_expander(behavior).expand(macro, ctx);
  query.push_back('.');
  query.append(ctx.current_domain.text());
  return dns::Name::lenient(std::move(query));
}

}  // namespace

FingerprintClassifier::FingerprintClassifier(dns::Name mail_from_domain,
                                             std::string macro)
    : domain_(std::move(mail_from_domain)), macro_(std::move(macro)) {}

std::optional<SpfBehavior> FingerprintClassifier::classify(
    const dns::Name& observed) {
  if (!observed.is_subdomain_of(domain_)) return std::nullopt;
  if (observed == domain_) return std::nullopt;  // the TXT policy fetch
  const dns::LabelRange relative = observed.labels_relative_to(domain_);
  if (relative.size() == 1 && relative.front() == "b") {
    return std::nullopt;  // the control mechanism a:b.<domain>
  }
  if (!relative.empty() && relative.front() == "_dmarc") {
    return std::nullopt;  // a receiver's DMARC policy discovery, not a probe
  }
  // Expected names are computed in claim order, only as far as the first
  // match: most hosts are RFC-compliant, the first behaviour tried.
  std::optional<spf::MacroContext> ctx;
  for (std::size_t i = 0; i < kFingerprintable.size(); ++i) {
    if (i == computed_) {
      if (!ctx.has_value()) ctx = probe_context(domain_);
      expected_[i] = expected_name(kFingerprintable[i], macro_, *ctx);
      ++computed_;
    }
    if (expected_[i] == observed) return kFingerprintable[i];
  }
  return SpfBehavior::OtherErroneous;
}

dns::Name FingerprintClassifier::expected_query(SpfBehavior behavior) const {
  return expected_name(behavior, macro_, probe_context(domain_));
}

}  // namespace spfail::spfvuln
