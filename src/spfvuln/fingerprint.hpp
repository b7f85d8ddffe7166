// Remote-detection fingerprint classification (paper section 4.2).
//
// Given the unique per-test MAIL FROM domain, the classifier computes what
// each known SPF implementation behaviour would query for the test record's
// "a:%{d1r}.<domain>" mechanism, then maps observed authoritative-server
// queries back to behaviours by comparing names. A patched libSPF2 is
// indistinguishable from any other RFC-compliant validator — exactly as in
// the paper, where "patched" means "now measures as RFC-compliant".
#pragma once

#include <array>
#include <optional>
#include <string>

#include "dns/name.hpp"
#include "spfvuln/behavior.hpp"

namespace spfail::spfvuln {

class FingerprintClassifier {
 public:
  // `mail_from_domain` is the per-test unique domain
  // (<id>.<suite>.spf-test.dns-lab.org); `macro` is the macro-string in the
  // served SPF record (the paper uses "%{d1r}").
  explicit FingerprintClassifier(dns::Name mail_from_domain,
                                 std::string macro = "%{d1r}");

  // Classify one observed query name. Returns nullopt for names that are not
  // macro-expansion probes (the TXT fetch for the domain itself, the "b."
  // control lookup, a receiver's _dmarc discovery); returns OtherErroneous
  // for probe-shaped names matching no known behaviour. Each behaviour's
  // expected name is computed the first time a probe-shaped name reaches
  // it, so a test whose host never expands the macro computes none.
  std::optional<SpfBehavior> classify(const dns::Name& observed);

  // The exact name each behaviour queries (for tests and documentation).
  dns::Name expected_query(SpfBehavior behavior) const;

  const dns::Name& domain() const noexcept { return domain_; }

 private:
  // Behaviours with distinct fingerprints, in claim order: if two behaviours
  // ever produced the same name, the earlier one wins the classification.
  static constexpr std::array kFingerprintable = {
      SpfBehavior::RfcCompliant,   SpfBehavior::VulnerableLibspf2,
      SpfBehavior::NoExpansion,    SpfBehavior::NoTruncation,
      SpfBehavior::NoReversal,     SpfBehavior::NoTransformers,
      SpfBehavior::OtherErroneous,
  };

  dns::Name domain_;
  std::string macro_;
  // expected_[i] is what kFingerprintable[i] queries, for i < computed_.
  std::size_t computed_ = 0;
  std::array<dns::Name, kFingerprintable.size()> expected_;
};

}  // namespace spfail::spfvuln
