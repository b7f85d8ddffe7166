// dmarc::Evaluator — the full RFC 7489 evaluation pipeline in one object:
// policy discovery, SPF/DKIM alignment, pct= message sampling, and the
// final disposition.
//
// The free-function disposition_for overloads in discovery.hpp predate the
// scenario layer and ignore Record::percent entirely. The Evaluator consults
// it (RFC 7489 section 6.6.4): a record with pct=N applies its requested
// policy to N% of failing messages; the remainder receive the next-lower
// policy (reject -> quarantine, quarantine -> none). Sampling must be
// deterministic AND stateless — the same message at the same host always
// lands on the same side of the cut regardless of how many messages the
// host evaluated before it — so that a host the fleet evicted and rebuilt
// decides byte for byte as it would have live. Each decision therefore
// derives a fresh RNG lane from (sampling_seed, from_domain, spf_domain)
// rather than advancing a shared cursor.
#pragma once

#include <cstdint>
#include <optional>

#include "dkim/dkim.hpp"
#include "dmarc/discovery.hpp"
#include "dmarc/record.hpp"
#include "dns/name.hpp"
#include "dns/resolver.hpp"
#include "spf/result.hpp"

namespace spfail::dmarc {

// Everything the evaluating MTA knows about one message.
struct EvaluationInput {
  spf::Result spf_result = spf::Result::None;
  dns::Name spf_domain;   // MAIL FROM domain SPF evaluated
  dkim::VerifyResult dkim_result = dkim::VerifyResult::None;
  dns::Name dkim_domain;  // d= of the verified signature
  dns::Name from_domain;  // RFC5322.From domain
};

struct Evaluation {
  bool has_record = false;
  dns::Name record_source;  // where discovery found the record
  std::optional<Record> record;
  bool spf_aligned_pass = false;
  bool dkim_aligned_pass = false;
  bool pass = false;         // spf_aligned_pass || dkim_aligned_pass
  bool sampled_out = false;  // failing message excluded by pct=
  Policy applied_policy = Policy::None;  // after sp= and pct= downgrades
  Disposition disposition = Disposition::Deliver;
};

class Evaluator {
 public:
  // `sampling_seed` scopes the pct= lanes to the evaluating host so
  // distinct receivers sample independently.
  Evaluator(dns::StubResolver& resolver, std::uint64_t sampling_seed)
      : resolver_(&resolver), sampling_seed_(sampling_seed) {}

  Evaluation evaluate(const EvaluationInput& input) const;

  // The pct= coin for one message identity, exposed for tests: true when
  // the record's requested policy applies.
  bool sampled_in(const EvaluationInput& input, int percent) const;

 private:
  dns::StubResolver* resolver_;
  std::uint64_t sampling_seed_;
};

}  // namespace spfail::dmarc
