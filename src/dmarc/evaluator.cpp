#include "dmarc/evaluator.hpp"

#include "util/rng.hpp"

namespace spfail::dmarc {

namespace {

// The next-lower policy a sampled-out message receives (RFC 7489 §6.6.4).
Policy downgrade(Policy policy) noexcept {
  switch (policy) {
    case Policy::Reject:
      return Policy::Quarantine;
    case Policy::Quarantine:
    case Policy::None:
      return Policy::None;
  }
  return Policy::None;
}

Disposition disposition_of(Policy policy) noexcept {
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

}  // namespace

bool Evaluator::sampled_in(const EvaluationInput& input, int percent) const {
  if (percent >= 100) return true;
  if (percent <= 0) return false;
  // A fresh lane per message identity: stateless, so evaluation order (and
  // a host's eviction and rebuild) cannot change the outcome.
  util::Rng lane(sampling_seed_ ^
                 util::fnv1a(input.from_domain.to_string()) ^
                 (0x9e3779b97f4a7c15ULL *
                  util::fnv1a(input.spf_domain.to_string())));
  return lane.uniform(0, 99) < static_cast<std::uint64_t>(percent);
}

Evaluation Evaluator::evaluate(const EvaluationInput& input) const {
  Evaluation out;

  const DiscoveryResult discovery = discover(*resolver_, input.from_domain);
  if (!discovery.record.has_value()) return out;

  out.has_record = true;
  out.record_source = discovery.source;
  out.record = discovery.record;
  const Record& record = *discovery.record;

  out.spf_aligned_pass =
      input.spf_result == spf::Result::Pass &&
      aligned(input.spf_domain, input.from_domain, record.spf_alignment);
  out.dkim_aligned_pass =
      input.dkim_result == dkim::VerifyResult::Pass &&
      aligned(input.dkim_domain, input.from_domain, record.dkim_alignment);
  out.pass = out.spf_aligned_pass || out.dkim_aligned_pass;
  if (out.pass) return out;

  Policy policy = discovery.from_organizational_fallback
                      ? record.effective_subdomain_policy()
                      : record.policy;
  if (!sampled_in(input, record.percent)) {
    out.sampled_out = true;
    policy = downgrade(policy);
  }
  out.applied_policy = policy;
  out.disposition = disposition_of(policy);
  return out;
}

}  // namespace spfail::dmarc
