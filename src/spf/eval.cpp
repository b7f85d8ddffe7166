#include "spf/eval.hpp"

#include <algorithm>

#include "util/strings.hpp"

namespace spfail::spf {

namespace {

Result qualifier_result(Qualifier q) {
  switch (q) {
    case Qualifier::Pass:
      return Result::Pass;
    case Qualifier::Fail:
      return Result::Fail;
    case Qualifier::SoftFail:
      return Result::SoftFail;
    case Qualifier::Neutral:
      return Result::Neutral;
  }
  return Result::PermError;
}

constexpr int kMaxRecursionDepth = 20;  // belt-and-braces on include loops

}  // namespace

CheckOutcome Evaluator::check_host(const CheckRequest& request) {
  State state;
  state.request = request;
  if (state.request.sender_local.empty()) {
    // RFC 7208 section 4.3: an empty local part becomes "postmaster".
    state.request.sender_local = "postmaster";
  }

  CheckOutcome outcome;
  std::string explanation;
  outcome.result = check_domain(state, request.sender_domain, &explanation);
  outcome.explanation = std::move(explanation);
  outcome.dns_mechanism_lookups = state.mechanism_lookups;
  outcome.void_lookups = state.void_lookups;
  return outcome;
}

Result Evaluator::check_domain(State& state, const dns::Name& domain,
                               std::string* explanation) {
  if (++state.recursion_depth > kMaxRecursionDepth) return Result::PermError;

  // 1. Fetch and select the SPF record.
  const dns::ResolveResult txt = resolver_.query(domain, dns::RRType::TXT);
  if (txt.rcode == dns::Rcode::ServFail) return Result::TempError;

  std::vector<std::string> spf_records;
  for (const auto& rr : txt.answers) {
    if (const auto* rdata = std::get_if<dns::TxtRdata>(&rr.rdata)) {
      const std::string joined = rdata->joined();
      if (looks_like_spf(joined)) spf_records.push_back(joined);
    }
  }
  if (spf_records.empty()) return Result::None;
  if (spf_records.size() > 1) return Result::PermError;

  const Record* parsed = parsed_record(state, spf_records.front());
  if (parsed == nullptr) return Result::PermError;
  const Record& record = *parsed;

  // 2. Evaluate mechanisms left to right.
  for (const auto& mech : record.mechanisms) {
    bool matched = false;
    const Result mech_result = eval_mechanism(state, domain, mech, matched);
    if (mech_result != Result::None) return mech_result;  // error propagation
    if (matched) {
      const Result r = qualifier_result(mech.qualifier);
      if (r == Result::Fail && explanation != nullptr) {
        if (const auto exp = record.exp()) {
          try {
            MacroContext ctx{state.request.sender_local,
                             state.request.sender_domain,
                             domain,
                             state.request.client_ip,
                             state.request.helo_domain,
                             dns::Name{},
                             state.request.receiver_domain,
                             state.request.timestamp};
            const dns::Name exp_name =
                dns::Name::lenient(expander_.expand(*exp, ctx));
            for (const auto& text : resolver_.txt(exp_name)) {
              *explanation = expander_.expand(text, ctx);
              break;
            }
          } catch (const MacroSyntaxError&) {
            // RFC 7208 section 6.2: exp failures do not alter the result.
          }
        }
      }
      return r;
    }
  }

  // 3. redirect modifier applies only when nothing matched.
  if (const auto redirect = record.redirect()) {
    if (++state.mechanism_lookups > limits_.max_dns_mechanisms) {
      return Result::PermError;
    }
    dns::Name redirect_domain;
    try {
      MacroContext ctx{state.request.sender_local,
                       state.request.sender_domain,
                       domain,
                       state.request.client_ip,
                       state.request.helo_domain,
                       dns::Name{},
                       state.request.receiver_domain,
                       state.request.timestamp};
      redirect_domain = dns::Name::lenient(expander_.expand(*redirect, ctx));
    } catch (const MacroSyntaxError&) {
      return Result::PermError;
    }
    const Result r = check_domain(state, redirect_domain, explanation);
    // RFC 7208 section 6.1: None after redirect becomes PermError.
    return r == Result::None ? Result::PermError : r;
  }

  return Result::Neutral;  // default when no mechanism matched (section 4.7)
}

const Record* Evaluator::parsed_record(State& state, const std::string& text) {
  if (shared_cache_ != nullptr) {
    if (const auto* entry = shared_cache_->lookup(text)) {
      return entry->ok ? &entry->record : nullptr;
    }
  }
  try {
    return &state.parsed.emplace_front(parse_record(text));
  } catch (const RecordSyntaxError&) {
    return nullptr;
  }
}

const dns::Name& Evaluator::validated_domain(State& state,
                                             const dns::Name& target) {
  if (state.validated_domain_resolved) return state.validated_domain;
  state.validated_domain_resolved = true;

  const dns::Name reverse =
      dns::Name::lenient(state.request.client_ip.reverse_pointer());
  const dns::ResolveResult ptr_result =
      resolver_.query(reverse, dns::RRType::PTR);
  dns::Name any_confirmed;
  int names = 0;
  for (const auto& rr : ptr_result.answers) {
    const auto* ptr = std::get_if<dns::PtrRdata>(&rr.rdata);
    if (ptr == nullptr) continue;
    if (++names > limits_.max_ptr_names) break;
    const dns::RRType qtype = state.request.client_ip.is_v4()
                                  ? dns::RRType::A
                                  : dns::RRType::AAAA;
    const dns::ResolveResult fwd = resolver_.query(ptr->target, qtype);
    bool confirmed = false;
    for (const auto& arr : fwd.answers) {
      if (const auto* a = std::get_if<dns::ARdata>(&arr.rdata)) {
        confirmed |= a->address == state.request.client_ip;
      } else if (const auto* aaaa = std::get_if<dns::AaaaRdata>(&arr.rdata)) {
        confirmed |= aaaa->address == state.request.client_ip;
      }
    }
    if (!confirmed) continue;
    if (ptr->target.is_subdomain_of(target)) {
      state.validated_domain = ptr->target;  // best match: under <target>
      return state.validated_domain;
    }
    if (any_confirmed.empty()) any_confirmed = ptr->target;
  }
  state.validated_domain = any_confirmed;  // may stay empty -> "unknown"
  return state.validated_domain;
}

dns::Name Evaluator::target_name(State& state, const dns::Name& current,
                                 const std::string& domain_spec) {
  if (domain_spec.empty()) return current;
  MacroContext ctx{state.request.sender_local,
                   state.request.sender_domain,
                   current,
                   state.request.client_ip,
                   state.request.helo_domain,
                   dns::Name{},
                   state.request.receiver_domain,
                   state.request.timestamp};
  // The "p" macro triggers a PTR validation of its own (section 7.3);
  // resolve it only when the spec actually uses it.
  if (domain_spec.find("%{p") != std::string::npos ||
      domain_spec.find("%{P") != std::string::npos) {
    ctx.validated_domain = validated_domain(state, current);
  }
  return dns::Name::lenient(expander_.expand(domain_spec, ctx));
}

bool Evaluator::note_void(State& state, const dns::ResolveResult& result) {
  if (result.rcode == dns::Rcode::NxDomain ||
      (result.rcode == dns::Rcode::NoError && result.answers.empty())) {
    if (++state.void_lookups > limits_.max_void_lookups) return false;
  }
  return true;
}

Result Evaluator::eval_mechanism(State& state, const dns::Name& domain,
                                 const Mechanism& mech, bool& matched) {
  matched = false;
  const auto& ip = state.request.client_ip;

  const auto address_matches = [&](const util::IpAddress& candidate) {
    if (candidate.family() != ip.family()) return false;
    int prefix;
    if (ip.is_v4()) {
      prefix = mech.cidr4 >= 0 ? mech.cidr4 : 32;
    } else {
      prefix = mech.cidr6 >= 0 ? mech.cidr6 : 128;
    }
    return ip.in_prefix(candidate, prefix);
  };

  switch (mech.kind) {
    case MechanismKind::All:
      matched = true;
      return Result::None;

    case MechanismKind::Ip4:
    case MechanismKind::Ip6: {
      const auto network = util::IpAddress::parse(mech.network);
      if (!network.has_value()) return Result::PermError;
      matched = address_matches(*network);
      return Result::None;
    }

    case MechanismKind::A: {
      if (++state.mechanism_lookups > limits_.max_dns_mechanisms) {
        return Result::PermError;
      }
      dns::Name target;
      try {
        target = target_name(state, domain, mech.domain_spec);
      } catch (const MacroSyntaxError&) {
        return Result::PermError;
      }
      const dns::RRType qtype = ip.is_v4() ? dns::RRType::A : dns::RRType::AAAA;
      const dns::ResolveResult result = resolver_.query(target, qtype);
      if (result.rcode == dns::Rcode::ServFail) return Result::TempError;
      if (!note_void(state, result)) return Result::PermError;
      for (const auto& rr : result.answers) {
        if (const auto* a = std::get_if<dns::ARdata>(&rr.rdata)) {
          if (address_matches(a->address)) matched = true;
        } else if (const auto* aaaa = std::get_if<dns::AaaaRdata>(&rr.rdata)) {
          if (address_matches(aaaa->address)) matched = true;
        }
      }
      return Result::None;
    }

    case MechanismKind::Mx: {
      if (++state.mechanism_lookups > limits_.max_dns_mechanisms) {
        return Result::PermError;
      }
      dns::Name target;
      try {
        target = target_name(state, domain, mech.domain_spec);
      } catch (const MacroSyntaxError&) {
        return Result::PermError;
      }
      const dns::ResolveResult mx_result =
          resolver_.query(target, dns::RRType::MX);
      if (mx_result.rcode == dns::Rcode::ServFail) return Result::TempError;
      if (!note_void(state, mx_result)) return Result::PermError;
      int exchanges = 0;
      for (const auto& rr : mx_result.answers) {
        const auto* mx = std::get_if<dns::MxRdata>(&rr.rdata);
        if (mx == nullptr) continue;
        if (++exchanges > limits_.max_mx_exchanges) return Result::PermError;
        const dns::RRType qtype =
            ip.is_v4() ? dns::RRType::A : dns::RRType::AAAA;
        const dns::ResolveResult addr_result =
            resolver_.query(mx->exchange, qtype);
        if (addr_result.rcode == dns::Rcode::ServFail) return Result::TempError;
        for (const auto& arr : addr_result.answers) {
          if (const auto* a = std::get_if<dns::ARdata>(&arr.rdata)) {
            if (address_matches(a->address)) matched = true;
          } else if (const auto* aaaa = std::get_if<dns::AaaaRdata>(&arr.rdata)) {
            if (address_matches(aaaa->address)) matched = true;
          }
        }
      }
      return Result::None;
    }

    case MechanismKind::Ptr: {
      if (++state.mechanism_lookups > limits_.max_dns_mechanisms) {
        return Result::PermError;
      }
      dns::Name target;
      try {
        target = target_name(state, domain, mech.domain_spec);
      } catch (const MacroSyntaxError&) {
        return Result::PermError;
      }
      const dns::Name reverse = dns::Name::lenient(ip.reverse_pointer());
      const dns::ResolveResult ptr_result =
          resolver_.query(reverse, dns::RRType::PTR);
      if (ptr_result.rcode == dns::Rcode::ServFail) return Result::TempError;
      if (!note_void(state, ptr_result)) return Result::PermError;
      int names = 0;
      for (const auto& rr : ptr_result.answers) {
        const auto* ptr = std::get_if<dns::PtrRdata>(&rr.rdata);
        if (ptr == nullptr) continue;
        if (++names > limits_.max_ptr_names) break;  // section 5.5: ignore rest
        if (!ptr->target.is_subdomain_of(target)) continue;
        // Forward-confirm the PTR target.
        const dns::RRType qtype =
            ip.is_v4() ? dns::RRType::A : dns::RRType::AAAA;
        const dns::ResolveResult fwd = resolver_.query(ptr->target, qtype);
        for (const auto& arr : fwd.answers) {
          if (const auto* a = std::get_if<dns::ARdata>(&arr.rdata)) {
            if (a->address == ip) matched = true;
          } else if (const auto* aaaa = std::get_if<dns::AaaaRdata>(&arr.rdata)) {
            if (aaaa->address == ip) matched = true;
          }
        }
      }
      return Result::None;
    }

    case MechanismKind::Include: {
      if (++state.mechanism_lookups > limits_.max_dns_mechanisms) {
        return Result::PermError;
      }
      dns::Name target;
      try {
        target = target_name(state, domain, mech.domain_spec);
      } catch (const MacroSyntaxError&) {
        return Result::PermError;
      }
      const Result inner = check_domain(state, target, nullptr);
      switch (inner) {
        case Result::Pass:
          matched = true;
          return Result::None;
        case Result::Fail:
        case Result::SoftFail:
        case Result::Neutral:
          return Result::None;  // no match, continue
        case Result::TempError:
          return Result::TempError;
        case Result::None:
        case Result::PermError:
          return Result::PermError;  // section 5.2
      }
      return Result::PermError;
    }

    case MechanismKind::Exists: {
      if (++state.mechanism_lookups > limits_.max_dns_mechanisms) {
        return Result::PermError;
      }
      dns::Name target;
      try {
        target = target_name(state, domain, mech.domain_spec);
      } catch (const MacroSyntaxError&) {
        return Result::PermError;
      }
      // Always an A query, regardless of client family (section 5.7).
      const dns::ResolveResult result = resolver_.query(target, dns::RRType::A);
      if (result.rcode == dns::Rcode::ServFail) return Result::TempError;
      if (!note_void(state, result)) return Result::PermError;
      for (const auto& rr : result.answers) {
        if (std::holds_alternative<dns::ARdata>(rr.rdata)) matched = true;
      }
      return Result::None;
    }
  }
  return Result::PermError;
}

}  // namespace spfail::spf
