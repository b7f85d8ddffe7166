// check_host() — the SPF evaluation algorithm (RFC 7208 section 4).
//
// The Evaluator is parameterised on a MacroExpander, so the *same* evaluation
// engine drives both correct validators and the buggy ones: a vulnerable
// libSPF2 host differs from a compliant host only in which expander its MTA
// plugs in, and the difference becomes visible as erroneous DNS queries at
// the authoritative server — the paper's remote-detection fingerprint.
#pragma once

#include <forward_list>
#include <string>

#include "dns/resolver.hpp"
#include "spf/macro.hpp"
#include "spf/record.hpp"
#include "spf/record_cache.hpp"
#include "spf/result.hpp"

namespace spfail::spf {

struct CheckRequest {
  util::IpAddress client_ip;
  std::string sender_local;  // local part of MAIL FROM ("postmaster" if empty)
  dns::Name sender_domain;   // domain part of MAIL FROM
  dns::Name helo_domain;
  dns::Name receiver_domain;
  util::SimTime timestamp = 0;
};

struct CheckOutcome {
  Result result = Result::None;
  std::string explanation;  // from the exp= modifier on Fail, if resolvable
  int dns_mechanism_lookups = 0;  // a/mx/include/exists/redirect/ptr count
  int void_lookups = 0;
};

struct EvaluatorLimits {
  // RFC 7208 section 4.6.4.
  int max_dns_mechanisms = 10;
  int max_void_lookups = 2;
  int max_mx_exchanges = 10;
  int max_ptr_names = 10;
};

class Evaluator {
 public:
  // All references must outlive the evaluator. `shared_cache` (optional, not
  // owned) is the fleet-wide record-parse memo (DESIGN.md §16): when set,
  // parses are answered from it; a text it does not hold, or every text
  // when it is null, is parsed into storage owned by the check_host call.
  Evaluator(dns::StubResolver& resolver, const MacroExpander& expander,
            EvaluatorLimits limits = {},
            SharedRecordCache* shared_cache = nullptr)
      : resolver_(resolver),
        expander_(expander),
        limits_(limits),
        shared_cache_(shared_cache) {}

  // Entry point per RFC 7208 section 4.1.
  CheckOutcome check_host(const CheckRequest& request);

 private:
  struct State {
    CheckRequest request;
    int mechanism_lookups = 0;
    int void_lookups = 0;
    int recursion_depth = 0;
    // Lazily resolved "p" macro value (PTR + forward confirmation),
    // memoised for the whole check (RFC 7208 section 7.3).
    bool validated_domain_resolved = false;
    dns::Name validated_domain;
    // Records this check parsed itself (no shared cache, or one that turned
    // the text away). A node list, so the `const Record&` an outer
    // check_domain holds stays valid while include/redirect recursion
    // parses more; it stays empty — no allocation — while the cache hits.
    std::forward_list<Record> parsed;
  };

  // Resolve the validated domain of the client IP for the "p" macro: take
  // the PTR names, forward-confirm each, prefer a name equal to or under
  // `target`, else any confirmed name. Empty when none validates.
  const dns::Name& validated_domain(State& state, const dns::Name& target);

  Result check_domain(State& state, const dns::Name& domain,
                      std::string* explanation);
  Result eval_mechanism(State& state, const dns::Name& domain,
                        const Mechanism& mech, bool& matched);

  // Expand a domain-spec, falling back to `current` when the spec is empty.
  // Uses lenient name parsing so buggy expansions survive as observable
  // queries instead of being rejected client-side.
  dns::Name target_name(State& state, const dns::Name& current,
                        const std::string& domain_spec);

  // Count one void (NXDOMAIN/empty) answer; returns false when the RFC's
  // void-lookup limit is exceeded.
  bool note_void(State& state, const dns::ResolveResult& result);

  // The parsed form of `text`: the shared cache's entry when it holds the
  // text, else a parse kept in `state` until check_host returns; nullptr for
  // records with syntax errors. DNS fetches are NOT cached: the queries are
  // the paper's observable, only parsing is elided.
  const Record* parsed_record(State& state, const std::string& text);

  dns::StubResolver& resolver_;
  const MacroExpander& expander_;
  EvaluatorLimits limits_;
  SharedRecordCache* shared_cache_ = nullptr;
};

}  // namespace spfail::spf
