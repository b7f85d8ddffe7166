// The SPF macro-expansion behaviour taxonomy (paper sections 4.2, 7.9).
//
// Each simulated MTA is assigned one (or, for multi-stack hosts, several) of
// these behaviours; the scanner's job is to recover them from DNS queries.
#pragma once

#include <string>

#include "spf/macro.hpp"

namespace spfail::spfvuln {

enum class SpfBehavior {
  RfcCompliant,       // example.foo.com
  VulnerableLibspf2,  // com.com.example.foo.com  (the CVE fingerprint)
  PatchedLibspf2,     // RFC-correct output from the fixed library
  NoExpansion,        // %{d1r}.foo.com queried literally
  NoTruncation,       // com.example.foo.com
  NoReversal,         // com.foo.com (truncates the unreversed list)
  NoTransformers,     // example.com.foo.com
  OtherErroneous,     // anything else that is neither compliant nor above
};

std::string to_string(SpfBehavior behavior);

// True for behaviours whose expansion differs from RFC 7208 output.
bool is_erroneous(SpfBehavior behavior);

// True only for the vulnerable library.
constexpr bool is_vulnerable(SpfBehavior behavior) {
  return behavior == SpfBehavior::VulnerableLibspf2;
}

// The expansion engine an MTA with this behaviour runs. Every engine is
// stateless, so each behaviour has one instance, built once per process and
// shared by every host and thread; the reference stays valid for the
// program's lifetime. OtherErroneous gets a deliberately odd engine
// (off-by-one truncation) so it produces a query that matches no known
// fingerprint.
const spf::MacroExpander& make_expander(SpfBehavior behavior);

}  // namespace spfail::spfvuln
