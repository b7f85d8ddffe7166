// Memory-safe emulation of libSPF2's vulnerable spf_expand() (section 4.1 of
// the paper), reproducing both CVEs:
//
//  * CVE-2021-33912 — URL-encoding sprintf overflow. spf_expand sizes the
//    output assuming every percent-escaped byte costs a constant number of
//    characters, then calls `sprintf(p, "%%%02x", *read)` on a *signed* char.
//    Bytes >= 0x80 sign-extend and print 8 hex digits instead of 2, writing
//    6 unbudgeted bytes per character past the end of the heap allocation.
//
//  * CVE-2021-33913 — label-reversal buffer-length reassignment. When a macro
//    carries the 'r' (reverse) transformer together with a digit truncation,
//    the variable tracking the intended buffer length is overwritten with the
//    much smaller *truncated* length, but the write loop still emits the
//    untruncated reversed output — and, due to the same pointer bookkeeping
//    error, re-emits the leading (dropped) parts, corrupting the expanded
//    label. The corruption is visible in the MTA's next DNS query, which is
//    the paper's benign remote-detection fingerprint:
//
//        sender user@example.com, mechanism a:%{d1r}.foo.com
//          example.foo.com          RFC-compliant
//          com.example.foo.com      non-compliant (missing truncation)
//          com.com.example.foo.com  vulnerable libSPF2            <- this code
//
// The emulation performs the same arithmetic as the C code but writes into an
// OverflowSentinel, so overflow is *recorded*, never executed.
#pragma once

#include <vector>

#include "spf/macro.hpp"
#include "spfvuln/overflow_sentinel.hpp"

namespace spfail::spfvuln {

// What one expansion did to its (emulated) heap buffer.
struct ExpansionReport {
  std::string output;            // the string the MTA actually uses downstream
  std::size_t buffer_allocated = 0;  // bytes spf_expand allocated
  std::size_t buffer_written = 0;    // bytes it wrote
  std::size_t overflow_bytes = 0;    // written past the allocation
  bool length_reassigned = false;    // CVE-2021-33913 arithmetic fired
  bool sprintf_overflow = false;     // CVE-2021-33912 fired (>=1 high-bit byte)
};

// Expand one macro item the way vulnerable libSPF2 1.2.10 does.
// `value` is the raw macro-letter value (e.g. the current domain).
ExpansionReport libspf2_expand_item(const spf::MacroItem& item,
                                    std::string_view value);

// Expand a full macro-string the way vulnerable libSPF2 1.2.10 does; the
// report aggregates every macro item's.
ExpansionReport libspf2_expand(std::string_view macro_string,
                               const spf::MacroContext& ctx);

// Stateless, so one instance serves every host and thread (make_expander).
class Libspf2Expander : public spf::MacroExpander {
 public:
  std::string expand(std::string_view macro_string,
                     const spf::MacroContext& ctx) const override;
  std::string_view id() const noexcept override { return "libspf2-vulnerable"; }
};

// The *patched* libSPF2 behaviour (what servers upgrade to): identical
// interface, RFC-correct output, zero overflow. Kept distinct from
// Rfc7208Expander so the longitudinal simulation can distinguish "patched
// libSPF2" from "switched validation library" if desired.
class Libspf2PatchedExpander : public spf::MacroExpander {
 public:
  std::string expand(std::string_view macro_string,
                     const spf::MacroContext& ctx) const override;
  std::string_view id() const noexcept override { return "libspf2-patched"; }
};

}  // namespace spfail::spfvuln
