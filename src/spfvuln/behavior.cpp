#include "spfvuln/behavior.hpp"

#include <algorithm>

#include "spfvuln/libspf2_expander.hpp"
#include "spfvuln/variant_expanders.hpp"
#include "util/strings.hpp"

namespace spfail::spfvuln {

namespace {

// An implementation with an off-by-one digit transformer (keeps keep+1
// parts) — the kind of one-off bug the paper lumps into "other erroneous"
// expansions. Distinct from every named fingerprint on the >=3-label test
// domains the measurement uses.
class OffByOneTruncationExpander : public spf::MacroExpander {
 public:
  std::string expand(std::string_view macro_string,
                     const spf::MacroContext& ctx) const override {
    std::string out;
    for (const spf::MacroToken& token : spf::parse_macro_string(macro_string)) {
      if (const auto* literal = std::get_if<spf::MacroLiteral>(&token)) {
        out += literal->text;
        continue;
      }
      const auto& item = std::get<spf::MacroItem>(token);
      std::vector<std::string> parts = util::split_any(
          spf::macro_letter_value(item.letter, ctx), item.delimiters);
      if (item.reverse) std::reverse(parts.begin(), parts.end());
      const std::size_t keep = static_cast<std::size_t>(item.keep) + 1;
      if (item.keep > 0 && keep < parts.size()) {
        parts.erase(parts.begin(),
                    parts.end() - static_cast<std::ptrdiff_t>(keep));
      }
      out += util::join(parts, ".");
    }
    return out;
  }
  std::string_view id() const noexcept override { return "off-by-one"; }
};

}  // namespace

std::string to_string(SpfBehavior behavior) {
  switch (behavior) {
    case SpfBehavior::RfcCompliant:
      return "RFC-compliant";
    case SpfBehavior::VulnerableLibspf2:
      return "Vulnerable libSPF2";
    case SpfBehavior::PatchedLibspf2:
      return "Patched libSPF2";
    case SpfBehavior::NoExpansion:
      return "No macro expansion";
    case SpfBehavior::NoTruncation:
      return "Missing truncation";
    case SpfBehavior::NoReversal:
      return "Missing reversal";
    case SpfBehavior::NoTransformers:
      return "Missing reversal+truncation";
    case SpfBehavior::OtherErroneous:
      return "Other erroneous";
  }
  return "?";
}

bool is_erroneous(SpfBehavior behavior) {
  switch (behavior) {
    case SpfBehavior::RfcCompliant:
    case SpfBehavior::PatchedLibspf2:
      return false;
    default:
      return true;
  }
}

const spf::MacroExpander& make_expander(SpfBehavior behavior) {
  // One static, so one thread-safe initialisation guards all of them.
  static const struct {
    spf::Rfc7208Expander rfc;
    Libspf2Expander vulnerable;
    Libspf2PatchedExpander patched;
    NoExpansionExpander no_expansion;
    NoTruncationExpander no_truncation;
    NoReversalExpander no_reversal;
    NoTransformersExpander no_transformers;
    OffByOneTruncationExpander off_by_one;
  } engines;
  switch (behavior) {
    case SpfBehavior::RfcCompliant:
      return engines.rfc;
    case SpfBehavior::VulnerableLibspf2:
      return engines.vulnerable;
    case SpfBehavior::PatchedLibspf2:
      return engines.patched;
    case SpfBehavior::NoExpansion:
      return engines.no_expansion;
    case SpfBehavior::NoTruncation:
      return engines.no_truncation;
    case SpfBehavior::NoReversal:
      return engines.no_reversal;
    case SpfBehavior::NoTransformers:
      return engines.no_transformers;
    case SpfBehavior::OtherErroneous:
      return engines.off_by_one;
  }
  return engines.rfc;
}

}  // namespace spfail::spfvuln
