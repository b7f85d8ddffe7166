#include "spfvuln/libspf2_expander.hpp"

#include <algorithm>

#include "util/encoding.hpp"
#include "util/strings.hpp"

namespace spfail::spfvuln {

namespace {

// Joined length of a list of parts with single-character separators.
std::size_t joined_length(const std::vector<std::string>& parts,
                          std::size_t first, std::size_t count) {
  std::size_t len = 0;
  for (std::size_t i = first; i < first + count; ++i) {
    if (i > first) ++len;  // separator
    len += parts[i].size();
  }
  return len;
}

// Write one byte the way the vulnerable code does when URL encoding is on:
// unreserved characters pass through; everything else goes through
// sprintf("%%%02x", (char)c) — which emits 9 characters instead of the
// budgeted 3 whenever the byte has its high bit set (CVE-2021-33912).
void put_url_encoded(OverflowSentinel& buf, char ch, bool& sprintf_overflow) {
  const auto c = static_cast<unsigned char>(ch);
  if (util::is_url_unreserved(c)) {
    buf.put(ch);
    return;
  }
  const std::string emitted = util::libspf2_sprintf_encode_byte(c);
  if (emitted.size() > 3) sprintf_overflow = true;
  buf.put(emitted);
}

}  // namespace

ExpansionReport libspf2_expand_item(const spf::MacroItem& item,
                                    std::string_view value) {
  ExpansionReport report;

  std::vector<std::string> parts = util::split_any(value, item.delimiters);
  if (item.reverse) std::reverse(parts.begin(), parts.end());

  // --- length computation pass (mirrors the first pass of spf_expand) ---
  // The intended buffer length starts as the full (reversed) joined length...
  std::size_t intended = joined_length(parts, 0, parts.size());

  const bool truncates = item.keep > 0 &&
                         static_cast<std::size_t>(item.keep) < parts.size();
  const std::size_t kept =
      truncates ? static_cast<std::size_t>(item.keep) : parts.size();
  const std::size_t dropped = parts.size() - kept;

  if (item.reverse && truncates) {
    // CVE-2021-33913: the truncation branch *reassigns* the length variable
    // instead of taking the minimum, so the buffer is allocated from the
    // truncated length even though the write loop runs over more data.
    intended = joined_length(parts, dropped, kept);
    report.length_reassigned = true;
  }

  // When URL-escaping, the first pass budgets a flat 3 bytes per reserved
  // character ("we know we're going to get 4 characters anyway" [sic] —
  // 3 plus the terminating NUL). Compute that budget over the bytes the
  // first pass thinks it will write.
  std::size_t allocated = intended;
  if (item.url_escape) {
    std::size_t budget = 0;
    const std::size_t first = (item.reverse && truncates) ? dropped : 0;
    for (std::size_t i = first; i < parts.size(); ++i) {
      if (i > first) ++budget;  // separator, unreserved
      for (char ch : parts[i]) {
        budget += util::is_url_unreserved(static_cast<unsigned char>(ch)) ? 1 : 3;
      }
    }
    allocated = budget;
  }

  // --- write pass ---
  OverflowSentinel buf(allocated);
  const auto put = [&](char ch) {
    if (item.url_escape) {
      put_url_encoded(buf, ch, report.sprintf_overflow);
    } else {
      buf.put(ch);
    }
  };
  const auto put_parts = [&](std::size_t first, std::size_t count) {
    for (std::size_t i = first; i < first + count; ++i) {
      if (i > first) put('.');
      for (char ch : parts[i]) put(ch);
    }
  };

  if (item.reverse && truncates) {
    // The buggy write loop walks the *full* reversed list, but the pointer
    // bookkeeping restarts after the dropped prefix, so the dropped parts are
    // emitted and then the full list is emitted again from the start of the
    // undersized buffer region — duplicating the dropped labels in the
    // visible output (the "com.com.example" fingerprint) and writing past the
    // end of the allocation.
    put_parts(0, dropped);
    put('.');
    put_parts(0, parts.size());
  } else {
    // Non-reversing truncation takes the correct tail-slice path.
    const std::size_t first = truncates ? dropped : 0;
    put_parts(first, parts.size() - first);
  }

  report.output = buf.data();
  report.buffer_allocated = buf.allocated();
  report.buffer_written = buf.written();
  report.overflow_bytes = buf.overflow_bytes();
  return report;
}

ExpansionReport libspf2_expand(std::string_view macro_string,
                               const spf::MacroContext& ctx) {
  ExpansionReport report;
  for (const spf::MacroToken& token : spf::parse_macro_string(macro_string)) {
    if (const auto* literal = std::get_if<spf::MacroLiteral>(&token)) {
      report.output += literal->text;
      continue;
    }
    const auto& item = std::get<spf::MacroItem>(token);
    const ExpansionReport item_report =
        libspf2_expand_item(item, spf::macro_letter_value(item.letter, ctx));
    report.output += item_report.output;
    report.buffer_allocated += item_report.buffer_allocated;
    report.buffer_written += item_report.buffer_written;
    report.overflow_bytes += item_report.overflow_bytes;
    report.length_reassigned |= item_report.length_reassigned;
    report.sprintf_overflow |= item_report.sprintf_overflow;
  }
  return report;
}

std::string Libspf2Expander::expand(std::string_view macro_string,
                                    const spf::MacroContext& ctx) const {
  return libspf2_expand(macro_string, ctx).output;
}

std::string Libspf2PatchedExpander::expand(std::string_view macro_string,
                                           const spf::MacroContext& ctx) const {
  // The upstream fix makes the arithmetic correct; output equals RFC 7208.
  return spf::Rfc7208Expander{}.expand(macro_string, ctx);
}

}  // namespace spfail::spfvuln
