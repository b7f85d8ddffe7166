#include "dmarc/record.hpp"

#include <cctype>

#include "util/strings.hpp"

namespace spfail::dmarc {

std::string to_string(Policy policy) {
  switch (policy) {
    case Policy::None:
      return "none";
    case Policy::Quarantine:
      return "quarantine";
    case Policy::Reject:
      return "reject";
  }
  return "?";
}

std::string to_string(Alignment alignment) {
  return alignment == Alignment::Strict ? "s" : "r";
}

bool looks_like_dmarc(std::string_view txt) {
  const std::string_view trimmed = util::trim(txt);
  if (!trimmed.starts_with("v=DMARC1")) return false;
  const std::string_view rest = trimmed.substr(8);
  return rest.empty() || rest.front() == ';' || rest.front() == ' ';
}

Policy parse_policy(std::string_view text) {
  if (util::iequals(text, "none")) return Policy::None;
  if (util::iequals(text, "quarantine")) return Policy::Quarantine;
  if (util::iequals(text, "reject")) return Policy::Reject;
  throw RecordSyntaxError("invalid policy value '" + std::string(text) + "'");
}

Alignment parse_alignment(std::string_view text) {
  if (util::iequals(text, "r")) return Alignment::Relaxed;
  if (util::iequals(text, "s")) return Alignment::Strict;
  throw RecordSyntaxError("invalid alignment value '" + std::string(text) +
                          "'");
}

Record parse_record(std::string_view txt) {
  if (!looks_like_dmarc(txt)) {
    throw RecordSyntaxError("record does not start with 'v=DMARC1'");
  }
  Record record;
  bool saw_p = false;

  // Tag-value pairs separated by ';'; the version tag is the first.
  const auto tags = util::split(txt, ';');
  for (std::size_t i = 1; i < tags.size(); ++i) {
    const std::string_view tag = util::trim(tags[i]);
    if (tag.empty()) continue;
    const std::size_t eq = tag.find('=');
    if (eq == std::string_view::npos) {
      throw RecordSyntaxError("malformed tag '" + std::string(tag) + "'");
    }
    const std::string name = util::to_lower(util::trim(tag.substr(0, eq)));
    const std::string_view value = util::trim(tag.substr(eq + 1));

    if (name == "p") {
      record.policy = parse_policy(value);
      saw_p = true;
    } else if (name == "sp") {
      record.subdomain_policy = parse_policy(value);
    } else if (name == "aspf") {
      record.spf_alignment = parse_alignment(value);
    } else if (name == "adkim") {
      record.dkim_alignment = parse_alignment(value);
    } else if (name == "pct") {
      // RFC 7489 §6.4: pct = 1*3DIGIT.
      if (value.empty() || value.size() > 3) {
        throw RecordSyntaxError("malformed pct value");
      }
      int pct = 0;
      for (char c : value) {
        if (!std::isdigit(static_cast<unsigned char>(c))) {
          throw RecordSyntaxError("malformed pct value");
        }
        pct = pct * 10 + (c - '0');
      }
      if (pct > 100) throw RecordSyntaxError("pct value out of range");
      record.percent = pct;
    } else if (name == "rua") {
      record.rua = std::string(value);
    } else if (name == "ruf") {
      record.ruf = std::string(value);
    }
    // Unknown tags MUST be ignored (RFC 7489 section 6.3).
  }
  if (!saw_p) {
    throw RecordSyntaxError("required tag 'p' missing");
  }
  return record;
}

std::string to_text(const Record& record) {
  std::string out = "v=DMARC1; p=" + to_string(record.policy);
  if (record.subdomain_policy.has_value()) {
    out += "; sp=" + to_string(*record.subdomain_policy);
  }
  if (record.spf_alignment != Alignment::Relaxed) {
    out += "; aspf=" + to_string(record.spf_alignment);
  }
  if (record.dkim_alignment != Alignment::Relaxed) {
    out += "; adkim=" + to_string(record.dkim_alignment);
  }
  if (record.percent != 100) out += "; pct=" + std::to_string(record.percent);
  if (!record.rua.empty()) out += "; rua=" + record.rua;
  if (!record.ruf.empty()) out += "; ruf=" + record.ruf;
  return out;
}

}  // namespace spfail::dmarc
