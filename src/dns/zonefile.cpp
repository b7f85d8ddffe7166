#include "dns/zonefile.hpp"

#include <cctype>
#include <vector>

#include "util/strings.hpp"

namespace spfail::dns {

namespace {

// Tokenise one line: whitespace-separated fields, '"' quoting for character
// strings, ';' starts a comment. A leading-whitespace marker token "" is
// prepended when the line starts with blank space (blank owner field).
std::vector<std::string> tokenize(std::string_view line, std::size_t line_no) {
  std::vector<std::string> tokens;
  std::size_t i = 0;
  if (!line.empty() && (line[0] == ' ' || line[0] == '\t')) {
    tokens.emplace_back();  // blank-owner marker
  }
  while (i < line.size()) {
    const char c = line[i];
    if (c == ' ' || c == '\t') {
      ++i;
      continue;
    }
    if (c == ';') break;  // comment
    if (c == '"') {
      const std::size_t close = line.find('"', i + 1);
      if (close == std::string_view::npos) {
        throw ZoneFileError("line " + std::to_string(line_no) +
                            ": unterminated quoted string");
      }
      tokens.emplace_back(line.substr(i + 1, close - i - 1));
      i = close + 1;
      continue;
    }
    std::size_t end = i;
    while (end < line.size() && line[end] != ' ' && line[end] != '\t' &&
           line[end] != ';') {
      ++end;
    }
    tokens.emplace_back(line.substr(i, end - i));
    i = end;
  }
  return tokens;
}

Name resolve_name(const std::string& token, const Name& origin,
                  std::size_t line_no) {
  if (token == "@") return origin;
  try {
    if (!token.empty() && token.back() == '.') {
      return Name::from_string(token);
    }
    // Relative: append the origin.
    if (origin.empty()) return Name::from_string(token);
    return Name::from_string(token + "." + origin.to_string());
  } catch (const std::invalid_argument& e) {
    throw ZoneFileError("line " + std::to_string(line_no) + ": " + e.what());
  }
}

// A decimal in [0, max]; anything else throws naming the line.
std::uint32_t parse_u32(const std::string& token, std::size_t line_no,
                        std::uint32_t max = 0xFFFFFFFFU) {
  std::uint64_t value = 0;
  if (token.empty()) {
    throw ZoneFileError("line " + std::to_string(line_no) + ": empty number");
  }
  for (char c : token) {
    if (!std::isdigit(static_cast<unsigned char>(c))) {
      throw ZoneFileError("line " + std::to_string(line_no) +
                          ": malformed number '" + token + "'");
    }
    value = value * 10 + static_cast<std::uint64_t>(c - '0');
    if (value > max) {
      throw ZoneFileError("line " + std::to_string(line_no) +
                          ": number out of range");
    }
  }
  return static_cast<std::uint32_t>(value);
}

}  // namespace

Zone parse_zone_text(std::string_view text, const Name& default_origin) {
  Name origin = default_origin;
  std::uint32_t default_ttl = 300;
  Zone zone(default_origin);
  Name previous_owner = default_origin;

  std::size_t line_no = 0;
  for (const auto& raw_line : util::split(text, '\n')) {
    ++line_no;
    auto tokens = tokenize(raw_line, line_no);
    if (tokens.empty()) continue;

    // Directives.
    if (tokens[0] == "$ORIGIN") {
      if (tokens.size() != 2) {
        throw ZoneFileError("line " + std::to_string(line_no) +
                            ": $ORIGIN needs one argument");
      }
      origin = resolve_name(tokens[1], Name::root(), line_no);
      continue;
    }
    if (tokens[0] == "$TTL") {
      if (tokens.size() != 2) {
        throw ZoneFileError("line " + std::to_string(line_no) +
                            ": $TTL needs one argument");
      }
      default_ttl = parse_u32(tokens[1], line_no);
      continue;
    }

    // Owner (blank marker means "reuse previous").
    std::size_t field = 0;
    Name owner;
    if (tokens[0].empty()) {
      owner = previous_owner;
      field = 1;
    } else {
      owner = resolve_name(tokens[field++], origin, line_no);
      previous_owner = owner;
    }

    // Optional TTL and/or class, in either order.
    std::uint32_t ttl = default_ttl;
    while (field < tokens.size()) {
      const std::string& token = tokens[field];
      if (token == "IN") {
        ++field;
        continue;
      }
      if (!token.empty() &&
          std::isdigit(static_cast<unsigned char>(token[0]))) {
        ttl = parse_u32(token, line_no);
        ++field;
        continue;
      }
      break;
    }
    if (field >= tokens.size()) {
      throw ZoneFileError("line " + std::to_string(line_no) +
                          ": missing record type");
    }
    const std::string type = util::to_lower(tokens[field++]);
    const auto need = [&](std::size_t n) {
      if (tokens.size() - field < n) {
        throw ZoneFileError("line " + std::to_string(line_no) +
                            ": not enough rdata fields for " + type);
      }
    };

    ResourceRecord record;
    record.name = owner;
    record.ttl = ttl;
    if (type == "a") {
      need(1);
      const auto ip = util::IpAddress::parse(tokens[field]);
      if (!ip.has_value() || !ip->is_v4()) {
        throw ZoneFileError("line " + std::to_string(line_no) +
                            ": bad A address");
      }
      record.type = RRType::A;
      record.rdata = ARdata{*ip};
    } else if (type == "aaaa") {
      need(1);
      const auto ip = util::IpAddress::parse(tokens[field]);
      if (!ip.has_value() || !ip->is_v6()) {
        throw ZoneFileError("line " + std::to_string(line_no) +
                            ": bad AAAA address");
      }
      record.type = RRType::AAAA;
      record.rdata = AaaaRdata{*ip};
    } else if (type == "mx") {
      need(2);
      MxRdata mx;
      mx.preference = static_cast<std::uint16_t>(
          parse_u32(tokens[field], line_no, 0xFFFF));
      mx.exchange = resolve_name(tokens[field + 1], origin, line_no);
      record.type = RRType::MX;
      record.rdata = mx;
    } else if (type == "txt") {
      need(1);
      TxtRdata txt;
      for (std::size_t i = field; i < tokens.size(); ++i) {
        txt.strings.push_back(tokens[i]);
      }
      record.type = RRType::TXT;
      record.rdata = txt;
    } else if (type == "cname") {
      need(1);
      record.type = RRType::CNAME;
      record.rdata = CnameRdata{resolve_name(tokens[field], origin, line_no)};
    } else if (type == "ns") {
      need(1);
      record.type = RRType::NS;
      record.rdata = NsRdata{resolve_name(tokens[field], origin, line_no)};
    } else if (type == "ptr") {
      need(1);
      record.type = RRType::PTR;
      record.rdata = PtrRdata{resolve_name(tokens[field], origin, line_no)};
    } else if (type == "soa") {
      need(7);
      SoaRdata soa;
      soa.mname = resolve_name(tokens[field], origin, line_no);
      soa.rname = resolve_name(tokens[field + 1], origin, line_no);
      soa.serial = parse_u32(tokens[field + 2], line_no);
      soa.refresh = parse_u32(tokens[field + 3], line_no);
      soa.retry = parse_u32(tokens[field + 4], line_no);
      soa.expire = parse_u32(tokens[field + 5], line_no);
      soa.minimum = parse_u32(tokens[field + 6], line_no);
      record.type = RRType::SOA;
      record.rdata = soa;
    } else {
      throw ZoneFileError("line " + std::to_string(line_no) +
                          ": unsupported record type '" + type + "'");
    }

    try {
      zone.add(std::move(record));
    } catch (const std::invalid_argument& e) {
      throw ZoneFileError("line " + std::to_string(line_no) + ": " + e.what());
    }
  }
  return zone;
}

}  // namespace spfail::dns
