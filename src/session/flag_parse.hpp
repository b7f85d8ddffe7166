// Strict full-string value parsers shared by every table-driven flag
// surface (session/flag_registry.cpp for ScanConfig, svc/ for the scan
// service): empty input, trailing garbage, and range errors all throw a
// ScanConfigError naming the offending flag — no silent atof/atoi coercion
// to 0. Kept header-only so a registry table's apply lambdas can call them
// without an extra translation unit.
#pragma once

#include <cerrno>
#include <climits>
#include <cstdint>
#include <cstdlib>
#include <string>
#include <string_view>

#include "session/scan_config.hpp"

namespace spfail::session {

[[noreturn]] inline void reject_value(std::string_view what,
                                      std::string_view text,
                                      const char* wanted) {
  throw ScanConfigError(std::string(what) + " expects " + wanted + ", got '" +
                        std::string(text) + "'");
}

inline double parse_double(std::string_view what, const char* text) {
  char* end = nullptr;
  errno = 0;
  const double v = std::strtod(text, &end);
  if (end == text || *end != '\0' || errno == ERANGE) {
    reject_value(what, text, "a number");
  }
  return v;
}

inline int parse_int(std::string_view what, const char* text) {
  char* end = nullptr;
  errno = 0;
  const long v = std::strtol(text, &end, 10);
  if (end == text || *end != '\0' || errno == ERANGE ||
      v < static_cast<long>(INT_MIN) || v > static_cast<long>(INT_MAX)) {
    reject_value(what, text, "an integer");
  }
  return static_cast<int>(v);
}

// strtoull skips leading blanks and negates a '-', so " -1" would wrap to
// 2^64 - 1: the text must start with a digit.
inline std::uint64_t parse_u64(std::string_view what, const char* text) {
  char* end = nullptr;
  errno = 0;
  if (*text < '0' || *text > '9') {
    reject_value(what, text, "a non-negative integer");
  }
  const unsigned long long v = std::strtoull(text, &end, 10);
  if (*end != '\0' || errno == ERANGE) {
    reject_value(what, text, "a non-negative integer");
  }
  return static_cast<std::uint64_t>(v);
}

inline bool parse_bool(std::string_view what, const char* text) {
  const std::string_view v = text;
  if (v == "1" || v == "true") return true;
  if (v == "0" || v == "false" || v.empty()) return false;
  reject_value(what, v, "0/1/true/false");
}

// A switch given on the CLI carries no text (present = on); the same switch
// from the environment carries 0/1/true/false.
inline bool switch_on(std::string_view what, const char* text) {
  return text == nullptr ? true : parse_bool(what, text);
}

}  // namespace spfail::session
