#include "dns/name.hpp"

#include <algorithm>
#include <ostream>
#include <stdexcept>

namespace spfail::dns {

namespace {

constexpr std::size_t kMaxLabel = 63;
constexpr std::size_t kMaxName = 253;  // presentation form, no trailing dot

// ASCII lowercasing in place (names are case-insensitive in ASCII only,
// RFC 4343; other bytes pass through).
void lowercase(std::string& text) {
  for (char& c : text) {
    if (c >= 'A' && c <= 'Z') c = static_cast<char>(c - 'A' + 'a');
  }
}

}  // namespace

std::size_t LabelRange::size() const noexcept {
  if (!has_labels_) return 0;
  return static_cast<std::size_t>(std::count(text_.begin(), text_.end(), '.')) +
         1;
}

Name Name::from_string(std::string_view text) {
  if (text == "." || text.empty()) return Name{};
  if (text.back() == '.') text.remove_suffix(1);
  if (text.size() > kMaxName) {
    throw std::invalid_argument("Name: exceeds 253 octets: " +
                                std::string(text.substr(0, 64)) + "...");
  }
  for (const std::string_view label : LabelRange(text, true)) {
    if (label.empty()) {
      throw std::invalid_argument("Name: empty label in '" + std::string(text) +
                                  "'");
    }
    if (label.size() > kMaxLabel) {
      throw std::invalid_argument("Name: label exceeds 63 octets in '" +
                                  std::string(text) + "'");
    }
  }
  std::string canonical(text);
  lowercase(canonical);
  return Name(std::move(canonical));
}

Name Name::lenient(std::string text) {
  // Empty or oversized labels stay as written; these names exist to be
  // observed and compared, and the encoder refuses what the wire cannot
  // carry.
  if (!text.empty() && text.back() == '.') text.pop_back();
  lowercase(text);
  return Name(std::move(text));
}

Name Name::parent() const {
  const std::size_t dot = text_.find('.');
  if (dot == std::string::npos) return Name{};
  return Name(text_.substr(dot + 1));
}

Name Name::child(std::string_view label) const {
  std::string text;
  text.reserve(label.size() + 1 + text_.size());
  text.append(label);
  lowercase(text);
  if (!text_.empty()) {
    text.push_back('.');
    text.append(text_);
  }
  return Name(std::move(text));
}

bool Name::is_subdomain_of(const Name& suffix) const noexcept {
  const std::string_view s = suffix.text_;
  if (s.empty()) return true;
  if (text_.size() == s.size()) return text_ == s;
  return text_.size() > s.size() && text_.ends_with(s) &&
         text_[text_.size() - s.size() - 1] == '.';
}

LabelRange Name::labels_relative_to(const Name& suffix) const {
  if (!is_subdomain_of(suffix)) {
    throw std::invalid_argument("labels_relative_to: " + to_string() +
                                " is not under " + suffix.to_string());
  }
  if (suffix.empty()) return labels();
  const std::size_t prefix = text_.size() - suffix.text_.size();
  if (prefix == 0) return LabelRange{};
  return LabelRange(std::string_view(text_).substr(0, prefix - 1), true);
}

std::string Name::tld() const {
  return text_.substr(text_.rfind('.') + 1);  // npos + 1 == 0
}

std::strong_ordering operator<=>(const Name& a, const Name& b) noexcept {
  const std::string_view x = a.text_;
  const std::string_view y = b.text_;
  const auto [i, j] = std::mismatch(x.begin(), x.end(), y.begin(), y.end());
  // One text is a prefix of the other: fewer bytes is fewer or shorter
  // labels, which sort first.
  if (i == x.end() || j == y.end()) return x.size() <=> y.size();
  // A label boundary sorts before any byte, so a label that is a prefix of
  // the other's label sorts first, as std::string comparison of labels does.
  const auto rank = [](char c) {
    return c == '.' ? -1 : static_cast<int>(static_cast<unsigned char>(c));
  };
  return rank(*i) <=> rank(*j);
}

std::ostream& operator<<(std::ostream& os, const Name& name) {
  return os << name.to_string();
}

}  // namespace spfail::dns
