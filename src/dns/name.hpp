// DNS domain names (RFC 1035 section 3.1).
//
// A Name is one canonical presentation-form string: labels lowercased and
// joined by '.', most-specific first, no trailing dot, empty for the root.
// The SPF detection technique is entirely about *which names* arrive at the
// authoritative server, so Name is the central currency of the measurement,
// and every consumer — the wire codec, the query log, the answer caches, the
// fingerprint classifier — reads this one string instead of re-deriving it
// (DESIGN.md §14). Labels are views into it and cost no allocation.
#pragma once

#include <compare>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <iosfwd>
#include <iterator>
#include <string>
#include <string_view>
#include <utility>

namespace spfail::dns {

// A sequence of labels viewed in place: the '.'-separated pieces of a text,
// or no labels at all. An empty text can be either: the labels of ".com"
// relative to "com" are one empty label, those of "com" relative to itself
// are none.
class LabelRange {
 public:
  class iterator {
   public:
    using iterator_category = std::forward_iterator_tag;
    using value_type = std::string_view;
    using difference_type = std::ptrdiff_t;
    using pointer = const std::string_view*;
    using reference = std::string_view;

    iterator() = default;
    std::string_view operator*() const noexcept {
      return rest_.substr(0, rest_.find('.'));
    }
    iterator& operator++() noexcept {
      const std::size_t dot = rest_.find('.');
      if (dot == std::string_view::npos) {
        done_ = true;
      } else {
        rest_.remove_prefix(dot + 1);
      }
      return *this;
    }
    iterator operator++(int) noexcept {
      iterator before = *this;
      ++*this;
      return before;
    }
    friend bool operator==(const iterator& a, const iterator& b) noexcept {
      return a.done_ == b.done_ &&
             (a.done_ || a.rest_.data() == b.rest_.data());
    }

   private:
    friend class LabelRange;
    iterator(std::string_view rest, bool done) : rest_(rest), done_(done) {}
    std::string_view rest_;
    bool done_ = true;
  };

  LabelRange() = default;
  // The labels of `text`, or none when `has_labels` is false.
  LabelRange(std::string_view text, bool has_labels) noexcept
      : text_(text), has_labels_(has_labels) {}

  iterator begin() const noexcept { return {text_, !has_labels_}; }
  iterator end() const noexcept { return {}; }
  bool empty() const noexcept { return !has_labels_; }
  std::size_t size() const noexcept;
  std::string_view front() const noexcept { return *begin(); }
  std::string_view back() const noexcept {
    return text_.substr(text_.rfind('.') + 1);  // npos + 1 == 0
  }

 private:
  std::string_view text_;
  bool has_labels_ = false;
};

class QueryLog;

class Name {
 public:
  Name() = default;

  // Parse presentation format ("mail.example.com", trailing dot optional).
  // Throws std::invalid_argument for names violating RFC 1035 length limits
  // (label > 63 octets, total > 253 octets) or empty labels.
  static Name from_string(std::string_view text);

  // Like from_string but never throws: malformed names (empty or oversized
  // labels) are kept as written, lowercased, so that *observed* erroneous
  // queries (the whole point of the vulnerability fingerprint) can still be
  // represented and compared. Takes the text by value: a temporary (an
  // expansion, a decoded name) becomes the name without a copy.
  static Name lenient(std::string text);

  static Name root() { return Name{}; }

  // The canonical form itself: lowercase, no trailing dot, "" for the root.
  std::string_view text() const noexcept { return text_; }

  // Labels, most-specific first, as views into text(). Valid while *this is.
  LabelRange labels() const noexcept { return {text_, !text_.empty()}; }
  bool empty() const noexcept { return text_.empty(); }
  std::size_t label_count() const noexcept { return labels().size(); }

  // Presentation form without trailing dot; "." for the root.
  std::string to_string() const { return empty() ? "." : text_; }

  // Wire length in octets: one length octet per label plus its bytes, plus
  // the terminating root label (RFC 1035 §3.1 caps it at 255).
  std::size_t wire_length() const noexcept {
    return empty() ? 1 : text_.size() + 2;
  }

  // The name with its first (leftmost) label removed; root stays root.
  Name parent() const;

  // child("mx1") of "example.com" is "mx1.example.com". A label holding a
  // '.' becomes several labels, as it would after a wire round trip.
  Name child(std::string_view label) const;

  // True if this name equals `suffix` or ends with it ("a.b.com" under "b.com").
  bool is_subdomain_of(const Name& suffix) const noexcept;

  // Labels of *this* minus the trailing labels of `suffix`, as views into
  // text(); throws std::invalid_argument unless is_subdomain_of(suffix).
  LabelRange labels_relative_to(const Name& suffix) const;

  // The rightmost label ("com" for "mail.example.com"), empty for root.
  std::string tld() const;

  friend bool operator==(const Name& a, const Name& b) noexcept {
    return a.text_ == b.text_;
  }
  // Label-wise order (labels compared left to right), the order a label
  // vector had: "ab.c" < "ab-x.c", though '-' sorts before '.' bytewise.
  friend std::strong_ordering operator<=>(const Name& a,
                                          const Name& b) noexcept;

 private:
  // Adopts text already in canonical form. QueryLog rebuilds logged names
  // from the text() it interned.
  friend class QueryLog;
  explicit Name(std::string canonical) : text_(std::move(canonical)) {}

  std::string text_;
};

// Hashes the canonical text (unordered containers keyed on Name).
struct NameHash {
  std::size_t operator()(const Name& name) const noexcept {
    return std::hash<std::string_view>{}(name.text());
  }
};

std::ostream& operator<<(std::ostream& os, const Name& name);

}  // namespace spfail::dns
