// The measurement instrument: a log of every query that reached the
// authoritative server, annotated with arrival time and querying endpoint.
//
// The SPFail detection technique classifies an MTA purely from the names it
// queries under the test domain, so everything downstream (scan::Classifier,
// the behaviour census in Table 7) reads this log.
//
// Storage is compact (DESIGN.md §14): qnames repeat heavily — every retry,
// every ladder rung, every suite re-fetch asks for the same handful of names
// — so each entry stores a u32 Symbol into a per-log Interner holding the
// name's canonical text instead of an owned name. Entries become full
// QueryLogEntry values only when a consumer actually looks at them; the
// per-test verdict loop in scan::Prober filters by interned text first and
// materialises only the few entries under its unique label.
#pragma once

#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "dns/message.hpp"
#include "util/clock.hpp"
#include "util/intern.hpp"
#include "util/ip.hpp"

namespace spfail::dns {

// The materialised view of one logged query. Consumers see this exact shape;
// it is built on demand from the compact stored form.
struct QueryLogEntry {
  util::SimTime time = 0;
  util::IpAddress client;
  Name qname;
  RRType qtype = RRType::A;
};

class QueryLog {
 public:
  void record(QueryLogEntry entry) {
    entries_.push_back(Compact{entry.time, entry.client,
                               names_.intern(entry.qname.text()),
                               entry.qtype});
  }

  // Materialises every entry. Callers that index repeatedly should take the
  // vector once; the reference-returning accessor is gone on purpose.
  std::vector<QueryLogEntry> entries() const;

  std::size_t size() const noexcept { return entries_.size(); }
  void clear() {
    entries_.clear();
    names_ = util::Interner();
  }

  // The qname intern table; its hit count is the number of deduplicated
  // qname copies this log avoided storing.
  const util::Interner& names() const noexcept { return names_; }

  // All entries whose qname falls under `suffix` (the scan module filters by
  // its per-test unique label this way).
  std::vector<QueryLogEntry> under(const Name& suffix) const;

  // Entries matching an arbitrary predicate.
  std::vector<QueryLogEntry> matching(
      const std::function<bool(const QueryLogEntry&)>& pred) const;

  // Non-allocating visitor over entries under `suffix`, optionally starting
  // at `first` (a cursor previously read from size()). Matching is a text
  // suffix check on the interned canonical form — equivalent to
  // Name::is_subdomain_of, but only matching entries are materialised.
  template <typename Fn>
  void for_each_under(const Name& suffix, Fn&& fn) const {
    for_each_under_from(0, suffix, std::forward<Fn>(fn));
  }

  template <typename Fn>
  void for_each_under_from(std::size_t first, const Name& suffix,
                           Fn&& fn) const {
    const std::string_view suffix_text = suffix.text();
    for (std::size_t i = first; i < entries_.size(); ++i) {
      if (text_under(names_.view(entries_[i].qname), suffix_text)) {
        fn(materialise(entries_[i]));
      }
    }
  }

  // Move every entry of `other` to the end of this log (the sharded scan
  // drains worker-lane logs back into the authoritative one in shard-index
  // order; the intern merge follows the same discipline). Amortised
  // O(other.size()): the cost never depends on how large this log already
  // is. `other` is left empty and reusable.
  void splice(QueryLog&& other);

 private:
  struct Compact {
    util::SimTime time = 0;
    util::IpAddress client;
    util::Symbol qname = util::kInvalidSymbol;
    RRType qtype = RRType::A;
  };

  // Canonical-text equivalent of qname.is_subdomain_of(suffix): equal, or
  // ends with "." + suffix. The root suffix "" matches every name.
  static bool text_under(std::string_view name, std::string_view suffix_text) {
    if (suffix_text.empty()) return true;
    if (name == suffix_text) return true;
    return name.size() > suffix_text.size() && name.ends_with(suffix_text) &&
           name[name.size() - suffix_text.size() - 1] == '.';
  }

  // The interned text is a Name's canonical form already.
  QueryLogEntry materialise(const Compact& e) const {
    return QueryLogEntry{e.time, e.client,
                         Name(std::string(names_.view(e.qname))), e.qtype};
  }

  std::vector<Compact> entries_;
  util::Interner names_;
};

}  // namespace spfail::dns
