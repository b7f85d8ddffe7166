#include "dns/query_log.hpp"

namespace spfail::dns {

std::vector<QueryLogEntry> QueryLog::entries() const {
  std::vector<QueryLogEntry> out;
  out.reserve(entries_.size());
  for (const Compact& e : entries_) out.push_back(materialise(e));
  return out;
}

std::vector<QueryLogEntry> QueryLog::under(const Name& suffix) const {
  std::vector<QueryLogEntry> out;
  for_each_under(suffix, [&out](QueryLogEntry e) { out.push_back(std::move(e)); });
  return out;
}

void QueryLog::splice(QueryLog&& other) {
  const std::vector<util::Symbol> remap = names_.merge(other.names_);
  // No reserve(size() + other.size()): an exact-size reserve defeats the
  // vector's geometric growth, so every splice would copy the whole log.
  for (const Compact& e : other.entries_) {
    entries_.push_back(Compact{e.time, e.client, remap[e.qname], e.qtype});
  }
  other.entries_.clear();
  other.names_ = util::Interner();
}

std::vector<QueryLogEntry> QueryLog::matching(
    const std::function<bool(const QueryLogEntry&)>& pred) const {
  std::vector<QueryLogEntry> out;
  for (const Compact& e : entries_) {
    QueryLogEntry full = materialise(e);
    if (pred(full)) out.push_back(std::move(full));
  }
  return out;
}

}  // namespace spfail::dns
