#include "util/intern.hpp"

#include <algorithm>

#include "util/rng.hpp"

namespace spfail::util {

std::string_view Interner::append(std::string_view text) {
  if (chunks_.empty() || chunks_.back().size() + text.size() > kChunkBytes) {
    std::string chunk;
    chunk.reserve(std::max(kChunkBytes, text.size()));
    chunks_.push_back(std::move(chunk));
  }
  std::string& chunk = chunks_.back();
  const std::uint32_t offset = static_cast<std::uint32_t>(chunk.size());
  chunk.append(text);
  entries_.push_back(Entry{static_cast<std::uint32_t>(chunks_.size() - 1),
                           offset, static_cast<std::uint32_t>(text.size())});
  distinct_bytes_ += text.size();
  return std::string_view(chunk.data() + offset, text.size());
}

void Interner::rehash(std::size_t buckets) {
  table_.assign(buckets, kInvalidSymbol);
  for (Symbol id = 0; id < entries_.size(); ++id) {
    std::size_t slot = fnv1a(view(id)) & (buckets - 1);
    while (table_[slot] != kInvalidSymbol) slot = (slot + 1) & (buckets - 1);
    table_[slot] = id;
  }
}

Symbol Interner::lookup(std::string_view text, std::uint64_t hash) const {
  if (table_.empty()) return kInvalidSymbol;
  const std::size_t mask = table_.size() - 1;
  std::size_t slot = hash & mask;
  while (table_[slot] != kInvalidSymbol) {
    if (view(table_[slot]) == text) return table_[slot];
    slot = (slot + 1) & mask;
  }
  return kInvalidSymbol;
}

Symbol Interner::intern(std::string_view text) {
  const std::uint64_t hash = fnv1a(text);
  const Symbol existing = lookup(text, hash);
  if (existing != kInvalidSymbol) {
    ++hits_;
    return existing;
  }
  ++misses_;
  // Grow at 70% load so probe chains stay short.
  if (table_.empty() || (entries_.size() + 1) * 10 >= table_.size() * 7) {
    rehash(table_.empty() ? 64 : table_.size() * 2);
  }
  const Symbol id = static_cast<Symbol>(entries_.size());
  append(text);
  const std::size_t mask = table_.size() - 1;
  std::size_t slot = hash & mask;
  while (table_[slot] != kInvalidSymbol) slot = (slot + 1) & mask;
  table_[slot] = id;
  return id;
}

Symbol Interner::find(std::string_view text) const {
  return lookup(text, fnv1a(text));
}

std::vector<Symbol> Interner::merge(const Interner& other) {
  std::vector<Symbol> remap;
  remap.reserve(other.size());
  for (Symbol id = 0; id < other.size(); ++id) {
    remap.push_back(intern(other.view(id)));
  }
  return remap;
}

std::uint64_t Interner::digest() const {
  std::uint64_t h = fnv1a({});
  for (Symbol id = 0; id < entries_.size(); ++id) {
    const std::string_view text = view(id);
    char length[4];
    for (std::size_t i = 0; i < 4; ++i) {
      length[i] = static_cast<char>((text.size() >> (8 * i)) & 0xFF);
    }
    h = fnv1a(text, fnv1a(std::string_view(length, 4), h));
  }
  return h;
}

bool operator==(const Interner& a, const Interner& b) {
  if (a.size() != b.size()) return false;
  for (Symbol id = 0; id < a.size(); ++id) {
    if (a.view(id) != b.view(id)) return false;
  }
  return true;
}

}  // namespace spfail::util
