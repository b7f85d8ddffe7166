#include "util/intern.hpp"

#include <algorithm>

namespace spfail::util {

namespace {

std::uint64_t fnv1a(std::string_view text) {
  std::uint64_t h = 1469598103934665603ULL;
  for (const char c : text) {
    h ^= static_cast<std::uint8_t>(c);
    h *= 1099511628211ULL;
  }
  return h;
}

}  // namespace

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

void Interner::encode(snapshot::Writer& w) const {
  snapshot::Writer body;
  body.u32(static_cast<std::uint32_t>(entries_.size()));
  for (Symbol id = 0; id < entries_.size(); ++id) body.str(view(id));
  w.u32(static_cast<std::uint32_t>(body.bytes().size()));
  w.u64(fnv1a(body.bytes()));
  for (const char c : body.bytes()) w.u8(static_cast<std::uint8_t>(c));
}

Interner Interner::decode(snapshot::Reader& r) {
  const std::uint32_t length = r.u32();
  const std::uint64_t checksum = r.u64();
  // The length is outside input: bound it by the bytes present before
  // reserving for it.
  if (length > r.remaining()) {
    throw snapshot::SnapshotError("intern table body is truncated");
  }
  std::string body;
  body.reserve(length);
  for (std::uint32_t i = 0; i < length; ++i) {
    body.push_back(static_cast<char>(r.u8()));
  }
  if (fnv1a(body) != checksum) {
    throw snapshot::SnapshotError("intern table checksum mismatch");
  }
  snapshot::Reader body_reader(body);
  const std::uint32_t count = body_reader.u32();
  Interner interner;
  for (std::uint32_t i = 0; i < count; ++i) {
    interner.intern(body_reader.str());
  }
  body_reader.expect_done();
  if (interner.size() != count) {
    throw snapshot::SnapshotError("intern table carries duplicate strings");
  }
  return interner;
}

Symbol SyncInterner::intern(std::string_view text) {
  const std::uint64_t hash = fnv1a(text);
  for (int salt = 0; salt <= kMaxSalt; ++salt) {
    const std::uint64_t key =
        hash + static_cast<std::uint64_t>(salt) * kSaltStep;
    const auto found = table_.find_or_insert(key, [&](Slot& slot) {
      // Pre-publication window: allocate the symbol, publish its string,
      // and record the symbol in the slot. All of it becomes visible to
      // losers via the table's release-store of Ready.
      const std::uint32_t id =
          next_symbol_.fetch_add(1, std::memory_order_acq_rel);
      strings_[id].store(new std::string(text), std::memory_order_release);
      slot.symbol = id;
    });
    const std::uint32_t id = found.payload->symbol;
    if (found.inserted || view(id) == text) return id;
    // A different string owns this key — a true 64-bit fnv1a collision.
    // Re-probe under the next salted key.
  }
  throw TableFullError("intern salt chain exhausted for '" +
                       std::string(text) + "'");
}

bool operator==(const Interner& a, const Interner& b) {
  if (a.size() != b.size()) return false;
  for (Symbol id = 0; id < a.size(); ++id) {
    if (a.view(id) != b.view(id)) return false;
  }
  return true;
}

}  // namespace spfail::util
