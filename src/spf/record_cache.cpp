#include "spf/record_cache.hpp"

#include "util/rng.hpp"

namespace spfail::spf {

SharedRecordCache::~SharedRecordCache() {
  table_.for_each(
      [](std::uint64_t, const Slot& slot) { delete slot.entry; });
}

const SharedRecordCache::Entry* SharedRecordCache::lookup(
    const std::string& text) {
  const std::uint64_t hash = util::fnv1a(text);
  for (int salt = 0; salt <= kMaxSalt; ++salt) {
    const std::uint64_t key =
        hash + static_cast<std::uint64_t>(salt) * kSaltStep;
    const Slot* slot = nullptr;
    if (table_.size() < table_.capacity() / 2) {
      const auto found = table_.find_or_insert(key, [&](Slot& fresh) {
        auto* entry = new Entry;
        entry->text = text;
        try {
          entry->record = parse_record(text);
          entry->ok = true;
        } catch (const RecordSyntaxError&) {
          entry->ok = false;
        }
        fresh.entry = entry;
      });
      if (found.inserted) {
        misses_.fetch_add(1, std::memory_order_relaxed);
        return found.payload->entry;
      }
      slot = found.payload;
    } else {
      // Past the admission bound: look, never insert. The table stays at or
      // below half load, so this probe ends at a free slot within a few
      // steps and a miss costs O(1).
      slot = table_.find(key);
      if (slot == nullptr) break;
    }
    if (slot->entry->text == text) {
      hits_.fetch_add(1, std::memory_order_relaxed);
      return slot->entry;
    }
    // A different text owns this key (64-bit collision): re-probe salted.
  }
  uncached_.fetch_add(1, std::memory_order_relaxed);
  return nullptr;
}

}  // namespace spfail::spf
