// Lock-free open-addressed hash table for shared scan state (DESIGN.md §16).
//
// Modeled on ltsmin's dbs-ll.c / clt_table.c pattern (cited in ROADMAP item
// 1): a fixed-capacity power-of-two slot array, linear probing, and slots
// published with a compare-and-swap — no locks, no resizing, no deletion.
// Concurrent readers and writers never block each other; a full table raises
// TableFullError instead of growing (growth would invalidate concurrent
// probes), so callers size the table from a known upper bound up front and
// treat exhaustion as a programming error or fall back to a serial path.
//
// Memory model (the §16 determinism argument leans on these two points):
//   * A slot is claimed by CAS-ing its state byte Free -> Busy (acquire/
//     release). The winner writes the 64-bit key and default-constructed
//     payload are already in place (constructed at table build time); it may
//     further initialise the payload via the find_or_insert callback, then
//     publishes with state.store(Ready, release).
//   * Readers spin state.load(acquire) until Ready, so every byte the
//     inserter wrote before the release-store — key and payload initial
//     values — is visible. All *subsequent* payload mutation must go through
//     the payload's own std::atomic members (fetch_add counters, CAS-min
//     claims); the table publishes the slot once and never touches the
//     payload again.
//
// Keys are arbitrary u64s (callers typically use util::fnv1a). Any key value
// is legal, including 0 and ~0 — slot occupancy lives in the state byte, not
// in a reserved key sentinel. Callers whose logical keys are wider than 64 bits (interned strings,
// IPv6 addresses) must verify the full value after a hit and re-probe under a
// salted key on mismatch; spf::SharedRecordCache::lookup is the pattern.
#pragma once

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>

namespace spfail::util {

// The table refused an insert because every probeable slot is taken. Fixed
// capacity is a feature (growth under concurrency is what the lock protects
// against in the mutex design); hitting this means the caller's sizing bound
// was wrong.
class TableFullError : public std::runtime_error {
 public:
  explicit TableFullError(const std::string& what)
      : std::runtime_error("concurrent table: " + what) {}
};

// Payload requirements: default-constructible; all post-publication mutation
// through its own atomic members. The table never copies or moves payloads.
template <typename Payload>
class ConcurrentTable {
 public:
  // Capacity is rounded up to a power of two and doubled so the load factor
  // stays at or below 1/2 for the advertised `expected` entries — linear
  // probing degrades sharply past that.
  explicit ConcurrentTable(std::size_t expected)
      : mask_(std::bit_ceil(std::max<std::size_t>(16, expected * 2)) - 1),
        slots_(std::make_unique<Slot[]>(mask_ + 1)) {}

  ConcurrentTable(const ConcurrentTable&) = delete;
  ConcurrentTable& operator=(const ConcurrentTable&) = delete;

  std::size_t capacity() const noexcept { return mask_ + 1; }
  std::size_t size() const noexcept {
    return size_.load(std::memory_order_acquire);
  }

  struct FindOrInsert {
    Payload* payload = nullptr;
    bool inserted = false;
  };

  // Finds the slot for `key`, claiming a fresh one if absent. When this call
  // claims the slot, `init` runs on the payload *before* the slot becomes
  // visible to any other thread — the one race-free window for non-atomic
  // payload setup. Concurrent callers with the same key converge on one
  // slot; exactly one of them observes inserted == true.
  template <typename Init>
  FindOrInsert find_or_insert(std::uint64_t key, Init&& init) {
    const std::size_t start = static_cast<std::size_t>(mix(key)) & mask_;
    for (std::size_t probe = 0; probe <= mask_; ++probe) {
      Slot& slot = slots_[(start + probe) & mask_];
      std::uint8_t state = slot.state.load(std::memory_order_acquire);
      if (state == kFree) {
        std::uint8_t expected = kFree;
        if (slot.state.compare_exchange_strong(expected, kBusy,
                                               std::memory_order_acq_rel,
                                               std::memory_order_acquire)) {
          slot.key = key;
          init(slot.payload);
          slot.state.store(kReady, std::memory_order_release);
          size_.fetch_add(1, std::memory_order_acq_rel);
          return {&slot.payload, true};
        }
        state = expected;  // lost the claim race; fall through to inspect
      }
      // Busy: another thread is mid-publish. Its key is not readable yet, so
      // spin this slot until it settles — the publish window is a handful of
      // stores, never a syscall.
      while (state == kBusy) {
        state = slot.state.load(std::memory_order_acquire);
      }
      if (slot.key == key) return {&slot.payload, false};
    }
    throw TableFullError("insert into a full table (capacity " +
                         std::to_string(capacity()) + ")");
  }

  FindOrInsert find_or_insert(std::uint64_t key) {
    return find_or_insert(key, [](Payload&) {});
  }

  // The payload for `key`, or nullptr when absent. Waits out in-flight
  // publishes on probed slots, so a find that races an insert of the same
  // key returns either nullptr or the fully published payload — never a
  // half-written one.
  Payload* find(std::uint64_t key) const {
    const std::size_t start = static_cast<std::size_t>(mix(key)) & mask_;
    for (std::size_t probe = 0; probe <= mask_; ++probe) {
      Slot& slot = slots_[(start + probe) & mask_];
      std::uint8_t state = slot.state.load(std::memory_order_acquire);
      if (state == kFree) return nullptr;
      while (state == kBusy) {
        state = slot.state.load(std::memory_order_acquire);
      }
      if (slot.key == key) return &slot.payload;
    }
    return nullptr;
  }

  // Quiescent iteration over every published entry, in unspecified (slot)
  // order. Callers needing deterministic output must impose their own order
  // on what `fn` collects — the scan core sorts by address or accumulates
  // order-free sums. Safe concurrently with inserts (an entry published
  // before the call is visited; one racing in may or may not be), but the
  // deterministic callers only run it after a join barrier.
  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (std::size_t i = 0; i <= mask_; ++i) {
      const Slot& slot = slots_[i];
      if (slot.state.load(std::memory_order_acquire) == kReady) {
        fn(slot.key, slot.payload);
      }
    }
  }

 private:
  static constexpr std::uint8_t kFree = 0;
  static constexpr std::uint8_t kBusy = 1;
  static constexpr std::uint8_t kReady = 2;

  struct Slot {
    std::atomic<std::uint8_t> state{kFree};
    std::uint64_t key = 0;  // published by state's release-store
    mutable Payload payload{};
  };

  // Final avalanche of splitmix64: callers hand in fnv1a hashes whose low
  // bits are already good, but exact u64 keys (the /24 provider groups) are
  // sequential — mix them so linear probing sees a uniform start slot.
  static constexpr std::uint64_t mix(std::uint64_t x) noexcept {
    x ^= x >> 30;
    x *= 0xbf58476d1ce4e5b9ULL;
    x ^= x >> 27;
    x *= 0x94d049bb133111ebULL;
    x ^= x >> 31;
    return x;
  }

  std::size_t mask_;
  std::unique_ptr<Slot[]> slots_;
  std::atomic<std::size_t> size_{0};
};

}  // namespace spfail::util
