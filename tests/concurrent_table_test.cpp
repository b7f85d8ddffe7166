// util::ConcurrentTable (DESIGN.md §16): CAS-published slots, fixed
// capacity, and the invariants the lock-free scan state leans on — insert
// exactly once under races, growth refusal instead of rehashing, and
// order-free iteration whose merged result is invariant to insertion order.
// The whole file re-runs under TSan via the tsan_lockfree ctest entry.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "spf/record_cache.hpp"
#include "util/concurrent_table.hpp"

namespace spfail {
namespace {

struct Counter {
  std::atomic<std::uint64_t> value{0};
};

TEST(ConcurrentTable, InsertThenFindRoundTrips) {
  util::ConcurrentTable<Counter> table(8);
  EXPECT_EQ(table.size(), 0u);
  EXPECT_EQ(table.find(7), nullptr);

  const auto first = table.find_or_insert(7);
  ASSERT_NE(first.payload, nullptr);
  EXPECT_TRUE(first.inserted);
  first.payload->value.store(99);

  const auto again = table.find_or_insert(7);
  EXPECT_FALSE(again.inserted);
  EXPECT_EQ(again.payload, first.payload);

  Counter* found = table.find(7);
  ASSERT_NE(found, nullptr);
  EXPECT_EQ(found->value.load(), 99u);
  EXPECT_EQ(table.size(), 1u);
}

TEST(ConcurrentTable, ZeroAndAllOnesAreOrdinaryKeys) {
  // Occupancy lives in the state byte, not a reserved key value — the
  // per-/24 provider groups legitimately hash to 0.
  util::ConcurrentTable<Counter> table(8);
  EXPECT_TRUE(table.find_or_insert(0).inserted);
  EXPECT_TRUE(table.find_or_insert(~0ULL).inserted);
  EXPECT_FALSE(table.find_or_insert(0).inserted);
  EXPECT_NE(table.find(0), nullptr);
  EXPECT_NE(table.find(~0ULL), nullptr);
  EXPECT_EQ(table.size(), 2u);
}

TEST(ConcurrentTable, InitRunsOnlyForTheInsertingCall) {
  util::ConcurrentTable<Counter> table(8);
  int init_calls = 0;
  const auto init = [&](Counter& c) {
    ++init_calls;
    c.value.store(5);
  };
  table.find_or_insert(3, init);
  table.find_or_insert(3, init);
  table.find_or_insert(3, init);
  EXPECT_EQ(init_calls, 1);
  EXPECT_EQ(table.find(3)->value.load(), 5u);
}

TEST(ConcurrentTable, RefusesToGrowWhenFull) {
  // expected=1 rounds up to capacity 16; the 17th distinct key must throw
  // instead of rehashing (growth would invalidate concurrent probes).
  util::ConcurrentTable<Counter> table(1);
  ASSERT_EQ(table.capacity(), 16u);
  for (std::uint64_t k = 0; k < 16; ++k) {
    EXPECT_TRUE(table.find_or_insert(k).inserted);
  }
  EXPECT_EQ(table.size(), 16u);
  EXPECT_THROW(table.find_or_insert(16), util::TableFullError);
  // Existing entries stay reachable after the refusal.
  EXPECT_FALSE(table.find_or_insert(11).inserted);
  EXPECT_NE(table.find(11), nullptr);
}

TEST(ConcurrentTable, ConcurrentInsertsConvergeOnOneSlotPerKey) {
  // Many threads race find_or_insert over a small shared key set: per key,
  // exactly one call observes inserted == true, and every call lands on the
  // same payload (counted via post-publication fetch_add).
  constexpr int kThreads = 8;
  constexpr std::uint64_t kKeys = 64;
  constexpr int kRepeats = 200;
  util::ConcurrentTable<Counter> table(kKeys);
  std::atomic<int> inserted_total{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int r = 0; r < kRepeats; ++r) {
        const std::uint64_t key =
            static_cast<std::uint64_t>((t * kRepeats + r)) % kKeys;
        const auto result = table.find_or_insert(key);
        if (result.inserted) inserted_total.fetch_add(1);
        result.payload->value.fetch_add(1);
      }
    });
  }
  for (auto& thread : threads) thread.join();

  EXPECT_EQ(inserted_total.load(), static_cast<int>(kKeys));
  EXPECT_EQ(table.size(), kKeys);
  std::uint64_t touches = 0;
  table.for_each([&](std::uint64_t, const Counter& c) {
    touches += c.value.load();
  });
  EXPECT_EQ(touches, static_cast<std::uint64_t>(kThreads) * kRepeats);
}

TEST(ConcurrentTable, FindRacingInsertSeesFullPayloadOrNothing) {
  // A reader hammering find() while writers publish must only ever observe
  // the post-init payload value — never the default-constructed zero of a
  // half-published slot.
  constexpr std::uint64_t kKeys = 256;
  util::ConcurrentTable<Counter> table(kKeys);
  std::atomic<bool> stop{false};
  std::atomic<int> torn_reads{0};
  std::thread reader([&] {
    while (!stop.load()) {
      for (std::uint64_t k = 0; k < kKeys; ++k) {
        const Counter* c = table.find(k);
        if (c != nullptr && c->value.load() != k + 1) torn_reads.fetch_add(1);
      }
    }
  });
  std::vector<std::thread> writers;
  for (int t = 0; t < 4; ++t) {
    writers.emplace_back([&, t] {
      for (std::uint64_t k = t; k < kKeys; k += 4) {
        table.find_or_insert(k, [&](Counter& c) { c.value.store(k + 1); });
      }
    });
  }
  for (auto& w : writers) w.join();
  stop.store(true);
  reader.join();
  EXPECT_EQ(torn_reads.load(), 0);
  EXPECT_EQ(table.size(), kKeys);
}

TEST(ConcurrentTable, MergedResultInvariantToInsertionOrder) {
  // The scan core's determinism trick: for_each order is unspecified, so
  // callers sort or sum what it yields. Two tables filled in opposite orders
  // (and one filled concurrently) must merge to the same map.
  constexpr std::uint64_t kKeys = 128;
  const auto merged = [](const util::ConcurrentTable<Counter>& table) {
    std::map<std::uint64_t, std::uint64_t> out;
    table.for_each([&](std::uint64_t key, const Counter& c) {
      out[key] = c.value.load();
    });
    return out;
  };

  util::ConcurrentTable<Counter> forward(kKeys);
  for (std::uint64_t k = 0; k < kKeys; ++k) {
    forward.find_or_insert(k, [&](Counter& c) { c.value.store(k * 3); });
  }
  util::ConcurrentTable<Counter> backward(kKeys);
  for (std::uint64_t k = kKeys; k-- > 0;) {
    backward.find_or_insert(k, [&](Counter& c) { c.value.store(k * 3); });
  }
  util::ConcurrentTable<Counter> racing(kKeys);
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      for (std::uint64_t k = t; k < kKeys; k += 4) {
        racing.find_or_insert(k, [&](Counter& c) { c.value.store(k * 3); });
      }
    });
  }
  for (auto& thread : threads) thread.join();

  const auto expected = merged(forward);
  EXPECT_EQ(expected.size(), kKeys);
  EXPECT_EQ(expected, merged(backward));
  EXPECT_EQ(expected, merged(racing));
}

// ------------------------------------------------- shared SPF record memo

TEST(ConcurrentTableRecordCache, ParsesOnceAndServesHits) {
  spf::SharedRecordCache cache(16);
  const std::string text = "v=spf1 ip4:192.0.2.0/24 -all";
  const auto* first = cache.lookup(text);
  ASSERT_NE(first, nullptr);
  EXPECT_TRUE(first->ok);
  EXPECT_EQ(first->text, text);
  const auto* again = cache.lookup(text);
  EXPECT_EQ(again, first);
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.misses(), 1u);
  EXPECT_EQ(cache.hits(), 1u);
}

TEST(ConcurrentTableRecordCache, CachesSyntaxErrorsAsNegativeEntries) {
  spf::SharedRecordCache cache(16);
  const std::string bad = "v=spf1 ip4:not-an-address -all";
  const auto* entry = cache.lookup(bad);
  ASSERT_NE(entry, nullptr);
  EXPECT_FALSE(entry->ok);
  EXPECT_EQ(cache.lookup(bad), entry);  // the failure is memoised too
}

TEST(ConcurrentTableRecordCache, ConcurrentLookupsConverge) {
  spf::SharedRecordCache cache(64);
  const std::vector<std::string> texts = {
      "v=spf1 -all",
      "v=spf1 a mx ~all",
      "v=spf1 include:_spf.example.com ?all",
      "v=spf1 ip4:198.51.100.0/24 +all",
  };
  std::vector<std::thread> threads;
  std::vector<std::vector<const spf::SharedRecordCache::Entry*>> seen(6);
  for (int t = 0; t < 6; ++t) {
    threads.emplace_back([&, t] {
      for (int r = 0; r < 100; ++r) {
        seen[t].push_back(cache.lookup(texts[r % texts.size()]));
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(cache.size(), texts.size());
  // Every thread resolved each text to the same published entry.
  for (std::size_t i = 0; i < texts.size(); ++i) {
    std::set<const spf::SharedRecordCache::Entry*> entries;
    for (const auto& lane : seen) {
      for (std::size_t r = i; r < lane.size(); r += texts.size()) {
        entries.insert(lane[r]);
      }
    }
    EXPECT_EQ(entries.size(), 1u) << "text " << texts[i];
  }
}

// A distinct policy text per index — the shape of the per-probe templated
// policies, each of which is fetched for one target only.
std::string probe_policy(int i) {
  return "v=spf1 a:" + std::to_string(i) + ".probe.example.com -all";
}

TEST(ConcurrentTableRecordCache, SaturatedCacheStopsAtAdmissionBound) {
  spf::SharedRecordCache cache(16);
  const std::size_t bound = cache.capacity() / 2;
  constexpr int kTexts = 1000;
  std::vector<const spf::SharedRecordCache::Entry*> first(kTexts);
  for (int i = 0; i < kTexts; ++i) {
    ASSERT_NO_THROW(first[i] = cache.lookup(probe_policy(i))) << i;
  }
  // Serially, the first `bound` texts are admitted and the rest turned away.
  EXPECT_EQ(cache.size(), bound);
  for (int i = 0; i < kTexts; ++i) {
    if (static_cast<std::size_t>(i) < bound) {
      ASSERT_NE(first[i], nullptr) << i;
      EXPECT_TRUE(first[i]->ok);
      EXPECT_EQ(first[i]->text, probe_policy(i));
    } else {
      EXPECT_EQ(first[i], nullptr) << i;
    }
  }
  EXPECT_EQ(cache.misses(), bound);
  EXPECT_EQ(cache.hits(), 0u);
  EXPECT_EQ(cache.uncached(), kTexts - bound);

  // A second pass: admitted texts hit their same Entry, the rest stay
  // uncached, and the table does not grow.
  for (int i = 0; i < kTexts; ++i) {
    EXPECT_EQ(cache.lookup(probe_policy(i)), first[i]) << i;
  }
  EXPECT_EQ(cache.size(), bound);
  EXPECT_EQ(cache.hits(), bound);
  EXPECT_EQ(cache.uncached(), 2 * (kTexts - bound));
  EXPECT_EQ(cache.hits() + cache.misses() + cache.uncached(), 2u * kTexts);
}

TEST(ConcurrentTableRecordCache, SaturatedCacheUnderRacingThreadsNeverThrows) {
  spf::SharedRecordCache cache(16);
  constexpr int kThreads = 6;
  constexpr int kTexts = 1000;
  std::atomic<int> throws{0};
  std::vector<std::vector<const spf::SharedRecordCache::Entry*>> seen(
      kThreads, std::vector<const spf::SharedRecordCache::Entry*>(kTexts));
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      // Each lane starts at a different offset, so admissions race.
      for (int r = 0; r < kTexts; ++r) {
        const int i = (r + t * kTexts / kThreads) % kTexts;
        try {
          seen[t][i] = cache.lookup(probe_policy(i));
        } catch (...) {
          throws.fetch_add(1);
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();

  EXPECT_EQ(throws.load(), 0);
  // Racing admissions overshoot the bound by at most one per other thread.
  const std::size_t bound = cache.capacity() / 2;
  EXPECT_GE(cache.size(), bound);
  EXPECT_LE(cache.size(), bound + kThreads - 1);
  EXPECT_EQ(cache.hits() + cache.misses() + cache.uncached(),
            static_cast<std::uint64_t>(kThreads) * kTexts);
  EXPECT_EQ(cache.misses(), cache.size());

  // Every non-null answer for a text is the one published Entry, and a
  // quiescent lookup returns it again.
  std::size_t admitted = 0;
  for (int i = 0; i < kTexts; ++i) {
    const auto* now = cache.lookup(probe_policy(i));
    if (now != nullptr) {
      ++admitted;
      EXPECT_EQ(now->text, probe_policy(i));
    }
    for (const auto& lane : seen) {
      if (lane[i] != nullptr) {
        EXPECT_EQ(lane[i], now) << "text " << i;
      }
    }
  }
  EXPECT_EQ(admitted, cache.size());
}

}  // namespace
}  // namespace spfail
