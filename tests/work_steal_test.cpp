// The work-stealing batch scheduler (DESIGN.md §16): Chase–Lev deque
// semantics, exactly-once batch delivery under racing thieves, and the
// load-bearing guarantee that steal schedules are invisible in the output —
// a campaign run under the adversarial stealer is byte-identical to the
// no-steal baseline at any thread count. The whole file re-runs under TSan
// via the tsan_lockfree ctest entry.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <mutex>
#include <numeric>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "population/fleet.hpp"
#include "scan/campaign.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"
#include "util/work_steal.hpp"

namespace spfail {
namespace {

// ---------------------------------------------------------------- deque

TEST(WorkStealDeque, OwnerPopsLifoThievesStealFifo) {
  util::ChaseLevDeque deque(8);
  EXPECT_TRUE(deque.empty());
  EXPECT_EQ(deque.pop(), util::ChaseLevDeque::kEmpty);
  EXPECT_EQ(deque.steal(), util::ChaseLevDeque::kEmpty);

  deque.push(10);
  deque.push(11);
  deque.push(12);
  EXPECT_FALSE(deque.empty());
  EXPECT_EQ(deque.steal(), 10u);  // oldest from the top
  EXPECT_EQ(deque.pop(), 12u);    // newest from the bottom
  EXPECT_EQ(deque.pop(), 11u);
  EXPECT_TRUE(deque.empty());
  EXPECT_EQ(deque.pop(), util::ChaseLevDeque::kEmpty);
}

TEST(WorkStealDeque, RacingThievesDrainEachValueExactlyOnce) {
  // The owner pops while several thieves steal; every preloaded value must
  // surface exactly once across all takers (lost CAS races return kEmpty and
  // are retried, never duplicated).
  constexpr std::size_t kValues = 4096;
  constexpr int kThieves = 4;
  util::ChaseLevDeque deque(kValues);
  for (std::size_t v = 0; v < kValues; ++v) deque.push(v);

  std::vector<std::atomic<int>> taken(kValues);
  for (auto& t : taken) t.store(0);
  std::atomic<std::size_t> total{0};

  std::vector<std::thread> thieves;
  for (int t = 0; t < kThieves; ++t) {
    thieves.emplace_back([&] {
      while (total.load() < kValues) {
        const std::size_t v = deque.steal();
        if (v == util::ChaseLevDeque::kEmpty) continue;
        taken[v].fetch_add(1);
        total.fetch_add(1);
      }
    });
  }
  std::thread owner([&] {
    while (total.load() < kValues) {
      const std::size_t v = deque.pop();
      if (v == util::ChaseLevDeque::kEmpty) continue;
      taken[v].fetch_add(1);
      total.fetch_add(1);
    }
  });
  owner.join();
  for (auto& thief : thieves) thief.join();

  EXPECT_TRUE(deque.empty());
  for (std::size_t v = 0; v < kValues; ++v) {
    EXPECT_EQ(taken[v].load(), 1) << "value " << v;
  }
}

// ------------------------------------------------------------- options

TEST(WorkStealOptions, ParsersRejectUnknownNames) {
  EXPECT_EQ(util::parse_steal_mode("auto"), util::StealMode::Auto);
  EXPECT_EQ(util::parse_steal_mode("none"), util::StealMode::None);
  EXPECT_EQ(util::parse_steal_mode("random"), util::StealMode::Random);
  EXPECT_EQ(util::parse_steal_mode("adversarial"),
            util::StealMode::Adversarial);
  EXPECT_THROW(util::parse_steal_mode("greedy"), std::invalid_argument);
  EXPECT_THROW(util::parse_steal_mode(""), std::invalid_argument);
}

TEST(WorkStealOptions, AutoResolvesFromEnvironmentExplicitWins) {
  ::unsetenv("SPFAIL_STEAL");
  EXPECT_EQ(util::resolve_steal_mode(util::StealMode::Auto),
            util::StealMode::Random);  // default

  ::setenv("SPFAIL_STEAL", "adversarial", 1);
  EXPECT_EQ(util::resolve_steal_mode(util::StealMode::Auto),
            util::StealMode::Adversarial);

  // An explicit mode passes through untouched.
  EXPECT_EQ(util::resolve_steal_mode(util::StealMode::None),
            util::StealMode::None);

  ::setenv("SPFAIL_STEAL", "bogus", 1);
  EXPECT_THROW(util::resolve_steal_mode(util::StealMode::Auto),
               std::invalid_argument);
  ::unsetenv("SPFAIL_STEAL");
}

// ----------------------------------------------------------------- pool

TEST(WorkStealPool, BatchCountScalesWithWorkersAndClampsToItems) {
  util::ThreadPool pool(4);
  EXPECT_EQ(pool.batch_count(0), 0u);
  EXPECT_EQ(pool.batch_count(10), 10u);   // never more than n
  EXPECT_EQ(pool.batch_count(1000), 32u);  // 4 workers * 8 batches
}

TEST(WorkStealPool, BatchesCoverFullRangeExactlyOnceUnderEveryMode) {
  for (const auto mode : {util::StealMode::None, util::StealMode::Random,
                          util::StealMode::Adversarial}) {
    util::ThreadPool pool(4);
    const std::size_t n = 1003;
    std::vector<std::atomic<int>> touched(n);
    for (auto& t : touched) t.store(0);
    pool.parallel_for_batches(n, mode, [&](std::size_t batch,
                                           std::size_t begin,
                                           std::size_t end) {
      EXPECT_LT(batch, pool.batch_count(n));
      EXPECT_LT(begin, end);
      for (std::size_t i = begin; i < end; ++i) touched[i].fetch_add(1);
    });
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_EQ(touched[i].load(), 1)
          << "index " << i << " mode " << static_cast<int>(mode);
    }
  }
}

TEST(WorkStealPool, BatchOrderMergeIsScheduleInvariant) {
  // The index-addressed contract: results land in slot `batch`, the merge
  // walks slots in order, so the merged sequence is identical no matter
  // which worker ran what — including the adversarial forced-steal schedule.
  const auto merged = [](int threads, util::StealMode mode) {
    util::ThreadPool pool(threads);
    const std::size_t n = 509;
    std::vector<std::vector<std::size_t>> slots(pool.batch_count(n));
    pool.parallel_for_batches(
        n, mode, [&](std::size_t batch, std::size_t begin, std::size_t end) {
          for (std::size_t i = begin; i < end; ++i) {
            slots[batch].push_back(i * i);
          }
        });
    std::vector<std::size_t> out;
    for (const auto& slot : slots) {
      out.insert(out.end(), slot.begin(), slot.end());
    }
    return out;
  };
  const auto baseline = merged(1, util::StealMode::None);
  std::vector<std::size_t> expected(509);
  for (std::size_t i = 0; i < expected.size(); ++i) expected[i] = i * i;
  EXPECT_EQ(baseline, expected);
  EXPECT_EQ(baseline, merged(2, util::StealMode::Random));
  EXPECT_EQ(baseline, merged(8, util::StealMode::Random));
  EXPECT_EQ(baseline, merged(2, util::StealMode::Adversarial));
  EXPECT_EQ(baseline, merged(8, util::StealMode::Adversarial));
}

TEST(WorkStealPool, SuppressedBatchErrorsAreLoggedFirstWins) {
  // Only the first exception is rethrown; every later error reaches stderr
  // before it, so a multi-batch failure never narrows silently to one.
  util::ThreadPool pool(4);
  testing::internal::CaptureStderr();
  try {
    pool.parallel_for_batches(
        32, util::StealMode::Random, [&](std::size_t batch, std::size_t, std::size_t) {
          if (batch == 3 || batch == 7) {
            throw std::runtime_error("batch " + std::to_string(batch) +
                                     " died");
          }
        });
    FAIL() << "expected an exception";
  } catch (const std::runtime_error& error) {
    EXPECT_STREQ(error.what(), "batch 3 died");
  }
  const std::string logged = testing::internal::GetCapturedStderr();
  EXPECT_NE(logged.find("suppressed error"), std::string::npos);
  EXPECT_NE(logged.find("batch 7 died"), std::string::npos);
  // "First" is by batch index, not by which worker threw first: the
  // adversarial stealer runs batches out of order.
  testing::internal::CaptureStderr();
  try {
    pool.parallel_for_batches(
        100, util::StealMode::Adversarial,
        [&](std::size_t batch, std::size_t, std::size_t) {
          if (batch >= 2) {
            throw std::runtime_error("batch " + std::to_string(batch));
          }
        });
    FAIL() << "expected an exception";
  } catch (const std::runtime_error& error) {
    EXPECT_STREQ(error.what(), "batch 2");
  }
  const std::string adversarial_logged = testing::internal::GetCapturedStderr();
  EXPECT_NE(adversarial_logged.find("suppressed error"), std::string::npos);
  EXPECT_NE(adversarial_logged.find("batch 3"), std::string::npos);
}

// --------------------------------------------------------- determinism

std::string run_campaign(int threads, util::StealMode mode,
                         double fault_rate = 0.0) {
  population::FleetConfig config;
  config.scale = 0.02;
  config.seed = 7;
  population::Fleet fleet(config);
  scan::CampaignConfig campaign_config;
  campaign_config.prober.responder = fleet.responder();
  campaign_config.threads = threads;
  campaign_config.steal = mode;
  campaign_config.faults.rate = fault_rate;
  campaign_config.faults.seed = 42;
  scan::Campaign campaign(campaign_config, fleet.dns(), fleet.clock(), fleet);
  const scan::CampaignReport report = campaign.run(fleet.targets());
  std::ostringstream out;
  out << "suite=" << report.suite_label << "\n";
  for (const scan::AddressOutcome* outcome : report.sorted_outcomes()) {
    out << outcome->address.to_string() << " v=" << to_string(outcome->verdict)
        << " pa=" << outcome->probe_attempts << " ru=" << outcome->retries_used
        << "\n";
  }
  for (const auto& domain : report.domains) {
    out << domain.domain << " v=" << domain.vulnerable << "\n";
  }
  const faults::DegradationReport& deg = report.degradation;
  out << "deg pa=" << deg.probe_attempts << " inj=" << deg.injected_total()
      << " bt=" << deg.breaker_trips << " rq=" << deg.requeued
      << " rr=" << deg.requeue_recovered << "\n";
  out << "clock=" << fleet.clock().now()
      << " queries=" << fleet.dns().query_log().size() << "\n";
  return out.str();
}

TEST(WorkStealDeterminism, CampaignByteIdenticalStaticVsStealAnyThreads) {
  // fnv1a and length of the 1-thread run under the one-slice-per-worker
  // static scheduler, captured before that scheduler was deleted. The steal
  // scheduler must reproduce it at any thread count.
  constexpr std::uint64_t kStaticDigest = 3290130814725409056ULL;
  constexpr std::size_t kStaticLength = 239241;
  for (const int threads : {1, 2, 8}) {
    const std::string report = run_campaign(threads, util::StealMode::Random);
    EXPECT_EQ(report.size(), kStaticLength) << "threads=" << threads;
    EXPECT_EQ(util::fnv1a(report), kStaticDigest) << "threads=" << threads;
  }
}

TEST(WorkStealDeterminism, AdversarialStealerMatchesNoStealByteForByte) {
  // The seeded adversarial stealer raids every victim before touching its
  // own deque — maximal batch migration. The report must not move a byte
  // relative to the no-steal schedule.
  const std::string no_steal = run_campaign(4, util::StealMode::None);
  EXPECT_EQ(no_steal, run_campaign(4, util::StealMode::Adversarial));
  EXPECT_EQ(no_steal, run_campaign(2, util::StealMode::Adversarial));
}

TEST(WorkStealDeterminism, FaultInjectedAdversarialStillByteIdentical) {
  // With the fault layer live (retries, breaker, re-queue wave) the steal
  // schedule still may not leak into the report.
  const std::string baseline = run_campaign(1, util::StealMode::None, 0.10);
  EXPECT_EQ(baseline, run_campaign(8, util::StealMode::Random, 0.10));
  EXPECT_EQ(baseline, run_campaign(8, util::StealMode::Adversarial, 0.10));
}

}  // namespace
}  // namespace spfail
