// The sharded scan engine: ThreadPool mechanics, and the load-bearing
// guarantee that reports are bit-identical at any thread count and under
// any batch schedule. The tsan_concurrency ctest entry re-runs this file
// under TSan.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "longitudinal/study.hpp"
#include "population/fleet.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace spfail {
namespace {

// ---------------------------------------------------------------- pool

TEST(ThreadPool, ResolveThreadCountPrefersExplicitRequest) {
  EXPECT_EQ(util::resolve_thread_count(3), 3u);
  EXPECT_EQ(util::resolve_thread_count(1), 1u);
  // 0 falls back to SPFAIL_THREADS when set.
  ::setenv("SPFAIL_THREADS", "5", 1);
  EXPECT_EQ(util::resolve_thread_count(0), 5u);
  EXPECT_EQ(util::resolve_thread_count(2), 2u);  // request still wins
  // A value that is not a whole number >= 0 is rejected, not truncated.
  for (const char* bad : {"2x", "abc", "-1"}) {
    ::setenv("SPFAIL_THREADS", bad, 1);
    EXPECT_THROW(util::resolve_thread_count(0), std::invalid_argument) << bad;
    EXPECT_EQ(util::resolve_thread_count(2), 2u) << bad;
  }
  ::unsetenv("SPFAIL_THREADS");
  EXPECT_GE(util::resolve_thread_count(0), 1u);
}

// Waits up to ten seconds for `flag`; true once it is set. The bound keeps
// a broken dispatcher a test failure, not a hang.
bool wait_for(const std::atomic<bool>& flag) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (!flag.load()) {
    if (std::chrono::steady_clock::now() > deadline) return false;
    std::this_thread::yield();
  }
  return true;
}

TEST(ThreadPool, CoversFullRangeExactlyOnce) {
  for (const int threads : {1, 2, 8}) {
    util::ThreadPool pool(threads);
    EXPECT_EQ(pool.thread_count(), static_cast<std::size_t>(threads));
    const std::size_t n = 1003;
    std::vector<std::atomic<int>> touched(n);
    for (auto& t : touched) t = 0;
    pool.parallel_for_batches(n, [&](std::size_t batch, std::size_t begin,
                                     std::size_t end) {
      EXPECT_LT(batch, pool.batch_count(n));
      EXPECT_LT(begin, end);
      for (std::size_t i = begin; i < end; ++i) touched[i].fetch_add(1);
    });
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_EQ(touched[i].load(), 1) << "index " << i << " threads "
                                      << threads;
    }
  }
}

TEST(ThreadPool, BatchOrderMergeIsScheduleInvariant) {
  // The index-addressed contract: results land in slot `batch`, the merge
  // walks slots in order, so the merged sequence is identical no matter
  // which worker ran what. `hold_first` forces an out-of-order schedule
  // from inside the body: batch 0 finishes only after the last batch has.
  const auto merged = [](int threads, bool hold_first) {
    util::ThreadPool pool(threads);
    const std::size_t n = 509;
    const std::size_t batches = pool.batch_count(n);
    std::vector<std::vector<std::size_t>> slots(batches);
    std::atomic<bool> last_done{false};
    pool.parallel_for_batches(
        n, [&](std::size_t batch, std::size_t begin, std::size_t end) {
          if (hold_first && batch == 0) {
            EXPECT_TRUE(wait_for(last_done));
          }
          for (std::size_t i = begin; i < end; ++i) {
            slots[batch].push_back(i * i);
          }
          if (batch + 1 == batches) last_done.store(true);
        });
    std::vector<std::size_t> out;
    for (const auto& slot : slots) {
      out.insert(out.end(), slot.begin(), slot.end());
    }
    return out;
  };
  const auto baseline = merged(1, false);
  std::vector<std::size_t> expected(509);
  for (std::size_t i = 0; i < expected.size(); ++i) expected[i] = i * i;
  EXPECT_EQ(baseline, expected);
  EXPECT_EQ(baseline, merged(2, false));
  EXPECT_EQ(baseline, merged(8, false));
  EXPECT_EQ(baseline, merged(2, true));
  EXPECT_EQ(baseline, merged(8, true));
}

TEST(ThreadPool, ShardCountNeverExceedsItemsOrWorkers) {
  util::ThreadPool pool(8);
  EXPECT_EQ(pool.batch_count(0), 0u);
  EXPECT_EQ(pool.batch_count(3), 3u);
  EXPECT_EQ(pool.batch_count(64), 64u);
  EXPECT_EQ(pool.batch_count(1000), 64u);  // 8 workers * 8 batches
}

TEST(ThreadPool, EmptyRangeDoesNotInvoke) {
  util::ThreadPool pool(2);
  std::atomic<int> calls{0};
  pool.parallel_for_batches(0, [&](std::size_t, std::size_t, std::size_t) {
    calls.fetch_add(1);
  });
  EXPECT_EQ(calls.load(), 0);
}

TEST(ThreadPool, PropagatesWorkerExceptions) {
  util::ThreadPool pool(4);
  EXPECT_THROW(
      pool.parallel_for_batches(100,
                                [&](std::size_t batch, std::size_t,
                                    std::size_t) {
                                  if (batch == 2) {
                                    throw std::runtime_error("batch 2 died");
                                  }
                                }),
      std::runtime_error);
  // When several batches throw, the lowest batch's exception wins — a
  // deterministic choice, not a race.
  try {
    pool.parallel_for_batches(100, [&](std::size_t batch, std::size_t,
                                       std::size_t) {
      throw std::runtime_error("batch " + std::to_string(batch));
    });
    FAIL() << "expected an exception";
  } catch (const std::runtime_error& error) {
    EXPECT_STREQ(error.what(), "batch 0");
  }
  // The pool survives worker exceptions and stays usable.
  std::atomic<int> sum{0};
  pool.parallel_for_batches(10, [&](std::size_t, std::size_t begin,
                                    std::size_t end) {
    sum.fetch_add(static_cast<int>(end - begin));
  });
  EXPECT_EQ(sum.load(), 10);
}

TEST(ThreadPool, SuppressedBatchErrorsAreLoggedFirstWins) {
  // Only the first exception is rethrown; every later error reaches stderr
  // before it, so a multi-batch failure never narrows silently to one.
  util::ThreadPool pool(4);
  testing::internal::CaptureStderr();
  try {
    pool.parallel_for_batches(
        32, [&](std::size_t batch, std::size_t, std::size_t) {
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
  // "First" is by batch index, not by which worker threw first: batch 2
  // throws only after batch 3 has, which another worker runs (the cursor
  // hands batch 3 on while batch 2 waits).
  std::atomic<bool> three_thrown{false};
  bool two_waited = false;
  testing::internal::CaptureStderr();
  try {
    pool.parallel_for_batches(
        100, [&](std::size_t batch, std::size_t, std::size_t) {
          if (batch == 2) two_waited = wait_for(three_thrown);
          if (batch >= 2) {
            if (batch == 3) three_thrown.store(true);
            throw std::runtime_error("batch " + std::to_string(batch));
          }
        });
    FAIL() << "expected an exception";
  } catch (const std::runtime_error& error) {
    EXPECT_STREQ(error.what(), "batch 2");
  }
  const std::string out_of_order = testing::internal::GetCapturedStderr();
  EXPECT_TRUE(two_waited);
  EXPECT_NE(out_of_order.find("suppressed error"), std::string::npos);
  EXPECT_NE(out_of_order.find("batch 3"), std::string::npos);
}

TEST(ThreadPool, CleanShutdownAfterWork) {
  for (int round = 0; round < 8; ++round) {
    util::ThreadPool pool(3);
    std::atomic<int> sum{0};
    pool.parallel_for_batches(17, [&](std::size_t, std::size_t begin,
                                      std::size_t end) {
      sum.fetch_add(static_cast<int>(end - begin));
    });
    EXPECT_EQ(sum.load(), 17);
    // Destructor joins all workers; looping catches shutdown races.
  }
}

// --------------------------------------------------- determinism oracle

void serialize_campaign(std::ostringstream& out,
                        const scan::CampaignReport& report) {
  out << "suite=" << report.suite_label << "\n";
  const faults::DegradationReport& deg = report.degradation;
  out << "deg pa=" << deg.probe_attempts << " r=" << deg.retries
      << " inj=" << deg.injected_total() << " lat=" << deg.latency_injected
      << " tr=" << deg.transient_addresses << " rec=" << deg.recovered
      << " ex=" << deg.exhausted << " bt=" << deg.breaker_trips
      << " bs=" << deg.breaker_skipped << " rq=" << deg.requeued
      << " rr=" << deg.requeue_recovered << " c=" << deg.conclusive << "\n";
  for (const scan::AddressOutcome* outcome : report.sorted_outcomes()) {
    out << outcome->address.to_string() << " v="
        << to_string(outcome->verdict) << " pa=" << outcome->probe_attempts
        << " ru=" << outcome->retries_used << " b=";
    for (const auto behavior : outcome->behaviors) {
      out << spfvuln::to_string(behavior) << ",";
    }
    for (const auto& probe : {outcome->nomsg, outcome->blankmsg}) {
      if (!probe.has_value()) {
        out << " -";
        continue;
      }
      out << " [" << to_string(probe->status) << " "
          << probe->mail_from_domain.to_string() << " f="
          << probe->failing_code << " p=" << probe->saw_policy_fetch << " u="
          << probe->accepted_username << "]";
    }
    out << "\n";
  }
  for (const auto& domain : report.domains) {
    out << domain.domain << " r=" << domain.any_refused
        << " m=" << domain.any_measured << " v=" << domain.vulnerable << " b=";
    for (const auto behavior : domain.behaviors) {
      out << spfvuln::to_string(behavior) << ",";
    }
    out << "\n";
  }
}

std::string serialize_study(population::Fleet& fleet,
                            const longitudinal::StudyReport& report) {
  std::ostringstream out;
  serialize_campaign(out, report.initial->report());
  out << "vuln_addr=" << report.initially_vulnerable_addresses
      << " vuln_dom=" << report.initially_vulnerable_domains
      << " remeas=" << report.remeasurable_addresses
      << " remeas_v=" << report.remeasurable_resolved_vulnerable
      << " remeas_c=" << report.remeasurable_resolved_compliant << "\n";
  for (const auto t : report.round_times) out << t << ",";
  out << "\n";
  for (const auto& track : report.tracks) {
    out << "track " << track.domain_index << " s="
        << static_cast<int>(track.final_status) << " a=";
    for (const auto& address : track.vulnerable_addresses) {
      out << address.to_string() << ",";
    }
    out << "\n";
  }
  for (const scan::AddressOutcome* outcome :
       report.initial->report().sorted_outcomes()) {
    if (!outcome->vulnerable()) continue;
    out << outcome->address.to_string() << " states=";
    for (const auto state : report.inference.states(outcome->address)) {
      out << static_cast<int>(state) << ",";
    }
    out << "\n";
  }
  out << "notif s=" << report.notification.sent << " b="
      << report.notification.bounced << " d=" << report.notification.delivered
      << " o=" << report.notification.opened << " og=" << report.opened_groups
      << " oep=" << report.opened_eventually_patched
      << " opbd=" << report.opened_patched_between_disclosures
      << " bpbd=" << report.bounced_patched_between_disclosures << "\n";
  out << "clock=" << fleet.clock().now()
      << " queries=" << fleet.dns().query_log().size() << "\n";
  return out.str();
}

std::string run_study(int threads) {
  population::FleetConfig config;
  config.scale = 0.01;
  config.seed = 20211011;
  population::Fleet fleet(config);
  longitudinal::StudyConfig study_config;
  study_config.threads = threads;
  longitudinal::Study study(fleet, study_config);
  const longitudinal::StudyReport report = study.run();
  return serialize_study(fleet, report);
}

TEST(ThreadDeterminism, CampaignBitIdenticalAcrossThreadCounts) {
  const auto run_campaign = [](int threads) {
    population::FleetConfig config;
    config.scale = 0.02;
    config.seed = 7;
    population::Fleet fleet(config);
    scan::CampaignConfig campaign_config;
    campaign_config.prober.responder = fleet.responder();
    campaign_config.threads = threads;
    scan::Campaign campaign(campaign_config, fleet.dns(), fleet.clock(),
                            fleet);
    const scan::CampaignReport report = campaign.run(fleet.targets());
    std::ostringstream out;
    serialize_campaign(out, report);
    out << "clock=" << fleet.clock().now()
        << " queries=" << fleet.dns().query_log().size() << "\n";
    return out.str();
  };
  const std::string serial = run_campaign(1);
  EXPECT_EQ(serial, run_campaign(3));
  EXPECT_EQ(serial, run_campaign(8));
}

TEST(ThreadDeterminism, FaultInjectedCampaignBitIdenticalAcrossThreadCounts) {
  // The tentpole guarantee: with the fault layer live (10% injection, the
  // retry engine, the circuit breaker, and the re-queue wave all active) the
  // report is still a pure function of the seeds — identical at any thread
  // count and across reruns, and actually sensitive to the fault seed.
  const auto run_campaign = [](int threads, std::uint64_t fault_seed) {
    population::FleetConfig config;
    config.scale = 0.02;
    config.seed = 7;
    population::Fleet fleet(config);
    scan::CampaignConfig campaign_config;
    campaign_config.prober.responder = fleet.responder();
    campaign_config.threads = threads;
    campaign_config.faults.rate = 0.10;
    campaign_config.faults.seed = fault_seed;
    scan::Campaign campaign(campaign_config, fleet.dns(), fleet.clock(),
                            fleet);
    const scan::CampaignReport report = campaign.run(fleet.targets());
    std::ostringstream out;
    serialize_campaign(out, report);
    out << "clock=" << fleet.clock().now()
        << " queries=" << fleet.dns().query_log().size() << "\n";
    return out.str();
  };
  const std::string serial = run_campaign(1, 42);
  EXPECT_EQ(serial, run_campaign(2, 42));
  EXPECT_EQ(serial, run_campaign(8, 42));
  EXPECT_EQ(serial, run_campaign(1, 42));  // rerun, same seed
  EXPECT_NE(serial, run_campaign(1, 43));  // the plan really keys off it
}

TEST(ThreadDeterminism, StudyBitIdenticalAcrossThreadCounts) {
  const std::string serial = run_study(1);
  EXPECT_EQ(serial, run_study(2));
  EXPECT_EQ(serial, run_study(8));
}

TEST(ThreadDeterminism, LazyStreamingCampaignBitIdenticalAcrossThreadCounts) {
  // §14: the fleet materialises hosts on probe and evicts them after, and
  // the campaign consumes the zero-copy TargetSource view. Neither may
  // perturb a single output byte relative to the serial run over a fleet
  // that held every host resident — pinned here as the fnv1a and length of
  // that run, captured before the resident fleet was deleted.
  constexpr std::uint64_t kResidentDigest = 1475527013108841729ULL;
  constexpr std::size_t kResidentLength = 708173;
  const auto run_campaign = [](int threads) {
    population::FleetConfig config;
    config.scale = 0.02;
    config.seed = 7;
    population::Fleet fleet(config);
    scan::CampaignConfig campaign_config;
    campaign_config.prober.responder = fleet.responder();
    campaign_config.threads = threads;
    scan::Campaign campaign(campaign_config, fleet.dns(), fleet.clock(),
                            fleet);
    const scan::CampaignReport report = campaign.run(fleet.target_source());
    EXPECT_EQ(fleet.live_hosts(), 0u);
    std::ostringstream out;
    serialize_campaign(out, report);
    out << "clock=" << fleet.clock().now()
        << " queries=" << fleet.dns().query_log().size() << "\n";
    return out.str();
  };
  for (const int threads : {1, 2, 8}) {
    const std::string report = run_campaign(threads);
    EXPECT_EQ(report.size(), kResidentLength) << "threads=" << threads;
    EXPECT_EQ(util::fnv1a(report), kResidentDigest) << "threads=" << threads;
  }
}

TEST(ThreadDeterminism, CampaignMatchesStaticSchedulerDigestAnyThreads) {
  // fnv1a and length of the 1-thread run under the one-slice-per-worker
  // static scheduler, captured before that scheduler was deleted. The
  // batch cursor must reproduce it at any thread count.
  constexpr std::uint64_t kStaticDigest = 3290130814725409056ULL;
  constexpr std::size_t kStaticLength = 239241;
  const auto run_campaign = [](int threads) {
    population::FleetConfig config;
    config.scale = 0.02;
    config.seed = 7;
    population::Fleet fleet(config);
    scan::CampaignConfig campaign_config;
    campaign_config.prober.responder = fleet.responder();
    campaign_config.threads = threads;
    campaign_config.faults.seed = 42;
    scan::Campaign campaign(campaign_config, fleet.dns(), fleet.clock(),
                            fleet);
    const scan::CampaignReport report = campaign.run(fleet.targets());
    std::ostringstream out;
    out << "suite=" << report.suite_label << "\n";
    for (const scan::AddressOutcome* outcome : report.sorted_outcomes()) {
      out << outcome->address.to_string() << " v="
          << to_string(outcome->verdict) << " pa=" << outcome->probe_attempts
          << " ru=" << outcome->retries_used << "\n";
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
  };
  for (const int threads : {1, 2, 8}) {
    const std::string report = run_campaign(threads);
    EXPECT_EQ(report.size(), kStaticLength) << "threads=" << threads;
    EXPECT_EQ(util::fnv1a(report), kStaticDigest) << "threads=" << threads;
  }
}

}  // namespace
}  // namespace spfail
