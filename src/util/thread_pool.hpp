// Fixed-size worker pool for the sharded scan engine.
//
// The paper's scanner only finishes a round inside the 2-day cadence because
// it holds 250 concurrent SMTP connections; the reproduction gets the same
// effect from real threads. Batches are contiguous slices of an
// address-sorted work list, so results can be merged back in address order
// and the output is bit-identical at any thread count (see DESIGN.md,
// "Concurrency model" and §16).
//
// Thread count resolution: an explicit request wins; otherwise the
// SPFAIL_THREADS environment variable; otherwise the hardware concurrency.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "util/work_steal.hpp"

namespace spfail::util {

// The largest thread count a caller may request. A count above it is an
// input error, never a pool of that many OS threads: ScanConfig::validate
// rejects --threads, SPFAIL_THREADS and the svc `threads` key past it.
inline constexpr int kMaxThreads = 256;

// `requested` <= 0 means "resolve from the environment": SPFAIL_THREADS if
// set and positive, else std::thread::hardware_concurrency(), else 1. Unset,
// empty and "0" all mean the hardware default; anything that is not a whole
// number in [0, kMaxThreads] throws std::invalid_argument naming the
// variable, and so does a request above kMaxThreads.
std::size_t resolve_thread_count(int requested);

class ThreadPool {
 public:
  // `threads` <= 0 resolves via resolve_thread_count.
  explicit ThreadPool(int threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t thread_count() const noexcept { return workers_.size(); }

  // Number of batches parallel_for_batches cuts [0, n) into:
  // kBatchesPerWorker per thread, never more than `n` (and 0 for an empty
  // range). Callers size per-batch result storage with this.
  std::size_t batch_count(std::size_t n) const noexcept {
    const std::size_t target = workers_.size() * kBatchesPerWorker;
    return n < target ? n : target;
  }

  // Partition [0, n) into batch_count(n) contiguous, near-equal batches and
  // run fn(batch, begin, end) for each under the work-stealing scheduler
  // (DESIGN.md §16): each worker drains its preloaded deque and then steals
  // per `steal` (Auto resolves SPFAIL_STEAL). Results must be recorded into
  // slot `batch` — merging slots in batch order is what keeps the output
  // independent of which worker ran what. Blocks until every batch finished; if any batch threw,
  // rethrows the first exception (in batch order) after logging every
  // suppressed one to stderr. An empty range returns immediately.
  void parallel_for_batches(
      std::size_t n, StealMode steal,
      const std::function<void(std::size_t batch, std::size_t begin,
                               std::size_t end)>& fn);

 private:
  void worker_loop();
  // Blocks until `count` scheduled tasks signalled done, then logs every
  // suppressed error to stderr and rethrows the first (satellite of §16:
  // secondary shard failures used to vanish).
  struct Completion;
  static void await_and_rethrow(Completion& completion, std::size_t count,
                                std::vector<std::exception_ptr>& errors);

  std::vector<std::thread> workers_;
  std::deque<std::function<void()>> queue_;
  std::mutex mutex_;
  std::condition_variable work_available_;
  bool stopping_ = false;
};

}  // namespace spfail::util
