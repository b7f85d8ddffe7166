#include "util/thread_pool.hpp"

#include <atomic>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <stdexcept>
#include <string>

namespace spfail::util {

std::size_t resolve_thread_count(int requested) {
  if (requested > kMaxThreads) {
    throw std::invalid_argument("thread count must be at most " +
                                std::to_string(kMaxThreads) + ", got " +
                                std::to_string(requested));
  }
  if (requested > 0) return static_cast<std::size_t>(requested);
  if (const char* env = std::getenv("SPFAIL_THREADS");
      env != nullptr && *env != '\0') {
    char* end = nullptr;
    errno = 0;
    const long parsed = std::strtol(env, &end, 10);
    if (*end != '\0' || errno == ERANGE || parsed < 0 ||
        parsed > kMaxThreads) {
      throw std::invalid_argument(
          "SPFAIL_THREADS expects a whole number in [0, " +
          std::to_string(kMaxThreads) + "], got '" + std::string(env) + "'");
    }
    if (parsed > 0) return static_cast<std::size_t>(parsed);
  }
  const unsigned hardware = std::thread::hardware_concurrency();
  return hardware > 0 ? hardware : 1;
}

ThreadPool::ThreadPool(int threads) {
  const std::size_t count = resolve_thread_count(threads);
  workers_.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;
  }
  work_available_.notify_all();
  for (auto& worker : workers_) worker.join();
}

void ThreadPool::worker_loop() {
  while (true) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      work_available_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stopping_ and drained
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    task();
  }
}

// Private completion latch: a mutex/cv pair per dispatch so concurrent
// callers (nested pools) cannot interfere.
struct ThreadPool::Completion {
  std::mutex mutex;
  std::condition_variable cv;
  std::size_t done = 0;
};

void ThreadPool::await_and_rethrow(Completion& completion, std::size_t count,
                                   std::vector<std::exception_ptr>& errors) {
  std::unique_lock<std::mutex> lock(completion.mutex);
  completion.cv.wait(lock, [&] { return completion.done == count; });
  lock.unlock();

  // Rethrow the first error (in slot order) — but log the rest to stderr
  // first, so a multi-shard failure never silently narrows to one message.
  std::size_t first = errors.size();
  for (std::size_t i = 0; i < errors.size(); ++i) {
    if (errors[i]) {
      first = i;
      break;
    }
  }
  if (first == errors.size()) return;
  for (std::size_t i = first + 1; i < errors.size(); ++i) {
    if (!errors[i]) continue;
    try {
      std::rethrow_exception(errors[i]);
    } catch (const std::exception& e) {
      std::fprintf(stderr,
                   "thread pool: suppressed error from slice %zu: %s\n", i,
                   e.what());
    } catch (...) {
      std::fprintf(
          stderr,
          "thread pool: suppressed non-standard exception from slice %zu\n",
          i);
    }
  }
  std::rethrow_exception(errors[first]);
}

void ThreadPool::parallel_for_batches(
    std::size_t n,
    const std::function<void(std::size_t, std::size_t, std::size_t)>& fn) {
  const std::size_t batches = batch_count(n);
  if (batches == 0) return;

  const std::size_t participants =
      batches < workers_.size() ? batches : workers_.size();
  std::atomic<std::size_t> cursor{0};

  std::vector<std::exception_ptr> errors(batches);
  Completion completion;

  // Near-equal contiguous batches: batch b covers
  // [b*base + min(b, extra), ...), so the first `extra` batches get one more
  // item.
  const std::size_t base = n / batches;
  const std::size_t extra = n % batches;
  const auto bounds = [base, extra](std::size_t b) {
    const std::size_t begin = b * base + (b < extra ? b : extra);
    return std::pair<std::size_t, std::size_t>(
        begin, begin + base + (b < extra ? 1 : 0));
  };

  {
    const std::lock_guard<std::mutex> lock(mutex_);
    for (std::size_t i = 0; i < participants; ++i) {
      queue_.push_back([&] {
        for (std::size_t b = cursor.fetch_add(1); b < batches;
             b = cursor.fetch_add(1)) {
          const auto [begin, end] = bounds(b);
          try {
            fn(b, begin, end);
          } catch (...) {
            errors[b] = std::current_exception();
          }
        }
        {
          const std::lock_guard<std::mutex> done_lock(completion.mutex);
          ++completion.done;
          completion.cv.notify_one();
        }
      });
    }
  }
  work_available_.notify_all();
  await_and_rethrow(completion, participants, errors);
}

}  // namespace spfail::util
