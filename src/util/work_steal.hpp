// Work-stealing batch scheduler for the scan core (DESIGN.md §16) — the one
// way a wave fans out over util::ThreadPool.
//
// One contiguous slice per worker would leave threads idle whenever slice
// costs are uneven — greylist backoff, fault-injected retries, and host
// materialisation all skew per-address cost. The scheduler instead splits
// the address-ordered work list into several small contiguous batches per
// worker, preloads each worker's deque with its own contiguous run of
// batches, and lets idle workers steal batches from victims' deques,
// Chase–Lev style: the owner pops its own bottom (LIFO, cache-warm), thieves
// take the top (FIFO, the batches the owner would reach last).
//
// Determinism: a batch is an index-addressed unit — batch b always covers
// the same [begin, end) of the master list and records its results into slot
// b, no matter which worker ran it. The merge walks slots in batch order,
// exactly the shard-index-order trick from src/obs/ and Interner::merge, so
// stdout/CSV/trace/metrics are byte-identical under any steal schedule
// (WorkStealDeterminism tests force the worst one). Stealing changes only
// *which thread* runs a batch; batches partition the address space, so host
// state stays single-writer and every lane-based output is already
// schedule-invariant.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string_view>
#include <vector>

namespace spfail::util {

// Victim selection once a worker's own deque runs dry. Auto resolves
// SPFAIL_STEAL (none | random | adversarial), defaulting to Random. The
// variable is a test hook, not an operator knob: it lets an end-to-end test
// force the adversarial schedule through a binary.
//   None         never steal — drain the own deque, then idle. The
//                no-steal schedule the determinism tests compare against.
//   Random       steal from a seeded-random victim (the production mode).
//   Adversarial  sweep-steal from every victim *before* touching the own
//                deque — maximal cross-worker migration, the worst-case
//                schedule the determinism tests force.
enum class StealMode : std::uint8_t { Auto = 0, None, Random, Adversarial };

// Strict parser for SPFAIL_STEAL; throws std::invalid_argument naming the
// rejected input. "auto" is accepted.
StealMode parse_steal_mode(std::string_view text);

// Batches per worker: enough slack for stealing to matter, few enough that
// per-batch lane setup stays in the noise.
inline constexpr std::size_t kBatchesPerWorker = 8;

// Auto resolved from SPFAIL_STEAL or the default (Random); an explicit mode
// passes through — the same layering as resolve_thread_count. Throws
// std::invalid_argument on a malformed SPFAIL_STEAL.
StealMode resolve_steal_mode(StealMode mode);

// A fixed-capacity Chase–Lev deque over batch indices. The owner pushes and
// pops at the bottom; thieves steal from the top. This variant is preloaded
// single-threaded before the workers start and only drained concurrently —
// push() must not race steal() — which keeps the memory model simple enough
// to run clean under TSan with conservative seq_cst orders (TSan's
// standalone-fence support is incomplete, so the textbook relaxed+fence
// formulation would report false positives).
class ChaseLevDeque {
 public:
  static constexpr std::size_t kEmpty = static_cast<std::size_t>(-1);

  explicit ChaseLevDeque(std::size_t capacity);

  // Owner only; single-threaded preload phase.
  void push(std::size_t value);

  // Owner only: take the most recently pushed batch (LIFO). kEmpty when the
  // deque is drained.
  std::size_t pop();

  // Any thief: take the oldest batch (FIFO). kEmpty when drained or when the
  // steal lost a race (callers treat both as "try elsewhere").
  std::size_t steal();

  bool empty() const;

 private:
  std::atomic<std::int64_t> top_{0};
  std::atomic<std::int64_t> bottom_{0};
  std::unique_ptr<std::atomic<std::size_t>[]> buffer_;
  std::size_t capacity_;
};

// The per-wave scheduler: deques preloaded with contiguous batch runs (one
// near-equal run per worker), claimed by workers as they arrive.
// Built fresh per parallel_for_batches call — batch counts are small, so
// construction is noise.
class BatchScheduler {
 public:
  // `batches` total batches, dealt to `workers` deques contiguously (worker
  // w's deque holds the w-th near-equal batch run, top = lowest index).
  // `steal` must already be resolved (not Auto).
  BatchScheduler(std::size_t batches, std::size_t workers, StealMode steal);

  std::size_t worker_count() const noexcept { return deques_.size(); }

  // Claim a worker identity; called once per participating thread.
  std::size_t claim_worker() {
    return next_worker_.fetch_add(1, std::memory_order_acq_rel);
  }

  // The next batch for `worker`, or kNone when the wave is fully claimed.
  // Own-deque pops first, then steals per the resolved StealMode
  // (Adversarial inverts that order to force migration).
  static constexpr std::size_t kNone = static_cast<std::size_t>(-1);
  std::size_t next(std::size_t worker);

 private:
  std::size_t steal_from_victims(std::size_t worker);

  struct WorkerState {
    ChaseLevDeque deque;
    std::uint64_t rng;  // xorshift victim-picker state, seeded per worker
    explicit WorkerState(std::size_t capacity, std::uint64_t seed)
        : deque(capacity), rng(seed) {}
  };

  StealMode steal_;
  std::vector<std::unique_ptr<WorkerState>> deques_;
  std::atomic<std::size_t> remaining_;
  std::atomic<std::size_t> next_worker_{0};
};

}  // namespace spfail::util
