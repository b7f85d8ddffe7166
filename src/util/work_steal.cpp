#include "util/work_steal.hpp"

#include <cstdlib>
#include <stdexcept>
#include <string>
#include <thread>

namespace spfail::util {

namespace {
// Seeds the per-worker victim RNGs.
constexpr std::uint64_t kStealSeed = 0x57EA15EEDULL;
}  // namespace

StealMode parse_steal_mode(std::string_view text) {
  if (text == "auto") return StealMode::Auto;
  if (text == "none") return StealMode::None;
  if (text == "random") return StealMode::Random;
  if (text == "adversarial") return StealMode::Adversarial;
  throw std::invalid_argument(
      "SPFAIL_STEAL expects auto/none/random/adversarial, got '" +
      std::string(text) + "'");
}

StealMode resolve_steal_mode(StealMode mode) {
  if (mode != StealMode::Auto) return mode;
  if (const char* env = std::getenv("SPFAIL_STEAL");
      env != nullptr && *env != '\0') {
    mode = parse_steal_mode(env);
  }
  return mode == StealMode::Auto ? StealMode::Random : mode;
}

ChaseLevDeque::ChaseLevDeque(std::size_t capacity)
    : buffer_(std::make_unique<std::atomic<std::size_t>[]>(
          capacity > 0 ? capacity : 1)),
      capacity_(capacity > 0 ? capacity : 1) {}

void ChaseLevDeque::push(std::size_t value) {
  const std::int64_t b = bottom_.load(std::memory_order_seq_cst);
  buffer_[static_cast<std::size_t>(b) % capacity_].store(
      value, std::memory_order_seq_cst);
  bottom_.store(b + 1, std::memory_order_seq_cst);
}

std::size_t ChaseLevDeque::pop() {
  const std::int64_t b = bottom_.load(std::memory_order_seq_cst) - 1;
  bottom_.store(b, std::memory_order_seq_cst);
  std::int64_t t = top_.load(std::memory_order_seq_cst);
  if (t > b) {
    // Already drained; restore bottom.
    bottom_.store(b + 1, std::memory_order_seq_cst);
    return kEmpty;
  }
  std::size_t value = buffer_[static_cast<std::size_t>(b) % capacity_].load(
      std::memory_order_seq_cst);
  if (t == b) {
    // Last element: settle the race against thieves on top_.
    if (!top_.compare_exchange_strong(t, t + 1, std::memory_order_seq_cst)) {
      value = kEmpty;  // a thief got it first
    }
    bottom_.store(b + 1, std::memory_order_seq_cst);
  }
  return value;
}

std::size_t ChaseLevDeque::steal() {
  std::int64_t t = top_.load(std::memory_order_seq_cst);
  const std::int64_t b = bottom_.load(std::memory_order_seq_cst);
  if (t >= b) return kEmpty;
  const std::size_t value =
      buffer_[static_cast<std::size_t>(t) % capacity_].load(
          std::memory_order_seq_cst);
  if (!top_.compare_exchange_strong(t, t + 1, std::memory_order_seq_cst)) {
    return kEmpty;  // lost to the owner's pop or another thief
  }
  return value;
}

bool ChaseLevDeque::empty() const {
  return top_.load(std::memory_order_seq_cst) >=
         bottom_.load(std::memory_order_seq_cst);
}

BatchScheduler::BatchScheduler(std::size_t batches, std::size_t workers,
                               StealMode steal)
    : steal_(steal), remaining_(batches) {
  const std::size_t w = workers > 0 ? workers : 1;
  deques_.reserve(w);
  for (std::size_t i = 0; i < w; ++i) {
    deques_.push_back(
        std::make_unique<WorkerState>(batches, kStealSeed ^ (i * 0x9E3779B9ULL |
                                                             1ULL)));
  }
  // Contiguous preload: worker w's deque holds the w-th near-equal batch run,
  // lowest index on top — so a thief lifts the batch the owner would reach
  // last, and a no-steal drain visits them in order.
  const std::size_t base = batches / w;
  const std::size_t extra = batches % w;
  std::size_t next = 0;
  for (std::size_t i = 0; i < w; ++i) {
    const std::size_t count = base + (i < extra ? 1 : 0);
    for (std::size_t k = 0; k < count; ++k) deques_[i]->deque.push(next++);
  }
}

std::size_t BatchScheduler::steal_from_victims(std::size_t worker) {
  const std::size_t w = deques_.size();
  if (w <= 1) return ChaseLevDeque::kEmpty;
  // One randomized sweep over every other deque, starting at a seeded-random
  // victim. The draw order only affects which thread runs a batch — results
  // are index-addressed, so the schedule never shows in the output.
  std::uint64_t& rng = deques_[worker]->rng;
  rng ^= rng << 13;
  rng ^= rng >> 7;
  rng ^= rng << 17;
  const std::size_t start = static_cast<std::size_t>(rng % (w - 1));
  for (std::size_t k = 0; k < w - 1; ++k) {
    std::size_t victim = (start + k) % (w - 1);
    if (victim >= worker) ++victim;  // skip self
    const std::size_t got = deques_[victim]->deque.steal();
    if (got != ChaseLevDeque::kEmpty) return got;
  }
  return ChaseLevDeque::kEmpty;
}

std::size_t BatchScheduler::next(std::size_t worker) {
  WorkerState& self = *deques_[worker];
  for (;;) {
    std::size_t got = ChaseLevDeque::kEmpty;
    if (steal_ == StealMode::Adversarial) {
      // Maximal migration: raid every victim before touching the own deque.
      got = steal_from_victims(worker);
      if (got == ChaseLevDeque::kEmpty) got = self.deque.pop();
    } else {
      got = self.deque.pop();
      if (got == ChaseLevDeque::kEmpty && steal_ != StealMode::None) {
        got = steal_from_victims(worker);
      }
    }
    if (got != ChaseLevDeque::kEmpty) {
      remaining_.fetch_sub(1, std::memory_order_acq_rel);
      return got;
    }
    if (steal_ == StealMode::None) return kNone;  // own deque drained
    if (remaining_.load(std::memory_order_acquire) == 0) return kNone;
    // Everything is claimed or mid-steal; give the owners CPU.
    std::this_thread::yield();
  }
}

}  // namespace spfail::util
