// Retry/backoff engine for transient failures.
//
// Replaces the ad-hoc single greylist retry: any transient outcome (greylist
// 451, injected tempfail, dropped connection, DNS SERVFAIL) can be retried up
// to a configured attempt count, with exponential backoff and seeded jitter.
// Jitter draws are keyed by (address/key, round, retry index) — never by call
// order — so backoff schedules are bit-identical at any thread count.
#pragma once

#include <cstdint>
#include <string>

#include "util/clock.hpp"
#include "util/ip.hpp"

namespace spfail::faults {

// How one retried operation ultimately ended (degradation accounting).
enum class RetryOutcome {
  FirstTry,   // no transient failure was ever seen
  Recovered,  // transient at least once, conclusive/terminal in the end
  Exhausted,  // still transient when attempts or budget ran out
};

std::string to_string(RetryOutcome outcome);

struct RetryConfig {
  // Total dialog attempts (1 = no retries). 0 means "derive from the
  // caller's legacy knobs" (resolve_retry below).
  int max_attempts = 0;
  util::SimTime base_backoff = 8 * util::kMinute;
  double multiplier = 2.0;                       // exponential growth
  util::SimTime max_backoff = 64 * util::kMinute;  // growth clamp
  double jitter = 0.0;  // +/- fraction of the backoff, seeded (0 = exact)
  // Retries one address may consume across a whole measurement round
  // (all waves plus the re-queue pass).
  int per_address_budget = 16;
  std::uint64_t seed = 0x4241434BULL;  // "BACK"
};

// Resolve `config`'s zero sentinel to the legacy retry schedule: `attempts`
// attempts at a flat, unjittered `backoff` — the exact clock schedule of the
// old single greylist retry, which keeps a rate-0 run byte-identical. A
// config with max_attempts != 0 is returned unchanged. The campaign passes
// 1 + max_greylist_retries and its greylist backoff; the study passes 2 and
// the paper's eight minutes.
RetryConfig resolve_retry(RetryConfig config, int attempts,
                          util::SimTime backoff);

class RetryPolicy {
 public:
  RetryPolicy() = default;
  explicit RetryPolicy(RetryConfig config) : config_(config) {}

  const RetryConfig& config() const noexcept { return config_; }
  int max_attempts() const noexcept {
    return config_.max_attempts < 1 ? 1 : config_.max_attempts;
  }

  // May attempt number `attempts_done + 1` begin? `budget_left` is the
  // address's remaining round-level retry allowance.
  bool allow_retry(int attempts_done, int budget_left) const noexcept {
    return attempts_done < max_attempts() && budget_left > 0;
  }

  // Backoff to wait before retry `retry_index` (0-based: the wait between
  // attempt N and attempt N+1 uses retry_index = N - 1... i.e. first retry
  // waits backoff(key, round, 0)). Deterministically jittered per key.
  util::SimTime backoff(std::uint64_t key, std::uint64_t round,
                        int retry_index) const;
  util::SimTime backoff(const util::IpAddress& address, std::uint64_t round,
                        int retry_index) const;

 private:
  RetryConfig config_;
};

}  // namespace spfail::faults
