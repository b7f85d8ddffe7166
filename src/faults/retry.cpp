#include "faults/retry.hpp"

#include "obs/lane.hpp"
#include "util/rng.hpp"

namespace spfail::faults {

std::string to_string(RetryOutcome outcome) {
  switch (outcome) {
    case RetryOutcome::FirstTry:
      return "first-try";
    case RetryOutcome::Recovered:
      return "recovered";
    case RetryOutcome::Exhausted:
      return "exhausted";
  }
  return "?";
}

RetryConfig resolve_retry(RetryConfig config, int attempts,
                          util::SimTime backoff) {
  if (config.max_attempts == 0) {
    config.max_attempts = attempts;
    config.base_backoff = backoff;
    config.multiplier = 1.0;
    config.max_backoff = backoff;
    config.jitter = 0.0;
  }
  return config;
}

util::SimTime RetryPolicy::backoff(std::uint64_t key, std::uint64_t round,
                                   int retry_index) const {
  double wait = static_cast<double>(config_.base_backoff);
  for (int i = 0; i < retry_index; ++i) wait *= config_.multiplier;
  const double cap = static_cast<double>(config_.max_backoff);
  if (wait > cap) wait = cap;
  if (config_.jitter > 0.0) {
    std::uint64_t state = config_.seed ^ key;
    state ^= util::splitmix64(state) ^ round;
    state ^= util::splitmix64(state) ^ static_cast<std::uint64_t>(retry_index);
    util::Rng rng(util::splitmix64(state));
    wait *= 1.0 + config_.jitter * (2.0 * rng.uniform01() - 1.0);
  }
  const auto rounded = static_cast<util::SimTime>(wait);
  const auto clamped = rounded < 1 ? 1 : rounded;
  obs::observe("retry_backoff_sim_seconds", clamped);
  return clamped;
}

util::SimTime RetryPolicy::backoff(const util::IpAddress& address,
                                   std::uint64_t round,
                                   int retry_index) const {
  return backoff(util::IpAddressHash{}(address), round, retry_index);
}

}  // namespace spfail::faults
