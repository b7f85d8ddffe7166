#include "svc/admission.hpp"

#include <algorithm>

#include "session/scan_config.hpp"

namespace spfail::svc {

void AdmissionConfig::validate() const {
  const auto fail = [](const std::string& what) {
    throw session::ScanConfigError("admission config: " + what);
  };
  if (bucket_capacity < 1) fail("bucket capacity must be at least 1");
  if (bucket_refill < 0) fail("bucket refill must be non-negative");
  if (breaker_threshold < 1) fail("breaker threshold must be at least 1");
  if (breaker_cooldown < 1) fail("breaker cooldown must be at least 1");
  if (defer_budget < 0) fail("defer budget must be non-negative");
}

std::string to_string(Decision decision) {
  switch (decision) {
    case Decision::Admit: return "admit";
    case Decision::Defer: return "defer";
    case Decision::ForceRun: return "force-run";
  }
  return "unknown";
}

AdmissionController::AdmissionController(AdmissionConfig config)
    : config_(config) {
  config_.validate();
}

NetworkState& AdmissionController::state_for(std::uint64_t net) {
  const auto it = networks_.find(net);
  if (it != networks_.end()) return it->second;
  NetworkState fresh;
  fresh.tokens = config_.bucket_capacity;
  return networks_.emplace(net, fresh).first->second;
}

void AdmissionController::refill() {
  for (auto& [net, state] : networks_) {
    state.tokens =
        std::min(config_.bucket_capacity, state.tokens + config_.bucket_refill);
    if (state.cooldown_left > 0 && --state.cooldown_left == 0) {
      state.consecutive_deferrals = 0;
    }
  }
}

Decision AdmissionController::decide(std::span<const std::uint64_t> networks,
                                     int& defer_budget_left) {
  // First pass: would anything block? Collect the blockers so a deferral
  // penalises exactly the networks that caused it.
  bool blocked = false;
  for (const std::uint64_t net : networks) {
    const NetworkState& state = state_for(net);
    if (state.cooldown_left > 0 || state.tokens < 1) blocked = true;
  }

  if (!blocked) {
    for (const std::uint64_t net : networks) {
      NetworkState& state = state_for(net);
      --state.tokens;
      state.consecutive_deferrals = 0;
    }
    return Decision::Admit;
  }

  if (defer_budget_left <= 0) {
    // Budget exhausted: run anyway, without charging — the queue-level
    // equivalent of a retry schedule concluding after its last attempt.
    return Decision::ForceRun;
  }

  --defer_budget_left;
  for (const std::uint64_t net : networks) {
    NetworkState& state = state_for(net);
    if (state.cooldown_left > 0) continue;  // already open; streak frozen
    if (state.tokens < 1) {
      if (++state.consecutive_deferrals >= config_.breaker_threshold) {
        state.cooldown_left = config_.breaker_cooldown;
        ++breaker_trips_;
      }
    }
  }
  return Decision::Defer;
}

std::vector<std::uint64_t> AdmissionController::open_breakers() const {
  std::vector<std::uint64_t> open;
  for (const auto& [net, state] : networks_) {
    if (state.cooldown_left > 0) open.push_back(net);
  }
  return open;
}

void AdmissionController::encode(snapshot::Writer& w) const {
  w.i64(config_.bucket_capacity);
  w.i64(config_.bucket_refill);
  w.i64(config_.breaker_threshold);
  w.i64(config_.breaker_cooldown);
  w.i64(config_.defer_budget);
  w.u64(breaker_trips_);
  w.u32(static_cast<std::uint32_t>(networks_.size()));
  for (const auto& [net, state] : networks_) {
    w.u64(net);
    w.i64(state.tokens);
    w.i64(state.consecutive_deferrals);
    w.i64(state.cooldown_left);
  }
}

AdmissionController AdmissionController::decode(snapshot::Reader& r) {
  AdmissionConfig config;
  config.bucket_capacity = r.i64_int();
  config.bucket_refill = r.i64_int();
  config.breaker_threshold = r.i64_int();
  config.breaker_cooldown = r.i64_int();
  config.defer_budget = r.i64_int();
  AdmissionController controller(config);
  controller.breaker_trips_ = r.u64();
  const std::uint32_t count = r.u32();
  std::uint64_t last_net = 0;
  for (std::uint32_t i = 0; i < count; ++i) {
    const std::uint64_t net = r.u64();
    if (i > 0 && net <= last_net) {
      throw snapshot::SnapshotError("admission networks out of order");
    }
    last_net = net;
    NetworkState state;
    state.tokens = r.i64_int();
    state.consecutive_deferrals = r.i64_int();
    state.cooldown_left = r.i64_int();
    if (state.tokens < 0 || state.tokens > config.bucket_capacity ||
        state.consecutive_deferrals < 0 || state.cooldown_left < 0 ||
        state.cooldown_left > config.breaker_cooldown) {
      throw snapshot::SnapshotError("admission network state out of range");
    }
    controller.networks_.emplace(net, state);
  }
  return controller;
}

}  // namespace spfail::svc
