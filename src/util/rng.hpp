// Deterministic pseudo-random number generation for reproducible simulations.
//
// Every stochastic component of the SPFail reproduction (population synthesis,
// patch-hazard draws, measurement-loss process, scheduler jitter) draws from a
// Rng seeded from a single experiment seed, so a given seed always reproduces
// the same fleet and the same longitudinal trajectory.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace spfail::util {

// splitmix64: used to expand a single 64-bit seed into stream seeds.
// Reference: Sebastiano Vigna, public domain.
constexpr std::uint64_t splitmix64(std::uint64_t& state) noexcept {
  state += 0x9e3779b97f4a7c15ULL;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

// xoshiro256** 1.0 — fast, high-quality 64-bit generator.
class Rng {
 public:
  using result_type = std::uint64_t;

  explicit Rng(std::uint64_t seed = 0x5350464149'4cULL /* "SPFAIL" */) noexcept {
    std::uint64_t sm = seed;
    for (auto& word : state_) word = splitmix64(sm);
  }

  static constexpr result_type min() noexcept { return 0; }
  static constexpr result_type max() noexcept { return ~0ULL; }

  result_type operator()() noexcept {
    const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
    const std::uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = rotl(state_[3], 45);
    return result;
  }

  // Derive an independent child stream; `label` keeps derivations stable even
  // if call order changes between versions.
  Rng fork(std::string_view label) noexcept;

  // Generator position, for checkpointing mid-stream (src/snapshot/): a
  // restored Rng continues the exact draw sequence of the captured one.
  std::array<std::uint64_t, 4> state() const noexcept {
    return {state_[0], state_[1], state_[2], state_[3]};
  }
  void set_state(const std::array<std::uint64_t, 4>& words) noexcept {
    for (std::size_t i = 0; i < 4; ++i) state_[i] = words[i];
  }

  // Uniform integer in [lo, hi] (inclusive). Requires lo <= hi.
  std::uint64_t uniform(std::uint64_t lo, std::uint64_t hi) noexcept;
  std::int64_t uniform_signed(std::int64_t lo, std::int64_t hi) noexcept;

  // Uniform double in [0, 1).
  double uniform01() noexcept {
    return static_cast<double>((*this)() >> 11) * 0x1.0p-53;
  }

  bool bernoulli(double p) noexcept { return uniform01() < p; }

  // Exponential variate with the given rate (events per unit time).
  double exponential(double rate) noexcept;

  // Pick an index in [0, weights.size()) with probability proportional to
  // weights[i]. Throws std::invalid_argument if weights are empty or all zero.
  std::size_t weighted_index(std::span<const double> weights);

  // Pick a uniformly random element of a non-empty container.
  template <typename Container>
  const typename Container::value_type& pick(const Container& c) {
    if (c.empty()) throw std::invalid_argument("Rng::pick: empty container");
    return c[uniform(0, c.size() - 1)];
  }

  template <typename T>
  void shuffle(std::vector<T>& v) noexcept {
    for (std::size_t i = v.size(); i > 1; --i) {
      using std::swap;
      swap(v[i - 1], v[uniform(0, i - 1)]);
    }
  }

  // A short lowercase base-32 alphanumeric token (e.g. unique test labels).
  std::string token(std::size_t length);

 private:
  static constexpr std::uint64_t rotl(std::uint64_t x, int k) noexcept {
    return (x << k) | (x >> (64 - k));
  }

  std::uint64_t state_[4]{};
};

// Stable 64-bit FNV-1a hash of a string, used for label-keyed stream forking
// and as the checksum of every persisted file (snapshot/container.hpp). Pass
// a previous result as `h` to continue hashing: fnv1a(b, fnv1a(a)) equals
// fnv1a of a and b concatenated.
constexpr std::uint64_t fnv1a(std::string_view s,
                              std::uint64_t h = 0xcbf29ce484222325ULL) noexcept {
  for (char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

}  // namespace spfail::util
