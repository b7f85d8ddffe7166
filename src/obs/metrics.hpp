// Deterministic metrics for the scan apparatus (DESIGN.md §12).
//
// A Registry owns Counter, Gauge, and Histogram metric families keyed by
// (name, rendered label set). Everything about it is chosen for determinism
// rather than speed: families and their labelled cells live in ordered maps,
// histogram bucket boundaries are fixed powers of two (so the distribution a
// run reports is platform- and thread-count-invariant), timers read the
// *simulated* clock, and per-shard registries merge by summation in
// shard-index order — the same lane discipline as util::SimClock and
// net::WireTrace. Two runs of the same seeded scan therefore emit
// bit-identical JSONL/Prometheus output at any thread count, which is what
// lets metric files participate in the golden-output test surface instead of
// being exempted from it.
//
// Wall-clock profiling is a separate, opt-in lane: families registered as
// wall-clock carry real nanoseconds and are excluded from the deterministic
// exports unless explicitly requested.
#pragma once

#include <array>
#include <cstdint>
#include <initializer_list>
#include <map>
#include <string>
#include <string_view>
#include <utility>

#include "snapshot/codec.hpp"

namespace spfail::obs {

// One label as the call site writes it: {"stage", "helo"}.
using Label = std::pair<std::string_view, std::string_view>;

// What a metric family measures. The numeric values are the frozen snapshot
// wire codes (snapshot/enums.cpp maps them; do not renumber).
enum class MetricKind : std::uint8_t {
  Counter = 1,    // monotone u64, merged by summation
  Gauge = 2,      // last-set i64, serial sections only
  Histogram = 3,  // log2-bucketed distribution, merged bucket-wise
};

std::string to_string(MetricKind kind);

// Fixed-boundary histogram over non-negative integer values (simulated
// seconds, counts). Bucket upper bounds are 0, 1, 2, 4, ..., 2^62, +Inf —
// never derived from the data — so two histograms over the same values are
// structurally identical and merging is bucket-wise addition.
class Histogram {
 public:
  // Bucket 0 holds v <= 0; bucket i (1..63) holds v <= 2^(i-1); bucket 64 is
  // the +Inf overflow.
  static constexpr int kBucketCount = 65;

  // The upper bound of bucket `index` (kBucketCount - 1 is +Inf, rendered by
  // the exporters; it has no finite bound).
  static std::int64_t bucket_bound(int index);
  // The bucket `value` lands in.
  static int bucket_of(std::int64_t value);

  void observe(std::int64_t value);

  std::uint64_t count() const noexcept { return count_; }
  std::int64_t sum() const noexcept { return sum_; }
  std::int64_t max() const noexcept { return max_; }
  const std::array<std::uint64_t, kBucketCount>& buckets() const noexcept {
    return buckets_;
  }

  // Deterministic quantile: the upper bound of the first bucket whose
  // cumulative count reaches q of the total, clamped to max() so it never
  // exceeds the observed max (the overflow bucket, which has no finite
  // bound, reports the max itself). 0 when empty.
  std::int64_t quantile(double q) const;

  void merge(const Histogram& other);

  // Wire form: count, sum, max, then the non-zero buckets as a sparse
  // (index, count) list — merged histograms keep exact sum/max this way,
  // which replaying observes could not reconstruct.
  void encode(snapshot::Writer& w) const;
  static Histogram decode(snapshot::Reader& r);

  friend bool operator==(const Histogram&, const Histogram&) = default;

 private:
  std::array<std::uint64_t, kBucketCount> buckets_{};
  std::uint64_t count_ = 0;
  std::int64_t sum_ = 0;
  std::int64_t max_ = 0;
};

// One labelled cell of a family. Exactly one of the value members is live,
// per the owning family's kind; keeping them side by side beats a variant
// for codec simplicity.
struct Metric {
  std::uint64_t counter = 0;
  std::int64_t gauge = 0;
  Histogram histogram;

  friend bool operator==(const Metric&, const Metric&) = default;
};

// All cells of one metric name. `wall` families carry wall-clock
// nanoseconds: real profiling data that must never reach a golden output, so
// the exporters skip them unless asked.
struct Family {
  MetricKind kind = MetricKind::Counter;
  bool wall = false;
  // Rendered label string ("stage=\"helo\"", "" for no labels) -> cell.
  std::map<std::string, Metric> cells;

  friend bool operator==(const Family&, const Family&) = default;
};

// Render labels canonically: comma-joined k="v" in call-site order. Call
// sites pass labels in one fixed order, so no sorting is applied (and label
// order is part of a metric's identity, as in Prometheus exposition).
std::string render_labels(std::initializer_list<Label> labels);

class Registry {
 public:
  // Cell accessors: create-on-first-use, verify the kind on every use (a
  // name registered as a counter cannot silently become a histogram).
  // Throws std::logic_error on a kind conflict.
  std::uint64_t& counter(std::string_view name,
                         std::initializer_list<Label> labels = {});
  std::int64_t& gauge(std::string_view name,
                      std::initializer_list<Label> labels = {});
  Histogram& histogram(std::string_view name,
                       std::initializer_list<Label> labels = {});

  // Pre-rendered-label variants (the hooks in lane.hpp render once).
  std::uint64_t& counter_cell(std::string_view name, std::string labels,
                              bool wall = false);
  std::int64_t& gauge_cell(std::string_view name, std::string labels,
                           bool wall = false);
  Histogram& histogram_cell(std::string_view name, std::string labels,
                            bool wall = false);

  const std::map<std::string, Family>& families() const noexcept {
    return families_;
  }
  const Family* find(std::string_view name) const;
  bool empty() const noexcept { return families_.empty(); }
  void clear() { families_.clear(); }

  // Fold `other` in: counters and histograms sum, gauges take the incoming
  // value (so call in shard-index order; shard lanes should not set gauges).
  // Kind mismatches throw. Counter/histogram merging is commutative, which
  // the determinism tests rely on.
  void merge(const Registry& other);

  // Frozen little-endian wire form for the checkpoint payload
  // (DESIGN.md §12): family count, then per family name, kind byte
  // (snapshot/enums), wall flag, cell count, and per cell the label string
  // plus the kind's value (histograms as sparse non-zero buckets).
  void encode(snapshot::Writer& w) const;
  static Registry decode(snapshot::Reader& r);

  friend bool operator==(const Registry&, const Registry&) = default;

 private:
  Metric& cell(std::string_view name, std::string labels, MetricKind kind,
               bool wall);

  std::map<std::string, Family> families_;
};

}  // namespace spfail::obs
