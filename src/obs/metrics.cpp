#include "obs/metrics.hpp"

#include <algorithm>
#include <bit>
#include <stdexcept>

#include "snapshot/enums.hpp"

namespace spfail::obs {

std::string to_string(MetricKind kind) {
  switch (kind) {
    case MetricKind::Counter:
      return "counter";
    case MetricKind::Gauge:
      return "gauge";
    case MetricKind::Histogram:
      return "histogram";
  }
  return "unknown";
}

std::int64_t Histogram::bucket_bound(int index) {
  if (index <= 0) return 0;
  if (index >= kBucketCount - 1) {
    throw std::out_of_range("obs: +Inf bucket has no finite bound");
  }
  return std::int64_t{1} << (index - 1);
}

int Histogram::bucket_of(std::int64_t value) {
  if (value <= 0) return 0;
  // Smallest i with value <= 2^(i-1), i.e. bit_width of value-1 plus one;
  // value == 1 lands in bucket 1, a boundary-exact 2^k in bucket k+1.
  const int width =
      std::bit_width(static_cast<std::uint64_t>(value) - 1) + 1;
  return width > kBucketCount - 2 ? kBucketCount - 1 : width;
}

void Histogram::observe(std::int64_t value) {
  ++buckets_[static_cast<std::size_t>(bucket_of(value))];
  ++count_;
  sum_ += value;
  if (value > max_) max_ = value;
}

std::int64_t Histogram::quantile(double q) const {
  if (count_ == 0) return 0;
  if (q < 0.0) q = 0.0;
  if (q > 1.0) q = 1.0;
  // Rank computed in integers off a fixed-point q to stay FP-rounding-proof:
  // the smallest rank r with r >= q * count, at least 1.
  const auto target =
      (count_ * static_cast<std::uint64_t>(q * 1000000.0) + 999999) / 1000000;
  const auto rank = target == 0 ? 1 : target;
  // A bucket's bound can lie above every value in it; clamping to the exact
  // max keeps a reported quantile from contradicting the reported max.
  std::uint64_t seen = 0;
  for (int i = 0; i < kBucketCount - 1; ++i) {
    seen += buckets_[static_cast<std::size_t>(i)];
    if (seen >= rank) return std::min(bucket_bound(i), max_);
  }
  return max_;  // the +Inf bucket has no finite bound
}

void Histogram::merge(const Histogram& other) {
  for (int i = 0; i < kBucketCount; ++i) {
    buckets_[static_cast<std::size_t>(i)] +=
        other.buckets_[static_cast<std::size_t>(i)];
  }
  count_ += other.count_;
  sum_ += other.sum_;
  if (other.max_ > max_) max_ = other.max_;
}

void Histogram::encode(snapshot::Writer& w) const {
  w.u64(count_);
  w.i64(sum_);
  w.i64(max_);
  std::uint64_t nonzero = 0;
  for (auto b : buckets_) {
    if (b != 0) ++nonzero;
  }
  w.u64(nonzero);
  for (int i = 0; i < kBucketCount; ++i) {
    const auto b = buckets_[static_cast<std::size_t>(i)];
    if (b == 0) continue;
    w.u16(static_cast<std::uint16_t>(i));
    w.u64(b);
  }
}

Histogram Histogram::decode(snapshot::Reader& r) {
  Histogram h;
  h.count_ = r.u64();
  h.sum_ = r.i64();
  h.max_ = r.i64();
  const auto nonzero = r.u64();
  for (std::uint64_t n = 0; n < nonzero; ++n) {
    const auto index = r.u16();
    if (index >= kBucketCount) {
      throw snapshot::SnapshotError("obs: histogram bucket index " +
                                    std::to_string(index) + " out of range");
    }
    h.buckets_[index] = r.u64();
  }
  return h;
}

std::string render_labels(std::initializer_list<Label> labels) {
  std::string out;
  for (const auto& [key, value] : labels) {
    if (!out.empty()) out += ',';
    out += key;
    out += "=\"";
    out += value;
    out += '"';
  }
  return out;
}

Metric& Registry::cell(std::string_view name, std::string labels,
                       MetricKind kind, bool wall) {
  auto [it, inserted] = families_.try_emplace(std::string(name));
  Family& family = it->second;
  if (inserted) {
    family.kind = kind;
    family.wall = wall;
  } else if (family.kind != kind) {
    throw std::logic_error("obs: metric '" + std::string(name) +
                           "' already registered as " +
                           to_string(family.kind) + ", requested as " +
                           to_string(kind));
  }
  return family.cells[std::move(labels)];
}

std::uint64_t& Registry::counter(std::string_view name,
                                 std::initializer_list<Label> labels) {
  return cell(name, render_labels(labels), MetricKind::Counter, false).counter;
}

std::int64_t& Registry::gauge(std::string_view name,
                              std::initializer_list<Label> labels) {
  return cell(name, render_labels(labels), MetricKind::Gauge, false).gauge;
}

Histogram& Registry::histogram(std::string_view name,
                               std::initializer_list<Label> labels) {
  return cell(name, render_labels(labels), MetricKind::Histogram, false)
      .histogram;
}

std::uint64_t& Registry::counter_cell(std::string_view name,
                                      std::string labels, bool wall) {
  return cell(name, std::move(labels), MetricKind::Counter, wall).counter;
}

std::int64_t& Registry::gauge_cell(std::string_view name, std::string labels,
                                   bool wall) {
  return cell(name, std::move(labels), MetricKind::Gauge, wall).gauge;
}

Histogram& Registry::histogram_cell(std::string_view name, std::string labels,
                                    bool wall) {
  return cell(name, std::move(labels), MetricKind::Histogram, wall).histogram;
}

const Family* Registry::find(std::string_view name) const {
  auto it = families_.find(std::string(name));
  return it == families_.end() ? nullptr : &it->second;
}

void Registry::merge(const Registry& other) {
  for (const auto& [name, theirs] : other.families_) {
    auto [it, inserted] = families_.try_emplace(name);
    Family& ours = it->second;
    if (inserted) {
      ours.kind = theirs.kind;
      ours.wall = theirs.wall;
    } else if (ours.kind != theirs.kind) {
      throw std::logic_error("obs: merge kind mismatch for metric '" + name +
                             "'");
    }
    for (const auto& [labels, metric] : theirs.cells) {
      Metric& target = ours.cells[labels];
      switch (ours.kind) {
        case MetricKind::Counter:
          target.counter += metric.counter;
          break;
        case MetricKind::Gauge:
          target.gauge = metric.gauge;
          break;
        case MetricKind::Histogram:
          target.histogram.merge(metric.histogram);
          break;
      }
    }
  }
}

void Registry::encode(snapshot::Writer& w) const {
  w.u64(families_.size());
  for (const auto& [name, family] : families_) {
    w.str(name);
    w.u8(snapshot::encode_enum(family.kind));
    w.boolean(family.wall);
    w.u64(family.cells.size());
    for (const auto& [labels, metric] : family.cells) {
      w.str(labels);
      switch (family.kind) {
        case MetricKind::Counter:
          w.u64(metric.counter);
          break;
        case MetricKind::Gauge:
          w.i64(metric.gauge);
          break;
        case MetricKind::Histogram:
          metric.histogram.encode(w);
          break;
      }
    }
  }
}

Registry Registry::decode(snapshot::Reader& r) {
  Registry registry;
  const auto family_count = r.u64();
  for (std::uint64_t f = 0; f < family_count; ++f) {
    std::string name = r.str();
    Family family;
    family.kind = snapshot::decode_metric_kind(r.u8());
    family.wall = r.boolean();
    const auto cell_count = r.u64();
    for (std::uint64_t c = 0; c < cell_count; ++c) {
      std::string labels = r.str();
      Metric metric;
      switch (family.kind) {
        case MetricKind::Counter:
          metric.counter = r.u64();
          break;
        case MetricKind::Gauge:
          metric.gauge = r.i64();
          break;
        case MetricKind::Histogram:
          metric.histogram = Histogram::decode(r);
          break;
      }
      family.cells.emplace(std::move(labels), std::move(metric));
    }
    registry.families_.emplace(std::move(name), std::move(family));
  }
  return registry;
}

}  // namespace spfail::obs
