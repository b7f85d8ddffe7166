// The deterministic metrics subsystem (DESIGN.md §12): fixed histogram
// bucket geometry, integer quantiles, commutative merges, thread-lane
// scoping, the frozen snapshot wire form, and the two exporters whose output
// participates in the golden-file surface.
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <string>

#include "obs/export.hpp"
#include "obs/lane.hpp"
#include "obs/metrics.hpp"
#include "snapshot/codec.hpp"
#include "util/rng.hpp"

namespace spfail {
namespace {

using obs::Histogram;
using obs::Registry;

// --- histogram geometry -----------------------------------------------------

TEST(ObsHistogram, BucketEdgesArePowersOfTwo) {
  // Bucket 0 catches everything <= 0.
  EXPECT_EQ(Histogram::bucket_of(0), 0);
  EXPECT_EQ(Histogram::bucket_of(-1), 0);
  EXPECT_EQ(Histogram::bucket_of(std::numeric_limits<std::int64_t>::min()), 0);
  // Bucket i holds v <= 2^(i-1): boundary values land exactly on their
  // bucket, boundary+1 spills into the next.
  EXPECT_EQ(Histogram::bucket_of(1), 1);
  EXPECT_EQ(Histogram::bucket_of(2), 2);
  EXPECT_EQ(Histogram::bucket_of(3), 3);
  EXPECT_EQ(Histogram::bucket_of(4), 3);
  EXPECT_EQ(Histogram::bucket_of(5), 4);
  for (int i = 1; i < Histogram::kBucketCount - 1; ++i) {
    EXPECT_EQ(Histogram::bucket_of(Histogram::bucket_bound(i)), i)
        << "boundary of bucket " << i;
  }
  // The largest finite bound is 2^62; one past it overflows to +Inf.
  EXPECT_EQ(Histogram::bucket_bound(Histogram::kBucketCount - 2),
            std::int64_t{1} << 62);
  EXPECT_EQ(Histogram::bucket_of((std::int64_t{1} << 62) + 1),
            Histogram::kBucketCount - 1);
  EXPECT_EQ(Histogram::bucket_of(std::numeric_limits<std::int64_t>::max()),
            Histogram::kBucketCount - 1);
  // The +Inf bucket has no finite bound.
  EXPECT_THROW(Histogram::bucket_bound(Histogram::kBucketCount - 1),
               std::out_of_range);
}

TEST(ObsHistogram, ObserveTracksCountSumMax) {
  Histogram h;
  EXPECT_EQ(h.count(), 0u);
  h.observe(3);
  h.observe(0);
  h.observe(7);
  EXPECT_EQ(h.count(), 3u);
  EXPECT_EQ(h.sum(), 10);
  EXPECT_EQ(h.max(), 7);
  EXPECT_EQ(h.buckets()[0], 1u);  // the 0
  EXPECT_EQ(h.buckets()[3], 1u);  // 3 -> (2, 4]
  EXPECT_EQ(h.buckets()[4], 1u);  // 7 -> (4, 8]
}

TEST(ObsHistogram, QuantilesAreDeterministicBucketBounds) {
  Histogram h;
  EXPECT_EQ(h.quantile(0.5), 0);  // empty
  for (const std::int64_t v : {1, 2, 3, 4}) h.observe(v);
  // rank(0.5 of 4) = 2 -> cumulative reaches 2 at bucket 2 (bound 2).
  EXPECT_EQ(h.quantile(0.5), 2);
  // rank(0.95 of 4) = 4 -> bucket 3 (bound 4).
  EXPECT_EQ(h.quantile(0.95), 4);
  EXPECT_EQ(h.quantile(0.0), 1);  // rank clamps to 1
  EXPECT_EQ(h.quantile(1.0), 4);
}

TEST(ObsHistogram, OverflowBucketQuantileReportsObservedMax) {
  Histogram h;
  const std::int64_t big = (std::int64_t{1} << 62) + 12345;
  h.observe(big);
  EXPECT_EQ(h.quantile(0.5), big);
  EXPECT_EQ(h.quantile(1.0), big);
  EXPECT_EQ(h.max(), big);
}

TEST(ObsHistogram, QuantilesStayWithinZeroAndMaxAndNeverDecrease) {
  // Seeded property over value sets of mixed magnitude (below 2^56, so the
  // int64 sum of up to 64 values cannot overflow): every quantile lies in
  // [0, max()] and grows with q. A bare bucket bound breaks the upper edge —
  // one observation of 3 sits in the bucket bounded by 4.
  util::Rng rng(0x0B5C1A);
  constexpr double kQs[] = {0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99, 1.0};
  for (int trial = 0; trial < 500; ++trial) {
    Histogram h;
    const std::uint64_t n = rng.uniform(1, 64);
    const std::uint64_t bits = rng.uniform(1, 56);
    for (std::uint64_t i = 0; i < n; ++i) {
      h.observe(static_cast<std::int64_t>(rng() >> (64 - bits)));
    }
    std::int64_t previous = 0;
    for (const double q : kQs) {
      const std::int64_t value = h.quantile(q);
      EXPECT_GE(value, 0) << "trial " << trial << ", q " << q;
      EXPECT_LE(value, h.max()) << "trial " << trial << ", q " << q;
      EXPECT_GE(value, previous) << "trial " << trial << ", q " << q;
      previous = value;
    }
  }
}

TEST(ObsHistogram, MergeIsCommutative) {
  Histogram a, b;
  for (const std::int64_t v : {0, 1, 5, 480}) a.observe(v);
  for (const std::int64_t v : {2, 2, 1 << 20}) b.observe(v);

  Histogram ab = a;
  ab.merge(b);
  Histogram ba = b;
  ba.merge(a);
  EXPECT_EQ(ab, ba);

  Histogram all;
  for (const std::int64_t v : {0, 1, 5, 480, 2, 2, 1 << 20}) all.observe(v);
  EXPECT_EQ(ab, all);
}

// --- registry ---------------------------------------------------------------

TEST(ObsRegistry, KindConflictsThrowInsteadOfCoercing) {
  Registry registry;
  registry.counter("x") += 1;
  EXPECT_THROW(registry.histogram("x"), std::logic_error);
  EXPECT_THROW(registry.gauge("x"), std::logic_error);
  EXPECT_NO_THROW(registry.counter("x", {{"l", "v"}}));
}

TEST(ObsRegistry, LabelsRenderInCallSiteOrder) {
  EXPECT_EQ(obs::render_labels({{"proto", "smtp"}, {"dir", "c2s"}}),
            "proto=\"smtp\",dir=\"c2s\"");
  EXPECT_EQ(obs::render_labels({}), "");
}

TEST(ObsRegistry, CounterAndHistogramMergeIsShardingInvariant) {
  // The same observations split across shard registries two different ways
  // must merge to the same master — the property that makes metric output
  // thread-count-invariant.
  const auto book = [](Registry& r, std::int64_t v) {
    r.counter("probes", {{"test", "NoMsg"}}) += 1;
    r.histogram("latency").observe(v);
  };
  Registry split_a1, split_a2, split_b1, split_b2, split_b3;
  for (const std::int64_t v : {1, 2}) book(split_a1, v);
  for (const std::int64_t v : {3, 4, 5}) book(split_a2, v);
  for (const std::int64_t v : {1}) book(split_b1, v);
  for (const std::int64_t v : {2, 3}) book(split_b2, v);
  for (const std::int64_t v : {4, 5}) book(split_b3, v);

  Registry master_a;
  master_a.merge(split_a1);
  master_a.merge(split_a2);
  Registry master_b;
  master_b.merge(split_b1);
  master_b.merge(split_b2);
  master_b.merge(split_b3);
  EXPECT_EQ(master_a, master_b);
  EXPECT_EQ(master_a.counter("probes", {{"test", "NoMsg"}}), 5u);
  EXPECT_EQ(master_a.histogram("latency").count(), 5u);
}

TEST(ObsRegistry, MergeKindMismatchThrows) {
  Registry a, b;
  a.counter("m") += 1;
  b.gauge("m") = 2;
  EXPECT_THROW(a.merge(b), std::logic_error);
}

// --- lanes and hooks --------------------------------------------------------

TEST(ObsLane, HooksNoOpWithoutAnActiveLane) {
  ASSERT_FALSE(obs::MetricsLane::active());
  obs::count("orphan");
  obs::observe("orphan_h", 7);
  obs::gauge_set("orphan_g", 7);
  // Nothing to assert against — the contract is simply "no crash, no write".
}

TEST(ObsLane, LaneRoutesHooksAndNests) {
  Registry outer, inner;
  {
    const obs::MetricsLane lane(outer);
    ASSERT_EQ(obs::MetricsLane::current(), &outer);
    obs::count("hits");
    {
      // An inner lane redirects (TraceStats uses this), then restores.
      const obs::MetricsLane nested(inner);
      ASSERT_EQ(obs::MetricsLane::current(), &inner);
      obs::count("hits");
      obs::count("hits");
    }
    ASSERT_EQ(obs::MetricsLane::current(), &outer);
    obs::count("hits");
  }
  EXPECT_FALSE(obs::MetricsLane::active());
  EXPECT_EQ(outer.counter("hits"), 2u);
  EXPECT_EQ(inner.counter("hits"), 2u);
}

TEST(ObsLane, ScopedTimerChargesSimTimeToTheConstructionLane) {
  Registry registry;
  util::SimTime now = 100;
  const auto clock = [&now] { return now; };
  {
    const obs::MetricsLane lane(registry);
    const obs::ScopedTimer timer("stage", clock, {{"stage", "helo"}});
    now += 7;
  }
  const Histogram& h = registry.histogram("stage", {{"stage", "helo"}});
  EXPECT_EQ(h.count(), 1u);
  EXPECT_EQ(h.sum(), 7);

  // Without a lane the timer is inert: the clock is never read.
  bool read = false;
  {
    const obs::ScopedTimer timer("stage",
                                 [&read] {
                                   read = true;
                                   return util::SimTime{0};
                                 });
  }
  EXPECT_FALSE(read);
}

TEST(ObsLane, WallProfilingIsOptInAndTagged) {
  Registry registry;
  util::SimTime now = 0;
  {
    const obs::MetricsLane lane(registry);
    const obs::WallProfileScope wall;
    const obs::ScopedTimer timer("stage", [&now] { return now; });
  }
  EXPECT_FALSE(obs::WallProfileScope::enabled());
  const obs::Family* family = registry.find("stage_wall_ns");
  ASSERT_NE(family, nullptr);
  EXPECT_TRUE(family->wall);
  EXPECT_FALSE(registry.find("stage")->wall);

  // Wall families stay out of both exporters unless explicitly requested.
  std::ostringstream prom, prom_wall;
  obs::write_prometheus(registry, prom);
  obs::write_prometheus(registry, prom_wall, /*include_wall=*/true);
  EXPECT_EQ(prom.str().find("stage_wall_ns"), std::string::npos);
  EXPECT_NE(prom_wall.str().find("stage_wall_ns"), std::string::npos);
  const std::string json = obs::round_snapshot_json(registry, "final");
  EXPECT_EQ(json.find("stage_wall_ns"), std::string::npos);
  EXPECT_NE(obs::round_snapshot_json(registry, "final", -1, true)
                .find("stage_wall_ns"),
            std::string::npos);
}

// --- snapshot wire form -----------------------------------------------------

Registry populated_registry() {
  Registry registry;
  registry.counter("frames", {{"proto", "smtp"}}) += 41;
  registry.counter("frames", {{"proto", "dns"}}) += 7;
  registry.gauge("round") = -3;
  Histogram& h = registry.histogram("latency", {{"stage", "rcpt"}});
  for (const std::int64_t v : {0, 1, 14, 480}) h.observe(v);
  registry.histogram_cell("stage_wall_ns", "", /*wall=*/true).observe(12345);
  return registry;
}

TEST(ObsSnapshot, RegistryEncodeDecodeRoundTrips) {
  const Registry registry = populated_registry();
  snapshot::Writer w;
  registry.encode(w);
  snapshot::Reader r(w.bytes());
  const Registry decoded = Registry::decode(r);
  r.expect_done();
  EXPECT_EQ(decoded, registry);

  // Empty registry round-trips too.
  snapshot::Writer we;
  Registry{}.encode(we);
  snapshot::Reader re(we.bytes());
  EXPECT_TRUE(Registry::decode(re).empty());
}

TEST(ObsSnapshot, DecodeRejectsOutOfRangeBucketIndex) {
  snapshot::Writer w;
  w.u64(1);  // count
  w.i64(1);  // sum
  w.i64(1);  // max
  w.u64(1);  // one sparse bucket...
  w.u16(Histogram::kBucketCount);  // ...with an impossible index
  w.u64(1);
  snapshot::Reader r(w.bytes());
  EXPECT_THROW(Histogram::decode(r), snapshot::SnapshotError);
}

// --- exporters --------------------------------------------------------------

TEST(ObsExport, PrometheusRendersCumulativeBucketsElidingEmptyOnes) {
  Registry registry;
  Histogram& h = registry.histogram("lat", {{"p", "smtp"}});
  for (const std::int64_t v : {1, 1, 4}) h.observe(v);
  registry.counter("hits") += 3;

  std::ostringstream out;
  obs::write_prometheus(registry, out);
  EXPECT_EQ(out.str(),
            "# TYPE hits counter\n"
            "hits 3\n"
            "# TYPE lat histogram\n"
            "lat_bucket{p=\"smtp\",le=\"1\"} 2\n"
            "lat_bucket{p=\"smtp\",le=\"4\"} 3\n"
            "lat_bucket{p=\"smtp\",le=\"+Inf\"} 3\n"
            "lat_sum{p=\"smtp\"} 6\n"
            "lat_count{p=\"smtp\"} 3\n");
}

TEST(ObsExport, RoundSnapshotJsonHasFixedShape) {
  Registry registry;
  registry.counter("hits", {{"k", "v"}}) += 2;
  registry.gauge("depth") = 5;
  registry.histogram("lat").observe(3);

  EXPECT_EQ(obs::round_snapshot_json(registry, "round", 4),
            "{\"phase\":\"round\",\"round\":4,"
            "\"counters\":{\"hits{k=\\\"v\\\"}\":2},"
            "\"gauges\":{\"depth\":5},"
            "\"histograms\":{\"lat\":{\"count\":1,\"sum\":3,\"max\":3,"
            "\"p50\":3,\"p95\":3}}}");
  // No round key for phases outside the longitudinal loop.
  EXPECT_EQ(obs::round_snapshot_json(registry, "initial").find("\"round\""),
            std::string::npos);
}

}  // namespace
}  // namespace spfail
