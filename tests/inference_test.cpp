#include <gtest/gtest.h>

#include "longitudinal/inference.hpp"

namespace spfail::longitudinal {
namespace {

constexpr auto V = Observation::Vulnerable;
constexpr auto C = Observation::Compliant;
constexpr auto I = Observation::Inconclusive;

TEST(Inference, AllMeasuredPassThrough) {
  const auto states = infer({V, V, C, C});
  EXPECT_EQ(states[0], InferredState::MeasuredVulnerable);
  EXPECT_EQ(states[1], InferredState::MeasuredVulnerable);
  EXPECT_EQ(states[2], InferredState::MeasuredPatched);
  EXPECT_EQ(states[3], InferredState::MeasuredPatched);
}

TEST(Inference, Rule1BackfillsVulnerable) {
  // Measured vulnerable at round 2 -> rounds 0..1 inferred vulnerable.
  const auto states = infer({I, I, V, I});
  EXPECT_EQ(states[0], InferredState::InferredVulnerable);
  EXPECT_EQ(states[1], InferredState::InferredVulnerable);
  EXPECT_EQ(states[2], InferredState::MeasuredVulnerable);
  EXPECT_EQ(states[3], InferredState::Unknown);  // no forward inference
}

TEST(Inference, Rule2ForwardFillsPatched) {
  const auto states = infer({I, C, I, I});
  EXPECT_EQ(states[0], InferredState::Unknown);  // no backward inference
  EXPECT_EQ(states[1], InferredState::MeasuredPatched);
  EXPECT_EQ(states[2], InferredState::InferredPatched);
  EXPECT_EQ(states[3], InferredState::InferredPatched);
}

TEST(Inference, GapBetweenVulnerableAndPatched) {
  // V I I C: the gap is bounded by both rules; rule 1 fills up to the last
  // vulnerable (index 0), rule 2 fills after the first patched (index 3).
  const auto states = infer({V, I, I, C});
  EXPECT_EQ(states[0], InferredState::MeasuredVulnerable);
  EXPECT_EQ(states[1], InferredState::Unknown);
  EXPECT_EQ(states[2], InferredState::Unknown);
  EXPECT_EQ(states[3], InferredState::MeasuredPatched);
}

TEST(Inference, InterleavedGapInsideVulnerableSpan) {
  const auto states = infer({V, I, V, I});
  EXPECT_EQ(states[1], InferredState::InferredVulnerable);
  EXPECT_EQ(states[3], InferredState::Unknown);
}

TEST(Inference, AllInconclusiveStaysUnknown) {
  for (const auto state : infer({I, I, I})) {
    EXPECT_EQ(state, InferredState::Unknown);
  }
}

TEST(Inference, EmptySeries) { EXPECT_TRUE(infer({}).empty()); }

TEST(Inference, SingleObservation) {
  EXPECT_EQ(infer({V})[0], InferredState::MeasuredVulnerable);
  EXPECT_EQ(infer({C})[0], InferredState::MeasuredPatched);
  EXPECT_EQ(infer({I})[0], InferredState::Unknown);
}

// Property: inference never relabels a direct measurement, and the count of
// inferable rounds is monotone in the information added.
class InferenceProperty : public ::testing::TestWithParam<int> {};

TEST_P(InferenceProperty, MeasurementsPreservedAndSpansConsistent) {
  // Build a pseudo-random series from the parameter.
  std::vector<Observation> series;
  unsigned x = static_cast<unsigned>(GetParam()) * 2654435761u + 1;
  bool patched = false;
  for (int i = 0; i < 12; ++i) {
    x = x * 1664525u + 1013904223u;
    switch ((x >> 16) % 3) {
      case 0:
        series.push_back(I);
        break;
      case 1:
        series.push_back(patched ? C : V);
        break;
      default:
        patched = true;  // the host patches at a random point, no regression
        series.push_back(C);
        break;
    }
  }
  const auto states = infer(series);
  ASSERT_EQ(states.size(), series.size());
  for (std::size_t i = 0; i < series.size(); ++i) {
    if (series[i] == V) {
      EXPECT_EQ(states[i], InferredState::MeasuredVulnerable);
    }
    if (series[i] == C) {
      EXPECT_EQ(states[i], InferredState::MeasuredPatched);
    }
  }
  // No vulnerable state may appear after a patched state (monotonicity).
  bool saw_patched = false;
  for (const auto state : states) {
    if (is_patched(state)) saw_patched = true;
    if (saw_patched) {
      EXPECT_FALSE(is_vulnerable(state));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, InferenceProperty, ::testing::Range(0, 25));

TEST(InferenceTable, CountsAggregate) {
  InferenceTable table;
  table.set_series(util::IpAddress::v4(1, 1, 1, 1), {V, V, C});
  table.set_series(util::IpAddress::v4(2, 2, 2, 2), {I, V, I});
  table.set_series(util::IpAddress::v4(3, 3, 3, 3), {I, I, I});

  const auto round0 = table.counts_at(0);
  EXPECT_EQ(round0.measured_vulnerable, 1u);
  EXPECT_EQ(round0.inferred_vulnerable, 1u);  // rule 1 on address 2
  EXPECT_EQ(round0.unknown, 1u);
  EXPECT_EQ(round0.vulnerable(), 2u);

  const auto round2 = table.counts_at(2);
  EXPECT_EQ(round2.measured_patched, 1u);
  EXPECT_EQ(round2.unknown, 2u);
  EXPECT_EQ(round2.inferable(), 1u);
}

TEST(InferenceTable, RejectsMismatchedRounds) {
  InferenceTable table;
  table.set_series(util::IpAddress::v4(1, 1, 1, 1), {V, V});
  EXPECT_THROW(table.set_series(util::IpAddress::v4(2, 2, 2, 2), {V}),
               std::invalid_argument);
}

}  // namespace
}  // namespace spfail::longitudinal
