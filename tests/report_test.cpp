// Tests for the table/figure renderers: every experiment deliverable must
// produce a well-formed table whose aggregates are internally consistent.
#include <gtest/gtest.h>

#include "report/tables.hpp"
#include "session/scan_session.hpp"

namespace spfail::report {
namespace {

// Shared tiny session; building the study once keeps this file fast. As in
// spfail_repro, the study runs first, so initial() is its initial campaign.
class ReportFixture : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    session::ScanConfig config;
    config.scale = 0.01;
    session_ = new session::ScanSession(config);
    session_->study();
  }
  static void TearDownTestSuite() {
    delete session_;
    session_ = nullptr;
  }
  static const longitudinal::StudyReport& study() {
    return *session_->study();
  }
  static session::ScanSession* session_;
};

session::ScanSession* ReportFixture::session_ = nullptr;

TEST_F(ReportFixture, SessionHonoursExplicitScale) {
  EXPECT_DOUBLE_EQ(session_->config().scale, 0.01);
  EXPECT_NE(session_->banner().find("scale=0.01"), std::string::npos);
}

TEST_F(ReportFixture, Table1ThreeByThree) {
  const auto table = table1_overlap(session_->fleet());
  EXPECT_EQ(table.rows(), 3u);
  EXPECT_EQ(table.columns(), 4u);
  // Diagonal cells render as 100%.
  EXPECT_NE(table.render().find("(100.0%)"), std::string::npos);
}

TEST_F(ReportFixture, Table2HasFifteenRows) {
  const auto table = table2_tlds(session_->fleet());
  EXPECT_EQ(table.rows(), 15u);
  EXPECT_NE(table.render().find("com"), std::string::npos);
}

TEST_F(ReportFixture, Table3FunnelConsistent) {
  const auto table = table3_outcomes(session_->fleet(), session_->initial());
  const std::string rendered = table.render();
  EXPECT_NE(rendered.find("Total Tested"), std::string::npos);
  EXPECT_NE(rendered.find("BlankMsg Test"), std::string::npos);
  EXPECT_NE(rendered.find("Provider Domains"), std::string::npos);
}

TEST_F(ReportFixture, Table4PartitionsMeasured) {
  const auto table = table4_breakdown(session_->fleet(), session_->initial());
  EXPECT_EQ(table.rows(), 4u);  // measured, vulnerable, erroneous, compliant
}

TEST_F(ReportFixture, Table5SortedByRate) {
  const auto table = table5_tld_patch(session_->fleet(), study());
  EXPECT_GE(table.rows(), 2u);
  EXPECT_LE(table.rows(), 10u);  // top five + bottom five
}

TEST_F(ReportFixture, Table6MatchesStaticFeed) {
  const auto table = table6_pkgmgr();
  EXPECT_EQ(table.rows(), 9u);
  const std::string rendered = table.render();
  EXPECT_NE(rendered.find("Debian"), std::string::npos);
  EXPECT_NE(rendered.find("Unpatched"), std::string::npos);
  EXPECT_NE(rendered.find("0*"), std::string::npos);
}

TEST_F(ReportFixture, Table7CoversAllBehaviors) {
  const auto table = table7_behaviors(session_->fleet(), session_->initial());
  const std::string rendered = table.render();
  EXPECT_NE(rendered.find("Vulnerable libSPF2"), std::string::npos);
  EXPECT_NE(rendered.find("No macro expansion"), std::string::npos);
  EXPECT_NE(rendered.find("Multiple expansion patterns"), std::string::npos);
}

TEST_F(ReportFixture, Fig2RowsPerCohort) {
  const auto table =
      fig2_final_distribution(session_->fleet(), study());
  EXPECT_EQ(table.rows(), 4u);
}

TEST_F(ReportFixture, Fig3HasRegions) {
  const auto table = fig3_geography(session_->fleet(), study());
  EXPECT_GE(table.rows(), 3u);
  EXPECT_NE(table.render().find("europe"), std::string::npos);
}

TEST_F(ReportFixture, Fig4TwentyBuckets) {
  const auto table = fig4_rank_buckets(session_->fleet(), study(),
                                       longitudinal::Cohort::AlexaTopList);
  EXPECT_EQ(table.rows(), 20u);
}

TEST_F(ReportFixture, Fig5OneRowPerRound) {
  const auto table = fig5_conclusive_series(
      session_->fleet(), study(), longitudinal::Cohort::All);
  EXPECT_EQ(table.rows(), study().round_times.size());
}

TEST_F(ReportFixture, Fig6StopsAtWindowBoundary) {
  const auto window1 = fig67_vulnerability_series(session_->fleet(),
                                                  study(), true);
  const auto full = fig67_vulnerability_series(session_->fleet(),
                                               study(), false);
  EXPECT_LT(window1.rows(), full.rows());
  EXPECT_EQ(full.rows(), study().round_times.size());
}

TEST_F(ReportFixture, NotificationFunnelShape) {
  const auto table = notification_funnel(study());
  const std::string rendered = table.render();
  EXPECT_NE(rendered.find("Notifications sent"), std::string::npos);
  EXPECT_NE(rendered.find("Opened (tracking image)"), std::string::npos);
}

}  // namespace
}  // namespace spfail::report
