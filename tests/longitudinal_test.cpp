#include <gtest/gtest.h>

#include "longitudinal/notification.hpp"
#include "longitudinal/patch_model.hpp"
#include "longitudinal/pkgmgr.hpp"
#include "longitudinal/study.hpp"
#include "population/paper_constants.hpp"

namespace spfail::longitudinal {
namespace {

namespace paper = population::paper;

// ------------------------------------------------------------ patch model

PatchContext base_context() {
  PatchContext context;
  context.tld = "com";
  return context;
}

TEST(PatchModel, NamedProvidersNeverPatch) {
  PatchModel model;
  for (int i = 0; i < 200; ++i) {
    PatchContext context = base_context();
    context.named_top_provider = true;
    EXPECT_FALSE(model.decide(context).will_patch);
  }
}

TEST(PatchModel, TwPatchRateIsZero) {
  PatchModel model;
  for (int i = 0; i < 200; ++i) {
    PatchContext context = base_context();
    context.tld = "tw";
    EXPECT_FALSE(model.decide(context).will_patch);  // Table 5: 0%
  }
}

TEST(PatchModel, ZaPatchesAlmostAlwaysAndEarly) {
  PatchModel model;
  int patched = 0, pre_disclosure = 0, pre_notification = 0;
  for (int i = 0; i < 500; ++i) {
    PatchContext context = base_context();
    context.tld = "za";
    const PatchDecision decision = model.decide(context);
    if (!decision.will_patch) continue;
    ++patched;
    pre_disclosure += decision.patch_time < paper::kPublicDisclosure;
    pre_notification += decision.patch_time < paper::kPrivateNotification;
  }
  EXPECT_GT(patched, 350);  // Table 5: 79% domain rate -> higher per address
  // §7.3: 98% of .za patching happened in the Oct/Nov window, before any
  // public disclosure; most of it even before the private notification.
  EXPECT_GT(static_cast<double>(pre_disclosure) / patched, 0.90);
  EXPECT_GT(static_cast<double>(pre_notification) / patched, 0.55);
}

TEST(PatchModel, ComNearGlobalRate) {
  PatchModel model;
  int patched = 0;
  const int n = 4000;
  for (int i = 0; i < n; ++i) {
    patched += model.decide(base_context()).will_patch;
  }
  // com domain rate 15% -> dedicated-address rate ~0.33 (1/1.7 exponent).
  EXPECT_NEAR(patched / static_cast<double>(n), 0.33, 0.04);
}

TEST(PatchModel, HostedDampingReducesPatching) {
  PatchModel model_a{{.seed = 9}}, model_b{{.seed = 9}};
  int single = 0, heavy = 0;
  for (int i = 0; i < 3000; ++i) {
    PatchContext context = base_context();
    single += model_a.decide(context).will_patch;
    context.domains_hosted = 50;
    heavy += model_b.decide(context).will_patch;
  }
  EXPECT_LT(heavy * 5, single);
}

TEST(PatchModel, OpenedNotificationRaisesRate) {
  PatchModel model_a{{.seed = 3}}, model_b{{.seed = 3}};
  int base = 0, boosted = 0;
  for (int i = 0; i < 3000; ++i) {
    PatchContext context = base_context();
    context.tld = "ru";  // 2% domain rate
    base += model_a.decide(context).will_patch;
    context.notification_opened = true;
    boosted += model_b.decide(context).will_patch;
  }
  EXPECT_GT(boosted, base * 2);
}

TEST(PatchModel, PatchTimesInsideStudyWindow) {
  PatchModel model;
  for (int i = 0; i < 2000; ++i) {
    const PatchDecision decision = model.decide(base_context());
    if (!decision.will_patch) continue;
    EXPECT_GT(decision.patch_time, paper::kInitialMeasurement);
    EXPECT_LT(decision.patch_time, paper::kFinalMeasurement);
  }
}

TEST(PatchModel, PostDisclosureSurgeExists) {
  PatchModel model;
  int w1 = 0, between = 0, post = 0;
  for (int i = 0; i < 5000; ++i) {
    const PatchDecision decision = model.decide(base_context());
    if (!decision.will_patch) continue;
    if (decision.patch_time < paper::kPrivateNotification) {
      ++w1;
    } else if (decision.patch_time < paper::kPublicDisclosure) {
      ++between;
    } else {
      ++post;
    }
  }
  // §7.6/7.7: the drop after public disclosure dwarfs the between-window
  // movement; window 1 is real but smaller than the disclosure surge.
  EXPECT_GT(post, w1);
  EXPECT_GT(w1, between);
}

// ------------------------------------------------------------ notification

TEST(Notification, GroupsDomainsBySharedInfrastructure) {
  NotificationCampaign campaign;
  const auto shared = util::IpAddress::v4(1, 1, 1, 1);
  campaign.add_domain("a.example", {shared});
  campaign.add_domain("b.example", {shared});
  campaign.add_domain("c.example", {util::IpAddress::v4(2, 2, 2, 2)});
  campaign.send();
  EXPECT_EQ(campaign.groups().size(), 2u);
  EXPECT_EQ(campaign.groups()[0].covered_domains.size(), 2u);
}

TEST(Notification, FunnelRatesApproximatePaper) {
  NotificationConfig config;
  config.seed = 5;
  NotificationCampaign campaign(config);
  for (int i = 0; i < 6000; ++i) {
    campaign.add_domain("d" + std::to_string(i) + ".example",
                        {util::IpAddress::v4(10, static_cast<uint8_t>(i >> 16),
                                             static_cast<uint8_t>(i >> 8),
                                             static_cast<uint8_t>(i))});
  }
  campaign.send();
  const NotificationStats stats = campaign.stats();
  EXPECT_EQ(stats.sent, 6000u);
  // §7.7: 31.6% bounced; 12% of delivered opened.
  EXPECT_NEAR(stats.bounced / 6000.0, 0.316, 0.02);
  EXPECT_NEAR(static_cast<double>(stats.opened) / stats.delivered, 0.12, 0.02);
}

TEST(Notification, OpenTimesFollowSend) {
  NotificationCampaign campaign;
  for (int i = 0; i < 300; ++i) {
    campaign.add_domain("d" + std::to_string(i) + ".example",
                        {util::IpAddress::v4(10, 1, static_cast<uint8_t>(i >> 8),
                                             static_cast<uint8_t>(i))});
  }
  campaign.send();
  for (const auto& group : campaign.groups()) {
    if (group.opened) {
      EXPECT_GE(group.opened_at, campaign.config().send_time);
      EXPECT_FALSE(group.tracking_token.empty());
    }
  }
}

TEST(Notification, AddressOpenLookup) {
  NotificationCampaign campaign({.bounce_rate = 0.0, .open_rate = 1.0});
  const auto address = util::IpAddress::v4(9, 9, 9, 9);
  campaign.add_domain("x.example", {address});
  campaign.send();
  EXPECT_TRUE(campaign.address_operator_opened(address));
  EXPECT_FALSE(
      campaign.address_operator_opened(util::IpAddress::v4(8, 8, 8, 8)));
}

TEST(Notification, CannotSendTwice) {
  NotificationCampaign campaign;
  campaign.add_domain("x.example", {util::IpAddress::v4(1, 2, 3, 4)});
  campaign.send();
  EXPECT_THROW(campaign.send(), std::logic_error);
  EXPECT_THROW(campaign.add_domain("y.example", {util::IpAddress::v4(1, 2, 3, 5)}),
               std::logic_error);
}

// ------------------------------------------------------------ pkg managers

TEST(PkgMgr, TableHasNineManagers) {
  EXPECT_EQ(package_manager_table().size(), 9u);
}

TEST(PkgMgr, DebianPatchedBothImmediately) {
  const auto& debian = package_manager_table()[0];
  EXPECT_EQ(debian.name, "Debian");
  EXPECT_EQ(patch_latency_cell(debian, false), "0 (2021-08-11)");
  EXPECT_EQ(patch_latency_cell(debian, true), "1 (2022-01-20)");
}

TEST(PkgMgr, BundledFixesRenderAsZeroStar) {
  for (const auto& record : package_manager_table()) {
    if (!record.fix_bundled_with_earlier) continue;
    const std::string cell = patch_latency_cell(record, true);
    EXPECT_EQ(cell.substr(0, 2), "0*") << record.name;
  }
}

TEST(PkgMgr, UnpatchedRenderAsPlus) {
  bool saw_unpatched = false;
  for (const auto& record : package_manager_table()) {
    if (record.patched_33912.has_value()) continue;
    saw_unpatched = true;
    const std::string cell = patch_latency_cell(record, true);
    EXPECT_NE(cell.find("+ (Unpatched)"), std::string::npos) << record.name;
  }
  EXPECT_TRUE(saw_unpatched);  // Ubuntu / FreeBSD / NetBSD / SUSE
}

TEST(PkgMgr, AlpineLaggedOnSecondCve) {
  const auto& alpine = package_manager_table()[1];
  EXPECT_EQ(alpine.name, "Alpine");
  const std::string cell = patch_latency_cell(alpine, true);
  EXPECT_EQ(cell, "51 (2022-03-11)");
}

// ------------------------------------------------------------ full study

class StudyTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    population::FleetConfig config;
    config.scale = 0.02;
    fleet_ = new population::Fleet(config);
    Study study(*fleet_);
    report_ = new StudyReport(study.run());
  }
  static void TearDownTestSuite() {
    delete report_;
    delete fleet_;
  }
  static population::Fleet* fleet_;
  static StudyReport* report_;
};

population::Fleet* StudyTest::fleet_ = nullptr;
StudyReport* StudyTest::report_ = nullptr;

TEST_F(StudyTest, InitialVulnerabilityNearPaperRates) {
  // ~17% of tested addresses... of *measured* addresses; and the scaled
  // absolute counts (7,212 addresses / 18,660 domains at scale 1).
  EXPECT_NEAR(static_cast<double>(report_->initially_vulnerable_addresses),
              0.02 * paper::kVulnerableAddressesTotal,
              0.02 * paper::kVulnerableAddressesTotal * 0.25);
  // Wider tolerance at this tiny scale: the domain count is a heavy-tailed
  // sum over shared-pool addresses, so its variance shrinks only at larger
  // scales (the full-scale bench lands within a few percent).
  EXPECT_NEAR(static_cast<double>(report_->initially_vulnerable_domains),
              0.02 * paper::kVulnerableDomainsTotal,
              0.02 * paper::kVulnerableDomainsTotal * 0.40);
}

TEST_F(StudyTest, RoundCadenceMatchesTimeline) {
  ASSERT_GT(report_->round_times.size(), 25u);
  EXPECT_EQ(report_->round_times.front(), paper::kLongitudinalStart);
  EXPECT_EQ(report_->round_times.back(), paper::kFinalMeasurement);
  // Two windows with the December gap.
  bool saw_gap = false;
  for (std::size_t i = 1; i < report_->round_times.size(); ++i) {
    const auto delta = report_->round_times[i] - report_->round_times[i - 1];
    if (delta > 10 * util::kDay) saw_gap = true;
    else EXPECT_EQ(delta, paper::kMeasurementCadence);
  }
  EXPECT_TRUE(saw_gap);
}

TEST_F(StudyTest, MajorityStillVulnerableAtEnd) {
  const auto counts = Study::domain_counts_at(*report_, *fleet_,
                                              report_->round_times.size() - 1,
                                              Cohort::All);
  ASSERT_GT(counts.inferable, 0u);
  // The headline result: >80% of inferable domains remain vulnerable. At
  // this file's tiny 0.02 scale the figure is seed-noisy (a single patched
  // hosting pool moves it several points), so the test asserts the weaker
  // two-thirds bound; spfail_repro's Figure 7 at >=0.1 scale lands 82-88%.
  EXPECT_GT(static_cast<double>(counts.vulnerable) / counts.inferable, 0.66);
}

TEST_F(StudyTest, VulnerabilityIsMonotoneNonIncreasing) {
  // A patched domain never reverts (the inference rules of section 7.6), so
  // from one round to the next neither the patched count nor the patched
  // share of inferable domains may fall.
  std::size_t previous_patched = 0;
  double previous_share = 0.0;
  for (std::size_t round = 0; round < report_->round_times.size(); ++round) {
    const auto counts =
        Study::domain_counts_at(*report_, *fleet_, round, Cohort::All);
    EXPECT_GE(counts.patched, previous_patched) << "round " << round;
    previous_patched = counts.patched;
    if (counts.inferable == 0) continue;
    const double share =
        static_cast<double>(counts.patched) / counts.inferable;
    EXPECT_GE(share, previous_share) << "round " << round;
    EXPECT_LT(share, 1.0);
    previous_share = share;
  }
}

TEST_F(StudyTest, SnapshotPatchedShareNearPaper) {
  std::size_t patched = 0;
  for (const auto& track : report_->tracks) {
    patched += track.final_status == FinalStatus::Patched;
  }
  const double share =
      static_cast<double>(patched) / report_->tracks.size();
  EXPECT_GT(share, 0.06);  // Fig 2: ~15% patched overall (noisy at 0.02 scale)
  EXPECT_LT(share, 0.28);
}

TEST_F(StudyTest, NotificationFunnelShape) {
  EXPECT_GT(report_->notification.sent, 0u);
  const double bounce_rate = static_cast<double>(report_->notification.bounced) /
                             report_->notification.sent;
  EXPECT_NEAR(bounce_rate, 0.316, 0.10);
  // §7.7: patching between disclosures is rare.
  EXPECT_LE(report_->opened_patched_between_disclosures,
            report_->opened_eventually_patched);
}

TEST_F(StudyTest, Alexa1000NeverLooksBetterThanOverall) {
  const std::size_t last = report_->round_times.size() - 1;
  const auto all = Study::domain_counts_at(*report_, *fleet_, last, Cohort::All);
  const auto top = Study::domain_counts_at(*report_, *fleet_, last,
                                           Cohort::Alexa1000);
  if (top.inferable > 0 && all.inferable > 0) {
    const double top_patched =
        static_cast<double>(top.patched) / top.inferable;
    const double all_patched =
        static_cast<double>(all.patched) / all.inferable;
    EXPECT_LE(top_patched, all_patched + 0.01);  // §7.2: Top-1000 patches least
  }
}

TEST_F(StudyTest, RemeasurableCohortExistsAndResolves) {
  // §6.1: ~10% as many re-measurable inconclusives as vulnerable addresses
  // (721 vs 7,212); most resolve during the longitudinal rounds.
  EXPECT_GT(report_->remeasurable_addresses, 0u);
  EXPECT_LT(report_->remeasurable_addresses,
            report_->initially_vulnerable_addresses / 2);
  EXPECT_GE(report_->remeasurable_resolved_vulnerable +
                report_->remeasurable_resolved_compliant,
            report_->remeasurable_addresses / 2);
}

TEST_F(StudyTest, TracksCoverVulnerableDomainsOnly) {
  for (const auto& track : report_->tracks) {
    EXPECT_FALSE(track.vulnerable_addresses.empty());
    EXPECT_LT(track.domain_index, fleet_->domains().size());
  }
}

}  // namespace
}  // namespace spfail::longitudinal
