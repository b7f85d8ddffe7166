#include <gtest/gtest.h>

#include <algorithm>

#include "population/fleet.hpp"
#include "population/geo.hpp"
#include "population/paper_constants.hpp"
#include "population/tld.hpp"

namespace spfail::population {
namespace {

// One shared small fleet for the whole file (construction is the expensive
// part; all assertions are read-only).
class FleetTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    FleetConfig config;
    config.scale = 0.02;
    fleet_ = new Fleet(config);
  }
  static void TearDownTestSuite() {
    delete fleet_;
    fleet_ = nullptr;
  }
  static Fleet* fleet_;
};

Fleet* FleetTest::fleet_ = nullptr;

TEST_F(FleetTest, SetSizesScale) {
  std::size_t alexa = 0, mx = 0, alexa1000 = 0, overlap = 0;
  for (const auto& d : fleet_->domains()) {
    alexa += d.in_alexa;
    mx += d.in_mx;
    alexa1000 += d.in_alexa1000;
    overlap += d.in_alexa && d.in_mx;
  }
  EXPECT_NEAR(static_cast<double>(alexa), 0.02 * paper::kAlexaTopListDomains,
              0.02 * paper::kAlexaTopListDomains * 0.05);
  EXPECT_NEAR(static_cast<double>(mx), 0.02 * paper::kTwoWeekMxDomains,
              0.02 * paper::kTwoWeekMxDomains * 0.05);
  // Table 1 overlap: ~12.7% of the MX set is in the Alexa set.
  EXPECT_NEAR(static_cast<double>(overlap) / static_cast<double>(mx), 0.127,
              0.03);
  EXPECT_GE(alexa1000, 20u);  // scaled Top-1000 plus the named providers
}

TEST_F(FleetTest, FleetIncludesBothAddressFamilies) {
  std::size_t v4 = 0, v6 = 0;
  for (const auto& d : fleet_->domains()) {
    for (const auto& address : d.addresses) {
      (address.is_v4() ? v4 : v6) += 1;
    }
  }
  EXPECT_GT(v4, v6);  // v4-dominant, as in the paper's address set
  EXPECT_GT(v6, 0u);
}

TEST_F(FleetTest, AddressToDomainRatio) {
  // Table 3: ~175K addresses for ~419K Alexa domains, i.e. heavy sharing.
  const double ratio = static_cast<double>(fleet_->address_count()) /
                       static_cast<double>(fleet_->domains().size());
  EXPECT_GT(ratio, 0.30);
  EXPECT_LT(ratio, 0.60);
}

TEST_F(FleetTest, EveryDomainHasReachableMapping) {
  for (const auto& d : fleet_->domains()) {
    ASSERT_FALSE(d.addresses.empty()) << d.name;
    for (const auto& address : d.addresses) {
      // Every listed address has a host object (even if it refuses TCP).
      EXPECT_NE(fleet_->find_host(address), nullptr) << d.name;
    }
  }
}

TEST_F(FleetTest, AddressInfoConsistent) {
  for (const auto& d : fleet_->domains()) {
    for (const auto& address : d.addresses) {
      const AddressInfo& info = fleet_->info(address);
      EXPECT_GE(info.domains_hosted, 1u);
      if (d.in_alexa) {
        EXPECT_TRUE(info.in_alexa_set);
      }
      if (d.alexa_rank != 0 && info.best_rank != 0) {
        EXPECT_LE(info.best_rank, d.alexa_rank);
      }
    }
  }
}

TEST_F(FleetTest, TopProvidersPresentAndPinned) {
  std::size_t providers = 0;
  bool naver_vulnerable = false, gmail_vulnerable = true;
  for (const auto& d : fleet_->domains()) {
    if (!d.is_top_provider) continue;
    ++providers;
    EXPECT_TRUE(d.in_alexa1000) << d.name;
    bool vulnerable = false;
    for (const auto& address : d.addresses) {
      const auto* host = fleet_->find_host(address);
      ASSERT_NE(host, nullptr);
      vulnerable |= host->runs_vulnerable_engine();
    }
    if (d.name == "naver.com") naver_vulnerable = vulnerable;
    if (d.name == "gmail.com") gmail_vulnerable = vulnerable;
  }
  EXPECT_EQ(providers, 20u);  // Table 3's Top Email Providers column
  EXPECT_TRUE(naver_vulnerable);    // §7.5
  EXPECT_FALSE(gmail_vulnerable);   // §7.5: majors not susceptible
}

TEST_F(FleetTest, SharedProvidersShareAddresses) {
  const DomainRecord *mailru = nullptr, *vk = nullptr;
  for (const auto& d : fleet_->domains()) {
    if (d.name == "mail.ru") mailru = &d;
    if (d.name == "vk.com") vk = &d;
  }
  ASSERT_NE(mailru, nullptr);
  ASSERT_NE(vk, nullptr);
  EXPECT_TRUE(std::equal(mailru->addresses.begin(), mailru->addresses.end(),
                         vk->addresses.begin(), vk->addresses.end()));
}

TEST_F(FleetTest, GeoAssignedForEveryAddress) {
  std::size_t checked = 0;
  for (const auto& d : fleet_->domains()) {
    for (const auto& address : d.addresses) {
      const GeoPoint* point = fleet_->geo().lookup(address);
      ASSERT_NE(point, nullptr);
      EXPECT_GE(point->lat, -90.0);
      EXPECT_LE(point->lat, 90.0);
      EXPECT_FALSE(point->region.empty());
      if (++checked > 500) return;
    }
  }
}

TEST_F(FleetTest, TargetsFilterBySet) {
  const auto all = fleet_->targets(Fleet::SetFilter::All);
  const auto alexa = fleet_->targets(Fleet::SetFilter::AlexaTopList);
  const auto top1000 = fleet_->targets(Fleet::SetFilter::Alexa1000);
  const auto mx = fleet_->targets(Fleet::SetFilter::TwoWeekMx);
  EXPECT_EQ(all.size(), fleet_->domains().size());
  EXPECT_LT(top1000.size(), alexa.size());
  EXPECT_LT(mx.size(), all.size());
  EXPECT_GT(alexa.size() + mx.size(), all.size());  // overlap exists
}

TEST(FleetDeterminism, SameSeedSameFleet) {
  FleetConfig config;
  config.scale = 0.005;
  Fleet a(config), b(config);
  ASSERT_EQ(a.domains().size(), b.domains().size());
  for (std::size_t i = 0; i < a.domains().size(); ++i) {
    EXPECT_EQ(a.domains()[i].name, b.domains()[i].name);
    EXPECT_TRUE(std::equal(a.domains()[i].addresses.begin(),
                           a.domains()[i].addresses.end(),
                           b.domains()[i].addresses.begin(),
                           b.domains()[i].addresses.end()));
  }
}

TEST(FleetDeterminism, DifferentSeedDifferentFleet) {
  FleetConfig a_config, b_config;
  a_config.scale = b_config.scale = 0.005;
  b_config.seed = a_config.seed + 1;
  Fleet a(a_config), b(b_config);
  // Same counts, different draw outcomes.
  std::size_t differences = 0;
  const std::size_t n = std::min(a.domains().size(), b.domains().size());
  for (std::size_t i = 0; i < n; ++i) {
    differences += a.domains()[i].tld != b.domains()[i].tld;
  }
  EXPECT_GT(differences, 0u);
}

// ---------------------------------------------------------------- TLD table

TEST(TldTable, Table5RatesPresent) {
  EXPECT_DOUBLE_EQ(find_tld("za")->patch_rate, 0.79);
  EXPECT_DOUBLE_EQ(find_tld("gr")->patch_rate, 0.75);
  EXPECT_DOUBLE_EQ(find_tld("de")->patch_rate, 0.46);
  EXPECT_DOUBLE_EQ(find_tld("tw")->patch_rate, 0.00);
  EXPECT_DOUBLE_EQ(find_tld("ru")->patch_rate, 0.02);
  EXPECT_FALSE(find_tld("nonexistent-tld").has_value());
}

TEST(TldTable, Table2CountsPresent) {
  EXPECT_EQ(find_tld("com")->alexa_count, 230801u);
  EXPECT_EQ(find_tld("com")->mx_count, 11182u);
  EXPECT_EQ(find_tld("edu")->mx_count, 2108u);
}

TEST(TldTable, HighRiskTldsAreAboveBaseline) {
  EXPECT_GT(find_tld("ir")->vulnerability_multiplier, 1.5);
  EXPECT_GT(find_tld("ru")->vulnerability_multiplier, 1.5);
  EXPECT_LT(find_tld("com")->vulnerability_multiplier, 1.0);
}

// ---------------------------------------------------------------- GeoDb

TEST(Geo, DeterministicPerAddress) {
  GeoDb geo(util::Rng(1));
  const auto address = util::IpAddress::v4(10, 0, 0, 1);
  const GeoPoint first = geo.assign(address, "de");
  const GeoPoint second = geo.assign(address, "de");
  EXPECT_DOUBLE_EQ(first.lat, second.lat);
  EXPECT_DOUBLE_EQ(first.lon, second.lon);
}

TEST(Geo, CountryTldsAnchorNearCountry) {
  GeoDb geo(util::Rng(2));
  for (int i = 0; i < 20; ++i) {
    const auto point =
        geo.assign(util::IpAddress::v4(10, 0, 1, static_cast<uint8_t>(i)), "za");
    EXPECT_NEAR(point.lat, -29.1, 5.0);
    EXPECT_NEAR(point.lon, 26.2, 5.0);
  }
}

TEST(Geo, GenericTldsScatter) {
  GeoDb geo(util::Rng(3));
  std::set<std::string> regions;
  for (int i = 0; i < 200; ++i) {
    regions.insert(
        geo.assign(util::IpAddress::v4(10, 0, 2, static_cast<uint8_t>(i)), "com")
            .region);
  }
  EXPECT_GE(regions.size(), 3u);
}

TEST(Geo, BucketingIsStable) {
  const GeoPoint point{52.5, 13.4, "europe"};
  EXPECT_EQ(bucket_of(point), bucket_of(point));
  const GeoPoint far{-33.9, 151.2, "oceania"};
  EXPECT_NE(bucket_of(point), bucket_of(far));
}

}  // namespace
}  // namespace spfail::population
