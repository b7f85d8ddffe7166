#include <gtest/gtest.h>

#include "dmarc/discovery.hpp"
#include "dmarc/record.hpp"
#include "dns/server.hpp"
#include "dns/zonefile.hpp"

namespace spfail::dmarc {
namespace {

// ------------------------------------------------------------ record parse

TEST(DmarcParse, LooksLikeDmarc) {
  EXPECT_TRUE(looks_like_dmarc("v=DMARC1; p=reject"));
  EXPECT_TRUE(looks_like_dmarc("v=DMARC1"));
  EXPECT_FALSE(looks_like_dmarc("v=DMARC10; p=reject"));
  EXPECT_FALSE(looks_like_dmarc("v=spf1 -all"));
}

TEST(DmarcParse, MinimalReject) {
  const Record r = parse_record("v=DMARC1; p=reject");
  EXPECT_EQ(r.policy, Policy::Reject);
  EXPECT_EQ(r.percent, 100);
  EXPECT_EQ(r.spf_alignment, Alignment::Relaxed);
  EXPECT_FALSE(r.subdomain_policy.has_value());
}

TEST(DmarcParse, FullRecord) {
  const Record r = parse_record(
      "v=DMARC1; p=quarantine; sp=none; aspf=s; adkim=r; pct=42; "
      "rua=mailto:agg@example.com; ruf=mailto:fail@example.com");
  EXPECT_EQ(r.policy, Policy::Quarantine);
  ASSERT_TRUE(r.subdomain_policy.has_value());
  EXPECT_EQ(*r.subdomain_policy, Policy::None);
  EXPECT_EQ(r.spf_alignment, Alignment::Strict);
  EXPECT_EQ(r.percent, 42);
  EXPECT_EQ(r.rua, "mailto:agg@example.com");
}

TEST(DmarcParse, WhitespaceTolerant) {
  const Record r = parse_record("v=DMARC1;  p = reject ;pct=50");
  EXPECT_EQ(r.policy, Policy::Reject);
  EXPECT_EQ(r.percent, 50);
}

TEST(DmarcParse, UnknownTagsIgnored) {
  const Record r = parse_record("v=DMARC1; p=none; fo=1; ri=86400");
  EXPECT_EQ(r.policy, Policy::None);
}

TEST(DmarcParse, Errors) {
  EXPECT_THROW(parse_record("p=reject"), RecordSyntaxError);
  EXPECT_THROW(parse_record("v=DMARC1"), RecordSyntaxError);  // missing p
  EXPECT_THROW(parse_record("v=DMARC1; p=bogus"), RecordSyntaxError);
  EXPECT_THROW(parse_record("v=DMARC1; p=reject; pct=101"), RecordSyntaxError);
  // pct is 1*3DIGIT: this one used to overflow int and wrap to pct=1, and an
  // empty value read as 0.
  EXPECT_THROW(parse_record("v=DMARC1; p=reject; pct=4294967297"),
               RecordSyntaxError);
  EXPECT_THROW(parse_record("v=DMARC1; p=reject; pct="), RecordSyntaxError);
  EXPECT_THROW(parse_record("v=DMARC1; p=reject; aspf=x"), RecordSyntaxError);
  EXPECT_THROW(parse_record("v=DMARC1; junk; p=reject"), RecordSyntaxError);
}

TEST(DmarcParse, RoundTripThroughText) {
  const Record original = parse_record(
      "v=DMARC1; p=reject; sp=quarantine; aspf=s; pct=10; rua=mailto:x@y.z");
  EXPECT_EQ(parse_record(to_text(original)), original);
}

TEST(DmarcParse, SubdomainPolicyDefaultsToPolicy) {
  EXPECT_EQ(parse_record("v=DMARC1; p=reject").effective_subdomain_policy(),
            Policy::Reject);
  EXPECT_EQ(parse_record("v=DMARC1; p=reject; sp=none")
                .effective_subdomain_policy(),
            Policy::None);
}

// ------------------------------------------------------------ org domain

TEST(OrgDomain, SimpleTld) {
  EXPECT_EQ(organizational_domain(dns::Name::from_string("a.b.example.com")),
            dns::Name::from_string("example.com"));
  EXPECT_EQ(organizational_domain(dns::Name::from_string("example.com")),
            dns::Name::from_string("example.com"));
}

TEST(OrgDomain, TwoLevelPublicSuffix) {
  EXPECT_EQ(organizational_domain(dns::Name::from_string("mail.shop.co.uk")),
            dns::Name::from_string("shop.co.uk"));
  EXPECT_EQ(organizational_domain(dns::Name::from_string("x.y.bank.co.za")),
            dns::Name::from_string("bank.co.za"));
}

TEST(OrgDomain, AlreadyOrganizational) {
  EXPECT_EQ(organizational_domain(dns::Name::from_string("shop.co.uk")),
            dns::Name::from_string("shop.co.uk"));
}

// ------------------------------------------------------------ alignment

TEST(Alignment, StrictRequiresEquality) {
  EXPECT_TRUE(aligned(dns::Name::from_string("example.com"),
                      dns::Name::from_string("example.com"),
                      Alignment::Strict));
  EXPECT_FALSE(aligned(dns::Name::from_string("mail.example.com"),
                       dns::Name::from_string("example.com"),
                       Alignment::Strict));
}

TEST(Alignment, RelaxedUsesOrgDomain) {
  EXPECT_TRUE(aligned(dns::Name::from_string("mail.example.com"),
                      dns::Name::from_string("example.com"),
                      Alignment::Relaxed));
  EXPECT_FALSE(aligned(dns::Name::from_string("other.org"),
                       dns::Name::from_string("example.com"),
                       Alignment::Relaxed));
}

// ------------------------------------------------------------ discovery

class DiscoveryFixture : public ::testing::Test {
 protected:
  DiscoveryFixture()
      : resolver_(server_, clock_, util::IpAddress::v4(10, 0, 0, 1)) {
    server_.add_zone(dns::parse_zone_text(R"(
$ORIGIN example.com.
_dmarc       IN TXT "v=DMARC1; p=reject; sp=quarantine"
)",
                                          dns::Name::from_string("example.com")));
  }
  dns::AuthoritativeServer server_;
  util::SimClock clock_;
  dns::StubResolver resolver_;
};

TEST_F(DiscoveryFixture, DirectRecord) {
  const auto result = discover(resolver_, dns::Name::from_string("example.com"));
  ASSERT_TRUE(result.record.has_value());
  EXPECT_EQ(result.record->policy, Policy::Reject);
  EXPECT_FALSE(result.from_organizational_fallback);
  EXPECT_EQ(result.source.to_string(), "_dmarc.example.com");
}

TEST_F(DiscoveryFixture, OrganizationalFallback) {
  const auto result =
      discover(resolver_, dns::Name::from_string("deep.sub.example.com"));
  ASSERT_TRUE(result.record.has_value());
  EXPECT_TRUE(result.from_organizational_fallback);
}

TEST_F(DiscoveryFixture, NoRecordAnywhere) {
  const auto result = discover(resolver_, dns::Name::from_string("other.org"));
  EXPECT_FALSE(result.record.has_value());
}

// ------------------------------------------------------------ disposition

TEST(Disposition, NoRecordDelivers) {
  DiscoveryResult none;
  EXPECT_EQ(disposition_for(none, spf::Result::Fail,
                            dns::Name::from_string("x.com"),
                            dns::Name::from_string("x.com")),
            Disposition::Deliver);
}

TEST(Disposition, AlignedSpfPassDelivers) {
  DiscoveryResult discovery;
  discovery.record = parse_record("v=DMARC1; p=reject");
  EXPECT_EQ(disposition_for(discovery, spf::Result::Pass,
                            dns::Name::from_string("mail.example.com"),
                            dns::Name::from_string("example.com")),
            Disposition::Deliver);
}

TEST(Disposition, UnalignedPassTriggersPolicy) {
  DiscoveryResult discovery;
  discovery.record = parse_record("v=DMARC1; p=reject");
  EXPECT_EQ(disposition_for(discovery, spf::Result::Pass,
                            dns::Name::from_string("unrelated.org"),
                            dns::Name::from_string("example.com")),
            Disposition::Reject);
}

TEST(Disposition, FailTriggersPolicy) {
  DiscoveryResult discovery;
  discovery.record = parse_record("v=DMARC1; p=quarantine");
  EXPECT_EQ(disposition_for(discovery, spf::Result::Fail,
                            dns::Name::from_string("example.com"),
                            dns::Name::from_string("example.com")),
            Disposition::Quarantine);
}

TEST(Disposition, SubdomainPolicyAppliesOnFallback) {
  DiscoveryResult discovery;
  discovery.record = parse_record("v=DMARC1; p=reject; sp=none");
  discovery.from_organizational_fallback = true;
  EXPECT_EQ(disposition_for(discovery, spf::Result::Fail,
                            dns::Name::from_string("sub.example.com"),
                            dns::Name::from_string("sub.example.com")),
            Disposition::Deliver);
}

TEST(Disposition, StrictAlignmentBlocksSubdomainPass) {
  DiscoveryResult discovery;
  discovery.record = parse_record("v=DMARC1; p=reject; aspf=s");
  EXPECT_EQ(disposition_for(discovery, spf::Result::Pass,
                            dns::Name::from_string("mail.example.com"),
                            dns::Name::from_string("example.com")),
            Disposition::Reject);
}

}  // namespace
}  // namespace spfail::dmarc
