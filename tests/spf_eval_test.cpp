#include <gtest/gtest.h>

#include "dns/resolver.hpp"
#include "dns/server.hpp"
#include "spf/eval.hpp"
#include "spf/record_cache.hpp"

namespace spfail::spf {
namespace {

using dns::Name;
using dns::ResourceRecord;
using dns::RRType;
using dns::Zone;
using util::IpAddress;

class EvalFixture : public ::testing::Test {
 protected:
  EvalFixture()
      : resolver_(server_, clock_, IpAddress::v4(198, 51, 100, 53)) {}

  void add_zone(Zone zone) { server_.add_zone(std::move(zone)); }

  CheckOutcome check(const std::string& sender_local,
                     const std::string& sender_domain,
                     IpAddress client_ip) {
    Evaluator evaluator(resolver_, expander_);
    CheckRequest request;
    request.client_ip = client_ip;
    request.sender_local = sender_local;
    request.sender_domain = Name::from_string(sender_domain);
    request.helo_domain = Name::from_string("client.example.net");
    return evaluator.check_host(request);
  }

  dns::AuthoritativeServer server_;
  util::SimClock clock_;
  dns::StubResolver resolver_;
  Rfc7208Expander expander_;
};

Zone basic_zone(const std::string& spf) {
  Zone zone(Name::from_string("example.com"));
  zone.add(ResourceRecord::txt(Name::from_string("example.com"), spf));
  zone.add(ResourceRecord::a(Name::from_string("foo.example.com"),
                             IpAddress::v4(192, 0, 2, 10)));
  zone.add(ResourceRecord::mx(Name::from_string("example.com"), 10,
                              Name::from_string("mx1.example.com")));
  zone.add(ResourceRecord::a(Name::from_string("mx1.example.com"),
                             IpAddress::v4(192, 0, 2, 25)));
  return zone;
}

TEST_F(EvalFixture, NoRecordIsNone) {
  Zone zone(Name::from_string("example.com"));
  zone.add(ResourceRecord::txt(Name::from_string("example.com"),
                               "some unrelated txt"));
  add_zone(std::move(zone));
  EXPECT_EQ(check("user", "example.com", IpAddress::v4(1, 2, 3, 4)).result,
            Result::None);
}

TEST_F(EvalFixture, NxDomainIsNone) {
  add_zone(Zone(Name::from_string("example.com")));
  EXPECT_EQ(check("user", "example.com", IpAddress::v4(1, 2, 3, 4)).result,
            Result::None);
}

TEST_F(EvalFixture, MultipleSpfRecordsIsPermError) {
  Zone zone(Name::from_string("example.com"));
  zone.add(ResourceRecord::txt(Name::from_string("example.com"), "v=spf1 -all"));
  zone.add(ResourceRecord::txt(Name::from_string("example.com"), "v=spf1 +all"));
  add_zone(std::move(zone));
  EXPECT_EQ(check("user", "example.com", IpAddress::v4(1, 2, 3, 4)).result,
            Result::PermError);
}

TEST_F(EvalFixture, SyntaxErrorIsPermError) {
  add_zone(basic_zone("v=spf1 bogus-mechanism -all"));
  EXPECT_EQ(check("user", "example.com", IpAddress::v4(1, 2, 3, 4)).result,
            Result::PermError);
}

TEST_F(EvalFixture, Ip4Match) {
  add_zone(basic_zone("v=spf1 ip4:203.0.113.0/24 -all"));
  EXPECT_EQ(check("user", "example.com", IpAddress::v4(203, 0, 113, 7)).result,
            Result::Pass);
  EXPECT_EQ(check("user", "example.com", IpAddress::v4(203, 0, 114, 7)).result,
            Result::Fail);
}

TEST_F(EvalFixture, Ip6Match) {
  add_zone(basic_zone("v=spf1 ip6:2001:db8::/32 -all"));
  EXPECT_EQ(
      check("user", "example.com", *IpAddress::parse("2001:db8::99")).result,
      Result::Pass);
  EXPECT_EQ(
      check("user", "example.com", *IpAddress::parse("2001:db9::99")).result,
      Result::Fail);
}

TEST_F(EvalFixture, AMechanismMatchesHostAddress) {
  add_zone(basic_zone("v=spf1 a:foo.example.com -all"));
  EXPECT_EQ(check("user", "example.com", IpAddress::v4(192, 0, 2, 10)).result,
            Result::Pass);
  EXPECT_EQ(check("user", "example.com", IpAddress::v4(192, 0, 2, 11)).result,
            Result::Fail);
}

TEST_F(EvalFixture, AMechanismWithCidr) {
  add_zone(basic_zone("v=spf1 a:foo.example.com/24 -all"));
  EXPECT_EQ(check("user", "example.com", IpAddress::v4(192, 0, 2, 200)).result,
            Result::Pass);
}

TEST_F(EvalFixture, BareAMechanismUsesCurrentDomain) {
  Zone zone = basic_zone("v=spf1 a -all");
  zone.add(ResourceRecord::a(Name::from_string("example.com"),
                             IpAddress::v4(192, 0, 2, 77)));
  add_zone(std::move(zone));
  EXPECT_EQ(check("user", "example.com", IpAddress::v4(192, 0, 2, 77)).result,
            Result::Pass);
}

TEST_F(EvalFixture, MxMechanism) {
  add_zone(basic_zone("v=spf1 mx -all"));
  EXPECT_EQ(check("user", "example.com", IpAddress::v4(192, 0, 2, 25)).result,
            Result::Pass);
  EXPECT_EQ(check("user", "example.com", IpAddress::v4(192, 0, 2, 26)).result,
            Result::Fail);
}

TEST_F(EvalFixture, SoftFailQualifier) {
  add_zone(basic_zone("v=spf1 ~all"));
  EXPECT_EQ(check("user", "example.com", IpAddress::v4(9, 9, 9, 9)).result,
            Result::SoftFail);
}

TEST_F(EvalFixture, NeutralQualifier) {
  add_zone(basic_zone("v=spf1 ?all"));
  EXPECT_EQ(check("user", "example.com", IpAddress::v4(9, 9, 9, 9)).result,
            Result::Neutral);
}

TEST_F(EvalFixture, NoMatchNoAllIsNeutral) {
  add_zone(basic_zone("v=spf1 ip4:192.0.2.1"));
  EXPECT_EQ(check("user", "example.com", IpAddress::v4(9, 9, 9, 9)).result,
            Result::Neutral);
}

TEST_F(EvalFixture, IncludePass) {
  add_zone(basic_zone("v=spf1 include:bar.org -all"));
  Zone bar(Name::from_string("bar.org"));
  bar.add(ResourceRecord::txt(Name::from_string("bar.org"),
                              "v=spf1 ip4:198.51.100.0/24 -all"));
  add_zone(std::move(bar));
  EXPECT_EQ(check("user", "example.com", IpAddress::v4(198, 51, 100, 9)).result,
            Result::Pass);
  // include's inner Fail is a non-match, so evaluation reaches -all.
  EXPECT_EQ(check("user", "example.com", IpAddress::v4(9, 9, 9, 9)).result,
            Result::Fail);
}

TEST_F(EvalFixture, IncludeOfMissingPolicyIsPermError) {
  add_zone(basic_zone("v=spf1 include:nopolicy.org -all"));
  Zone nopolicy(Name::from_string("nopolicy.org"));
  add_zone(std::move(nopolicy));
  EXPECT_EQ(check("user", "example.com", IpAddress::v4(9, 9, 9, 9)).result,
            Result::PermError);
}

TEST_F(EvalFixture, RedirectReplacesPolicy) {
  add_zone(basic_zone("v=spf1 redirect=other.org"));
  Zone other(Name::from_string("other.org"));
  other.add(ResourceRecord::txt(Name::from_string("other.org"),
                                "v=spf1 ip4:10.0.0.0/8 -all"));
  add_zone(std::move(other));
  EXPECT_EQ(check("user", "example.com", IpAddress::v4(10, 1, 2, 3)).result,
            Result::Pass);
  EXPECT_EQ(check("user", "example.com", IpAddress::v4(11, 1, 2, 3)).result,
            Result::Fail);
}

TEST_F(EvalFixture, RedirectToMissingPolicyIsPermError) {
  add_zone(basic_zone("v=spf1 redirect=missing.org"));
  add_zone(Zone(Name::from_string("missing.org")));
  EXPECT_EQ(check("user", "example.com", IpAddress::v4(9, 9, 9, 9)).result,
            Result::PermError);
}

TEST_F(EvalFixture, ExistsMechanism) {
  Zone zone = basic_zone("v=spf1 exists:%{i}.allow.example.com -all");
  zone.add(ResourceRecord::a(
      Name::from_string("203.0.113.7.allow.example.com"),
      IpAddress::v4(127, 0, 0, 2)));
  add_zone(std::move(zone));
  EXPECT_EQ(check("user", "example.com", IpAddress::v4(203, 0, 113, 7)).result,
            Result::Pass);
  EXPECT_EQ(check("user", "example.com", IpAddress::v4(203, 0, 113, 8)).result,
            Result::Fail);
}

TEST_F(EvalFixture, MacroTargetInAMechanism) {
  // The paper's running example: a:%{d1r}.foo.com with sender
  // user@example.com resolves example.foo.com.
  add_zone(basic_zone("v=spf1 a:%{d1r}.foo.com -all"));
  Zone foo(Name::from_string("foo.com"));
  foo.add(ResourceRecord::a(Name::from_string("example.foo.com"),
                            IpAddress::v4(192, 0, 2, 55)));
  add_zone(std::move(foo));
  EXPECT_EQ(check("user", "example.com", IpAddress::v4(192, 0, 2, 55)).result,
            Result::Pass);

  // And the DNS server saw exactly the compliant expansion.
  bool saw = false;
  for (const auto& e : server_.query_log().entries()) {
    if (e.qname.to_string() == "example.foo.com") saw = true;
  }
  EXPECT_TRUE(saw);
}

TEST_F(EvalFixture, LookupLimitEnforced) {
  // 11 chained includes exceed the RFC's 10-mechanism lookup budget.
  std::string spf = "v=spf1 include:i0.example.com -all";
  add_zone(basic_zone(spf));
  for (int i = 0; i < 11; ++i) {
    Zone zone(Name::from_string("i" + std::to_string(i) + ".example.com"));
    zone.add(ResourceRecord::txt(
        Name::from_string("i" + std::to_string(i) + ".example.com"),
        "v=spf1 include:i" + std::to_string(i + 1) + ".example.com -all"));
    add_zone(std::move(zone));
  }
  EXPECT_EQ(check("user", "example.com", IpAddress::v4(9, 9, 9, 9)).result,
            Result::PermError);
}

TEST_F(EvalFixture, VoidLookupLimitEnforced) {
  // Three void lookups (NXDOMAIN) exceed the limit of two.
  add_zone(basic_zone(
      "v=spf1 a:v1.example.com a:v2.example.com a:v3.example.com -all"));
  EXPECT_EQ(check("user", "example.com", IpAddress::v4(9, 9, 9, 9)).result,
            Result::PermError);
}

TEST_F(EvalFixture, TwoVoidLookupsAreFine) {
  add_zone(basic_zone("v=spf1 a:v1.example.com a:v2.example.com +all"));
  EXPECT_EQ(check("user", "example.com", IpAddress::v4(9, 9, 9, 9)).result,
            Result::Pass);
}

TEST_F(EvalFixture, EmptySenderLocalBecomesPostmaster) {
  Zone zone = basic_zone("v=spf1 exists:%{l}.who.example.com -all");
  zone.add(ResourceRecord::a(Name::from_string("postmaster.who.example.com"),
                             IpAddress::v4(127, 0, 0, 2)));
  add_zone(std::move(zone));
  EXPECT_EQ(check("", "example.com", IpAddress::v4(5, 5, 5, 5)).result,
            Result::Pass);
}

TEST_F(EvalFixture, ExplanationResolvedOnFail) {
  Zone zone = basic_zone("v=spf1 -all exp=why.example.com");
  zone.add(ResourceRecord::txt(Name::from_string("why.example.com"),
                               "Mail from %{i} was rejected"));
  add_zone(std::move(zone));
  const CheckOutcome outcome =
      check("user", "example.com", IpAddress::v4(203, 0, 113, 7));
  EXPECT_EQ(outcome.result, Result::Fail);
  EXPECT_EQ(outcome.explanation, "Mail from 203.0.113.7 was rejected");
}

TEST_F(EvalFixture, LookupCountsReported) {
  add_zone(basic_zone("v=spf1 a:foo.example.com mx -all"));
  const CheckOutcome outcome =
      check("user", "example.com", IpAddress::v4(192, 0, 2, 10));
  EXPECT_EQ(outcome.result, Result::Pass);
  EXPECT_EQ(outcome.dns_mechanism_lookups, 1);  // stopped at the a: match
}

TEST_F(EvalFixture, PtrMechanism) {
  Zone zone = basic_zone("v=spf1 ptr -all");
  add_zone(std::move(zone));
  Zone arpa(Name::from_string("in-addr.arpa"));
  arpa.add(ResourceRecord{Name::from_string("7.113.0.203.in-addr.arpa"),
                          RRType::PTR, dns::RRClass::IN, 300,
                          dns::PtrRdata{Name::from_string("mail.example.com")}});
  add_zone(std::move(arpa));
  Zone fwd(Name::from_string("mail.example.com"));
  fwd.add(ResourceRecord::a(Name::from_string("mail.example.com"),
                            IpAddress::v4(203, 0, 113, 7)));
  add_zone(std::move(fwd));
  EXPECT_EQ(check("user", "example.com", IpAddress::v4(203, 0, 113, 7)).result,
            Result::Pass);
  // Unconfirmed address fails.
  EXPECT_EQ(check("user", "example.com", IpAddress::v4(203, 0, 113, 9)).result,
            Result::Fail);
}

// ------------------------------------------------ shared record cache

// The evaluator must give the same outcome whether a record's parse comes
// from the shared cache or from per-check storage. With a saturated cache
// every record is parsed per check while the outer record is still being
// walked, so a per-check store that moved its records would leave a
// dangling `const Record&` (the asan_faults / ubsan_net lanes run this).
class SpfRecordCache : public EvalFixture {
 protected:
  SpfRecordCache() {
    // An include followed by more mechanisms: the outer record is read
    // again after the include's record has been parsed.
    Zone zone(Name::from_string("example.com"));
    zone.add(ResourceRecord::txt(
        Name::from_string("example.com"),
        "v=spf1 include:inc.example.org ip4:192.0.2.0/24 "
        "redirect=red.example.net"));
    add_zone(std::move(zone));
    Zone inc(Name::from_string("inc.example.org"));
    inc.add(ResourceRecord::txt(Name::from_string("inc.example.org"),
                                "v=spf1 ip4:198.51.100.0/24 -all"));
    add_zone(std::move(inc));
    Zone red(Name::from_string("red.example.net"));
    red.add(ResourceRecord::txt(
        Name::from_string("red.example.net"),
        "v=spf1 ip4:203.0.113.0/24 exp=why.red.example.net -all"));
    red.add(ResourceRecord::txt(Name::from_string("why.red.example.net"),
                                "%{i} may not send for %{d}"));
    add_zone(std::move(red));
    Zone bad(Name::from_string("bad.example.com"));
    bad.add(ResourceRecord::txt(Name::from_string("bad.example.com"),
                                "v=spf1 ip4:not-an-address -all"));
    add_zone(std::move(bad));
    Zone via_bad(Name::from_string("viabad.example.com"));
    via_bad.add(ResourceRecord::txt(Name::from_string("viabad.example.com"),
                                    "v=spf1 include:bad.example.com -all"));
    add_zone(std::move(via_bad));
  }

  // Every (sender domain, client) pair, checked twice in a row through one
  // evaluator, so a cache that admitted the records serves the second pass.
  std::vector<CheckOutcome> run_all(SharedRecordCache* cache) {
    Evaluator evaluator(resolver_, expander_, EvaluatorLimits{}, cache);
    std::vector<CheckOutcome> out;
    for (int pass = 0; pass < 2; ++pass) {
      for (const char* domain :
           {"example.com", "bad.example.com", "viabad.example.com"}) {
        for (const IpAddress& ip :
             {IpAddress::v4(198, 51, 100, 9), IpAddress::v4(192, 0, 2, 5),
              IpAddress::v4(203, 0, 113, 5), IpAddress::v4(9, 9, 9, 9)}) {
          CheckRequest request;
          request.client_ip = ip;
          request.sender_local = "user";
          request.sender_domain = Name::from_string(domain);
          request.helo_domain = Name::from_string("client.example.net");
          out.push_back(evaluator.check_host(request));
        }
      }
    }
    return out;
  }
};

TEST_F(SpfRecordCache, SaturatedCacheMatchesNoCacheAndRoomyCache) {
  const std::vector<CheckOutcome> uncached = run_all(nullptr);

  SharedRecordCache roomy;
  const std::vector<CheckOutcome> cached = run_all(&roomy);
  EXPECT_GT(roomy.hits(), 0u);
  EXPECT_EQ(roomy.uncached(), 0u);

  // Fill a minimal cache to its admission bound with unrelated texts, so
  // every record the checks fetch is turned away.
  SharedRecordCache saturated(1);
  for (int i = 0; saturated.size() < saturated.capacity() / 2; ++i) {
    saturated.lookup("v=spf1 a:" + std::to_string(i) + ".filler.test -all");
  }
  const std::size_t filled = saturated.size();
  const std::vector<CheckOutcome> turned_away = run_all(&saturated);
  EXPECT_EQ(saturated.size(), filled);
  EXPECT_GT(saturated.uncached(), 0u);

  // Spot-check that the inputs reach every path: include pass, the outer
  // ip4 after the include, redirect pass, redirect fail with explanation,
  // and the syntax error both directly and through an include.
  ASSERT_EQ(uncached.size(), 24u);
  EXPECT_EQ(uncached[0].result, Result::Pass);
  EXPECT_EQ(uncached[1].result, Result::Pass);
  EXPECT_EQ(uncached[2].result, Result::Pass);
  EXPECT_EQ(uncached[3].result, Result::Fail);
  EXPECT_EQ(uncached[3].explanation,
            "9.9.9.9 may not send for red.example.net");
  EXPECT_EQ(uncached[4].result, Result::PermError);
  EXPECT_EQ(uncached[8].result, Result::PermError);

  for (const auto* other : {&cached, &turned_away}) {
    ASSERT_EQ(other->size(), uncached.size());
    for (std::size_t i = 0; i < uncached.size(); ++i) {
      EXPECT_EQ((*other)[i].result, uncached[i].result) << i;
      EXPECT_EQ((*other)[i].explanation, uncached[i].explanation) << i;
      EXPECT_EQ((*other)[i].dns_mechanism_lookups,
                uncached[i].dns_mechanism_lookups)
          << i;
      EXPECT_EQ((*other)[i].void_lookups, uncached[i].void_lookups) << i;
    }
  }
}

}  // namespace
}  // namespace spfail::spf
