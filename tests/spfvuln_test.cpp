#include <gtest/gtest.h>

#include "spfvuln/behavior.hpp"
#include "spfvuln/fingerprint.hpp"
#include "spfvuln/libspf2_expander.hpp"
#include "spfvuln/overflow_sentinel.hpp"
#include "spfvuln/variant_expanders.hpp"

namespace spfail::spfvuln {
namespace {

spf::MacroContext example_context() {
  spf::MacroContext ctx;
  ctx.sender_local = "user";
  ctx.sender_domain = dns::Name::from_string("example.com");
  ctx.current_domain = dns::Name::from_string("example.com");
  ctx.client_ip = util::IpAddress::v4(203, 0, 113, 7);
  return ctx;
}

spf::MacroItem item_d1r() {
  spf::MacroItem item;
  item.letter = 'd';
  item.keep = 1;
  item.reverse = true;
  return item;
}

// -------------------------------------------------------- OverflowSentinel

TEST(Sentinel, TracksInBoundsWrites) {
  OverflowSentinel buf(4);
  buf.put("abcd");
  EXPECT_FALSE(buf.overflowed());
  EXPECT_EQ(buf.overflow_bytes(), 0u);
  EXPECT_EQ(buf.in_bounds(), "abcd");
  EXPECT_TRUE(buf.spilled().empty());
}

TEST(Sentinel, TracksOverflow) {
  OverflowSentinel buf(4);
  buf.put("abcdef");
  EXPECT_TRUE(buf.overflowed());
  EXPECT_EQ(buf.overflow_bytes(), 2u);
  EXPECT_EQ(buf.in_bounds(), "abcd");
  EXPECT_EQ(buf.spilled(), "ef");
  EXPECT_EQ(buf.data(), "abcdef");
}

TEST(Sentinel, ByteWise) {
  OverflowSentinel buf(1);
  buf.put('x');
  EXPECT_FALSE(buf.overflowed());
  buf.put('y');
  EXPECT_TRUE(buf.overflowed());
}

// ------------------------------------------------- CVE-2021-33913 (vuln 2)

TEST(Cve33913, PaperFingerprintExample) {
  // Section 4.2: a:%{d1r}.foo.com for user@example.com yields
  // com.com.example.foo.com on a vulnerable host.
  const Libspf2Expander expander;
  EXPECT_EQ(expander.expand("%{d1r}.foo.com", example_context()),
            "com.com.example.foo.com");
}

TEST(Cve33913, LengthReassignmentFires) {
  const ExpansionReport report = libspf2_expand_item(item_d1r(), "example.com");
  EXPECT_TRUE(report.length_reassigned);
  EXPECT_EQ(report.output, "com.com.example");
  // Buffer was allocated for the truncated output ("example" = 7 bytes) but
  // far more was written.
  EXPECT_EQ(report.buffer_allocated, 7u);
  EXPECT_EQ(report.buffer_written, 15u);
  EXPECT_EQ(report.overflow_bytes, 8u);
}

TEST(Cve33913, NoReverseNoBug) {
  spf::MacroItem item;
  item.letter = 'd';
  item.keep = 1;  // truncation without reversal takes the correct path
  const ExpansionReport report = libspf2_expand_item(item, "example.com");
  EXPECT_FALSE(report.length_reassigned);
  EXPECT_EQ(report.output, "com");
  EXPECT_EQ(report.overflow_bytes, 0u);
}

TEST(Cve33913, ReverseWithoutTruncationNoBug) {
  spf::MacroItem item;
  item.letter = 'd';
  item.reverse = true;  // no digit transformer -> nothing is dropped
  const ExpansionReport report = libspf2_expand_item(item, "example.com");
  EXPECT_FALSE(report.length_reassigned);
  EXPECT_EQ(report.output, "com.example");
  EXPECT_EQ(report.overflow_bytes, 0u);
}

TEST(Cve33913, OverflowGrowsWithDroppedLabels) {
  // The more labels truncation drops, the more attacker-controlled bytes
  // land past the allocation (the paper: "up to 100 arbitrary characters").
  spf::MacroItem item = item_d1r();
  const ExpansionReport small =
      libspf2_expand_item(item, "a.b");
  const ExpansionReport large =
      libspf2_expand_item(item, "a.b.c.d.e.f.g.h.i.j.k.l.m.n");
  EXPECT_GT(large.overflow_bytes, small.overflow_bytes);
}

TEST(Cve33913, CanExceed100ByteOverflow) {
  spf::MacroItem item = item_d1r();
  std::string domain;
  for (int i = 0; i < 12; ++i) {
    domain += "aaaaaaaaa.";  // long labels, all dropped by d1r truncation
  }
  domain += "tld";
  const ExpansionReport report = libspf2_expand_item(item, domain);
  EXPECT_GE(report.overflow_bytes, 100u);
}

// ------------------------------------------------- CVE-2021-33912 (vuln 1)

TEST(Cve33912, HighBitByteOverflowsSixPerChar) {
  // URL encoding budgets 3 bytes for an escaped char; a high-bit byte emits
  // 9 — six unbudgeted bytes each (paper section 4.1.1).
  spf::MacroItem item;
  item.letter = 'l';
  item.url_escape = true;
  const ExpansionReport one = libspf2_expand_item(item, "a\xFE");
  EXPECT_TRUE(one.sprintf_overflow);
  EXPECT_EQ(one.overflow_bytes, 6u);
  const ExpansionReport two = libspf2_expand_item(item, "a\xFE\x80");
  EXPECT_EQ(two.overflow_bytes, 12u);
}

TEST(Cve33912, AsciiReservedCharsAreBudgetedCorrectly) {
  spf::MacroItem item;
  item.letter = 'l';
  item.url_escape = true;
  const ExpansionReport report = libspf2_expand_item(item, "a b/c");
  EXPECT_FALSE(report.sprintf_overflow);
  EXPECT_EQ(report.overflow_bytes, 0u);
  EXPECT_EQ(report.output, "a%20b%2fc");
}

TEST(Cve33912, OutputContainsSignExtendedHex) {
  spf::MacroItem item;
  item.letter = 'l';
  item.url_escape = true;
  const ExpansionReport report = libspf2_expand_item(item, "\xFE");
  EXPECT_EQ(report.output, "%fffffffe");
}

TEST(Cve33912, CombinedWithReversalCompounds) {
  // Both CVEs in one expansion: reversal+truncation mis-sizes the buffer AND
  // high-bit bytes blow the per-char budget.
  spf::MacroItem item = item_d1r();
  item.url_escape = true;
  const ExpansionReport report =
      libspf2_expand_item(item, "p\xFFq.example.com");
  EXPECT_TRUE(report.length_reassigned);
  EXPECT_TRUE(report.sprintf_overflow);
  EXPECT_GT(report.overflow_bytes, 12u);
}

TEST(Cve33912, ExpanderAggregatesReports) {
  spf::MacroContext ctx = example_context();
  ctx.sender_local = "caf\xC3\xA9";  // UTF-8 'café'
  const ExpansionReport report = libspf2_expand("%{L}", ctx);
  EXPECT_TRUE(report.sprintf_overflow);
  EXPECT_EQ(report.overflow_bytes, 12u);  // two high-bit bytes
  EXPECT_EQ(report.output, Libspf2Expander{}.expand("%{L}", ctx));
}

// ------------------------------------------------- benign detection property

TEST(BenignDetection, LowercaseMacroNeverOverflowsBuffersItReports) {
  // The key property that makes the paper's scan benign: the fingerprint
  // record uses %{d1r} *without* URL encoding; the observable corruption
  // happens, but the write stays within what the (over-)allocated... no —
  // it DOES overflow internally. What makes it benign in practice is that
  // the overflowing bytes are pure label text into heap slack, not
  // attacker-chosen encodings, and the behaviour is detectable from the
  // *query* alone. Here we assert the fingerprint shows without needing
  // url_escape.
  const ExpansionReport report = libspf2_expand_item(item_d1r(), "example.com");
  EXPECT_FALSE(report.sprintf_overflow);
  EXPECT_EQ(report.output, "com.com.example");
}

// -------------------------------------------------------- patched library

TEST(Patched, MatchesRfc) {
  const Libspf2PatchedExpander patched;
  const spf::Rfc7208Expander rfc;
  for (const char* macro :
       {"%{d1r}.foo.com", "%{d}", "%{dr}", "%{L}", "%{i}._spf.%{d2}"}) {
    EXPECT_EQ(patched.expand(macro, example_context()),
              rfc.expand(macro, example_context()))
        << macro;
  }
}

// -------------------------------------------------------- variant engines

TEST(Variants, NoExpansionLeavesMacroLiteral) {
  const NoExpansionExpander e;
  EXPECT_EQ(e.expand("%{d1r}.foo.com", example_context()), "%{d1r}.foo.com");
}

TEST(Variants, NoTruncation) {
  const NoTruncationExpander e;
  // Section 4.2's "non-compliant (missing truncation)" example.
  EXPECT_EQ(e.expand("%{d1r}.foo.com", example_context()),
            "com.example.foo.com");
}

TEST(Variants, NoReversal) {
  const NoReversalExpander e;
  EXPECT_EQ(e.expand("%{d1r}.foo.com", example_context()), "com.foo.com");
}

TEST(Variants, NoTransformers) {
  const NoTransformersExpander e;
  EXPECT_EQ(e.expand("%{d1r}.foo.com", example_context()),
            "example.com.foo.com");
}

TEST(Variants, AllDistinctOnTestShapedDomain) {
  // On the 5-label measurement domains every behaviour must have a unique
  // fingerprint, or classification would be ambiguous.
  spf::MacroContext ctx;
  ctx.sender_local = "postmaster";
  ctx.sender_domain = dns::Name::from_string("ab1cd.x7.spf-test.dns-lab.org");
  ctx.current_domain = ctx.sender_domain;
  ctx.client_ip = util::IpAddress::v4(192, 0, 2, 1);

  std::set<std::string> outputs;
  for (const SpfBehavior b :
       {SpfBehavior::RfcCompliant, SpfBehavior::VulnerableLibspf2,
        SpfBehavior::NoExpansion, SpfBehavior::NoTruncation,
        SpfBehavior::NoReversal, SpfBehavior::NoTransformers,
        SpfBehavior::OtherErroneous}) {
    outputs.insert(make_expander(b).expand("%{d1r}", ctx));
  }
  EXPECT_EQ(outputs.size(), 7u);
}

// -------------------------------------------------------- behaviour taxonomy

TEST(Behavior, ErroneousFlags) {
  EXPECT_FALSE(is_erroneous(SpfBehavior::RfcCompliant));
  EXPECT_FALSE(is_erroneous(SpfBehavior::PatchedLibspf2));
  EXPECT_TRUE(is_erroneous(SpfBehavior::VulnerableLibspf2));
  EXPECT_TRUE(is_erroneous(SpfBehavior::NoExpansion));
  EXPECT_TRUE(is_erroneous(SpfBehavior::OtherErroneous));
}

TEST(Behavior, VulnerableFlag) {
  EXPECT_TRUE(is_vulnerable(SpfBehavior::VulnerableLibspf2));
  EXPECT_FALSE(is_vulnerable(SpfBehavior::NoTruncation));
  EXPECT_FALSE(is_vulnerable(SpfBehavior::PatchedLibspf2));
}

TEST(Behavior, ExpanderIdsStable) {
  EXPECT_EQ(make_expander(SpfBehavior::VulnerableLibspf2).id(),
            "libspf2-vulnerable");
  EXPECT_EQ(make_expander(SpfBehavior::RfcCompliant).id(), "rfc7208");
  EXPECT_EQ(make_expander(SpfBehavior::PatchedLibspf2).id(),
            "libspf2-patched");
}

// -------------------------------------------------------- classifier

class ClassifierFixture : public ::testing::Test {
 protected:
  ClassifierFixture()
      : domain_(dns::Name::from_string("k3j9x.t01.spf-test.dns-lab.org")),
        classifier_(domain_) {}

  dns::Name domain_;
  FingerprintClassifier classifier_;
};

TEST_F(ClassifierFixture, TxtFetchIsNotAProbe) {
  EXPECT_FALSE(classifier_.classify(domain_).has_value());
}

TEST_F(ClassifierFixture, ControlLookupIsNotAProbe) {
  EXPECT_FALSE(classifier_.classify(domain_.child("b")).has_value());
}

TEST_F(ClassifierFixture, OffDomainIsIgnored) {
  EXPECT_FALSE(
      classifier_.classify(dns::Name::from_string("example.com")).has_value());
}

TEST_F(ClassifierFixture, RoundTripsEveryBehavior) {
  for (const SpfBehavior b :
       {SpfBehavior::RfcCompliant, SpfBehavior::VulnerableLibspf2,
        SpfBehavior::NoExpansion, SpfBehavior::NoTruncation,
        SpfBehavior::NoReversal, SpfBehavior::NoTransformers,
        SpfBehavior::OtherErroneous}) {
    const dns::Name query = classifier_.expected_query(b);
    const auto classified = classifier_.classify(query);
    ASSERT_TRUE(classified.has_value()) << to_string(b);
    EXPECT_EQ(*classified, b) << to_string(b);
  }
}

TEST_F(ClassifierFixture, PatchedClassifiesAsRfcCompliant) {
  const dns::Name query = classifier_.expected_query(SpfBehavior::PatchedLibspf2);
  const auto classified = classifier_.classify(query);
  ASSERT_TRUE(classified.has_value());
  EXPECT_EQ(*classified, SpfBehavior::RfcCompliant);
}

TEST_F(ClassifierFixture, UnknownProbeShapeIsOtherErroneous) {
  const auto classified =
      classifier_.classify(domain_.child("zz").child("yy"));
  ASSERT_TRUE(classified.has_value());
  EXPECT_EQ(*classified, SpfBehavior::OtherErroneous);
}

TEST_F(ClassifierFixture, VulnerableQueryShape) {
  // For <id>.<suite>.spf-test.dns-lab.org the vulnerable expansion leads
  // with the duplicated dropped labels.
  const dns::Name q = classifier_.expected_query(SpfBehavior::VulnerableLibspf2);
  EXPECT_EQ(q.to_string(),
            "org.dns-lab.spf-test.t01.org.dns-lab.spf-test.t01.k3j9x."
            "k3j9x.t01.spf-test.dns-lab.org");
}

TEST_F(ClassifierFixture, RfcQueryShape) {
  EXPECT_EQ(classifier_.expected_query(SpfBehavior::RfcCompliant).to_string(),
            "k3j9x.k3j9x.t01.spf-test.dns-lab.org");
}

}  // namespace
}  // namespace spfail::spfvuln
