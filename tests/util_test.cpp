#include <gtest/gtest.h>

#include <set>
#include <sstream>
#include <vector>

#include "util/clock.hpp"
#include "util/encoding.hpp"
#include "util/ip.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"

namespace spfail::util {
namespace {

// ---------------------------------------------------------------- Rng

TEST(Rng, Deterministic) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) same += (a() == b());
  EXPECT_LT(same, 3);
}

TEST(Rng, UniformRespectsBounds) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const auto v = rng.uniform(10, 20);
    EXPECT_GE(v, 10u);
    EXPECT_LE(v, 20u);
  }
}

TEST(Rng, UniformSingleValue) {
  Rng rng(7);
  EXPECT_EQ(rng.uniform(5, 5), 5u);
}

TEST(Rng, UniformSignedNegativeRange) {
  Rng rng(7);
  for (int i = 0; i < 100; ++i) {
    const auto v = rng.uniform_signed(-5, 5);
    EXPECT_GE(v, -5);
    EXPECT_LE(v, 5);
  }
}

TEST(Rng, Uniform01InRange) {
  Rng rng(11);
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.uniform01();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(Rng, BernoulliExtremes) {
  Rng rng(3);
  for (int i = 0; i < 50; ++i) {
    EXPECT_FALSE(rng.bernoulli(0.0));
    EXPECT_TRUE(rng.bernoulli(1.0));
  }
}

TEST(Rng, BernoulliApproximatesP) {
  Rng rng(5);
  int hits = 0;
  for (int i = 0; i < 10000; ++i) hits += rng.bernoulli(0.3);
  EXPECT_NEAR(hits / 10000.0, 0.3, 0.02);
}

TEST(Rng, ForkIndependentByLabel) {
  Rng parent1(9);
  Rng parent2(9);
  Rng a = parent1.fork("alpha");
  Rng b = parent2.fork("beta");
  int same = 0;
  for (int i = 0; i < 100; ++i) same += (a() == b());
  EXPECT_LT(same, 3);
}

TEST(Rng, ForkDeterministic) {
  Rng p1(9), p2(9);
  Rng a = p1.fork("x");
  Rng b = p2.fork("x");
  for (int i = 0; i < 20; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, WeightedIndexHonoursWeights) {
  Rng rng(13);
  const double weights[] = {0.0, 1.0, 0.0};
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(rng.weighted_index(weights), 1u);
  }
}

TEST(Rng, WeightedIndexDistribution) {
  Rng rng(17);
  const double weights[] = {1.0, 3.0};
  int counts[2] = {0, 0};
  for (int i = 0; i < 10000; ++i) ++counts[rng.weighted_index(weights)];
  EXPECT_NEAR(counts[1] / 10000.0, 0.75, 0.02);
}

TEST(Rng, WeightedIndexThrowsOnEmpty) {
  Rng rng(1);
  EXPECT_THROW(rng.weighted_index({}), std::invalid_argument);
}

TEST(Rng, TokenFormat) {
  Rng rng(21);
  const std::string t = rng.token(12);
  EXPECT_EQ(t.size(), 12u);
  EXPECT_TRUE(is_alnum(t));
}

TEST(Rng, TokensMostlyUnique) {
  Rng rng(23);
  std::set<std::string> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(rng.token(8));
  EXPECT_EQ(seen.size(), 1000u);
}

TEST(Rng, ExponentialPositive) {
  Rng rng(29);
  for (int i = 0; i < 100; ++i) EXPECT_GT(rng.exponential(2.0), 0.0);
}

TEST(Rng, ExponentialMean) {
  Rng rng(31);
  double sum = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) sum += rng.exponential(0.5);
  EXPECT_NEAR(sum / n, 2.0, 0.1);
}

// ---------------------------------------------------------------- Clock

TEST(Clock, CivilRoundTrip) {
  for (const auto& [y, m, d] : {std::tuple{2021, 10, 11}, {2022, 1, 19},
                                {2022, 2, 14}, {2000, 2, 29}, {1970, 1, 1}}) {
    const auto days = days_from_civil(y, m, d);
    const CivilDate back = civil_from_days(days);
    EXPECT_EQ(back.year, y);
    EXPECT_EQ(back.month, m);
    EXPECT_EQ(back.day, d);
  }
}

TEST(Clock, KnownEpochOffsets) {
  EXPECT_EQ(days_from_civil(1970, 1, 1), 0);
  EXPECT_EQ(days_from_civil(1970, 1, 2), 1);
  EXPECT_EQ(days_from_civil(1969, 12, 31), -1);
}

TEST(Clock, PaperTimelineOrdering) {
  const SimTime initial = at_midnight(2021, 10, 11);
  const SimTime private_notice = at_midnight(2021, 11, 15);
  const SimTime disclosure = at_midnight(2022, 1, 19);
  const SimTime final_measurement = at_midnight(2022, 2, 14);
  EXPECT_LT(initial, private_notice);
  EXPECT_LT(private_notice, disclosure);
  EXPECT_LT(disclosure, final_measurement);
  EXPECT_EQ((private_notice - initial) / kDay, 35);
}

TEST(Clock, FormatDate) {
  EXPECT_EQ(format_date(at_midnight(2021, 10, 11)), "2021-10-11");
  EXPECT_EQ(format_date(at_midnight(2022, 2, 14)), "2022-02-14");
}

TEST(Clock, FormatDatetime) {
  EXPECT_EQ(format_datetime(at_midnight(2022, 1, 19) + 3 * kHour + 5 * kMinute),
            "2022-01-19 03:05:00");
}

TEST(Clock, AdvanceForwardOk) {
  SimClock clock(100);
  clock.advance_by(50);
  EXPECT_EQ(clock.now(), 150);
  clock.advance_to(150);  // no-op advance to the same instant is fine
  EXPECT_EQ(clock.now(), 150);
}

TEST(Clock, AdvanceBackwardThrows) {
  SimClock clock(100);
  EXPECT_THROW(clock.advance_to(99), std::logic_error);
}

// ---------------------------------------------------------------- strings

TEST(Strings, SplitBasic) {
  const auto parts = split("a.b.c", '.');
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[2], "c");
}

TEST(Strings, SplitEmptyFields) {
  const auto parts = split("a..b", '.');
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[1], "");
}

TEST(Strings, SplitAnyMultipleDelims) {
  const auto parts = split_any("a.b-c", ".-");
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[1], "b");
}

TEST(Strings, JoinRoundTrip) {
  EXPECT_EQ(join(split("x.y.z", '.'), "."), "x.y.z");
}

TEST(Strings, ToLower) { EXPECT_EQ(to_lower("ExAmPle.COM"), "example.com"); }

TEST(Strings, IEquals) {
  EXPECT_TRUE(iequals("MAIL", "mail"));
  EXPECT_FALSE(iequals("MAIL", "mai"));
}

TEST(Strings, Trim) {
  EXPECT_EQ(trim("  x \r\n"), "x");
  EXPECT_EQ(trim(""), "");
  EXPECT_EQ(trim("   "), "");
}

TEST(Strings, WithCommas) {
  EXPECT_EQ(with_commas(0), "0");
  EXPECT_EQ(with_commas(999), "999");
  EXPECT_EQ(with_commas(1000), "1,000");
  EXPECT_EQ(with_commas(418842), "418,842");
  EXPECT_EQ(with_commas(-1234567), "-1,234,567");
}

TEST(Strings, Percent) {
  EXPECT_EQ(percent(1, 2), "50%");
  EXPECT_EQ(percent(3, 7, 1), "42.9%");
  EXPECT_EQ(percent(5, 0), "0%");
}

// ---------------------------------------------------------------- encoding

TEST(Encoding, UrlEncodeByte) {
  EXPECT_EQ(url_encode_byte(0x0F), "%0F");
  EXPECT_EQ(url_encode_byte(0xFE), "%FE");
}

TEST(Encoding, UrlEncodePassthrough) {
  EXPECT_EQ(url_encode("abc-XYZ_0.9~"), "abc-XYZ_0.9~");
}

TEST(Encoding, UrlEncodeReserved) {
  EXPECT_EQ(url_encode("a b"), "a%20b");
  EXPECT_EQ(url_encode("a/b"), "a%2Fb");
}

// The crux of CVE-2021-33912: high-bit bytes explode from 3 to 9 characters.
TEST(Encoding, Libspf2SprintfLowBytesNormal) {
  EXPECT_EQ(libspf2_sprintf_encode_byte(0x0F), "%0f");
  EXPECT_EQ(libspf2_sprintf_encode_byte(0x7F), "%7f");
}

TEST(Encoding, Libspf2SprintfHighBytesSignExtend) {
  EXPECT_EQ(libspf2_sprintf_encode_byte(0xFE), "%fffffffe");
  EXPECT_EQ(libspf2_sprintf_encode_byte(0x80), "%ffffff80");
  EXPECT_EQ(libspf2_sprintf_encode_byte(0xFF), "%ffffffff");
}

TEST(Encoding, Libspf2SprintfBoundary) {
  // 0x7F is the last safe value; 0x80 is the first overflowing one.
  EXPECT_EQ(libspf2_sprintf_encode_byte(0x7F).size(), 3u);
  EXPECT_EQ(libspf2_sprintf_encode_byte(0x80).size(), 9u);
}

TEST(Encoding, ToHex) { EXPECT_EQ(to_hex("\x01\xab"), "01ab"); }

// ---------------------------------------------------------------- IpAddress

TEST(Ip, ParseV4) {
  const auto ip = IpAddress::parse("192.0.2.1");
  ASSERT_TRUE(ip.has_value());
  EXPECT_TRUE(ip->is_v4());
  EXPECT_EQ(ip->to_string(), "192.0.2.1");
}

TEST(Ip, ParseV4Invalid) {
  EXPECT_FALSE(IpAddress::parse("192.0.2").has_value());
  EXPECT_FALSE(IpAddress::parse("192.0.2.256").has_value());
  EXPECT_FALSE(IpAddress::parse("a.b.c.d").has_value());
  EXPECT_FALSE(IpAddress::parse("1.2.3.4.5").has_value());
}

TEST(Ip, ParseV6Full) {
  const auto ip = IpAddress::parse("2001:db8:0:0:0:0:0:1");
  ASSERT_TRUE(ip.has_value());
  EXPECT_TRUE(ip->is_v6());
}

TEST(Ip, ParseV6Compressed) {
  const auto a = IpAddress::parse("2001:db8::1");
  const auto b = IpAddress::parse("2001:db8:0:0:0:0:0:1");
  ASSERT_TRUE(a && b);
  EXPECT_EQ(*a, *b);
}

TEST(Ip, ParseV6Invalid) {
  EXPECT_FALSE(IpAddress::parse("2001:db8::1::2").has_value());
  EXPECT_FALSE(IpAddress::parse("2001:db8:1:2:3:4:5:6:7").has_value());
  EXPECT_FALSE(IpAddress::parse("gggg::1").has_value());
}

TEST(Ip, V4RoundTrip) {
  const auto ip = IpAddress::v4(0xC0000201);
  EXPECT_EQ(ip.to_string(), "192.0.2.1");
  EXPECT_EQ(ip.v4_value(), 0xC0000201u);
}

TEST(Ip, V4ValueThrowsOnV6) {
  const auto ip = IpAddress::parse("::1");
  ASSERT_TRUE(ip.has_value());
  EXPECT_THROW(ip->v4_value(), std::logic_error);
}

TEST(Ip, PrefixMatchV4) {
  const auto net = *IpAddress::parse("192.0.2.0");
  EXPECT_TRUE(IpAddress::v4(192, 0, 2, 200).in_prefix(net, 24));
  EXPECT_FALSE(IpAddress::v4(192, 0, 3, 1).in_prefix(net, 24));
  EXPECT_TRUE(IpAddress::v4(10, 0, 0, 1).in_prefix(net, 0));
}

TEST(Ip, PrefixMatchExact) {
  const auto a = IpAddress::v4(192, 0, 2, 1);
  EXPECT_TRUE(a.in_prefix(a, 32));
  EXPECT_FALSE(IpAddress::v4(192, 0, 2, 2).in_prefix(a, 32));
}

TEST(Ip, PrefixFamilyMismatch) {
  const auto v4 = IpAddress::v4(192, 0, 2, 1);
  const auto v6 = *IpAddress::parse("::1");
  EXPECT_FALSE(v4.in_prefix(v6, 0));
}

TEST(Ip, SpfMacroFormV4) {
  EXPECT_EQ(IpAddress::v4(192, 0, 2, 1).spf_macro_form(), "192.0.2.1");
}

TEST(Ip, SpfMacroFormV6IsNibbles) {
  const auto ip = *IpAddress::parse("2001:db8::1");
  const std::string form = ip.spf_macro_form();
  EXPECT_EQ(form.substr(0, 7), "2.0.0.1");
  EXPECT_EQ(form.back(), '1');
  // 32 nibbles + 31 dots
  EXPECT_EQ(form.size(), 63u);
}

TEST(Ip, ReversePointerV4) {
  EXPECT_EQ(IpAddress::v4(192, 0, 2, 1).reverse_pointer(),
            "1.2.0.192.in-addr.arpa");
}

// ---------------------------------------------------------------- TextTable

TEST(Table, RendersAllCells) {
  TextTable t({"name", "count"}, {Align::Left, Align::Right});
  t.add_row({"com", "230801"});
  t.add_row({"ru", "19844"});
  const std::string out = t.render();
  EXPECT_NE(out.find("com"), std::string::npos);
  EXPECT_NE(out.find("230801"), std::string::npos);
  EXPECT_NE(out.find("ru"), std::string::npos);
  EXPECT_EQ(t.rows(), 2u);
}

TEST(Table, RejectsBadRowWidth) {
  TextTable t({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), std::invalid_argument);
}

TEST(Table, ToCsvSkipsRules) {
  TextTable t({"a", "b"});
  t.add_row({"1", "2"});
  t.add_rule();
  t.add_row({"3", "4,5"});
  std::ostringstream os;
  t.to_csv(os);
  EXPECT_EQ(os.str(), "a,b\n1,2\n3,\"4,5\"\n");
}

TEST(Table, PadsSparklineCellsByDisplayWidth) {
  const std::vector<double> series = {0, 3, 1, 4, 1, 5, 9, 2, 6};
  const std::string spark = sparkline(series);
  ASSERT_GT(spark.size(), series.size());  // multi-byte UTF-8 blocks
  TextTable t({"series", "trend", "n"},
              {Align::Left, Align::Left, Align::Right});
  t.add_row({"rounds", spark, "9"});
  t.add_row({"a-much-longer-label", "flat", "12345"});
  const std::string out = t.render();
  // Count code points, not bytes: every line must be equally wide.
  std::istringstream lines(out);
  std::string line;
  std::set<std::size_t> widths;
  while (std::getline(lines, line)) {
    std::size_t width = 0;
    for (const char c : line) {
      if ((static_cast<unsigned char>(c) & 0xC0) != 0x80) ++width;
    }
    widths.insert(width);
  }
  EXPECT_EQ(widths.size(), 1u) << out;
  EXPECT_NE(out.find(spark), std::string::npos);
}

TEST(Table, CsvEscaping) {
  std::ostringstream os;
  CsvWriter csv(os);
  csv.row({"plain", "with,comma", "with\"quote"});
  EXPECT_EQ(os.str(), "plain,\"with,comma\",\"with\"\"quote\"\n");
}

}  // namespace
}  // namespace spfail::util
