#include <gtest/gtest.h>

#include "spf/macro.hpp"

namespace spfail::spf {
namespace {

MacroContext paper_context() {
  // The running example from section 2.2 of the paper:
  // sender user@example.com, client 203.0.113.7.
  MacroContext ctx;
  ctx.sender_local = "user";
  ctx.sender_domain = dns::Name::from_string("example.com");
  ctx.current_domain = dns::Name::from_string("example.com");
  ctx.client_ip = util::IpAddress::v4(203, 0, 113, 7);
  ctx.helo_domain = dns::Name::from_string("mta.sender.net");
  ctx.receiver_domain = dns::Name::from_string("rx.example.org");
  ctx.timestamp = 1633910400;
  return ctx;
}

// ------------------------------------------------------------- parsing

TEST(MacroParse, PlainLiteral) {
  const auto tokens = parse_macro_string("foo.example.com");
  ASSERT_EQ(tokens.size(), 1u);
  EXPECT_EQ(std::get<MacroLiteral>(tokens[0]).text, "foo.example.com");
}

TEST(MacroParse, SimpleMacro) {
  const auto tokens = parse_macro_string("%{d}");
  ASSERT_EQ(tokens.size(), 1u);
  const auto& item = std::get<MacroItem>(tokens[0]);
  EXPECT_EQ(item.letter, 'd');
  EXPECT_FALSE(item.url_escape);
  EXPECT_EQ(item.keep, 0);
  EXPECT_FALSE(item.reverse);
  EXPECT_EQ(item.delimiters, ".");
}

TEST(MacroParse, Transformers) {
  const auto tokens = parse_macro_string("%{d2r}");
  const auto& item = std::get<MacroItem>(tokens[0]);
  EXPECT_EQ(item.keep, 2);
  EXPECT_TRUE(item.reverse);
}

TEST(MacroParse, UppercaseMeansUrlEscape) {
  const auto tokens = parse_macro_string("%{L}");
  const auto& item = std::get<MacroItem>(tokens[0]);
  EXPECT_EQ(item.letter, 'l');
  EXPECT_TRUE(item.url_escape);
}

TEST(MacroParse, CustomDelimiters) {
  const auto tokens = parse_macro_string("%{l1r-}");
  const auto& item = std::get<MacroItem>(tokens[0]);
  EXPECT_EQ(item.delimiters, "-");
  EXPECT_TRUE(item.reverse);
  EXPECT_EQ(item.keep, 1);
}

TEST(MacroParse, MixedLiteralsAndMacros) {
  const auto tokens = parse_macro_string("%{d1r}.foo.com");
  ASSERT_EQ(tokens.size(), 2u);
  EXPECT_TRUE(std::holds_alternative<MacroItem>(tokens[0]));
  EXPECT_EQ(std::get<MacroLiteral>(tokens[1]).text, ".foo.com");
}

TEST(MacroParse, PercentEscapes) {
  const auto tokens = parse_macro_string("a%%b%_c%-d");
  ASSERT_EQ(tokens.size(), 1u);
  EXPECT_EQ(std::get<MacroLiteral>(tokens[0]).text, "a%b c%20d");
}

TEST(MacroParse, ErrorBarePercentAtEnd) {
  EXPECT_THROW(parse_macro_string("foo%"), MacroSyntaxError);
}

TEST(MacroParse, ErrorInvalidEscape) {
  EXPECT_THROW(parse_macro_string("%x"), MacroSyntaxError);
}

TEST(MacroParse, ErrorUnterminatedBrace) {
  EXPECT_THROW(parse_macro_string("%{d1r"), MacroSyntaxError);
}

TEST(MacroParse, ErrorUnknownLetter) {
  EXPECT_THROW(parse_macro_string("%{q}"), MacroSyntaxError);
}

TEST(MacroParse, ErrorZeroDigits) {
  EXPECT_THROW(parse_macro_string("%{d0}"), MacroSyntaxError);
}

TEST(MacroParse, ErrorBadDelimiter) {
  EXPECT_THROW(parse_macro_string("%{d2r!}"), MacroSyntaxError);
}

// ------------------------------------------------------------- letters

TEST(MacroLetters, AllDocumentedValues) {
  const MacroContext ctx = paper_context();
  EXPECT_EQ(macro_letter_value('s', ctx), "user@example.com");
  EXPECT_EQ(macro_letter_value('l', ctx), "user");
  EXPECT_EQ(macro_letter_value('o', ctx), "example.com");
  EXPECT_EQ(macro_letter_value('d', ctx), "example.com");
  EXPECT_EQ(macro_letter_value('i', ctx), "203.0.113.7");
  EXPECT_EQ(macro_letter_value('v', ctx), "in-addr");
  EXPECT_EQ(macro_letter_value('h', ctx), "mta.sender.net");
  EXPECT_EQ(macro_letter_value('p', ctx), "unknown");
  EXPECT_EQ(macro_letter_value('c', ctx), "203.0.113.7");
  EXPECT_EQ(macro_letter_value('r', ctx), "rx.example.org");
  EXPECT_EQ(macro_letter_value('t', ctx), "1633910400");
}

TEST(MacroLetters, V6Forms) {
  MacroContext ctx = paper_context();
  ctx.client_ip = *util::IpAddress::parse("2001:db8::1");
  EXPECT_EQ(macro_letter_value('v', ctx), "ip6");
  EXPECT_EQ(macro_letter_value('i', ctx).substr(0, 7), "2.0.0.1");
}

// ------------------------------------------------------------- expansion
// The paper's own worked example (section 2.2), for user@example.com:
//   %{l}   -> user
//   %{d}   -> example.com
//   %{d2}  -> example.com
//   %{d1}  -> com
//   %{dr}  -> com.example
//   %{d1r} -> example

struct PaperExampleCase {
  const char* macro;
  const char* expected;
};

// Names each ctest case by its macro; gtest's default would print the two
// string addresses, which change with every build.
void PrintTo(const PaperExampleCase& c, std::ostream* os) { *os << c.macro; }

class PaperExamples : public ::testing::TestWithParam<PaperExampleCase> {};

TEST_P(PaperExamples, ExpandsAsInSection22) {
  const Rfc7208Expander expander;
  EXPECT_EQ(expander.expand(GetParam().macro, paper_context()),
            GetParam().expected);
}

INSTANTIATE_TEST_SUITE_P(
    Section22, PaperExamples,
    ::testing::Values(PaperExampleCase{"%{l}", "user"},
                      PaperExampleCase{"%{d}", "example.com"},
                      PaperExampleCase{"%{d2}", "example.com"},
                      PaperExampleCase{"%{d1}", "com"},
                      PaperExampleCase{"%{dr}", "com.example"},
                      PaperExampleCase{"%{d1r}", "example"}));

TEST(MacroExpand, FullMechanismTarget) {
  const Rfc7208Expander expander;
  EXPECT_EQ(expander.expand("%{d1r}.foo.com", paper_context()),
            "example.foo.com");
}

TEST(MacroExpand, SenderMacro) {
  const Rfc7208Expander expander;
  EXPECT_EQ(expander.expand("%{s}", paper_context()), "user@example.com");
}

TEST(MacroExpand, UrlEscapingAppliesAfterTransform) {
  const Rfc7208Expander expander;
  MacroContext ctx = paper_context();
  ctx.sender_local = "u/s";
  EXPECT_EQ(expander.expand("%{L}", ctx), "u%2Fs");
}

TEST(MacroExpand, CustomDelimiterSplitsAndRejoinsWithDots) {
  const Rfc7208Expander expander;
  MacroContext ctx = paper_context();
  ctx.sender_local = "a-b-c";
  // RFC 7208 section 7.3: re-join always uses ".".
  EXPECT_EQ(expander.expand("%{l-}", ctx), "a.b.c");
  EXPECT_EQ(expander.expand("%{l1r-}", ctx), "a");
}

TEST(MacroExpand, KeepLargerThanPartsKeepsAll) {
  const Rfc7208Expander expander;
  EXPECT_EQ(expander.expand("%{d9}", paper_context()), "example.com");
  EXPECT_EQ(expander.expand("%{d9r}", paper_context()), "com.example");
}

TEST(MacroExpand, ExistsStyleMultiMacro) {
  const Rfc7208Expander expander;
  EXPECT_EQ(expander.expand("%{i}._spf.%{d}", paper_context()),
            "203.0.113.7._spf.example.com");
}

// Property: for any label count, reversal twice with no truncation is
// identity, and keep=count is identity.
class TransformerProperties : public ::testing::TestWithParam<int> {};

TEST_P(TransformerProperties, ReverseIsInvolutionAndKeepAllIsIdentity) {
  const int n = GetParam();
  std::string domain;
  for (int i = 0; i < n; ++i) {
    domain += static_cast<char>('a' + i);
    if (i + 1 < n) domain += '.';
  }
  MacroItem reverse_item;
  reverse_item.reverse = true;
  const std::string once = apply_transformers(domain, reverse_item);
  const std::string twice = apply_transformers(once, reverse_item);
  EXPECT_EQ(twice, domain);

  MacroItem keep_all;
  keep_all.keep = n;
  EXPECT_EQ(apply_transformers(domain, keep_all), domain);
}

INSTANTIATE_TEST_SUITE_P(Sizes, TransformerProperties,
                         ::testing::Values(1, 2, 3, 5, 8, 20));

}  // namespace
}  // namespace spfail::spf
