// Mutation lanes for the text parsers: the zone file, the SPF record and
// macro-string grammars, DMARC records, DKIM tag lists and mail messages.
//
// Each lane starts from one seed input that uses every construct its parser
// knows, then feeds the parser seeded byte flips and every truncation of
// that seed. Every mutant must parse or throw the parser's declared error
// type; any other exception — or a sanitizer report in the asan_faults /
// ubsan_net lanes — is a parser bug. The mail message parser declares no
// error type, so its mutants must all parse, and re-parse to themselves.
#include <gtest/gtest.h>

#include <cstdint>
#include <exception>
#include <string>
#include <string_view>
#include <variant>

#include "dkim/dkim.hpp"
#include "dmarc/record.hpp"
#include "dns/zonefile.hpp"
#include "mail/message.hpp"
#include "spf/macro.hpp"
#include "spf/record.hpp"
#include "util/rng.hpp"

namespace spfail {
namespace {

constexpr int kFlipCases = 2000;

// Runs `parse` over `text`; fails the test unless it returns or throws Error.
template <typename Error, typename Parse>
void parses_or_rejects(const Parse& parse, std::string_view text,
                       const std::string& which) {
  try {
    parse(text);
  } catch (const Error&) {
  } catch (const std::exception& e) {
    ADD_FAILURE() << which << " escaped as a foreign error: " << e.what();
  } catch (...) {
    ADD_FAILURE() << which << " escaped as a non-standard exception";
  }
}

// Calls check(mutant, label) for 1–4 seeded byte flips per case, then for
// every truncation of the seed.
template <typename Check>
void for_each_mutant(std::string_view seed, std::uint64_t rng_seed,
                     const Check& check) {
  util::Rng rng(rng_seed);
  for (int i = 0; i < kFlipCases; ++i) {
    std::string mutated(seed);
    const std::uint64_t flips = rng.uniform(1, 4);
    for (std::uint64_t f = 0; f < flips; ++f) {
      mutated[rng.uniform(0, mutated.size() - 1)] ^=
          static_cast<char>(rng.uniform(1, 255));
    }
    check(mutated, "flip case " + std::to_string(i));
  }
  for (std::size_t cut = 0; cut <= seed.size(); ++cut) {
    check(seed.substr(0, cut), "truncation at " + std::to_string(cut));
  }
}

template <typename Error, typename Parse>
void mutate(const Parse& parse, std::string_view seed, std::uint64_t rng_seed) {
  for_each_mutant(seed, rng_seed,
                  [&](std::string_view text, const std::string& which) {
                    parses_or_rejects<Error>(parse, text, which);
                  });
}

// Directives, a comment, a blank owner, TTL and class in both orders,
// relative, absolute and '@' names, and every supported record type.
constexpr std::string_view kZoneSeed =
    "; every construct\n"
    "$ORIGIN example.com.\n"
    "$TTL 600\n"
    "@     IN SOA ns1 hostmaster 2021101101 7200 3600 1209600 300\n"
    "@     3600 IN NS ns1\n"
    "      IN 120 NS ns2.example.net.\n"
    "@     IN MX 10 mx1\n"
    "@     IN TXT \"v=spf1 mx -all\" \"second string\" ; trailing comment\n"
    "mx1   IN A 192.0.2.25\n"
    "mx1   IN AAAA 2001:db8::25\n"
    "www   IN CNAME @\n"
    "ptr   IN PTR mx1.example.com.\n";

TEST(ParserMutation, ZoneFileParsesOrRejectsEveryMutant) {
  const dns::Name origin = dns::Name::from_string("example.com");
  EXPECT_EQ(dns::parse_zone_text(kZoneSeed, origin).record_count(), 9u);
  mutate<dns::ZoneFileError>(
      [&](std::string_view text) { dns::parse_zone_text(text, origin); },
      kZoneSeed, 0x2011E);
}

// Every qualifier, mechanism and CIDR form, and known and unknown modifiers.
constexpr std::string_view kSpfSeed =
    "v=spf1 +a -a:mail.%{d} ~mx/24 ?mx:%{d2}/24//64 a//64 ptr "
    "ptr:%{ir}.%{v}.arpa exists:%{l1r-}.%{o}._spf.%{d} "
    "include:_spf.example.com ip4:192.0.2.0/24 ip6:2001:db8::/32 -all "
    "redirect=_spf.%{d} exp=explain.%{d} unknown-mod=x";

TEST(ParserMutation, SpfRecordParsesOrRejectsEveryMutant) {
  const spf::Record record = spf::parse_record(kSpfSeed);
  EXPECT_EQ(record.mechanisms.size(), 12u);
  EXPECT_EQ(record.modifiers.size(), 3u);
  mutate<spf::RecordSyntaxError>(
      [](std::string_view text) { spf::parse_record(text); }, kSpfSeed,
      0x5EC0D);
}

// Every macro letter, URL-escaping, digit and reverse transformers, every
// delimiter, and the three escapes.
constexpr std::string_view kMacroSeed =
    "%{s}.%{L}.%{o3r}.%{d2r.-}.%{i}.%{p}.%{v}.%{h}.%{c}.%{r}.%{t}"
    "%%%_%-x%{D128R+,/_=}";

TEST(ParserMutation, SpfMacroStringParsesOrRejectsEveryMutant) {
  std::size_t items = 0;
  for (const spf::MacroToken& token : spf::parse_macro_string(kMacroSeed)) {
    items += std::holds_alternative<spf::MacroItem>(token) ? 1 : 0;
  }
  EXPECT_EQ(items, 12u);
  mutate<spf::MacroSyntaxError>(
      [](std::string_view text) { spf::parse_macro_string(text); },
      kMacroSeed, 0x3AC20);
}

// Every modelled tag plus an unknown one.
constexpr std::string_view kDmarcSeed =
    "v=DMARC1; p=quarantine; sp=reject; aspf=s; adkim=r; pct=42; "
    "rua=mailto:agg@example.com; ruf=mailto:forensic@example.com; fo=1";

TEST(ParserMutation, DmarcRecordParsesOrRejectsEveryMutant) {
  const dmarc::Record record = dmarc::parse_record(kDmarcSeed);
  EXPECT_EQ(record.percent, 42);
  EXPECT_EQ(record.ruf, "mailto:forensic@example.com");
  mutate<dmarc::RecordSyntaxError>(
      [](std::string_view text) { dmarc::parse_record(text); }, kDmarcSeed,
      0xD3A2C);
}

// Every modelled tag, a spaced header list, and an unknown tag.
constexpr std::string_view kDkimSeed =
    "v=1; a=sim-sha; d=Example.COM; s=sel1; h=From : To:Subject; "
    "bh=Ym9keQ==; b=c2lnbmF0dXJl; x=unknown";

TEST(ParserMutation, DkimSignatureParsesOrRejectsEveryMutant) {
  const dkim::Signature signature = dkim::parse_signature(kDkimSeed);
  EXPECT_EQ(signature.selector, "sel1");
  EXPECT_EQ(signature.signed_headers.size(), 3u);
  mutate<dkim::SignatureSyntaxError>(
      [](std::string_view text) { dkim::parse_signature(text); }, kDkimSeed,
      0xD1C1A);
}

// Folded headers (tab and space continuations), a display-name From, a
// bare-LF line, a junk line without a colon and a multi-line body.
constexpr std::string_view kMessageSeed =
    "Received: from mx.example.net\r\n"
    "\tby mail.example.com; Mon, 11 Oct 2021 09:00:00 +0000\r\n"
    "From: \"Postmaster, Example\" <postmaster@Mail.Example.COM>\r\n"
    "To: abuse@example.org\n"
    "Subject: SPF macro\r\n"
    "  expansion report\r\n"
    "not a header\r\n"
    "\r\n"
    "First body line.\r\n"
    "\r\n"
    "Last body line.\n";

TEST(ParserMutation, MailMessageParsesAndRoundTripsEveryMutant) {
  const mail::Message seed = mail::Message::parse(kMessageSeed);
  EXPECT_EQ(seed.headers().size(), 4u);
  EXPECT_EQ(seed.first_header("Subject"), "SPF macro expansion report");
  ASSERT_TRUE(seed.from_domain().has_value());
  EXPECT_EQ(seed.from_domain()->to_string(), "mail.example.com");
  EXPECT_EQ(seed.body(), "First body line.\r\n\r\nLast body line.\n");
  for_each_mutant(
      kMessageSeed, 0x3E55A6E,
      [](std::string_view text, const std::string& which) {
        try {
          const mail::Message message = mail::Message::parse(text);
          message.from_domain();
          EXPECT_EQ(mail::Message::parse(message.to_string()), message)
              << which << " does not survive a render/parse round trip";
        } catch (const std::exception& e) {
          ADD_FAILURE() << which << " threw: " << e.what();
        } catch (...) {
          ADD_FAILURE() << which << " threw a non-standard exception";
        }
      });
}

}  // namespace
}  // namespace spfail
