#include <gtest/gtest.h>

#include "dns/zonefile.hpp"

namespace spfail::dns {
namespace {

const Name kOrigin = Name::from_string("example.com");

TEST(ZoneFile, BasicRecords) {
  const Zone zone = parse_zone_text(R"(
$ORIGIN example.com.
$TTL 600
@        IN TXT   "v=spf1 mx -all"
@        IN MX 10 mx1
mx1      IN A     192.0.2.25
mx1      IN AAAA  2001:db8::25
www      IN CNAME @
)",
                                    kOrigin);
  EXPECT_EQ(zone.record_count(), 5u);

  const auto txt = zone.lookup(kOrigin, RRType::TXT);
  ASSERT_EQ(txt.records.size(), 1u);
  EXPECT_EQ(std::get<TxtRdata>(txt.records[0].rdata).joined(),
            "v=spf1 mx -all");
  EXPECT_EQ(txt.records[0].ttl, 600u);

  const auto mx = zone.lookup(kOrigin, RRType::MX);
  ASSERT_EQ(mx.records.size(), 1u);
  EXPECT_EQ(std::get<MxRdata>(mx.records[0].rdata).exchange.to_string(),
            "mx1.example.com");

  const auto a = zone.lookup(Name::from_string("mx1.example.com"), RRType::A);
  EXPECT_EQ(std::get<ARdata>(a.records[0].rdata).address.to_string(),
            "192.0.2.25");
}

TEST(ZoneFile, RelativeAndAbsoluteNames) {
  const Zone zone = parse_zone_text(R"(
$ORIGIN example.com.
alpha                 IN A 192.0.2.1
beta.example.com.     IN A 192.0.2.2
)",
                                    kOrigin);
  EXPECT_TRUE(zone.contains(Name::from_string("alpha.example.com")));
  EXPECT_TRUE(zone.contains(Name::from_string("beta.example.com")));
}

TEST(ZoneFile, BlankOwnerReusesPrevious) {
  const Zone zone = parse_zone_text(R"(
$ORIGIN example.com.
host IN A 192.0.2.1
     IN A 192.0.2.2
)",
                                    kOrigin);
  const auto result = zone.lookup(Name::from_string("host.example.com"),
                                  RRType::A);
  EXPECT_EQ(result.records.size(), 2u);
}

TEST(ZoneFile, CommentsAndBlankLines) {
  const Zone zone = parse_zone_text(R"(
; a full-line comment
$ORIGIN example.com.

@ IN A 192.0.2.1 ; trailing comment
)",
                                    kOrigin);
  EXPECT_EQ(zone.record_count(), 1u);
}

TEST(ZoneFile, ExplicitTtlOnRecord) {
  const Zone zone = parse_zone_text("@ 42 IN A 192.0.2.1", kOrigin);
  EXPECT_EQ(zone.lookup(kOrigin, RRType::A).records[0].ttl, 42u);
}

TEST(ZoneFile, ClassOptional) {
  const Zone zone = parse_zone_text("@ A 192.0.2.1", kOrigin);
  EXPECT_EQ(zone.record_count(), 1u);
}

TEST(ZoneFile, MultiStringTxt) {
  const Zone zone =
      parse_zone_text(R"(@ IN TXT "v=spf1 " "ip4:192.0.2.1 -all")", kOrigin);
  const auto result = zone.lookup(kOrigin, RRType::TXT);
  EXPECT_EQ(std::get<TxtRdata>(result.records[0].rdata).joined(),
            "v=spf1 ip4:192.0.2.1 -all");
}

TEST(ZoneFile, QuotedStringsMayContainSpacesAndSemicolons) {
  const Zone zone =
      parse_zone_text(R"(@ IN TXT "v=DMARC1; p=reject; pct=100")", kOrigin);
  const auto result = zone.lookup(kOrigin, RRType::TXT);
  EXPECT_EQ(std::get<TxtRdata>(result.records[0].rdata).joined(),
            "v=DMARC1; p=reject; pct=100");
}

TEST(ZoneFile, SoaRecord) {
  const Zone zone = parse_zone_text(
      "@ IN SOA ns1 hostmaster 2021101101 7200 3600 1209600 300", kOrigin);
  const auto result = zone.lookup(kOrigin, RRType::SOA);
  ASSERT_EQ(result.records.size(), 1u);
  const auto& soa = std::get<SoaRdata>(result.records[0].rdata);
  EXPECT_EQ(soa.serial, 2021101101u);
  EXPECT_EQ(soa.mname.to_string(), "ns1.example.com");
}

TEST(ZoneFile, PtrRecord) {
  const Zone zone = parse_zone_text(
      "$ORIGIN 2.0.192.in-addr.arpa.\n1 IN PTR mail.example.com.",
      Name::from_string("2.0.192.in-addr.arpa"));
  const auto result = zone.lookup(
      Name::from_string("1.2.0.192.in-addr.arpa"), RRType::PTR);
  ASSERT_EQ(result.records.size(), 1u);
}

TEST(ZoneFile, Errors) {
  EXPECT_THROW(parse_zone_text("@ IN A not-an-ip", kOrigin), ZoneFileError);
  EXPECT_THROW(parse_zone_text("@ IN AAAA 192.0.2.1", kOrigin), ZoneFileError);
  EXPECT_THROW(parse_zone_text("@ IN MX 10", kOrigin), ZoneFileError);
  // The preference is 16 bits; 65536 used to load as 0 and 70000 as 4464.
  EXPECT_THROW(parse_zone_text("@ IN MX 65536 mx1", kOrigin), ZoneFileError);
  EXPECT_THROW(parse_zone_text("@ IN MX 70000 mx1", kOrigin), ZoneFileError);
  const auto top = parse_zone_text("@ IN MX 65535 mx1", kOrigin)
                       .lookup(kOrigin, RRType::MX);
  ASSERT_EQ(top.records.size(), 1u);
  EXPECT_EQ(std::get<MxRdata>(top.records[0].rdata).preference, 65535);
  EXPECT_THROW(parse_zone_text("@ IN FROB x", kOrigin), ZoneFileError);
  EXPECT_THROW(parse_zone_text("@ IN", kOrigin), ZoneFileError);
  EXPECT_THROW(parse_zone_text("@ IN TXT \"unterminated", kOrigin),
               ZoneFileError);
  EXPECT_THROW(parse_zone_text("$ORIGIN", kOrigin), ZoneFileError);
  EXPECT_THROW(parse_zone_text("$TTL abc", kOrigin), ZoneFileError);
  // Out-of-zone records are rejected with the line number.
  EXPECT_THROW(parse_zone_text("other.org. IN A 192.0.2.1", kOrigin),
               ZoneFileError);
}

TEST(ZoneFile, ErrorMessagesCarryLineNumbers) {
  try {
    parse_zone_text("\n\n@ IN A bogus", kOrigin);
    FAIL() << "expected ZoneFileError";
  } catch (const ZoneFileError& e) {
    EXPECT_NE(std::string(e.what()).find("line 3"), std::string::npos);
  }
  try {
    parse_zone_text("@ IN MX 10 mx1\n@ IN MX 65536 mx2", kOrigin);
    FAIL() << "expected ZoneFileError";
  } catch (const ZoneFileError& e) {
    EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos);
  }
}

}  // namespace
}  // namespace spfail::dns
