// Property tests for the DNS wire codec: randomly generated messages must
// round-trip exactly, and random byte mutations must never crash the decoder
// (it may throw WireError or return a different message — never UB).
#include <gtest/gtest.h>

#include "dns/message.hpp"
#include "util/rng.hpp"

namespace spfail::dns {
namespace {

Name random_name(util::Rng& rng) {
  const std::size_t labels = rng.uniform(1, 5);
  std::string text;
  for (std::size_t i = 0; i < labels; ++i) {
    if (i > 0) text.push_back('.');
    text += rng.token(rng.uniform(1, 12));
  }
  return Name::from_string(text);
}

ResourceRecord random_record(util::Rng& rng) {
  ResourceRecord rr;
  rr.name = random_name(rng);
  rr.ttl = static_cast<std::uint32_t>(rng.uniform(0, 86400));
  switch (rng.uniform(0, 6)) {
    case 0:
      rr.type = RRType::A;
      rr.rdata = ARdata{util::IpAddress::v4(
          static_cast<std::uint32_t>(rng.uniform(0, 0xFFFFFFFF)))};
      break;
    case 1: {
      rr.type = RRType::AAAA;
      std::array<std::uint8_t, 16> bytes{};
      for (auto& b : bytes) b = static_cast<std::uint8_t>(rng.uniform(0, 255));
      rr.rdata = AaaaRdata{util::IpAddress::v6(bytes)};
      break;
    }
    case 2:
      rr.type = RRType::MX;
      rr.rdata = MxRdata{static_cast<std::uint16_t>(rng.uniform(0, 65535)),
                         random_name(rng)};
      break;
    case 3: {
      rr.type = RRType::TXT;
      TxtRdata txt;
      const std::size_t n = rng.uniform(1, 3);
      for (std::size_t i = 0; i < n; ++i) {
        txt.strings.push_back(rng.token(rng.uniform(0, 200)));
      }
      rr.rdata = txt;
      break;
    }
    case 4:
      rr.type = RRType::CNAME;
      rr.rdata = CnameRdata{random_name(rng)};
      break;
    case 5:
      rr.type = RRType::NS;
      rr.rdata = NsRdata{random_name(rng)};
      break;
    default:
      rr.type = RRType::PTR;
      rr.rdata = PtrRdata{random_name(rng)};
      break;
  }
  return rr;
}

Message random_message(util::Rng& rng) {
  Message m;
  m.header.id = static_cast<std::uint16_t>(rng.uniform(0, 65535));
  m.header.qr = rng.bernoulli(0.5);
  m.header.aa = rng.bernoulli(0.5);
  m.header.rd = rng.bernoulli(0.5);
  m.header.ra = rng.bernoulli(0.5);
  m.header.rcode = static_cast<Rcode>(rng.uniform(0, 5));
  m.questions.push_back(Question{random_name(rng), RRType::TXT, RRClass::IN});
  const std::size_t answers = rng.uniform(0, 6);
  for (std::size_t i = 0; i < answers; ++i) {
    m.answers.push_back(random_record(rng));
  }
  const std::size_t additionals = rng.uniform(0, 2);
  for (std::size_t i = 0; i < additionals; ++i) {
    m.additionals.push_back(random_record(rng));
  }
  return m;
}

class WireRoundTrip : public ::testing::TestWithParam<int> {};

TEST_P(WireRoundTrip, EncodeDecodeIsIdentity) {
  util::Rng rng(static_cast<std::uint64_t>(GetParam()) * 7919 + 1);
  for (int i = 0; i < 50; ++i) {
    const Message original = random_message(rng);
    const Message decoded = decode(encode(original));
    ASSERT_EQ(decoded, original);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, WireRoundTrip, ::testing::Range(0, 10));

// The encoder's bytes, compression pointers included, over every
// WireRoundTrip seed's messages, against a digest recorded from the
// label-vector encoder that preceded the one-string Name. A change to label
// walking or compression keys that still round-trips shows up here.
TEST(Codec, EncodedBytesMatchParent) {
  std::uint64_t digest = util::fnv1a("");
  for (int seed = 0; seed < 10; ++seed) {
    util::Rng rng(static_cast<std::uint64_t>(seed) * 7919 + 1);
    for (int i = 0; i < 50; ++i) {
      const std::vector<std::uint8_t> wire = encode(random_message(rng));
      digest = util::fnv1a(
          std::string_view(reinterpret_cast<const char*>(wire.data()),
                           wire.size()),
          digest);
    }
  }
  EXPECT_EQ(digest, 0x142c71b963e4b5c6ULL);
}

class WireMutation : public ::testing::TestWithParam<int> {};

TEST_P(WireMutation, MutatedBytesNeverCrash) {
  util::Rng rng(static_cast<std::uint64_t>(GetParam()) * 104729 + 3);
  for (int i = 0; i < 100; ++i) {
    auto wire = encode(random_message(rng));
    // Flip up to 4 random bytes.
    const std::size_t flips = rng.uniform(1, 4);
    for (std::size_t f = 0; f < flips && !wire.empty(); ++f) {
      wire[rng.uniform(0, wire.size() - 1)] ^=
          static_cast<std::uint8_t>(1u << rng.uniform(0, 7));
    }
    try {
      const Message decoded = decode(wire);
      (void)decoded;  // decoding to *something* is fine
    } catch (const WireError&) {
      // rejecting is fine too
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, WireMutation, ::testing::Range(0, 10));

TEST(WireMutation, TruncationAtEveryLengthIsHandled) {
  util::Rng rng(42);
  const auto wire = encode(random_message(rng));
  for (std::size_t cut = 0; cut < wire.size(); ++cut) {
    std::vector<std::uint8_t> truncated(wire.begin(),
                                        wire.begin() + static_cast<long>(cut));
    try {
      decode(truncated);
    } catch (const WireError&) {
      // expected for most cut points
    }
  }
}

}  // namespace
}  // namespace spfail::dns
