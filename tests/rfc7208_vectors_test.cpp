// Conformance vectors straight from RFC 7208 section 7.4 — the macro
// expansion examples the specification itself publishes. The sender is
// strong-bad@email.example.com; the client IP is 192.0.2.3 (and
// 2001:db8::cb01 for the IPv6 cases).
#include <gtest/gtest.h>

#include "spf/macro.hpp"
#include "spfvuln/libspf2_expander.hpp"

namespace spfail::spf {
namespace {

MacroContext rfc_context_v4() {
  MacroContext ctx;
  ctx.sender_local = "strong-bad";
  ctx.sender_domain = dns::Name::from_string("email.example.com");
  ctx.current_domain = ctx.sender_domain;
  ctx.client_ip = *util::IpAddress::parse("192.0.2.3");
  return ctx;
}

struct Vector {
  const char* macro;
  const char* expected;
};

// Without this, gtest prints a Vector as its raw bytes, i.e. two string
// addresses that move with every build, and gtest_discover_tests puts that
// text into the ctest names. Naming each case by its macro keeps them stable.
void PrintTo(const Vector& v, std::ostream* os) { *os << v.macro; }

class Rfc7208MacroVectors : public ::testing::TestWithParam<Vector> {};

TEST_P(Rfc7208MacroVectors, ExpandsPerSpec) {
  const Rfc7208Expander expander;
  EXPECT_EQ(expander.expand(GetParam().macro, rfc_context_v4()),
            GetParam().expected);
}

INSTANTIATE_TEST_SUITE_P(
    Section74, Rfc7208MacroVectors,
    ::testing::Values(
        Vector{"%{s}", "strong-bad@email.example.com"},
        Vector{"%{o}", "email.example.com"},
        Vector{"%{d}", "email.example.com"},
        Vector{"%{d4}", "email.example.com"},
        Vector{"%{d3}", "email.example.com"},
        Vector{"%{d2}", "example.com"},
        Vector{"%{d1}", "com"},
        Vector{"%{dr}", "com.example.email"},
        Vector{"%{d2r}", "example.email"},
        Vector{"%{l}", "strong-bad"},
        Vector{"%{l-}", "strong.bad"},
        Vector{"%{lr}", "strong-bad"},
        Vector{"%{lr-}", "bad.strong"},
        Vector{"%{l1r-}", "strong"},
        Vector{"%{ir}", "3.2.0.192"},
        Vector{"%{v}", "in-addr"},
        // Full domain-spec examples from the same section.
        Vector{"%{ir}.%{v}._spf.%{d2}", "3.2.0.192.in-addr._spf.example.com"},
        Vector{"%{lr-}.lp._spf.%{d2}", "bad.strong.lp._spf.example.com"},
        Vector{"%{lr-}.lp.%{ir}.%{v}._spf.%{d2}",
               "bad.strong.lp.3.2.0.192.in-addr._spf.example.com"},
        Vector{"%{ir}.%{v}.%{l1r-}.lp._spf.%{d2}",
               "3.2.0.192.in-addr.strong.lp._spf.example.com"},
        Vector{"%{d2}.trusted-domains.example.net",
               "example.com.trusted-domains.example.net"}));

TEST(Rfc7208MacroVectorsV6, Ipv6Example) {
  // "%{ir}.%{v}._spf.%{d2}" for client 2001:db8::cb01 expands to the nibble
  // form under ip6 (RFC 7208 section 7.4's final example).
  MacroContext ctx = rfc_context_v4();
  ctx.client_ip = *util::IpAddress::parse("2001:db8::cb01");
  const Rfc7208Expander expander;
  EXPECT_EQ(expander.expand("%{ir}.%{v}._spf.%{d2}", ctx),
            "1.0.b.c.0.0.0.0.0.0.0.0.0.0.0.0.0.0.0.0.0.0.0.0.8.b.d.0."
            "1.0.0.2.ip6._spf.example.com");
}

// The vulnerable library must agree with the spec on every *safe* vector
// (no reversal+truncation, no URL escaping) — the CVEs hide in plain sight.
class VulnOnSafeVectors : public ::testing::TestWithParam<Vector> {};

TEST_P(VulnOnSafeVectors, MatchesSpec) {
  const spfvuln::Libspf2Expander vulnerable;
  EXPECT_EQ(vulnerable.expand(GetParam().macro, rfc_context_v4()),
            GetParam().expected);
}

INSTANTIATE_TEST_SUITE_P(
    SafeSubset, VulnOnSafeVectors,
    ::testing::Values(Vector{"%{s}", "strong-bad@email.example.com"},
                      Vector{"%{d}", "email.example.com"},
                      Vector{"%{dr}", "com.example.email"},
                      Vector{"%{d2}", "example.com"},
                      Vector{"%{ir}", "3.2.0.192"},
                      Vector{"%{ir}.%{v}._spf.%{d2}",
                             "3.2.0.192.in-addr._spf.example.com"}));

// And it must DISAGREE on the reversal+truncation vectors — the fingerprint.
class VulnOnFingerprintVectors : public ::testing::TestWithParam<Vector> {};

TEST_P(VulnOnFingerprintVectors, DivergesFromSpec) {
  const spfvuln::Libspf2Expander vulnerable;
  const Rfc7208Expander rfc;
  const std::string vulnerable_out =
      vulnerable.expand(GetParam().macro, rfc_context_v4());
  EXPECT_NE(vulnerable_out, rfc.expand(GetParam().macro, rfc_context_v4()));
  EXPECT_EQ(vulnerable_out, GetParam().expected);
}

INSTANTIATE_TEST_SUITE_P(
    Fingerprints, VulnOnFingerprintVectors,
    ::testing::Values(
        // %{d2r} over email.example.com: dropped = [com], kept reversed
        // tail = [example, email]; buggy output re-emits the dropped label.
        Vector{"%{d2r}", "com.com.example.email"},
        Vector{"%{l1r-}", "bad.bad.strong"},
        Vector{"%{d1r}", "com.example.com.example.email"}));

}  // namespace
}  // namespace spfail::spf
