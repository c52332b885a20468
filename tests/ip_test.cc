// Tests for IPv4 address/prefix types, including parameterized sweeps over
// containment relations.

#include <gtest/gtest.h>

#include "src/bgp/ip.h"

namespace dice::bgp {
namespace {

TEST(Ipv4AddressTest, ParseAndFormat) {
  auto a = Ipv4Address::Parse("192.0.2.1");
  ASSERT_TRUE(a.has_value());
  EXPECT_EQ(a->bits(), 0xc0000201u);
  EXPECT_EQ(a->ToString(), "192.0.2.1");
}

TEST(Ipv4AddressTest, ParseRejectsMalformed) {
  EXPECT_FALSE(Ipv4Address::Parse("").has_value());
  EXPECT_FALSE(Ipv4Address::Parse("1.2.3").has_value());
  EXPECT_FALSE(Ipv4Address::Parse("1.2.3.4.5").has_value());
  EXPECT_FALSE(Ipv4Address::Parse("1.2.3.256").has_value());
  EXPECT_FALSE(Ipv4Address::Parse("1.2.3.-1").has_value());
  EXPECT_FALSE(Ipv4Address::Parse("a.b.c.d").has_value());
  EXPECT_FALSE(Ipv4Address::Parse("1.2.3.4 ").has_value());
}

TEST(Ipv4AddressTest, ConstructorFromOctets) {
  Ipv4Address a(10, 1, 2, 3);
  EXPECT_EQ(a.ToString(), "10.1.2.3");
}

TEST(Ipv4AddressTest, Ordering) {
  EXPECT_LT(Ipv4Address(10, 0, 0, 0), Ipv4Address(10, 0, 0, 1));
  EXPECT_EQ(Ipv4Address(1, 2, 3, 4), *Ipv4Address::Parse("1.2.3.4"));
}

TEST(PrefixTest, MakeCanonicalizesHostBits) {
  Prefix p = Prefix::Make(Ipv4Address(10, 1, 2, 3), 16);
  EXPECT_EQ(p.ToString(), "10.1.0.0/16");
  EXPECT_EQ(p, *Prefix::Parse("10.1.0.0/16"));
}

TEST(PrefixTest, MakeClampsLength) {
  Prefix p = Prefix::Make(Ipv4Address(1, 2, 3, 4), 99);
  EXPECT_EQ(p.length(), 32);
}

TEST(PrefixTest, ParseRejectsMalformed) {
  EXPECT_FALSE(Prefix::Parse("10.0.0.0").has_value());
  EXPECT_FALSE(Prefix::Parse("10.0.0.0/33").has_value());
  EXPECT_FALSE(Prefix::Parse("10.0.0/8").has_value());
  EXPECT_FALSE(Prefix::Parse("/8").has_value());
  EXPECT_FALSE(Prefix::Parse("10.0.0.0/x").has_value());
}

TEST(PrefixTest, MaskFor) {
  EXPECT_EQ(Prefix::MaskFor(0), 0u);
  EXPECT_EQ(Prefix::MaskFor(8), 0xff000000u);
  EXPECT_EQ(Prefix::MaskFor(24), 0xffffff00u);
  EXPECT_EQ(Prefix::MaskFor(32), 0xffffffffu);
}

TEST(PrefixTest, DefaultRouteContainsEverything) {
  Prefix def = *Prefix::Parse("0.0.0.0/0");
  EXPECT_TRUE(def.Contains(Ipv4Address(0, 0, 0, 0)));
  EXPECT_TRUE(def.Contains(Ipv4Address(255, 255, 255, 255)));
  EXPECT_TRUE(def.Covers(*Prefix::Parse("203.0.113.0/24")));
}

struct CoverCase {
  const char* outer;
  const char* inner;
  bool covers;
};

// gtest_discover_tests names each ctest case after the printed parameter;
// the default prints the struct's bytes: two load-address-dependent pointers
// and uninitialized padding.
void PrintTo(const CoverCase& c, std::ostream* os) {
  *os << c.outer << (c.covers ? "_covers_" : "_misses_") << c.inner;
}

class PrefixCoverTest : public ::testing::TestWithParam<CoverCase> {};

TEST_P(PrefixCoverTest, Covers) {
  const CoverCase& c = GetParam();
  Prefix outer = *Prefix::Parse(c.outer);
  Prefix inner = *Prefix::Parse(c.inner);
  EXPECT_EQ(outer.Covers(inner), c.covers) << c.outer << " covers " << c.inner;
  // Covers is reflexive and antisymmetric for distinct prefixes.
  EXPECT_TRUE(outer.Covers(outer));
  if (c.covers && outer != inner) {
    EXPECT_FALSE(inner.Covers(outer));
  }
}

INSTANTIATE_TEST_SUITE_P(
    Containment, PrefixCoverTest,
    ::testing::Values(
        CoverCase{"10.0.0.0/8", "10.1.0.0/16", true},
        CoverCase{"10.0.0.0/8", "10.0.0.0/8", true},
        CoverCase{"10.0.0.0/8", "11.0.0.0/16", false},
        CoverCase{"10.1.0.0/16", "10.0.0.0/8", false},
        CoverCase{"0.0.0.0/0", "192.168.1.0/24", true},
        CoverCase{"203.0.113.0/24", "203.0.113.128/25", true},
        CoverCase{"203.0.113.0/24", "203.0.112.0/25", false},
        CoverCase{"203.0.113.4/30", "203.0.113.4/32", true},
        CoverCase{"203.0.113.4/30", "203.0.113.8/32", false},
        // The YouTube incident shape: /24 inside the /22.
        CoverCase{"208.65.152.0/22", "208.65.153.0/24", true}));

class PrefixLengthSweep : public ::testing::TestWithParam<int> {};

TEST_P(PrefixLengthSweep, RoundTripsAndContainsSelf) {
  uint8_t len = static_cast<uint8_t>(GetParam());
  Prefix p = Prefix::Make(Ipv4Address(0xc0a80000u | 0x1234u), len);
  auto reparsed = Prefix::Parse(p.ToString());
  ASSERT_TRUE(reparsed.has_value());
  EXPECT_EQ(*reparsed, p);
  EXPECT_TRUE(p.Contains(p.address()));
  // Canonical form: no host bits below the mask.
  EXPECT_EQ(p.address().bits() & ~p.mask(), 0u);
}

INSTANTIATE_TEST_SUITE_P(AllLengths, PrefixLengthSweep, ::testing::Range(0, 33));

}  // namespace
}  // namespace dice::bgp
