// Tests for the configuration language parser.

#include <gtest/gtest.h>

#include "src/bgp/config.h"

namespace dice::bgp {
namespace {

constexpr const char* kProviderConfig = R"(
# The provider router of Fig. 2.
router provider {
  as 3;
  id 10.0.0.3;
  network 10.3.0.0/16;

  prefix-list customer-routes {
    10.1.0.0/16 le 24;
    10.2.0.0/16;
  }

  filter customer-in {
    term allow {
      match prefix in customer-routes;
      then set local-pref 200;
      then accept;
    }
    term deny-rest {
      then reject;
    }
  }

  filter announce-all {
    default accept;
  }

  neighbor 10.0.0.1 {
    as 1;
    import filter customer-in;
    export filter announce-all;
  }
  neighbor 10.0.0.9 {
    as 9;
    import accept;
    export accept;
  }
}
)";

TEST(ConfigTest, ParsesFullRouterBlock) {
  auto parsed = ParseSingleRouterConfig(kProviderConfig);
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  const RouterConfig& r = *parsed;
  EXPECT_EQ(r.name, "provider");
  EXPECT_EQ(r.local_as, 3u);
  EXPECT_EQ(r.router_id.ToString(), "10.0.0.3");
  ASSERT_EQ(r.networks.size(), 1u);
  EXPECT_EQ(r.networks[0].ToString(), "10.3.0.0/16");

  const PrefixList* list = r.policies.FindPrefixList("customer-routes");
  ASSERT_NE(list, nullptr);
  ASSERT_EQ(list->entries.size(), 2u);
  EXPECT_EQ(list->entries[0].ge, 16);
  EXPECT_EQ(list->entries[0].le, 24);
  EXPECT_EQ(list->entries[1].le, 16);

  const Filter* filter = r.policies.FindFilter("customer-in");
  ASSERT_NE(filter, nullptr);
  ASSERT_EQ(filter->terms.size(), 2u);
  EXPECT_EQ(filter->terms[0].name, "allow");
  ASSERT_EQ(filter->terms[0].matches.size(), 1u);
  EXPECT_EQ(filter->terms[0].matches[0].kind, MatchKind::kPrefixInList);
  ASSERT_EQ(filter->terms[0].actions.size(), 2u);
  EXPECT_EQ(filter->terms[0].actions[0].kind, ActionKind::kSetLocalPref);
  EXPECT_EQ(filter->terms[0].actions[0].number, 200u);

  ASSERT_EQ(r.neighbors.size(), 2u);
  EXPECT_EQ(r.neighbors[0].address.ToString(), "10.0.0.1");
  EXPECT_EQ(r.neighbors[0].remote_as, 1u);
  EXPECT_EQ(r.neighbors[0].import_filter, "customer-in");
  EXPECT_EQ(r.neighbors[0].export_filter, "announce-all");
  EXPECT_TRUE(r.neighbors[1].import_filter.empty());
  EXPECT_TRUE(r.neighbors[1].import_default_accept);
}

TEST(ConfigTest, ParsesMultipleRouters) {
  auto parsed = ParseConfig(R"(
router a { as 1; id 1.1.1.1; }
router b { as 2; id 2.2.2.2; }
)");
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  ASSERT_EQ(parsed->size(), 2u);
  EXPECT_EQ((*parsed)[0].name, "a");
  EXPECT_EQ((*parsed)[1].name, "b");
}

TEST(ConfigTest, ParsesAllMatchKinds) {
  auto parsed = ParseSingleRouterConfig(R"(
router r {
  as 1; id 1.1.1.1;
  prefix-list pl { 10.0.0.0/8 ge 16 le 24; }
  filter f {
    term t0 { match any; then accept; }
    term t1 { match prefix in pl; }
    term t2 { match prefix is 10.0.0.0/8; }
    term t3 { match prefix within 10.0.0.0/8; }
    term t4 { match origin-as is 65001; }
    term t5 { match origin-as in [1, 2, 3]; }
    term t6 { match as-path contains 666; }
    term t7 { match as-path length <= 5; }
    term t8 { match community 65000:99; }
    term t9 { match med < 100; }
    term t10 { match local-pref >= 200; }
    term t11 { match origin igp; }
    term t12 { match next-hop is 192.0.2.1; }
  }
}
)");
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  const Filter* f = parsed->policies.FindFilter("f");
  ASSERT_NE(f, nullptr);
  ASSERT_EQ(f->terms.size(), 13u);
  EXPECT_EQ(f->terms[4].matches[0].kind, MatchKind::kOriginAsIs);
  EXPECT_EQ(f->terms[5].matches[0].numbers, (std::vector<uint32_t>{1, 2, 3}));
  EXPECT_EQ(f->terms[7].matches[0].cmp, CmpOp::kLe);
  EXPECT_EQ(f->terms[8].matches[0].community, MakeCommunity(65000, 99));
  EXPECT_EQ(f->terms[11].matches[0].number, 0u);  // igp
}

TEST(ConfigTest, ParsesAllActionKinds) {
  auto parsed = ParseSingleRouterConfig(R"(
router r {
  as 1; id 1.1.1.1;
  filter f {
    term t {
      then set local-pref 150;
      then set med 10;
      then set next-hop 192.0.2.7;
      then prepend 65000;
      then add community 65000:1;
      then remove community 65000:2;
      then accept;
    }
  }
}
)");
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  const Filter* f = parsed->policies.FindFilter("f");
  ASSERT_EQ(f->terms[0].actions.size(), 7u);
  EXPECT_EQ(f->terms[0].actions[0].kind, ActionKind::kSetLocalPref);
  EXPECT_EQ(f->terms[0].actions[3].kind, ActionKind::kPrependAs);
  EXPECT_EQ(f->terms[0].actions[5].kind, ActionKind::kRemoveCommunity);
}

TEST(ConfigTest, CommentsAreIgnored) {
  auto parsed = ParseSingleRouterConfig(R"(
# leading comment
router r {  # trailing comment
  as 1; id 1.1.1.1;
}
)");
  EXPECT_TRUE(parsed.ok()) << parsed.status();
}

struct BadConfigCase {
  const char* name;
  const char* text;
  const char* expect_substring;
};

// gtest_discover_tests names each ctest case after the printed parameter, so
// print the case name rather than the struct's pointer bytes, which change
// with every load address.
void PrintTo(const BadConfigCase& c, std::ostream* os) { *os << c.name; }

class ConfigErrorTest : public ::testing::TestWithParam<BadConfigCase> {};

TEST_P(ConfigErrorTest, Rejected) {
  auto parsed = ParseConfig(GetParam().text);
  ASSERT_FALSE(parsed.ok()) << "config '" << GetParam().name << "' should not parse";
  EXPECT_NE(parsed.status().message().find(GetParam().expect_substring), std::string::npos)
      << parsed.status();
}

INSTANTIATE_TEST_SUITE_P(
    Cases, ConfigErrorTest,
    ::testing::Values(
        BadConfigCase{"missing_brace", "router r { as 1; id 1.1.1.1;", "expected"},
        BadConfigCase{"bad_as", "router r { as 0; id 1.1.1.1; }", "AS number"},
        BadConfigCase{"as_too_big", "router r { as 70000; id 1.1.1.1; }", "AS number"},
        BadConfigCase{"bad_ip", "router r { as 1; id 1.1.1.300; }", "IPv4 address"},
        BadConfigCase{"bad_prefix", "router r { as 1; id 1.1.1.1; network 10.0.0.0/40; }",
                      "prefix"},
        BadConfigCase{"neighbor_without_as",
                      "router r { as 1; id 1.1.1.1; neighbor 2.2.2.2 { import accept; } }",
                      "missing 'as'"},
        BadConfigCase{"unknown_filter_ref",
                      "router r { as 1; id 1.1.1.1; neighbor 2.2.2.2 { as 2; import filter no; } }",
                      "unknown import filter"},
        BadConfigCase{"dangling_prefix_list",
                      "router r { as 1; id 1.1.1.1; filter f { term t { match prefix in nope; } } }",
                      "unknown prefix-list"},
        BadConfigCase{"bad_ge", "router r { as 1; id 1.1.1.1; prefix-list p { 10.0.0.0/8 ge 40; } }",
                      "ge bound"},
        BadConfigCase{"ge_below_len",
                      "router r { as 1; id 1.1.1.1; prefix-list p { 10.0.0.0/16 ge 8; } }",
                      "bad ge/le"},
        BadConfigCase{"bad_community",
                      "router r { as 1; id 1.1.1.1; filter f { term t { match community 70000:1; } } }",
                      "16 bits"},
        BadConfigCase{"unknown_match",
                      "router r { as 1; id 1.1.1.1; filter f { term t { match sorcery; } } }",
                      "unknown match"},
        BadConfigCase{"unknown_action",
                      "router r { as 1; id 1.1.1.1; filter f { term t { then levitate; } } }",
                      "unknown action"},
        BadConfigCase{"bad_relationship",
                      "router r { as 1; id 1.1.1.1; neighbor 2.2.2.2 { as 2; relationship frenemy; } }",
                      "customer/peer/provider"},
        BadConfigCase{"garbage_toplevel", "flux capacitor", "expected 'router'"},
        BadConfigCase{"stray_char", "router r @ { as 1; }", "unexpected character"}));

TEST(ConfigTest, SingleRouterHelperRejectsMultiple) {
  auto parsed = ParseSingleRouterConfig("router a { as 1; id 1.1.1.1; } router b { as 2; id 2.2.2.2; }");
  EXPECT_FALSE(parsed.ok());
}

TEST(ConfigTest, ParsesNeighborRelationships) {
  auto parsed = ParseSingleRouterConfig(R"(
router r {
  as 3; id 10.0.0.3;
  neighbor 10.0.0.1 { as 1; relationship customer; }
  neighbor 10.0.0.5 { as 5; relationship peer; }
  neighbor 10.0.0.9 { as 9; relationship provider; }
  neighbor 10.0.0.7 { as 7; }
}
)");
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  ASSERT_EQ(parsed->neighbors.size(), 4u);
  EXPECT_EQ(parsed->neighbors[0].relationship, PeerRelationship::kCustomer);
  EXPECT_EQ(parsed->neighbors[1].relationship, PeerRelationship::kPeer);
  EXPECT_EQ(parsed->neighbors[2].relationship, PeerRelationship::kProvider);
  // Unannotated sessions stay kUnknown, keeping the route-leak checker inert.
  EXPECT_EQ(parsed->neighbors[3].relationship, PeerRelationship::kUnknown);
}

TEST(ConfigTest, PeerRelationshipToString) {
  EXPECT_STREQ(ToString(PeerRelationship::kCustomer), "customer");
  EXPECT_STREQ(ToString(PeerRelationship::kPeer), "peer");
  EXPECT_STREQ(ToString(PeerRelationship::kProvider), "provider");
  EXPECT_STREQ(ToString(PeerRelationship::kUnknown), "unknown");
}

TEST(ConfigTest, FindNeighbor) {
  auto parsed = ParseSingleRouterConfig(
      "router r { as 1; id 1.1.1.1; neighbor 2.2.2.2 { as 2; } }");
  ASSERT_TRUE(parsed.ok());
  EXPECT_NE(parsed->FindNeighbor(*Ipv4Address::Parse("2.2.2.2")), nullptr);
  EXPECT_EQ(parsed->FindNeighbor(*Ipv4Address::Parse("3.3.3.3")), nullptr);
}

}  // namespace
}  // namespace dice::bgp
