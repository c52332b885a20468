// Additional coverage: trie descent walking (the instrumented-lookup hook),
// checkpoint freshness semantics of repeated exploration, and checker corner
// cases around locally originated routes.

#include <gtest/gtest.h>

#include "src/bgp/prefix_trie.h"
#include "src/dice/explorer.h"

namespace dice {
namespace {

using bgp::Prefix;

Prefix P(const char* s) { return *Prefix::Parse(s); }

// --- PrefixTrie::WalkDescent -----------------------------------------------

TEST(WalkDescentTest, VisitsRootToLeafForContainedAddress) {
  bgp::PrefixTrie<int> trie;
  trie.Insert(P("10.0.0.0/8"), 1);
  trie.Insert(P("10.1.0.0/16"), 2);
  trie.Insert(P("10.1.2.0/24"), 3);

  std::vector<Prefix> visited;
  trie.WalkDescent(*bgp::Ipv4Address::Parse("10.1.2.3"),
                   [&](const Prefix& key, bool) { visited.push_back(key); });
  ASSERT_EQ(visited.size(), 3u);
  EXPECT_EQ(visited[0], P("10.0.0.0/8"));
  EXPECT_EQ(visited[1], P("10.1.0.0/16"));
  EXPECT_EQ(visited[2], P("10.1.2.0/24"));
}

TEST(WalkDescentTest, StopsAtFirstNonContainingNode) {
  bgp::PrefixTrie<int> trie;
  trie.Insert(P("10.0.0.0/8"), 1);
  trie.Insert(P("10.1.2.0/24"), 3);

  // 10.200.0.1 is inside 10/8 but descends to the 10.1.2.0/24 node (the only
  // child on that side may mismatch): the mismatching node is still *visited*
  // (its containment test runs) and then the walk stops.
  std::vector<std::pair<Prefix, bool>> visited;
  trie.WalkDescent(*bgp::Ipv4Address::Parse("10.200.0.1"),
                   [&](const Prefix& key, bool has_value) {
                     visited.push_back({key, has_value});
                   });
  ASSERT_GE(visited.size(), 1u);
  EXPECT_EQ(visited[0].first, P("10.0.0.0/8"));
  // The last visited node is the first whose containment test failed (or a
  // leaf); every earlier node contains the address.
  for (size_t i = 0; i + 1 < visited.size(); ++i) {
    EXPECT_TRUE(visited[i].first.Contains(*bgp::Ipv4Address::Parse("10.200.0.1")));
  }
}

TEST(WalkDescentTest, ReportsValuelessForkNodes) {
  bgp::PrefixTrie<int> trie;
  // These two force a valueless fork at their common prefix.
  trie.Insert(P("10.1.0.0/16"), 1);
  trie.Insert(P("10.2.0.0/16"), 2);
  bool saw_fork = false;
  trie.WalkDescent(*bgp::Ipv4Address::Parse("10.1.0.1"), [&](const Prefix&, bool has_value) {
    if (!has_value) {
      saw_fork = true;
    }
  });
  EXPECT_TRUE(saw_fork);
}

TEST(WalkDescentTest, EmptyTrieVisitsNothing) {
  bgp::PrefixTrie<int> trie;
  size_t visits = 0;
  trie.WalkDescent(*bgp::Ipv4Address::Parse("10.0.0.1"),
                   [&](const Prefix&, bool) { ++visits; });
  EXPECT_EQ(visits, 0u);
}

// --- Explorer re-checkpoint freshness ----------------------------------------

bgp::RouterState MakeProviderState(bool with_victim) {
  auto config = std::make_shared<bgp::RouterConfig>();
  config->name = "provider";
  config->local_as = 3;
  config->router_id = *bgp::Ipv4Address::Parse("10.0.0.3");
  bgp::NeighborConfig customer;
  customer.address = *bgp::Ipv4Address::Parse("10.0.0.1");
  customer.remote_as = 1;
  config->neighbors.push_back(customer);

  bgp::RouterState state;
  state.config = config;
  if (with_victim) {
    bgp::Route victim;
    victim.peer = 9;
    victim.peer_as = 9;
    bgp::PathAttributes victim_attrs;
    victim_attrs.origin = bgp::Origin::kIgp;
    victim_attrs.as_path = bgp::AsPath::Sequence({9, 64500});
    victim.attrs = std::move(victim_attrs);
    state.rib.AddRoute(P("192.0.2.0/24"), victim);
  }
  return state;
}

bgp::PeerView CustomerView() {
  bgp::PeerView v;
  v.id = 1;
  v.remote_as = 1;
  v.address = *bgp::Ipv4Address::Parse("10.0.0.1");
  v.established = true;
  return v;
}

bgp::UpdateMessage Seed() {
  bgp::UpdateMessage u;
  u.attrs.origin = bgp::Origin::kIgp;
  u.attrs.as_path = bgp::AsPath::Sequence({1, 100});
  u.attrs.next_hop = *bgp::Ipv4Address::Parse("10.0.0.1");
  u.nlri.push_back(P("10.1.7.0/24"));
  return u;
}

TEST(ExplorerFreshnessTest, NewCheckpointSeesNewState) {
  ExplorerOptions options;
  options.concolic.max_runs = 150;
  Explorer explorer(options);
  explorer.AddChecker(std::make_unique<HijackChecker>());

  // First round: empty table, nothing to hijack.
  bgp::RouterState empty_state = MakeProviderState(/*with_victim=*/false);
  explorer.TakeCheckpoint(empty_state, {CustomerView()}, 0);
  explorer.ExploreSeed(Seed(), 1);
  size_t detections_round1 = explorer.report().detections.size();
  EXPECT_EQ(detections_round1, 0u);

  // The "live system" then learns the victim; a fresh checkpoint must expose
  // it to the next exploration round — the property that makes DiCE *online*.
  bgp::RouterState with_victim = MakeProviderState(/*with_victim=*/true);
  explorer.TakeCheckpoint(with_victim, {CustomerView()}, 1);
  explorer.ExploreSeed(Seed(), 1);
  EXPECT_GT(explorer.report().detections.size(), detections_round1)
      << "post-checkpoint exploration must see the newly learned victim";
}

// Each ExploreSeed starts a fresh report: after a second seed, every per-run
// count and run index describes that seed's runs alone.
TEST(ExplorerFreshnessTest, ReportDescribesOneSeed) {
  ExplorerOptions options;
  options.concolic.max_runs = 50;
  Explorer explorer(options);
  explorer.AddChecker(std::make_unique<HijackChecker>());
  bgp::RouterState state = MakeProviderState(true);
  explorer.TakeCheckpoint(state, {CustomerView()}, 0);

  explorer.ExploreSeed(Seed(), 1);
  explorer.ExploreSeed(Seed(), 1);
  const ExplorationReport& report = explorer.report();
  EXPECT_EQ(report.clones_made, report.concolic.runs);
  EXPECT_EQ(report.runs_accepted + report.runs_rejected, report.concolic.runs);
  for (const Detection& d : report.detections) {
    EXPECT_LT(d.run_index, report.concolic.runs);
  }
}

// --- HijackChecker: locally originated victim ---------------------------------

TEST(HijackCheckerLocalTest, LocalRouteOverrideUsesLocalAs) {
  auto config = std::make_shared<bgp::RouterConfig>();
  config->name = "provider";
  config->local_as = 3;
  config->router_id = *bgp::Ipv4Address::Parse("10.0.0.3");

  bgp::RouterState state;
  state.config = config;
  bgp::Route local;
  local.peer = bgp::kLocalPeer;
  bgp::PathAttributes local_attrs;
  local_attrs.origin = bgp::Origin::kIgp;
  local.attrs = std::move(local_attrs);
  state.rib.AddRoute(P("10.3.0.0/16"), local);

  HijackChecker checker;
  checker.OnCheckpoint(state);

  ExplorationOutcome outcome;
  outcome.prefix = P("10.3.0.0/16");
  outcome.installed = true;
  outcome.became_best = true;
  outcome.new_origin_as = 4242;
  outcome.input = Seed();
  bgp::RouterState after = state;
  RunInfo info{0, &outcome, &after};
  std::vector<Detection> detections;
  checker.OnRun(info, &detections);
  ASSERT_EQ(detections.size(), 1u);
  EXPECT_EQ(detections[0].old_origin, 3u)
      << "locally originated prefixes report the local AS as baseline origin";

  // More-specific hijack inside locally originated space is also flagged.
  detections.clear();
  outcome.prefix = P("10.3.9.0/24");
  checker.OnRun(info, &detections);
  ASSERT_EQ(detections.size(), 1u);
  EXPECT_EQ(detections[0].victim, P("10.3.0.0/16"));
}

}  // namespace
}  // namespace dice
