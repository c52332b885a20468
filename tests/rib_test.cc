// Tests for the RIB and the decision process (RFC 4271 §9.1).

#include <gtest/gtest.h>

#include "src/bgp/rib.h"

namespace dice::bgp {
namespace {

Prefix P(const char* s) { return *Prefix::Parse(s); }

Route MakeRoute(PeerId peer, AsNumber peer_as, std::vector<AsNumber> path,
                std::optional<uint32_t> local_pref = std::nullopt,
                std::optional<uint32_t> med = std::nullopt,
                Origin origin = Origin::kIgp) {
  Route r;
  r.peer = peer;
  r.peer_as = peer_as;
  PathAttributes attrs;
  attrs.as_path = AsPath::Sequence(std::move(path));
  attrs.local_pref = local_pref;
  attrs.med = med;
  attrs.origin = origin;
  r.attrs = std::move(attrs);
  return r;
}

// --- RoutePreferred ordering ---------------------------------------------------

TEST(RoutePreferredTest, HigherLocalPrefWins) {
  Route a = MakeRoute(1, 100, {100, 200}, 200);
  Route b = MakeRoute(2, 101, {101}, 100);
  EXPECT_TRUE(RoutePreferred(a, b));
  EXPECT_FALSE(RoutePreferred(b, a));
}

TEST(RoutePreferredTest, DefaultLocalPrefIs100) {
  Route a = MakeRoute(1, 100, {100}, std::nullopt);
  Route b = MakeRoute(2, 101, {101, 102}, 100);
  // Same effective local-pref; a has the shorter path.
  EXPECT_TRUE(RoutePreferred(a, b));
}

TEST(RoutePreferredTest, ShorterPathWins) {
  Route a = MakeRoute(1, 100, {100, 200, 300});
  Route b = MakeRoute(2, 101, {101, 201});
  EXPECT_TRUE(RoutePreferred(b, a));
}

TEST(RoutePreferredTest, LowerOriginWins) {
  Route a = MakeRoute(1, 100, {100}, std::nullopt, std::nullopt, Origin::kIgp);
  Route b = MakeRoute(2, 101, {101}, std::nullopt, std::nullopt, Origin::kIncomplete);
  EXPECT_TRUE(RoutePreferred(a, b));
}

TEST(RoutePreferredTest, MedComparedOnlyWithinSameNeighborAs) {
  Route a = MakeRoute(1, 100, {100}, std::nullopt, 10);
  Route b = MakeRoute(2, 100, {100}, std::nullopt, 5);
  EXPECT_TRUE(RoutePreferred(b, a));  // same peer AS: lower MED wins

  Route c = MakeRoute(1, 100, {100}, std::nullopt, 50);
  Route d = MakeRoute(2, 200, {200}, std::nullopt, 5);
  // Different neighbor AS: MED skipped, falls through to peer id.
  EXPECT_TRUE(RoutePreferred(c, d));
}

TEST(RoutePreferredTest, MissingMedTreatedAsZero) {
  Route a = MakeRoute(1, 100, {100}, std::nullopt, std::nullopt);
  Route b = MakeRoute(2, 100, {100}, std::nullopt, 1);
  EXPECT_TRUE(RoutePreferred(a, b));
}

TEST(RoutePreferredTest, PeerIdBreaksTies) {
  Route a = MakeRoute(3, 100, {100});
  Route b = MakeRoute(5, 200, {200});
  EXPECT_TRUE(RoutePreferred(a, b));
  EXPECT_FALSE(RoutePreferred(b, a));
}

TEST(RoutePreferredTest, IsStrictWeakOrderOnDistinctPeers) {
  std::vector<Route> routes{
      MakeRoute(1, 100, {100, 200}, 150),
      MakeRoute(2, 101, {101}, 150),
      MakeRoute(3, 102, {102, 202, 302}),
      MakeRoute(4, 103, {103}, std::nullopt, 9, Origin::kEgp),
  };
  for (const Route& r : routes) {
    EXPECT_FALSE(RoutePreferred(r, r)) << "irreflexive";
  }
  for (const Route& x : routes) {
    for (const Route& y : routes) {
      if (x.peer == y.peer) {
        continue;
      }
      EXPECT_NE(RoutePreferred(x, y), RoutePreferred(y, x)) << "total on distinct peers";
    }
  }
}

// --- Rib behaviour ---------------------------------------------------------------

TEST(RibTest, AddRouteSelectsBest) {
  Rib rib;
  auto r1 = rib.AddRoute(P("10.0.0.0/8"), MakeRoute(1, 100, {100, 300}));
  EXPECT_TRUE(r1.best_changed);
  EXPECT_FALSE(r1.previous_best.has_value());
  ASSERT_TRUE(r1.new_best.has_value());
  EXPECT_EQ(r1.new_best->peer, 1u);

  // Better (shorter) route from another peer takes over.
  auto r2 = rib.AddRoute(P("10.0.0.0/8"), MakeRoute(2, 200, {200}));
  EXPECT_TRUE(r2.best_changed);
  ASSERT_TRUE(r2.previous_best.has_value());
  EXPECT_EQ(r2.previous_best->peer, 1u);
  EXPECT_EQ(r2.new_best->peer, 2u);
  EXPECT_EQ(rib.BestRoute(P("10.0.0.0/8"))->peer, 2u);
  EXPECT_EQ(rib.Candidates(P("10.0.0.0/8")).size(), 2u);
}

TEST(RibTest, WorseRouteDoesNotChangeBest) {
  Rib rib;
  rib.AddRoute(P("10.0.0.0/8"), MakeRoute(1, 100, {100}));
  auto r = rib.AddRoute(P("10.0.0.0/8"), MakeRoute(2, 200, {200, 300, 400}));
  EXPECT_FALSE(r.best_changed);
  EXPECT_EQ(rib.BestRoute(P("10.0.0.0/8"))->peer, 1u);
}

TEST(RibTest, ImplicitWithdrawReplacesSamePeerRoute) {
  Rib rib;
  rib.AddRoute(P("10.0.0.0/8"), MakeRoute(1, 100, {100, 300}));
  auto r = rib.AddRoute(P("10.0.0.0/8"), MakeRoute(1, 100, {100, 300, 400, 500}));
  EXPECT_EQ(rib.Candidates(P("10.0.0.0/8")).size(), 1u);
  EXPECT_EQ(rib.BestRoute(P("10.0.0.0/8"))->attrs->as_path.EffectiveLength(), 4u);
  EXPECT_TRUE(r.best_changed);  // the selected route's attributes changed
}

TEST(RibTest, RemoveRoutePromotesRunnerUp) {
  Rib rib;
  rib.AddRoute(P("10.0.0.0/8"), MakeRoute(1, 100, {100}));
  rib.AddRoute(P("10.0.0.0/8"), MakeRoute(2, 200, {200, 300}));
  auto r = rib.RemoveRoute(P("10.0.0.0/8"), 1);
  EXPECT_TRUE(r.best_changed);
  EXPECT_EQ(r.new_best->peer, 2u);
  EXPECT_EQ(rib.BestRoute(P("10.0.0.0/8"))->peer, 2u);
}

TEST(RibTest, RemoveLastRouteErasesPrefix) {
  Rib rib;
  rib.AddRoute(P("10.0.0.0/8"), MakeRoute(1, 100, {100}));
  auto r = rib.RemoveRoute(P("10.0.0.0/8"), 1);
  EXPECT_TRUE(r.best_changed);
  EXPECT_FALSE(r.new_best.has_value());
  EXPECT_EQ(rib.BestRoute(P("10.0.0.0/8")), nullptr);
  EXPECT_EQ(rib.PrefixCount(), 0u);
}

TEST(RibTest, RemoveNonexistentIsNoop) {
  Rib rib;
  rib.AddRoute(P("10.0.0.0/8"), MakeRoute(1, 100, {100}));
  auto r = rib.RemoveRoute(P("10.0.0.0/8"), 9);
  EXPECT_FALSE(r.best_changed);
  auto r2 = rib.RemoveRoute(P("11.0.0.0/8"), 1);
  EXPECT_FALSE(r2.best_changed);
}

TEST(RibTest, RemovePeerFlushesOnlyThatPeer) {
  Rib rib;
  rib.AddRoute(P("10.0.0.0/8"), MakeRoute(1, 100, {100}));
  rib.AddRoute(P("11.0.0.0/8"), MakeRoute(1, 100, {100, 300}));
  rib.AddRoute(P("11.0.0.0/8"), MakeRoute(2, 200, {200, 300, 400}));
  rib.AddRoute(P("12.0.0.0/8"), MakeRoute(2, 200, {200}));

  std::vector<Prefix> changed = rib.RemovePeer(1);
  // 10/8 lost entirely, 11/8 fell over to peer 2: both changed best.
  EXPECT_EQ(changed.size(), 2u);
  EXPECT_EQ(rib.BestRoute(P("10.0.0.0/8")), nullptr);
  EXPECT_EQ(rib.BestRoute(P("11.0.0.0/8"))->peer, 2u);
  EXPECT_EQ(rib.BestRoute(P("12.0.0.0/8"))->peer, 2u);
}

TEST(RibTest, LookupUsesLongestMatchOverBests) {
  Rib rib;
  rib.AddRoute(P("10.0.0.0/8"), MakeRoute(1, 100, {100}));
  rib.AddRoute(P("10.1.0.0/16"), MakeRoute(2, 200, {200}));
  auto m = rib.Lookup(*Ipv4Address::Parse("10.1.2.3"));
  ASSERT_TRUE(m.has_value());
  EXPECT_EQ(m->first, P("10.1.0.0/16"));
  EXPECT_EQ(m->second.peer, 2u);

  m = rib.Lookup(*Ipv4Address::Parse("10.200.0.1"));
  ASSERT_TRUE(m.has_value());
  EXPECT_EQ(m->first, P("10.0.0.0/8"));
}

TEST(RibTest, SnapshotIsIsolated) {
  Rib rib;
  rib.AddRoute(P("10.0.0.0/8"), MakeRoute(1, 100, {100}));
  Rib snap = rib.Snapshot();
  rib.AddRoute(P("10.0.0.0/8"), MakeRoute(2, 200, {200}));
  rib.AddRoute(P("11.0.0.0/8"), MakeRoute(1, 100, {100}));

  EXPECT_EQ(snap.PrefixCount(), 1u);
  EXPECT_EQ(snap.Candidates(P("10.0.0.0/8")).size(), 1u);
  EXPECT_EQ(snap.BestRoute(P("10.0.0.0/8"))->peer, 1u);
  EXPECT_EQ(rib.Candidates(P("10.0.0.0/8")).size(), 2u);
}

TEST(RibTest, SequenceNumbersIncrease) {
  Rib rib;
  rib.AddRoute(P("10.0.0.0/8"), MakeRoute(1, 100, {100}));
  rib.AddRoute(P("11.0.0.0/8"), MakeRoute(1, 100, {100}));
  auto a = rib.BestRoute(P("10.0.0.0/8"))->sequence;
  auto b = rib.BestRoute(P("11.0.0.0/8"))->sequence;
  EXPECT_LT(a, b);
}

// Parameterized sweep: the best route must equal a brute-force scan of the
// candidates under RoutePreferred, whatever the insertion order.
class RibDecisionSweep : public ::testing::TestWithParam<int> {};

TEST_P(RibDecisionSweep, BestMatchesBruteForce) {
  std::vector<Route> candidates{
      MakeRoute(1, 100, {100, 300}, 150),
      MakeRoute(2, 101, {101}, std::nullopt),
      MakeRoute(3, 100, {100, 300}, 150, 20),
      MakeRoute(4, 102, {102, 202}, std::nullopt, std::nullopt, Origin::kEgp),
      MakeRoute(5, 103, {103, 203, 303}, 150),
  };
  // Rotate insertion order by the parameter.
  int rot = GetParam();
  std::rotate(candidates.begin(), candidates.begin() + rot, candidates.end());

  Rib rib;
  for (const Route& r : candidates) {
    rib.AddRoute(P("10.0.0.0/8"), r);
  }
  const Route* best = rib.BestRoute(P("10.0.0.0/8"));
  ASSERT_NE(best, nullptr);

  const Route* expected = &candidates[0];
  for (const Route& r : candidates) {
    if (RoutePreferred(r, *expected)) {
      expected = &r;
    }
  }
  EXPECT_EQ(best->peer, expected->peer);
}

INSTANTIATE_TEST_SUITE_P(Rotations, RibDecisionSweep, ::testing::Range(0, 5));

TEST(RibTest, CandidatesIsAZeroCopyView) {
  Rib rib;
  rib.AddRoute(P("10.0.0.0/8"), MakeRoute(1, 100, {100}));
  rib.AddRoute(P("10.0.0.0/8"), MakeRoute(2, 200, {200}));

  // Candidate inspection performs no route copies: the returned reference is
  // the entry's own vector, stable across calls.
  const std::vector<Route>& first = rib.Candidates(P("10.0.0.0/8"));
  const std::vector<Route>& second = rib.Candidates(P("10.0.0.0/8"));
  EXPECT_EQ(&first, &second);
  const RibEntry* entry = rib.Entry(P("10.0.0.0/8"));
  ASSERT_NE(entry, nullptr);
  EXPECT_EQ(first.data(), entry->routes.data())
      << "Candidates must alias the RibEntry storage, not copy it";

  // Absent prefixes share one empty vector (also no allocation).
  const std::vector<Route>& empty1 = rib.Candidates(P("99.0.0.0/8"));
  const std::vector<Route>& empty2 = rib.Candidates(P("98.0.0.0/8"));
  EXPECT_TRUE(empty1.empty());
  EXPECT_EQ(&empty1, &empty2);
  EXPECT_EQ(rib.Entry(P("99.0.0.0/8")), nullptr);
}

TEST(RibTest, InterningMakesRouteCopiesShareAttrStorage) {
  Rib rib;
  rib.AddRoute(P("10.0.0.0/8"), MakeRoute(1, 100, {100, 200}));
  Rib snap = rib.Snapshot();
  // Replace the route in the original: path-copy of the entry node. The
  // snapshot's copy of the old route still shares the interned attributes
  // node with any other holder of the same value.
  rib.AddRoute(P("10.0.0.0/8"), MakeRoute(1, 100, {100, 300}));
  const Route* old_route = snap.BestRoute(P("10.0.0.0/8"));
  ASSERT_NE(old_route, nullptr);
  Route rebuilt = MakeRoute(1, 100, {100, 200});
  EXPECT_EQ(&old_route->attrs.get(), &rebuilt.attrs.get())
      << "equal attribute values must resolve to one interned node";
}

}  // namespace
}  // namespace dice::bgp
