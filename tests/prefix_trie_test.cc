// Tests for the copy-on-write Patricia trie: reference-model property tests,
// snapshot isolation, longest-prefix match, sharing statistics, and node
// ownership (no node or value leaks or is freed twice, on one thread or
// across threads that copy and drop snapshots of one trie).

#include <gtest/gtest.h>

#include <atomic>
#include <map>
#include <optional>
#include <thread>
#include <utility>
#include <vector>

#include "src/bgp/prefix_trie.h"
#include "src/bgp/rib.h"
#include "src/util/rng.h"

namespace dice::bgp {
namespace {

// A trie is a root handle and a size; a node is one allocation holding the
// count, the key, two 8-byte child handles and the value — 72 bytes for a
// RIB node (an 80-byte malloc chunk, where a make_shared node took 112).
static_assert(sizeof(PrefixTrie<int>) == 16);
static_assert(PrefixTrie<RibEntry>::kNodeBytes == 72);

Prefix P(const char* s) { return *Prefix::Parse(s); }

TEST(PrefixTrieTest, InsertFindErase) {
  PrefixTrie<int> trie;
  EXPECT_TRUE(trie.Insert(P("10.0.0.0/8"), 1));
  EXPECT_TRUE(trie.Insert(P("10.1.0.0/16"), 2));
  EXPECT_EQ(trie.size(), 2u);
  ASSERT_NE(trie.Find(P("10.0.0.0/8")), nullptr);
  EXPECT_EQ(*trie.Find(P("10.0.0.0/8")), 1);
  EXPECT_EQ(*trie.Find(P("10.1.0.0/16")), 2);
  EXPECT_EQ(trie.Find(P("10.2.0.0/16")), nullptr);
  EXPECT_TRUE(trie.Erase(P("10.0.0.0/8")));
  EXPECT_EQ(trie.Find(P("10.0.0.0/8")), nullptr);
  EXPECT_FALSE(trie.Erase(P("10.0.0.0/8")));
  EXPECT_EQ(trie.size(), 1u);
}

TEST(PrefixTrieTest, InsertOverwrites) {
  PrefixTrie<int> trie;
  EXPECT_TRUE(trie.Insert(P("10.0.0.0/8"), 1));
  EXPECT_FALSE(trie.Insert(P("10.0.0.0/8"), 9));
  EXPECT_EQ(trie.size(), 1u);
  EXPECT_EQ(*trie.Find(P("10.0.0.0/8")), 9);
}

TEST(PrefixTrieTest, DistinguishesLengthsOnSameAddress) {
  PrefixTrie<int> trie;
  trie.Insert(P("10.0.0.0/8"), 8);
  trie.Insert(P("10.0.0.0/16"), 16);
  trie.Insert(P("10.0.0.0/24"), 24);
  EXPECT_EQ(*trie.Find(P("10.0.0.0/8")), 8);
  EXPECT_EQ(*trie.Find(P("10.0.0.0/16")), 16);
  EXPECT_EQ(*trie.Find(P("10.0.0.0/24")), 24);
  EXPECT_EQ(trie.Find(P("10.0.0.0/12")), nullptr);
}

TEST(PrefixTrieTest, DefaultRouteAndHostRoutes) {
  PrefixTrie<int> trie;
  trie.Insert(P("0.0.0.0/0"), 0);
  trie.Insert(P("255.255.255.255/32"), 32);
  trie.Insert(P("0.0.0.0/32"), 1);
  EXPECT_EQ(*trie.Find(P("0.0.0.0/0")), 0);
  EXPECT_EQ(*trie.Find(P("255.255.255.255/32")), 32);
  EXPECT_EQ(*trie.Find(P("0.0.0.0/32")), 1);
}

TEST(PrefixTrieTest, LongestMatchPicksMostSpecific) {
  PrefixTrie<int> trie;
  trie.Insert(P("0.0.0.0/0"), 0);
  trie.Insert(P("10.0.0.0/8"), 8);
  trie.Insert(P("10.1.0.0/16"), 16);
  trie.Insert(P("10.1.2.0/24"), 24);

  auto m = trie.LongestMatch(*Ipv4Address::Parse("10.1.2.3"));
  ASSERT_TRUE(m.has_value());
  EXPECT_EQ(m->first, P("10.1.2.0/24"));

  m = trie.LongestMatch(*Ipv4Address::Parse("10.1.9.9"));
  ASSERT_TRUE(m.has_value());
  EXPECT_EQ(m->first, P("10.1.0.0/16"));

  m = trie.LongestMatch(*Ipv4Address::Parse("10.9.9.9"));
  ASSERT_TRUE(m.has_value());
  EXPECT_EQ(m->first, P("10.0.0.0/8"));

  m = trie.LongestMatch(*Ipv4Address::Parse("192.0.2.1"));
  ASSERT_TRUE(m.has_value());
  EXPECT_EQ(m->first, P("0.0.0.0/0"));
}

TEST(PrefixTrieTest, LongestMatchWithoutDefaultCanMiss) {
  PrefixTrie<int> trie;
  trie.Insert(P("10.0.0.0/8"), 8);
  EXPECT_FALSE(trie.LongestMatch(*Ipv4Address::Parse("192.0.2.1")).has_value());
}

TEST(PrefixTrieTest, WalkIsInPrefixOrder) {
  PrefixTrie<int> trie;
  trie.Insert(P("192.0.2.0/24"), 3);
  trie.Insert(P("10.0.0.0/8"), 1);
  trie.Insert(P("10.1.0.0/16"), 2);
  std::vector<Prefix> seen;
  trie.Walk([&](const Prefix& p, const int&) {
    seen.push_back(p);
    return true;
  });
  ASSERT_EQ(seen.size(), 3u);
  EXPECT_EQ(seen[0], P("10.0.0.0/8"));
  EXPECT_EQ(seen[1], P("10.1.0.0/16"));
  EXPECT_EQ(seen[2], P("192.0.2.0/24"));
}

TEST(PrefixTrieTest, WalkEarlyStop) {
  PrefixTrie<int> trie;
  trie.Insert(P("10.0.0.0/8"), 1);
  trie.Insert(P("11.0.0.0/8"), 2);
  int count = 0;
  trie.Walk([&](const Prefix&, const int&) {
    ++count;
    return false;
  });
  EXPECT_EQ(count, 1);
}

TEST(PrefixTrieTest, WalkCovered) {
  PrefixTrie<int> trie;
  trie.Insert(P("10.0.0.0/8"), 1);
  trie.Insert(P("10.1.0.0/16"), 2);
  trie.Insert(P("10.1.2.0/24"), 3);
  trie.Insert(P("11.0.0.0/8"), 4);
  std::vector<int> seen;
  trie.WalkCovered(P("10.1.0.0/16"), [&](const Prefix&, const int& v) {
    seen.push_back(v);
    return true;
  });
  EXPECT_EQ(seen, (std::vector<int>{2, 3}));
}

TEST(PrefixTrieTest, FindMutable) {
  PrefixTrie<int> trie;
  trie.Insert(P("10.0.0.0/8"), 1);
  int* v = trie.FindMutable(P("10.0.0.0/8"));
  ASSERT_NE(v, nullptr);
  *v = 99;
  EXPECT_EQ(*trie.Find(P("10.0.0.0/8")), 99);
  EXPECT_EQ(trie.FindMutable(P("12.0.0.0/8")), nullptr);
}

// --- snapshot isolation (the checkpoint property) ------------------------------

TEST(PrefixTrieSnapshotTest, SnapshotUnaffectedByLaterInserts) {
  PrefixTrie<int> trie;
  trie.Insert(P("10.0.0.0/8"), 1);
  PrefixTrie<int> snap = trie;
  trie.Insert(P("11.0.0.0/8"), 2);
  trie.Insert(P("10.0.0.0/8"), 100);
  EXPECT_EQ(snap.size(), 1u);
  EXPECT_EQ(*snap.Find(P("10.0.0.0/8")), 1);
  EXPECT_EQ(snap.Find(P("11.0.0.0/8")), nullptr);
  EXPECT_EQ(*trie.Find(P("10.0.0.0/8")), 100);
}

TEST(PrefixTrieSnapshotTest, SnapshotUnaffectedByErase) {
  PrefixTrie<int> trie;
  trie.Insert(P("10.0.0.0/8"), 1);
  trie.Insert(P("10.1.0.0/16"), 2);
  PrefixTrie<int> snap = trie;
  trie.Erase(P("10.1.0.0/16"));
  EXPECT_EQ(snap.size(), 2u);
  EXPECT_NE(snap.Find(P("10.1.0.0/16")), nullptr);
}

TEST(PrefixTrieSnapshotTest, FindMutableDoesNotLeakIntoSnapshot) {
  PrefixTrie<int> trie;
  trie.Insert(P("10.0.0.0/8"), 1);
  PrefixTrie<int> snap = trie;
  *trie.FindMutable(P("10.0.0.0/8")) = 7;
  EXPECT_EQ(*snap.Find(P("10.0.0.0/8")), 1);
  EXPECT_EQ(*trie.Find(P("10.0.0.0/8")), 7);
}

TEST(PrefixTrieSnapshotTest, ManySnapshotsShareNodes) {
  PrefixTrie<int> trie;
  Rng rng(5);
  for (int i = 0; i < 500; ++i) {
    trie.Insert(Prefix::Make(Ipv4Address(rng.NextU32()), 24), i);
  }
  PrefixTrie<int> snap = trie;
  auto stats = snap.SharingWith(trie);
  EXPECT_EQ(stats.unique_nodes, 0u);
  EXPECT_EQ(stats.shared_nodes, stats.total_nodes);

  // One write to the snapshot dirties only a root path, not the whole trie.
  snap.Insert(P("10.0.0.0/8"), 1);
  stats = snap.SharingWith(trie);
  EXPECT_GT(stats.shared_nodes, stats.total_nodes / 2);
  EXPECT_GT(stats.unique_nodes, 0u);
  EXPECT_LT(stats.unique_nodes, 40u);
}

// --- reference-model property test ---------------------------------------------

class TrieVsMapProperty : public ::testing::TestWithParam<uint64_t> {};

using Model = std::map<Prefix, uint32_t>;

// Walk order, exact lookups and longest-prefix match against the model.
void ExpectMatchesModel(const PrefixTrie<uint32_t>& trie, const Model& model, Rng& rng) {
  ASSERT_EQ(trie.size(), model.size());
  std::vector<std::pair<Prefix, uint32_t>> walked;
  trie.Walk([&](const Prefix& p, const uint32_t& v) {
    walked.push_back({p, v});
    return true;
  });
  ASSERT_EQ(walked.size(), model.size());
  size_t i = 0;
  for (const auto& [p, v] : model) {
    EXPECT_EQ(walked[i].first, p);
    EXPECT_EQ(walked[i].second, v);
    const uint32_t* found = trie.Find(p);
    ASSERT_NE(found, nullptr);
    EXPECT_EQ(*found, v);
    ++i;
  }

  // Longest-match agrees with a brute-force scan for random addresses.
  for (int q = 0; q < 200; ++q) {
    Ipv4Address addr(static_cast<uint32_t>(rng.NextBelow(64)) << 24 |
                     static_cast<uint32_t>(rng.NextBelow(4)) << 16 | rng.NextU32() % 0xffff);
    Model::const_iterator best = model.end();
    for (auto it = model.begin(); it != model.end(); ++it) {
      if (it->first.Contains(addr) &&
          (best == model.end() || it->first.length() > best->first.length())) {
        best = it;
      }
    }
    auto m = trie.LongestMatch(addr);
    if (best != model.end()) {
      ASSERT_TRUE(m.has_value());
      EXPECT_EQ(m->first, best->first);
      EXPECT_EQ(*m->second, best->second);
    } else {
      EXPECT_FALSE(m.has_value());
    }
  }
}

TEST_P(TrieVsMapProperty, MatchesStdMapUnderRandomOps) {
  Rng rng(GetParam());
  PrefixTrie<uint32_t> trie;
  Model model;
  // A snapshot taken mid-run: every later op path-copies around it, so it
  // must still equal the model as it was when it was taken.
  constexpr int kOps = 4000;
  std::optional<PrefixTrie<uint32_t>> snapshot;
  Model snapshot_model;

  for (int op = 0; op < kOps; ++op) {
    if (op == kOps / 2) {
      snapshot = trie;
      snapshot_model = model;
    }
    // Small address pool to force collisions, nesting and deletions.
    uint32_t addr = static_cast<uint32_t>(rng.NextBelow(64)) << 24 |
                    static_cast<uint32_t>(rng.NextBelow(4)) << 16;
    uint8_t len = static_cast<uint8_t>(rng.NextBelow(33));
    Prefix p = Prefix::Make(Ipv4Address(addr), len);
    uint32_t val = rng.NextU32();

    switch (rng.NextBelow(5)) {
      case 0:
      case 1: {  // insert
        bool added_model = model.emplace(p, val).second;
        if (!added_model) {
          model[p] = val;
        }
        bool added_trie = trie.Insert(p, val);
        EXPECT_EQ(added_trie, added_model);
        break;
      }
      case 2: {  // erase
        bool erased_model = model.erase(p) > 0;
        bool erased_trie = trie.Erase(p);
        EXPECT_EQ(erased_trie, erased_model);
        break;
      }
      case 3: {  // lookup
        const uint32_t* found = trie.Find(p);
        auto it = model.find(p);
        if (it == model.end()) {
          EXPECT_EQ(found, nullptr);
        } else {
          ASSERT_NE(found, nullptr);
          EXPECT_EQ(*found, it->second);
        }
        break;
      }
      case 4: {  // write in place
        uint32_t* found = trie.FindMutable(p);
        auto it = model.find(p);
        if (it == model.end()) {
          EXPECT_EQ(found, nullptr);
        } else {
          ASSERT_NE(found, nullptr);
          EXPECT_EQ(*found, it->second);
          *found = val;
          it->second = val;
        }
        break;
      }
    }
    EXPECT_EQ(trie.size(), model.size());
  }

  ExpectMatchesModel(trie, model, rng);
  ASSERT_TRUE(snapshot.has_value());
  ExpectMatchesModel(*snapshot, snapshot_model, rng);
}

INSTANTIATE_TEST_SUITE_P(Seeds, TrieVsMapProperty, ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

// --- ordered construction ---------------------------------------------------------

// The (key, has_value) sequence of an LPM descent.
std::vector<std::pair<Prefix, bool>> Descent(const PrefixTrie<uint32_t>& trie,
                                             Ipv4Address addr) {
  std::vector<std::pair<Prefix, bool>> out;
  trie.WalkDescent(addr, [&](const Prefix& key, bool has_value) {
    out.push_back({key, has_value});
  });
  return out;
}

std::vector<std::pair<Prefix, uint32_t>> Entries(const PrefixTrie<uint32_t>& trie) {
  std::vector<std::pair<Prefix, uint32_t>> out;
  trie.Walk([&](const Prefix& p, const uint32_t& v) {
    out.push_back({p, v});
    return true;
  });
  return out;
}

// Random key sets from a small address pool, so keys nest, share addresses
// at several lengths, and fork at every depth; /0 and /32 keys included. The
// trie built in walk order must be the one Inserts in random order build,
// node for node: same node count, entries, LPM descents and matches.
TEST(PrefixTrieBuilderTest, BuildsTheTrieInsertBuilds) {
  for (uint64_t seed = 1; seed <= 12; ++seed) {
    Rng rng(seed);
    auto random_address = [&] {
      return Ipv4Address(static_cast<uint32_t>(rng.NextBelow(4)) << 30 |
                         static_cast<uint32_t>(rng.NextBelow(8)) << 20 |
                         static_cast<uint32_t>(rng.NextBelow(4)) << 8 |
                         static_cast<uint32_t>(rng.NextBelow(3)));
    };
    Model model;
    if (seed % 2 == 0) {
      model[P("0.0.0.0/0")] = 0;
    }
    const size_t keys = 1 + rng.NextBelow(400);
    while (model.size() < keys) {
      const uint8_t len = rng.NextBelow(4) == 0 ? 32 : static_cast<uint8_t>(rng.NextBelow(33));
      model[Prefix::Make(random_address(), len)] = rng.NextU32();
    }

    std::vector<std::pair<Prefix, uint32_t>> shuffled(model.begin(), model.end());
    for (size_t i = shuffled.size(); i > 1; --i) {
      std::swap(shuffled[i - 1], shuffled[rng.NextBelow(i)]);
    }
    PrefixTrie<uint32_t> inserted;
    for (const auto& [p, v] : shuffled) {
      inserted.Insert(p, v);
    }
    PrefixTrie<uint32_t>::Builder builder;
    for (const auto& [p, v] : model) {
      ASSERT_TRUE(builder.Append(p, v)) << p.ToString();
    }
    const PrefixTrie<uint32_t> built = builder.Take();

    EXPECT_EQ(built.size(), model.size()) << "seed " << seed;
    EXPECT_EQ(built.NodeCount(), inserted.NodeCount()) << "seed " << seed;
    EXPECT_EQ(Entries(built), Entries(inserted)) << "seed " << seed;
    for (int q = 0; q < 300; ++q) {
      const Ipv4Address addr = random_address();
      EXPECT_EQ(Descent(built, addr), Descent(inserted, addr)) << "seed " << seed;
      const auto a = built.LongestMatch(addr);
      const auto b = inserted.LongestMatch(addr);
      ASSERT_EQ(a.has_value(), b.has_value()) << "seed " << seed;
      if (a.has_value()) {
        EXPECT_EQ(a->first, b->first);
        EXPECT_EQ(*a->second, *b->second);
      }
    }
  }
}

TEST(PrefixTrieBuilderTest, RefusesDuplicateAndOutOfOrderKeys) {
  PrefixTrie<int> reference;
  PrefixTrie<int>::Builder builder;
  for (const char* key : {"10.0.0.0/8", "10.0.0.0/16", "10.1.0.0/24"}) {
    ASSERT_TRUE(builder.Append(P(key), 1)) << key;
    reference.Insert(P(key), 1);
  }
  EXPECT_FALSE(builder.Append(P("10.1.0.0/24"), 2)) << "duplicate";
  EXPECT_FALSE(builder.Append(P("10.0.0.0/24"), 2)) << "address before the last key's";
  EXPECT_FALSE(builder.Append(P("10.1.0.0/16"), 2)) << "same address, shorter";
  EXPECT_TRUE(builder.Append(P("10.1.1.0/24"), 3));
  reference.Insert(P("10.1.1.0/24"), 3);
  const PrefixTrie<int> built = builder.Take();
  EXPECT_EQ(built.size(), 4u);
  EXPECT_EQ(built.NodeCount(), reference.NodeCount());
  EXPECT_EQ(*built.Find(P("10.1.0.0/24")), 1) << "a refused append changes nothing";
  EXPECT_EQ(built.Find(P("10.0.0.0/24")), nullptr);
  EXPECT_EQ(built.Find(P("10.1.0.0/16")), nullptr);
}

// --- node ownership ---------------------------------------------------------------

// A value that counts its live instances: a node that leaks keeps its value
// alive, and one freed twice destroys its value twice, so either moves the
// count away from what the live tries account for.
struct Counted {
  static inline std::atomic<int64_t> live{0};

  explicit Counted(uint32_t v = 0) : value(v) { live.fetch_add(1, std::memory_order_relaxed); }
  Counted(const Counted& other) : value(other.value) {
    live.fetch_add(1, std::memory_order_relaxed);
  }
  Counted& operator=(const Counted&) = default;
  ~Counted() { live.fetch_sub(1, std::memory_order_relaxed); }

  uint32_t value;
};

using CountedTrie = PrefixTrie<Counted>;

// Every entry of `trie`, in walk order, equals `model`'s.
void ExpectEquals(const CountedTrie& trie, const Model& model) {
  ASSERT_EQ(trie.size(), model.size());
  auto it = model.begin();
  trie.Walk([&](const Prefix& p, const Counted& v) {
    EXPECT_TRUE(it != model.end() && it->first == p && it->second == v.value);
    ++it;
    return true;
  });
  EXPECT_TRUE(it == model.end());
}

// One random Insert, Erase or FindMutable write on `trie` and its model.
void RandomOp(CountedTrie& trie, Model& model, Rng& rng) {
  const uint32_t addr = static_cast<uint32_t>(rng.NextBelow(64)) << 24 |
                        static_cast<uint32_t>(rng.NextBelow(16)) << 16;
  const Prefix p = Prefix::Make(Ipv4Address(addr), static_cast<uint8_t>(rng.NextBelow(25)));
  const uint32_t val = rng.NextU32();
  switch (rng.NextBelow(3)) {
    case 0:
      EXPECT_EQ(trie.Insert(p, Counted(val)), model.count(p) == 0);
      model[p] = val;
      break;
    case 1:
      EXPECT_EQ(trie.Erase(p), model.erase(p) > 0);
      break;
    case 2:
      if (Counted* found = trie.FindMutable(p)) {
        found->value = val;
        model.at(p) = val;
      } else {
        EXPECT_EQ(model.count(p), 0u);
      }
      break;
  }
}

TEST(PrefixTrieOwnershipTest, SnapshotsTakenAndDroppedAtRandomKeepTheirContents) {
  const int64_t live_at_start = Counted::live.load();
  {
    Rng rng(11);
    CountedTrie trie;
    Model model;
    std::vector<std::pair<CountedTrie, Model>> snapshots;
    for (int op = 0; op < 20000; ++op) {
      RandomOp(trie, model, rng);
      const uint64_t roll = rng.NextBelow(100);
      if (roll < 3) {
        snapshots.emplace_back(trie, model);
      } else if (roll < 5 && !snapshots.empty()) {
        const size_t victim = rng.NextBelow(snapshots.size());
        ExpectEquals(snapshots[victim].first, snapshots[victim].second);
        snapshots.erase(snapshots.begin() + static_cast<std::ptrdiff_t>(victim));
      }
    }
    ExpectEquals(trie, model);
    for (const auto& [snapshot, snapshot_model] : snapshots) {
      ExpectEquals(snapshot, snapshot_model);
    }
    EXPECT_GT(Counted::live.load(), live_at_start);
  }
  EXPECT_EQ(Counted::live.load(), live_at_start) << "every value freed exactly once";
}

// Snapshots copied and dropped on other threads: each thread copies one
// shared trie, mutates its copy (path-copying the nodes it shares with the
// shared trie and the other copies, so their counts move on four threads at
// once) and drops it. The shared trie and the live-value count come out
// unchanged. ctest --preset tsan runs this case too.
TEST(PrefixTrieOwnershipTest, ConcurrentCopiesOfOneTrieStayIsolated) {
  const int64_t live_at_start = Counted::live.load();
  {
    CountedTrie shared;
    Model shared_model;
    Rng rng(29);
    while (shared.size() < 10000) {
      const Prefix p = Prefix::Make(Ipv4Address(rng.NextU32()), 24);
      const uint32_t val = rng.NextU32();
      shared.Insert(p, Counted(val));
      shared_model[p] = val;
    }
    constexpr int kThreads = 4;
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&shared, &shared_model, t] {
        Rng thread_rng(100 + t);
        CountedTrie copy = shared;
        Model model = shared_model;
        for (int op = 0; op < 5000; ++op) {
          RandomOp(copy, model, thread_rng);
        }
        ExpectEquals(copy, model);
      });
    }
    for (std::thread& thread : threads) {
      thread.join();
    }
    ExpectEquals(shared, shared_model);
  }
  EXPECT_EQ(Counted::live.load(), live_at_start) << "every value freed exactly once";
}

}  // namespace
}  // namespace dice::bgp
