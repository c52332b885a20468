// A3 — substrate micro-benchmarks (google-benchmark):
//
//  * wire codec encode/decode throughput;
//  * COW Patricia trie: insert, ordered restore, exact/LPM lookup, snapshot,
//    post-snapshot write;
//  * attribute interning: intern and release of distinct sets;
//  * decision process (RoutePreferred);
//  * filter interpretation, concrete vs symbolic context — quantifying §3.2's
//    claim that the running system pays "virtually no overhead" when not
//    exploring (the concrete path allocates no expressions);
//  * solver queries of the shapes exploration produces;
//  * checkpoint clone cost at table scale.

#include <benchmark/benchmark.h>

#include <algorithm>

#include "src/bgp/config.h"
#include "src/bgp/policy_eval.h"
#include "src/bgp/rib.h"
#include "src/bgp/wire.h"
#include "src/checkpoint/checkpoint.h"
#include "src/dice/symbolic_ctx.h"
#include "src/sym/solver.h"
#include "src/trace/trace.h"
#include "src/util/rng.h"

namespace dice {
namespace {

bgp::UpdateMessage SampleUpdate() {
  bgp::UpdateMessage u;
  u.attrs.origin = bgp::Origin::kIgp;
  u.attrs.as_path = bgp::AsPath::Sequence({65000, 3549, 36561});
  u.attrs.next_hop = *bgp::Ipv4Address::Parse("10.0.0.9");
  u.attrs.med = 50;
  u.attrs.communities = {bgp::MakeCommunity(65000, 1)};
  u.nlri.push_back(*bgp::Prefix::Parse("208.65.152.0/22"));
  return u;
}

void BM_WireEncodeUpdate(benchmark::State& state) {
  bgp::UpdateMessage u = SampleUpdate();
  for (auto _ : state) {
    benchmark::DoNotOptimize(bgp::EncodeUpdate(u));
  }
}
BENCHMARK(BM_WireEncodeUpdate);

void BM_WireDecodeUpdate(benchmark::State& state) {
  Bytes encoded = bgp::EncodeUpdate(SampleUpdate());
  for (auto _ : state) {
    benchmark::DoNotOptimize(bgp::Decode(encoded));
  }
}
BENCHMARK(BM_WireDecodeUpdate);

void BM_TrieInsert(benchmark::State& state) {
  Rng rng(1);
  std::vector<bgp::Prefix> prefixes;
  for (int i = 0; i < 10000; ++i) {
    prefixes.push_back(bgp::Prefix::Make(bgp::Ipv4Address(rng.NextU32()), 24));
  }
  for (auto _ : state) {
    bgp::PrefixTrie<int> trie;
    for (const auto& p : prefixes) {
      trie.Insert(p, 1);
    }
    benchmark::DoNotOptimize(trie.size());
  }
  state.SetItemsProcessed(state.iterations() * 10000);
}
BENCHMARK(BM_TrieInsert);

// The same 10k prefixes restored in walk order through PrefixTrie::Builder,
// as a router-state snapshot load builds its tries.
void BM_TrieRestoreInOrder(benchmark::State& state) {
  Rng rng(1);
  std::vector<bgp::Prefix> prefixes;
  for (int i = 0; i < 10000; ++i) {
    prefixes.push_back(bgp::Prefix::Make(bgp::Ipv4Address(rng.NextU32()), 24));
  }
  std::sort(prefixes.begin(), prefixes.end());
  prefixes.erase(std::unique(prefixes.begin(), prefixes.end()), prefixes.end());
  for (auto _ : state) {
    bgp::PrefixTrie<int>::Builder builder;
    for (const auto& p : prefixes) {
      builder.Append(p, 1);
    }
    benchmark::DoNotOptimize(builder.Take().size());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(prefixes.size()));
}
BENCHMARK(BM_TrieRestoreInOrder);

// Interns 10k distinct attribute sets, then releases them all: per set, the
// intern table's miss (allocate the node, take a slot) and its last drop
// (free the slot under the shard lock, free the node).
void BM_AttrInternRoundTrip(benchmark::State& state) {
  std::vector<bgp::PathAttributes> distinct;
  for (uint32_t i = 0; i < 10000; ++i) {
    bgp::PathAttributes attrs = SampleUpdate().attrs;
    attrs.as_path = bgp::AsPath::Sequence({65000, 3549, 100000 + i});
    distinct.push_back(std::move(attrs));
  }
  std::vector<bgp::InternedAttrs> held;
  held.reserve(distinct.size());
  for (auto _ : state) {
    for (const bgp::PathAttributes& attrs : distinct) {
      held.emplace_back(attrs);
    }
    benchmark::DoNotOptimize(held.data());
    held.clear();
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(distinct.size()));
}
BENCHMARK(BM_AttrInternRoundTrip);

bgp::PrefixTrie<int> MakeTrie(size_t n) {
  Rng rng(2);
  bgp::PrefixTrie<int> trie;
  while (trie.size() < n) {
    trie.Insert(bgp::Prefix::Make(bgp::Ipv4Address(rng.NextU32()), 24), 1);
  }
  return trie;
}

void BM_TrieLongestMatch(benchmark::State& state) {
  bgp::PrefixTrie<int> trie = MakeTrie(static_cast<size_t>(state.range(0)));
  Rng rng(3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(trie.LongestMatch(bgp::Ipv4Address(rng.NextU32())));
  }
}
BENCHMARK(BM_TrieLongestMatch)->Arg(10000)->Arg(100000);

void BM_TrieSnapshot(benchmark::State& state) {
  bgp::PrefixTrie<int> trie = MakeTrie(100000);
  for (auto _ : state) {
    bgp::PrefixTrie<int> snap = trie;
    benchmark::DoNotOptimize(snap.size());
  }
}
BENCHMARK(BM_TrieSnapshot);

void BM_TrieWriteAfterSnapshot(benchmark::State& state) {
  bgp::PrefixTrie<int> trie = MakeTrie(100000);
  Rng rng(4);
  for (auto _ : state) {
    bgp::PrefixTrie<int> snap = trie;  // forces path copies on the next write
    snap.Insert(bgp::Prefix::Make(bgp::Ipv4Address(rng.NextU32()), 24), 2);
    benchmark::DoNotOptimize(snap.size());
  }
}
BENCHMARK(BM_TrieWriteAfterSnapshot);

void BM_RoutePreferred(benchmark::State& state) {
  bgp::Route a;
  a.peer = 1;
  a.peer_as = 100;
  bgp::PathAttributes a_attrs;
  a_attrs.as_path = bgp::AsPath::Sequence({100, 200});
  a_attrs.local_pref = 150;
  a.attrs = std::move(a_attrs);
  bgp::Route b;
  b.peer = 2;
  b.peer_as = 100;
  bgp::PathAttributes b_attrs;
  b_attrs.as_path = bgp::AsPath::Sequence({100, 300});
  b_attrs.local_pref = 150;
  b_attrs.med = 10;
  b.attrs = std::move(b_attrs);
  for (auto _ : state) {
    benchmark::DoNotOptimize(bgp::RoutePreferred(a, b));
  }
}
BENCHMARK(BM_RoutePreferred);

const bgp::RouterConfig& FilterConfig() {
  static const bgp::RouterConfig* config = [] {
    auto parsed = bgp::ParseSingleRouterConfig(R"(
router r {
  as 3; id 10.0.0.3;
  prefix-list customers { 10.1.0.0/16 le 24; 172.16.0.0/12 le 24; 192.168.0.0/16 le 24; }
  filter customer-in {
    term allow { match prefix in customers; then set local-pref 200; then accept; }
    term deny { then reject; }
  }
}
)");
    return new bgp::RouterConfig(std::move(parsed).value());
  }();
  return *config;
}

// The §3.2 "virtually no overhead" comparison: identical filter interpreted
// over the concrete context (live router) vs the symbolic context with marked
// fields (exploration clone).
void BM_FilterEvalConcrete(benchmark::State& state) {
  const bgp::RouterConfig& config = FilterConfig();
  const bgp::Filter* filter = config.policies.FindFilter("customer-in");
  bgp::PathAttributes attrs = SampleUpdate().attrs;
  bgp::Prefix prefix = *bgp::Prefix::Parse("10.1.7.0/24");
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        bgp::EvaluateFilterConcrete(*filter, config.policies, prefix, attrs));
  }
}
BENCHMARK(BM_FilterEvalConcrete);

void BM_FilterEvalSymbolic(benchmark::State& state) {
  const bgp::RouterConfig& config = FilterConfig();
  const bgp::Filter* filter = config.policies.FindFilter("customer-in");
  for (auto _ : state) {
    sym::Engine engine;
    engine.BeginRun({});
    SymbolicCtx ctx(&engine);
    bgp::RouteView<sym::Value> view;
    view.prefix_addr = engine.MakeSymbolic("addr", 32, 0x0a010700, 0, 0xffffffff);
    view.prefix_len = engine.MakeSymbolic("len", 8, 24, 0, 32);
    view.as_path = {sym::Value(65000), sym::Value(36561)};
    view.origin_code = sym::Value(0);
    view.next_hop = sym::Value(0x0a000001);
    view.med = sym::Value(0);
    view.local_pref = sym::Value(100);
    benchmark::DoNotOptimize(bgp::EvaluateFilter(ctx, *filter, config.policies, view));
  }
}
BENCHMARK(BM_FilterEvalSymbolic);

void BM_SolverRangeQuery(benchmark::State& state) {
  sym::SolverOptions options;
  std::vector<sym::VarInfo> vars(2);
  vars[0] = {0, "addr", 32, 0x0a010700, 0, 0xffffffff};
  vars[1] = {1, "len", 8, 24, 0, 32};
  auto addr = sym::Expr::MakeVar(0, 32);
  auto len = sym::Expr::MakeVar(1, 8);
  std::vector<sym::ExprPtr> constraints{
      sym::Expr::UGe(addr, sym::Expr::MakeConst(0xd0419800, 32)),
      sym::Expr::ULe(addr, sym::Expr::MakeConst(0xd0419bff, 32)),
      sym::Expr::UGe(len, sym::Expr::MakeConst(22, 8)),
      sym::Expr::ULe(len, sym::Expr::MakeConst(24, 8)),
  };
  for (auto _ : state) {
    sym::Solver solver(options);
    benchmark::DoNotOptimize(solver.Solve(constraints, vars, {}));
  }
}
BENCHMARK(BM_SolverRangeQuery);

void BM_CheckpointClone(benchmark::State& state) {
  trace::TraceGeneratorOptions gen_options;
  gen_options.prefix_count = static_cast<size_t>(state.range(0));
  trace::TraceGenerator generator(gen_options);
  bgp::RouterState live;
  live.config = std::make_shared<const bgp::RouterConfig>();
  bgp::UpdateSink sink = [](bgp::PeerId, const bgp::UpdateMessage&) {};
  for (const auto& entry : generator.table()) {
    bgp::Route route;
    route.peer = 1;
    route.peer_as = 65000;
    route.attrs = entry.attrs;
    live.rib.AddRoute(entry.prefix, std::move(route));
  }
  checkpoint::CheckpointManager manager;
  manager.Take(live, {}, 0);
  for (auto _ : state) {
    bgp::RouterState clone = manager.Clone();
    benchmark::DoNotOptimize(clone.rib.PrefixCount());
  }
}
BENCHMARK(BM_CheckpointClone)->Arg(10000)->Arg(100000);

}  // namespace
}  // namespace dice

BENCHMARK_MAIN();
