// Tests for the durable snapshot formats (src/persist): the query-cache and
// router-state containers must round-trip bit-exactly, serve warm restarts
// whose detections are identical to the uninterrupted run, and answer every
// malformed byte — truncation at each length, each single-bit flip, version
// skew, magic confusion, trailing garbage, fingerprint mismatch — with a
// Status, never a crash. Same discipline as exploration_wire_test, because
// these bytes cross a process lifetime instead of a network.

#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "src/bgp/attr_codec.h"
#include "src/bgp/attr_intern.h"
#include "src/bgp/wire.h"
#include "src/dice/explorer.h"
#include "src/persist/env.h"
#include "src/persist/query_cache_snapshot.h"
#include "src/persist/router_state_snapshot.h"
#include "src/util/frame.h"

namespace dice {
namespace {

bgp::Prefix P(const char* s) { return *bgp::Prefix::Parse(s); }

bgp::UpdateMessage SeedUpdate() {
  bgp::UpdateMessage u;
  u.attrs.origin = bgp::Origin::kIgp;
  u.attrs.as_path = bgp::AsPath::Sequence({1, 100});
  u.attrs.next_hop = *bgp::Ipv4Address::Parse("10.0.0.1");
  u.nlri.push_back(P("10.1.7.0/24"));
  return u;
}

// The Fig. 2 provider with the fat-fingered filter entry that leaks foreign
// address space — the same scenario dice_test explores, so the snapshot
// layer is exercised by a cache that actually holds verdicts and cores.
struct ProviderFixture {
  ProviderFixture() {
    auto config = std::make_shared<bgp::RouterConfig>();
    config->name = "provider";
    config->local_as = 3;
    config->router_id = *bgp::Ipv4Address::Parse("10.0.0.3");

    bgp::PrefixList customers;
    customers.name = "customers";
    customers.entries.push_back(bgp::PrefixListEntry{P("10.1.0.0/16"), 0, 24});
    customers.entries.push_back(bgp::PrefixListEntry{P("208.65.152.0/22"), 0, 24});
    EXPECT_TRUE(config->policies.AddPrefixList(std::move(customers)).ok());
    EXPECT_TRUE(config->policies
                    .AddFilter(bgp::MakeCustomerImportFilter("customer-in", "customers"))
                    .ok());

    bgp::NeighborConfig customer;
    customer.address = *bgp::Ipv4Address::Parse("10.0.0.1");
    customer.remote_as = 1;
    customer.import_filter = "customer-in";
    config->neighbors.push_back(customer);

    bgp::NeighborConfig internet;
    internet.address = *bgp::Ipv4Address::Parse("10.0.0.9");
    internet.remote_as = 9;
    config->neighbors.push_back(internet);

    state.config = config;

    AddRoute("208.65.152.0/22", 9, 9, {9, 36561});
    AddRoute("198.51.100.0/24", 9, 9, {9, 64501});
    AddRoute("10.1.7.0/24", 1, 1, {1, 100});

    customer_view.id = 1;
    customer_view.remote_as = 1;
    customer_view.address = *bgp::Ipv4Address::Parse("10.0.0.1");
    customer_view.established = true;
    internet_view.id = 9;
    internet_view.remote_as = 9;
    internet_view.address = *bgp::Ipv4Address::Parse("10.0.0.9");
    internet_view.established = true;
  }

  void AddRoute(const char* prefix, bgp::PeerId peer, bgp::AsNumber peer_as,
                std::vector<bgp::AsNumber> path) {
    bgp::Route route;
    route.peer = peer;
    route.peer_as = peer_as;
    bgp::PathAttributes attrs;
    attrs.origin = bgp::Origin::kIgp;
    attrs.as_path = bgp::AsPath::Sequence(std::move(path));
    attrs.next_hop = *bgp::Ipv4Address::Parse("10.0.0.9");
    route.attrs = std::move(attrs);
    state.rib.AddRoute(P(prefix), std::move(route));
  }

  std::vector<bgp::PeerView> Peers() const { return {customer_view, internet_view}; }

  bgp::RouterState state;
  bgp::PeerView customer_view;
  bgp::PeerView internet_view;
};

std::vector<std::string> DetectionStrings(const ExplorationReport& report) {
  std::vector<std::string> out;
  for (const Detection& d : report.detections) {
    out.push_back(d.ToString());
  }
  return out;
}

// Runs one full exploration over the fixture and returns the explorer (whose
// solver cache now holds this exploration's verdicts and cores).
std::unique_ptr<Explorer> Explore(const ProviderFixture& fixture) {
  ExplorerOptions options;
  options.concolic.max_runs = 200;
  auto explorer = std::make_unique<Explorer>(options);
  explorer->AddChecker(std::make_unique<HijackChecker>());
  explorer->TakeCheckpoint(fixture.state, fixture.Peers(), 0);
  explorer->ExploreSeed(SeedUpdate(), /*from=*/1);
  return explorer;
}

// --- query cache: warm restart --------------------------------------------

TEST(QueryCacheSnapshotTest, WarmRestartIsBitIdenticalAndServedPreloaded) {
  ProviderFixture fixture;
  std::unique_ptr<Explorer> cold = Explore(fixture);
  ASSERT_FALSE(cold->report().detections.empty()) << "scenario must find the leak";
  Bytes snapshot = persist::SerializeQueryCache(*cold->query_cache());

  // "Restart": a fresh explorer — new process in miniature — warmed from the
  // snapshot, exploring the identical checkpoint and seed.
  ProviderFixture fixture2;
  ExplorerOptions options;
  options.concolic.max_runs = 200;
  Explorer warm(options);
  ASSERT_TRUE(persist::LoadQueryCache(snapshot, *warm.query_cache()).ok());
  warm.AddChecker(std::make_unique<HijackChecker>());
  warm.TakeCheckpoint(fixture2.state, fixture2.Peers(), 0);
  warm.ExploreSeed(SeedUpdate(), 1);

  EXPECT_EQ(DetectionStrings(warm.report()), DetectionStrings(cold->report()))
      << "warm restart changed what exploration finds";
  EXPECT_EQ(warm.report().concolic.runs, cold->report().concolic.runs);
  EXPECT_EQ(warm.report().concolic.unique_paths, cold->report().concolic.unique_paths);
  EXPECT_EQ(warm.report().solver.cache_misses, 0u)
      << "identical workload must be fully served from the reloaded cache";
  EXPECT_GT(warm.report().solver.cache_preloaded_hits, 0u)
      << "warm hits must be attributed to the snapshot";
  EXPECT_EQ(cold->report().solver.cache_preloaded_hits, 0u)
      << "a cold run has nothing preloaded to hit";
}

TEST(QueryCacheSnapshotTest, SecondSerializationIsDeterministic) {
  ProviderFixture fixture;
  std::unique_ptr<Explorer> explorer = Explore(fixture);
  Bytes a = persist::SerializeQueryCache(*explorer->query_cache());
  Bytes b = persist::SerializeQueryCache(*explorer->query_cache());
  EXPECT_EQ(a, b);

  // Load into a fresh cache and re-serialize: the round trip is bit-stable
  // (entries sorted by key, nodes in canonical bottom-up order).
  sym::QueryCache reloaded(4096, 256);
  ASSERT_TRUE(persist::LoadQueryCache(a, reloaded).ok());
  EXPECT_EQ(persist::SerializeQueryCache(reloaded), a);
}

TEST(QueryCacheSnapshotTest, ImportMarksCoresPreloaded) {
  sym::QueryCache source(64, 8);
  sym::ExprPtr x = sym::Expr::MakeVar(0, 32);
  sym::ExprPtr a = sym::Expr::ULt(x, sym::Expr::MakeConst(10, 32));
  sym::ExprPtr b = sym::Expr::UGt(x, sym::Expr::MakeConst(20, 32));
  sym::QueryKey key{a->id(), b->id()};
  std::sort(key.begin(), key.end());
  source.PublishCores({sym::QueryCache::Core{key, {a, b}}});

  sym::QueryCache reloaded(64, 8);
  ASSERT_TRUE(
      persist::LoadQueryCache(persist::SerializeQueryCache(source), reloaded).ok());
  bool preloaded = false;
  EXPECT_TRUE(reloaded.MatchesUnsatCore(key, &preloaded));
  EXPECT_TRUE(preloaded);
  bool source_preloaded = true;
  EXPECT_TRUE(source.MatchesUnsatCore(key, &source_preloaded));
  EXPECT_FALSE(source_preloaded) << "the origin cache learned its core locally";
}

// --- query cache: malformed bytes -----------------------------------------

class QueryCacheCorruption : public ::testing::Test {
 protected:
  QueryCacheCorruption() {
    ProviderFixture fixture;
    snapshot_ = persist::SerializeQueryCache(*Explore(fixture)->query_cache());
  }

  Status Load(const Bytes& bytes) {
    sym::QueryCache scratch(4096, 256);
    return persist::LoadQueryCache(bytes, scratch);
  }

  Bytes snapshot_;
};

TEST_F(QueryCacheCorruption, EveryTruncationIsAnError) {
  ASSERT_TRUE(Load(snapshot_).ok());
  for (size_t len = 0; len < snapshot_.size(); ++len) {
    Bytes truncated(snapshot_.begin(), snapshot_.begin() + len);
    EXPECT_FALSE(Load(truncated).ok()) << "length " << len << " parsed";
  }
}

TEST_F(QueryCacheCorruption, EverySingleBitFlipIsAnError) {
  for (size_t byte = 0; byte < snapshot_.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      Bytes flipped = snapshot_;
      flipped[byte] ^= static_cast<uint8_t>(1u << bit);
      EXPECT_FALSE(Load(flipped).ok()) << "bit " << bit << " of byte " << byte << " parsed";
    }
  }
}

TEST_F(QueryCacheCorruption, VersionSkewMagicConfusionAndTrailingGarbage) {
  // A future version must be rejected, not misread.
  Bytes body(snapshot_.begin() + kFrameHeaderSize, snapshot_.end());
  Bytes reframed = FrameMessage(persist::kQueryCacheSnapshotMagic,
                                persist::kQueryCacheSnapshotVersion + 1, body);
  EXPECT_FALSE(Load(reframed).ok());

  // A router-state snapshot can never load as a query cache.
  ProviderFixture fixture;
  EXPECT_FALSE(Load(persist::SerializeRouterState(fixture.state, 1)).ok());

  // Bytes past the body are an error even when re-checksummed.
  Bytes padded_body = body;
  padded_body.push_back(0);
  EXPECT_FALSE(Load(FrameMessage(persist::kQueryCacheSnapshotMagic,
                                 persist::kQueryCacheSnapshotVersion, padded_body))
                   .ok());
}

TEST_F(QueryCacheCorruption, FailedLoadLeavesCacheUntouched) {
  sym::QueryCache cache(4096, 256);
  ASSERT_TRUE(persist::LoadQueryCache(snapshot_, cache).ok());
  Bytes before = persist::SerializeQueryCache(cache);

  Bytes corrupt = snapshot_;
  corrupt[snapshot_.size() - 1] ^= 0x40u;
  EXPECT_FALSE(persist::LoadQueryCache(corrupt, cache).ok());
  EXPECT_EQ(persist::SerializeQueryCache(cache), before)
      << "a rejected snapshot must not clobber the warm cache";
}

// --- router state ----------------------------------------------------------

constexpr uint64_t kFingerprint = 0x5eedf00d;

// A state with every persisted feature live: shared interned attributes,
// Adj-RIB-Out entries, and non-zero processing counters (ProcessUpdate runs
// the real import/selection/export path).
bgp::RouterState PopulatedState() {
  ProviderFixture fixture;
  bgp::UpdateSink discard = [](bgp::PeerId, const bgp::UpdateMessage&) {};
  bgp::UpdateMessage u;
  u.attrs.origin = bgp::Origin::kIgp;
  u.attrs.as_path = bgp::AsPath::Sequence({1, 100});
  u.attrs.next_hop = *bgp::Ipv4Address::Parse("10.0.0.1");
  u.attrs.med = 30;
  u.attrs.local_pref = 120;
  u.attrs.communities.push_back(0x00030001);
  u.nlri.push_back(P("10.1.9.0/24"));
  bgp::ProcessUpdate(fixture.state, fixture.Peers(), fixture.customer_view,
                     fixture.state.config->neighbors.front(), u, discard);
  return std::move(fixture.state);
}

TEST(RouterStateSnapshotTest, RoundTripIsBitIdentical) {
  bgp::RouterState state = PopulatedState();
  Bytes snapshot = persist::SerializeRouterState(state, kFingerprint);
  StatusOr<bgp::RouterState> restored =
      persist::LoadRouterState(snapshot, state.config, kFingerprint);
  ASSERT_TRUE(restored.ok()) << restored.status();
  EXPECT_EQ(restored->rib.PrefixCount(), state.rib.PrefixCount());
  EXPECT_EQ(restored->updates_processed, state.updates_processed);
  EXPECT_EQ(restored->routes_accepted, state.routes_accepted);
  EXPECT_EQ(persist::SerializeRouterState(*restored, kFingerprint), snapshot)
      << "restored state must re-serialize to the identical bytes";
}

// The DXRS v2 bytes of PopulatedState(), pinned: snapshot directories
// written by earlier builds must keep loading, so a serializer change may
// not move a byte without bumping kRouterStateSnapshotVersion.
TEST(RouterStateSnapshotTest, BytesArePinned) {
  const Bytes snapshot = persist::SerializeRouterState(PopulatedState(), kFingerprint);
  EXPECT_EQ(snapshot.size(), 449u);
  EXPECT_EQ(BodyChecksum(snapshot.data(), snapshot.size()), 0x00f2eeacu);
}

// The state fingerprint is the checksum of the joined inputs, computed
// without joining them, and pinned for the same reason as the bytes above.
TEST(RouterStateSnapshotTest, StateFingerprintIsPinned) {
  const std::string config = "router r {\n  as 3;\n}\n";
  const Bytes corpus = {'D', 'T', 'R', 'C', 0x00, 0x01, 0xff, '\n', 0x80, 0x7f};
  const std::string inject = "208.65.152.0/22:36561";
  const std::string joined =
      config + '\n' + std::string(corpus.begin(), corpus.end()) + '\n' + inject;
  const uint64_t fingerprint = persist::StateFingerprint(config, corpus, inject);
  EXPECT_EQ(fingerprint,
            BodyChecksum(reinterpret_cast<const uint8_t*>(joined.data()), joined.size()));
  EXPECT_EQ(fingerprint, 0x4f0d0465u);
  EXPECT_NE(persist::StateFingerprint(config, corpus, ""), fingerprint);
}

// Records what the serializer hands a file: the bytes, and the size of
// every Append.
class RecordingFile : public persist::WritableFile {
 public:
  Status Append(const uint8_t* data, size_t size) override {
    appends.push_back(size);
    return sink_.Append(data, size);
  }
  Status WriteAt(uint64_t offset, const uint8_t* data, size_t size) override {
    return sink_.WriteAt(offset, data, size);
  }
  Status Close() override { return Status::Ok(); }
  Bytes Take() { return sink_.Take(); }

  std::vector<size_t> appends;

 private:
  BytesSink sink_;
};

// PopulatedState plus thousands of routes, each with its own attribute set,
// and an Adj-RIB-Out entry for every tenth: a snapshot many chunks long.
bgp::RouterState LargeState() {
  bgp::RouterState state = PopulatedState();
  for (uint32_t i = 0; i < 6000; ++i) {
    bgp::PathAttributes attrs;
    attrs.origin = bgp::Origin::kIgp;
    attrs.as_path = bgp::AsPath::Sequence({9, 64512 + i % 1000, 100000 + i});
    attrs.next_hop = *bgp::Ipv4Address::Parse("10.0.0.9");
    attrs.communities.push_back(i);
    bgp::Route route;
    route.peer = 9;
    route.peer_as = 9;
    route.attrs = std::move(attrs);
    const bgp::Prefix prefix =
        bgp::Prefix::Make(bgp::Ipv4Address(0x0b000000u + (i << 8)), 24);
    if (i % 10 == 0) {
      state.adj_out[1].Insert(prefix, route.attrs);
    }
    state.rib.AddRoute(prefix, std::move(route));
  }
  return state;
}

// The streamed serializer writes the in-memory bytes, a chunk per Append.
TEST(RouterStateSnapshotTest, StreamedBytesMatchInMemoryChunkByChunk) {
  const std::pair<bgp::RouterState, size_t> cases[] = {{PopulatedState(), 1},
                                                       {LargeState(), 5}};
  for (const auto& [state, min_appends] : cases) {
    RecordingFile file;
    ASSERT_TRUE(persist::SerializeRouterState(state, kFingerprint, file).ok());
    const Bytes streamed = file.Take();
    EXPECT_EQ(streamed, persist::SerializeRouterState(state, kFingerprint));
    EXPECT_GE(file.appends.size(), min_appends);
    for (size_t i = 0; i < file.appends.size(); ++i) {
      EXPECT_LE(file.appends[i], FrameWriter::kChunkSize) << "append " << i;
      if (i + 1 < file.appends.size()) {
        EXPECT_EQ(file.appends[i], FrameWriter::kChunkSize) << "append " << i;
      }
    }
  }
}

// --- router state: structural corruption behind a valid checksum -----------

// One RIB record of a hand-built v2 frame: a single route whose attribute
// reference is `index`, followed by an inline record of `defines` when set,
// its stored hash off by `hash_offset`.
struct RibRecord {
  const char* prefix;
  uint32_t index;
  std::optional<bgp::PathAttributes> defines;
  uint64_t hash_offset = 0;
};

// A distinct attribute set that nothing else in the process holds.
bgp::PathAttributes FreshAttrs(uint32_t tag) {
  bgp::PathAttributes attrs;
  attrs.origin = bgp::Origin::kIgp;
  attrs.as_path = bgp::AsPath::Sequence({9, 64999});
  attrs.next_hop = *bgp::Ipv4Address::Parse("10.0.0.9");
  attrs.communities.push_back(0xfeed0000u + tag);
  return attrs;
}

// A DXRS frame over `records` (no Adj-RIB-Out, zero counters), framed with
// FrameMessage so that its checksum is valid and only the loader's own
// checks can refuse it.
Bytes RouterStateFrame(const std::vector<RibRecord>& records,
                       uint16_t version = persist::kRouterStateSnapshotVersion) {
  ByteWriter body;
  body.PutU64(kFingerprint);
  body.PutU64(records.size() + 1);  // next sequence
  body.PutU32(static_cast<uint32_t>(records.size()));
  uint64_t sequence = 1;
  for (const RibRecord& record : records) {
    bgp::EncodePrefix(body, P(record.prefix));
    body.PutU32(1);  // routes
    body.PutU32(9);  // peer
    body.PutU32(9);  // peer AS
    body.PutU32(record.index);
    if (record.defines.has_value()) {
      body.PutU64(bgp::HashAttrs(*record.defines) + record.hash_offset);
      bgp::EncodeAttrs(body, *record.defines);
    }
    body.PutU64(sequence++);
    body.PutU32(0);  // best
  }
  body.PutU32(0);  // Adj-RIB-Out peers
  for (int i = 0; i < 6; ++i) {
    body.PutU64(0);  // counters
  }
  return FrameMessage(persist::kRouterStateSnapshotMagic, version, body.bytes());
}

StatusOr<bgp::RouterState> LoadFrame(const Bytes& bytes) {
  return persist::LoadRouterState(bytes, std::make_shared<const bgp::RouterConfig>(),
                                  kFingerprint);
}

// `records` with one fault must be refused as InvalidArgument naming
// `reason`, and leave no attribute set interned on its behalf; `intact` (the
// same records without the fault) must load.
void ExpectRefusedAndInternsNothing(const std::vector<RibRecord>& intact,
                                    const std::vector<RibRecord>& records,
                                    const std::string& reason) {
  {
    StatusOr<bgp::RouterState> loaded = LoadFrame(RouterStateFrame(intact));
    ASSERT_TRUE(loaded.ok()) << loaded.status();
    EXPECT_EQ(loaded->rib.PrefixCount(), intact.size());
  }
  const size_t live_before = bgp::AttrInternTableStats().live_entries;
  StatusOr<bgp::RouterState> restored = LoadFrame(RouterStateFrame(records));
  ASSERT_FALSE(restored.ok());
  EXPECT_EQ(restored.status().code(), StatusCode::kInvalidArgument) << restored.status();
  EXPECT_NE(restored.status().message().find(reason), std::string::npos) << restored.status();
  EXPECT_EQ(bgp::AttrInternTableStats().live_entries, live_before);
}

// The stored-hash tripwire behind the frame checksum: the first inline
// definition carries its hash off by one. The hash check must refuse it, and
// the set it interned on the way must be gone again.
TEST(RouterStateSnapshotTest, StoredHashOffByOneIsAnErrorAndInternsNothing) {
  ExpectRefusedAndInternsNothing({{"10.1.0.0/16", 0, FreshAttrs(1)}},
                                 {{"10.1.0.0/16", 0, FreshAttrs(1), 1}},
                                 "attribute 0 hash mismatch");
}

// An index above the number of sets defined so far refers to a set that has
// not been defined.
TEST(RouterStateSnapshotTest, ForwardAttributeReferenceIsAnError) {
  ExpectRefusedAndInternsNothing(
      {{"10.1.0.0/16", 0, FreshAttrs(2)}, {"10.2.0.0/16", 1, FreshAttrs(3)}},
      {{"10.1.0.0/16", 0, FreshAttrs(2)}, {"10.2.0.0/16", 2, FreshAttrs(3)}},
      "forward attribute reference 2 (1 sets defined)");
}

TEST(RouterStateSnapshotTest, RecordOutOfWalkOrderIsAnError) {
  ExpectRefusedAndInternsNothing(
      {{"10.1.0.0/16", 0, FreshAttrs(4)}, {"10.1.0.0/24", 0, {}}},
      {{"10.1.0.0/24", 0, FreshAttrs(4)}, {"10.1.0.0/16", 0, {}}},
      "record 10.1.0.0/16 is not after the previous one in walk order");
}

// v1 loaded a repeated record by overwriting the first; v2 refuses it.
TEST(RouterStateSnapshotTest, DuplicateRecordIsAnError) {
  ExpectRefusedAndInternsNothing(
      {{"10.1.0.0/16", 0, FreshAttrs(5)}, {"10.3.0.0/16", 0, {}}},
      {{"10.1.0.0/16", 0, FreshAttrs(5)}, {"10.1.0.0/16", 0, {}}},
      "record 10.1.0.0/16 is not after the previous one in walk order");
}

// A version-1 snapshot, written before the attribute table moved inline, is
// version skew: its state directory cold-starts.
TEST(RouterStateSnapshotTest, VersionOneIsRefused) {
  const Bytes v1 = RouterStateFrame({{"10.1.0.0/16", 0, FreshAttrs(6)}}, 1);
  StatusOr<bgp::RouterState> restored = LoadFrame(v1);
  ASSERT_FALSE(restored.ok());
  EXPECT_EQ(restored.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(restored.status().message().find("unsupported wire version 1 (want 2)"),
            std::string::npos)
      << restored.status();
}

TEST(RouterStateSnapshotTest, FingerprintMismatchIsFailedPrecondition) {
  bgp::RouterState state = PopulatedState();
  Bytes snapshot = persist::SerializeRouterState(state, kFingerprint);
  StatusOr<bgp::RouterState> restored =
      persist::LoadRouterState(snapshot, state.config, kFingerprint + 1);
  EXPECT_EQ(restored.status().code(), StatusCode::kFailedPrecondition)
      << "state computed under another config/table must never load";
}

class RouterStateCorruption : public ::testing::Test {
 protected:
  RouterStateCorruption() : state_(PopulatedState()) {
    snapshot_ = persist::SerializeRouterState(state_, kFingerprint);
  }

  Status Load(const Bytes& bytes) {
    return persist::LoadRouterState(bytes, state_.config, kFingerprint).status();
  }

  bgp::RouterState state_;
  Bytes snapshot_;
};

TEST_F(RouterStateCorruption, EveryTruncationIsAnError) {
  ASSERT_TRUE(Load(snapshot_).ok());
  for (size_t len = 0; len < snapshot_.size(); ++len) {
    Bytes truncated(snapshot_.begin(), snapshot_.begin() + len);
    EXPECT_FALSE(Load(truncated).ok()) << "length " << len << " parsed";
  }
}

TEST_F(RouterStateCorruption, EverySingleBitFlipIsAnError) {
  for (size_t byte = 0; byte < snapshot_.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      Bytes flipped = snapshot_;
      flipped[byte] ^= static_cast<uint8_t>(1u << bit);
      EXPECT_FALSE(Load(flipped).ok()) << "bit " << bit << " of byte " << byte << " parsed";
    }
  }
}

TEST_F(RouterStateCorruption, VersionSkewMagicConfusionAndTrailingGarbage) {
  Bytes body(snapshot_.begin() + kFrameHeaderSize, snapshot_.end());
  EXPECT_FALSE(Load(FrameMessage(persist::kRouterStateSnapshotMagic,
                                 persist::kRouterStateSnapshotVersion + 1, body))
                   .ok());

  sym::QueryCache cache(64, 8);
  EXPECT_FALSE(Load(persist::SerializeQueryCache(cache)).ok())
      << "a query-cache snapshot can never load as router state";

  Bytes padded_body = body;
  padded_body.push_back(0);
  EXPECT_FALSE(Load(FrameMessage(persist::kRouterStateSnapshotMagic,
                                 persist::kRouterStateSnapshotVersion, padded_body))
                   .ok());
}

}  // namespace
}  // namespace dice
