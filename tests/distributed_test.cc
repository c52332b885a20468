// Tests for distributed exploration (§2.4): remote clones process exploratory
// batches in isolation and reveal only the narrow interface; system-wide
// checkers judge cross-domain impact. Everything crosses the domain boundary
// through dice::ExplorationService — including, in the wire tests, real
// serialized bytes.

#include <gtest/gtest.h>

#include "src/dice/distributed.h"

namespace dice {
namespace {

bgp::Prefix P(const char* s) { return *bgp::Prefix::Parse(s); }

// Two domains: "provider" (AS 3) explores; "upstream" (AS 7) is the remote
// domain reached through the provider's exploratory messages.
class DistributedFixture : public ::testing::Test {
 protected:
  DistributedFixture() : network_(&loop_) {
    // Upstream router: peers with the provider (node 2), accepts everything
    // except a guarded prefix it filters.
    bgp::RouterConfig upstream;
    upstream.name = "upstream";
    upstream.local_as = 7;
    upstream.router_id = *bgp::Ipv4Address::Parse("10.0.0.7");
    bgp::PrefixList guarded;
    guarded.name = "guarded";
    guarded.entries.push_back(bgp::PrefixListEntry{P("198.51.100.0/24"), 0, 32});
    EXPECT_TRUE(upstream.policies.AddPrefixList(std::move(guarded)).ok());
    bgp::Filter filter;
    filter.name = "block-guarded";
    bgp::FilterTerm deny;
    bgp::Match m;
    m.kind = bgp::MatchKind::kPrefixInList;
    m.list_name = "guarded";
    deny.matches.push_back(m);
    bgp::Action reject;
    reject.kind = bgp::ActionKind::kReject;
    deny.actions.push_back(reject);
    filter.terms.push_back(deny);
    filter.default_accept = true;
    EXPECT_TRUE(upstream.policies.AddFilter(std::move(filter)).ok());
    bgp::NeighborConfig from_provider;
    from_provider.address = *bgp::Ipv4Address::Parse("10.0.0.3");
    from_provider.remote_as = 3;
    from_provider.import_filter = "block-guarded";
    upstream.neighbors.push_back(from_provider);

    upstream_router_ = std::make_unique<bgp::Router>(5, std::move(upstream), &network_);
    network_.AddNode(upstream_router_.get());
    upstream_router_->RegisterPeerNode(*bgp::Ipv4Address::Parse("10.0.0.3"), 2);

    // Pre-existing route at the upstream: a victim prefix with origin 64500.
    upstream_state_victim_ = P("192.0.2.0/24");
    bgp::UpdateMessage install;
    install.attrs.origin = bgp::Origin::kIgp;
    install.attrs.as_path = bgp::AsPath::Sequence({9, 64500});
    install.attrs.next_hop = *bgp::Ipv4Address::Parse("10.0.0.9");
    install.nlri.push_back(upstream_state_victim_);
    // Install directly via the processing core (peer 9 not configured:
    // accept-all default in the service path is not used here — go through
    // the router's state for realism).
    bgp::RouterState& state = upstream_router_->mutable_state_for_test();
    bgp::Route route;
    route.peer = 9;
    route.peer_as = 9;
    route.attrs = install.attrs;
    state.rib.AddRoute(upstream_state_victim_, route);
  }

  // A fresh service over the fixture's upstream router.
  std::unique_ptr<InProcessExplorationService> MakeUpstreamService() {
    return std::make_unique<InProcessExplorationService>("upstream", upstream_router_.get(),
                                                         2);
  }

  net::EventLoop loop_;
  net::Network network_;
  std::unique_ptr<bgp::Router> upstream_router_;
  bgp::Prefix upstream_state_victim_;
};

bgp::UpdateMessage Announce(const char* prefix, std::vector<bgp::AsNumber> path) {
  bgp::UpdateMessage u;
  u.attrs.origin = bgp::Origin::kIgp;
  u.attrs.as_path = bgp::AsPath::Sequence(std::move(path));
  u.attrs.next_hop = *bgp::Ipv4Address::Parse("10.0.0.3");
  u.nlri.push_back(*bgp::Prefix::Parse(prefix));
  return u;
}

// Ships one update in a single-entry batch and returns its NarrowReply — the
// old point-to-point call shape, replayed through the batched API.
NarrowReply One(ExplorationService& service, uint64_t epoch,
                const bgp::UpdateMessage& update) {
  ExploratoryBatchRequest request;
  request.checkpoint_epoch = epoch;
  request.updates.push_back(update);
  StatusOr<ExploratoryBatchReply> reply = service.ExecuteBatch(request);
  EXPECT_TRUE(reply.ok()) << reply.status();
  if (!reply.ok() || reply->replies.size() != 1) {
    return NarrowReply{};
  }
  return reply->replies[0];
}

TEST_F(DistributedFixture, ServiceRequiresCheckpoint) {
  auto service = MakeUpstreamService();
  EXPECT_EQ(service->domain_name(), "upstream");
  EXPECT_EQ(service->clones_made(), 0u);

  // A batch before any checkpoint is a Status error, not a crash.
  ExploratoryBatchRequest request;
  request.updates.push_back(Announce("203.0.113.0/24", {3, 1, 100}));
  StatusOr<ExploratoryBatchReply> reply = service->ExecuteBatch(request);
  ASSERT_FALSE(reply.ok());
  EXPECT_EQ(reply.status().code(), StatusCode::kFailedPrecondition);
}

TEST_F(DistributedFixture, StaleEpochIsRejected) {
  auto service = MakeUpstreamService();
  uint64_t epoch = service->TakeCheckpoint(0);
  EXPECT_EQ(epoch, 1u);

  // Batches must target the current checkpoint generation.
  ExploratoryBatchRequest stale;
  stale.checkpoint_epoch = epoch;
  stale.updates.push_back(Announce("203.0.113.0/24", {3, 1, 100}));
  uint64_t new_epoch = service->TakeCheckpoint(1);
  EXPECT_EQ(new_epoch, 2u);
  StatusOr<ExploratoryBatchReply> reply = service->ExecuteBatch(stale);
  ASSERT_FALSE(reply.ok());
  EXPECT_EQ(reply.status().code(), StatusCode::kFailedPrecondition);

  stale.checkpoint_epoch = new_epoch;
  EXPECT_TRUE(service->ExecuteBatch(stale).ok());
}

TEST_F(DistributedFixture, RemoteCloneAcceptsAndReportsNarrowly) {
  auto service = MakeUpstreamService();
  uint64_t epoch = service->TakeCheckpoint(0);
  NarrowReply reply = One(*service, epoch, Announce("203.0.113.0/24", {3, 1, 100}));
  EXPECT_TRUE(reply.accepted);
  EXPECT_TRUE(reply.adopted_as_best);
  EXPECT_FALSE(reply.origin_changed) << "prefix was new at the remote";
  EXPECT_EQ(service->clones_made(), 1u);
}

TEST_F(DistributedFixture, RemoteFilterStillApplies) {
  auto service = MakeUpstreamService();
  uint64_t epoch = service->TakeCheckpoint(0);
  NarrowReply reply = One(*service, epoch, Announce("198.51.100.0/24", {3, 1, 100}));
  EXPECT_FALSE(reply.accepted) << "the remote's own policy must keep protecting it";
  EXPECT_FALSE(reply.adopted_as_best);
}

TEST_F(DistributedFixture, RemoteDetectsOriginChange) {
  auto service = MakeUpstreamService();
  uint64_t epoch = service->TakeCheckpoint(0);
  // 192.0.2.0/24 exists at the upstream with origin 64500; a shorter-path
  // exploratory announcement with another origin takes over.
  NarrowReply reply = One(*service, epoch, Announce("192.0.2.0/24", {3, 100}));
  EXPECT_TRUE(reply.adopted_as_best);
  EXPECT_TRUE(reply.origin_changed);
}

TEST_F(DistributedFixture, RejectedExploratoryMessageIsZeroCopy) {
  auto service = MakeUpstreamService();
  uint64_t epoch = service->TakeCheckpoint(0);
  // The guarded prefix is rejected by the remote's import filter: the reply
  // must be computed against the checkpoint directly, with no clone made.
  NarrowReply reply = One(*service, epoch, Announce("198.51.100.0/24", {3, 1, 100}));
  EXPECT_FALSE(reply.accepted);
  EXPECT_FALSE(reply.adopted_as_best);
  EXPECT_EQ(reply.would_propagate, 0u);
  EXPECT_EQ(service->clones_made(), 0u) << "a pure reject must not copy any state";
  EXPECT_EQ(service->clones_avoided(), 1u);

  // An accepted exploratory message still materializes a clone.
  One(*service, epoch, Announce("203.0.113.0/24", {3, 1, 100}));
  EXPECT_EQ(service->clones_made(), 1u);
  EXPECT_EQ(service->clones_avoided(), 1u);
}

TEST_F(DistributedFixture, ZeroCopyRejectStillReportsPreexistingCandidate) {
  // The checkpoint already holds a route learned over the exploring node's
  // session; a *rejected* exploratory announcement for the same prefix must
  // report accepted=true (the pre-existing candidate), exactly as the
  // materialized path would after a no-op ProcessUpdate.
  bgp::RouterState& state = upstream_router_->mutable_state_for_test();
  bgp::Route existing;
  existing.peer = 2;  // the session exploratory messages arrive on
  existing.peer_as = 3;
  bgp::PathAttributes existing_attrs;
  existing_attrs.as_path = bgp::AsPath::Sequence({3, 64501});
  existing.attrs = std::move(existing_attrs);
  state.rib.AddRoute(P("198.51.100.0/24"), existing);

  auto service = MakeUpstreamService();
  uint64_t epoch = service->TakeCheckpoint(0);
  NarrowReply reply = One(*service, epoch, Announce("198.51.100.0/24", {3, 1, 100}));
  EXPECT_TRUE(reply.accepted) << "the checkpoint candidate from this session counts";
  EXPECT_TRUE(reply.adopted_as_best);
  EXPECT_EQ(service->clones_made(), 0u) << "still zero-copy: the reject changed nothing";
}

TEST_F(DistributedFixture, NoOpWithdrawalIsZeroCopy) {
  auto service = MakeUpstreamService();
  uint64_t epoch = service->TakeCheckpoint(0);
  bgp::UpdateMessage withdraw;
  withdraw.withdrawn.push_back(P("203.0.113.0/24"));  // nothing learned from us there
  withdraw.nlri.push_back(P("198.51.100.0/24"));      // and the announcement is filtered
  withdraw.attrs.as_path = bgp::AsPath::Sequence({3, 1, 100});
  NarrowReply reply = One(*service, epoch, withdraw);
  EXPECT_FALSE(reply.accepted);
  EXPECT_EQ(service->clones_made(), 0u);
}

TEST_F(DistributedFixture, RemoteCloneIsIsolatedFromLiveRemote) {
  auto service = MakeUpstreamService();
  uint64_t epoch = service->TakeCheckpoint(0);
  One(*service, epoch, Announce("203.0.113.0/24", {3, 1, 100}));
  EXPECT_EQ(upstream_router_->rib().BestRoute(P("203.0.113.0/24")), nullptr)
      << "exploratory processing must never touch the remote's live RIB";
}

TEST_F(DistributedFixture, CheckpointIsolatesFromLaterLiveChanges) {
  auto service = MakeUpstreamService();
  uint64_t epoch = service->TakeCheckpoint(0);
  // The live remote changes after the checkpoint...
  bgp::RouterState& state = upstream_router_->mutable_state_for_test();
  bgp::Route route;
  route.peer = 9;
  route.peer_as = 9;
  bgp::PathAttributes route_attrs;
  route_attrs.as_path = bgp::AsPath::Sequence({9, 777});
  route.attrs = std::move(route_attrs);
  state.rib.AddRoute(P("203.0.113.0/24"), route);
  // ...but the clone still sees the checkpoint: the prefix is new there.
  NarrowReply reply = One(*service, epoch, Announce("203.0.113.0/24", {3, 1, 100}));
  EXPECT_FALSE(reply.origin_changed);
}

// --- Batched vs per-message equivalence --------------------------------------

// A mixed workload: accepted, filtered, origin-changing, withdrawal, and
// duplicated updates (the duplicates exercise the per-batch screen cache).
std::vector<bgp::UpdateMessage> MixedUpdates() {
  std::vector<bgp::UpdateMessage> updates;
  updates.push_back(Announce("203.0.113.0/24", {3, 1, 100}));  // accepted, new
  updates.push_back(Announce("198.51.100.0/24", {3, 1, 100}));  // filtered
  updates.push_back(Announce("192.0.2.0/24", {3, 100}));        // origin change
  updates.push_back(Announce("198.51.100.0/24", {3, 1, 100}));  // filtered dup
  bgp::UpdateMessage withdraw;
  withdraw.withdrawn.push_back(P("203.0.113.0/24"));
  withdraw.nlri.push_back(P("198.51.100.0/24"));
  withdraw.attrs.as_path = bgp::AsPath::Sequence({3, 1, 100});
  updates.push_back(withdraw);
  updates.push_back(Announce("198.51.100.0/24", {3, 1, 100}));  // filtered dup
  return updates;
}

TEST_F(DistributedFixture, BatchedVerdictsMatchPerMessageVerdicts) {
  std::vector<bgp::UpdateMessage> updates = MixedUpdates();

  // (a) the old shape: one update per call.
  auto per_message = MakeUpstreamService();
  uint64_t epoch_a = per_message->TakeCheckpoint(0);
  std::vector<NarrowReply> singles;
  for (const bgp::UpdateMessage& update : updates) {
    singles.push_back(One(*per_message, epoch_a, update));
  }

  // (b) the whole workload in one batch.
  auto batched = MakeUpstreamService();
  ExploratoryBatchRequest request;
  request.checkpoint_epoch = batched->TakeCheckpoint(0);
  request.updates = updates;
  StatusOr<ExploratoryBatchReply> reply = batched->ExecuteBatch(request);
  ASSERT_TRUE(reply.ok()) << reply.status();

  ASSERT_EQ(reply->replies.size(), singles.size());
  for (size_t i = 0; i < singles.size(); ++i) {
    EXPECT_EQ(reply->replies[i], singles[i]) << "verdict diverged at update " << i;
  }
  // The duplicated filtered announcements must have hit the batch-local
  // screen cache instead of re-running ClassifyImport.
  EXPECT_GT(reply->counters.screen_cache_hits, 0u);
  EXPECT_EQ(per_message->clones_made(), batched->clones_made());
  EXPECT_EQ(per_message->clones_avoided(), batched->clones_avoided());
}

TEST_F(DistributedFixture, PureRejectBatchIsZeroCopy) {
  auto service = MakeUpstreamService();
  ExploratoryBatchRequest request;
  request.checkpoint_epoch = service->TakeCheckpoint(0);
  for (int i = 0; i < 8; ++i) {
    request.updates.push_back(Announce("198.51.100.0/24", {3, 1, 100}));
  }
  StatusOr<ExploratoryBatchReply> reply = service->ExecuteBatch(request);
  ASSERT_TRUE(reply.ok()) << reply.status();
  EXPECT_GT(reply->counters.clones_avoided, 0u);
  EXPECT_EQ(reply->counters.clones_materialized, 0u);
  EXPECT_EQ(service->clones_made(), 0u) << "a pure-reject batch must not copy any state";
}

// --- DistributedExplorer end-to-end ------------------------------------------

struct ProviderSetup {
  bgp::RouterState state;
  bgp::PeerView customer_view;
};

// Local (provider) state: no customer filter, one victim route present.
ProviderSetup MakeProvider(const char* victim_prefix) {
  auto config = std::make_shared<bgp::RouterConfig>();
  config->name = "provider";
  config->local_as = 3;
  config->router_id = *bgp::Ipv4Address::Parse("10.0.0.3");
  bgp::NeighborConfig customer;
  customer.address = *bgp::Ipv4Address::Parse("10.0.0.1");
  customer.remote_as = 1;
  config->neighbors.push_back(customer);

  ProviderSetup setup;
  setup.state.config = config;
  bgp::Route victim;
  victim.peer = 9;
  victim.peer_as = 9;
  bgp::PathAttributes victim_attrs;
  victim_attrs.origin = bgp::Origin::kIgp;
  victim_attrs.as_path = bgp::AsPath::Sequence({9, 64500});
  victim.attrs = std::move(victim_attrs);
  setup.state.rib.AddRoute(P(victim_prefix), victim);

  setup.customer_view.id = 1;
  setup.customer_view.remote_as = 1;
  setup.customer_view.address = *bgp::Ipv4Address::Parse("10.0.0.1");
  setup.customer_view.established = true;
  return setup;
}

TEST_F(DistributedFixture, SystemWideConfirmationOfLocalLeak) {
  ProviderSetup provider = MakeProvider("192.0.2.0/24");

  ExplorerOptions options;
  options.concolic.max_runs = 200;
  DistributedExplorer dice(options);
  dice.AddChecker(std::make_unique<HijackChecker>());
  dice.AddRemoteService(MakeUpstreamService());
  dice.TakeCheckpoint(provider.state, {provider.customer_view}, 0);

  bgp::UpdateMessage seed = Announce("10.1.7.0/24", {1, 100});
  dice.ExploreSeed(seed, 1);

  ASSERT_FALSE(dice.local_report().detections.empty());
  // All detections ride to the one remote in a single batch.
  EXPECT_EQ(dice.remote_stats().batches_sent, 1u);
  EXPECT_EQ(dice.remote_stats().updates_sent, dice.local_report().detections.size());
  EXPECT_EQ(dice.remote_stats().replies_received, dice.local_report().detections.size());
  EXPECT_EQ(dice.remote_stats().batch_errors, 0u);
  // The upstream has 192.0.2.0/24 too (same victim), so local findings on it
  // must be confirmed system-wide.
  bool confirmed = false;
  for (const SystemWideDetection& sw : dice.system_wide()) {
    if (sw.local.prefix == P("192.0.2.0/24")) {
      confirmed = true;
      EXPECT_EQ(sw.adopting_domains, (std::vector<std::string>{"upstream"}));
    }
  }
  EXPECT_TRUE(confirmed) << "the 192.0.2.0/24 leak must be confirmed by the remote domain";
  // And the remote's live state is untouched.
  EXPECT_EQ(upstream_router_->rib().BestRoute(P("10.1.7.0/24")), nullptr);
}

// The paper's §2.4: remote domains confirm what the local exploration found.
// A long-lived explorer's second seed ships only that seed's detections, each
// to each domain once, and yields what a fresh explorer of that seed alone
// yields.
TEST_F(DistributedFixture, ConfirmationCoversOnlyTheCurrentSeed) {
  ProviderSetup provider = MakeProvider("192.0.2.0/24");
  auto make_explorer = [&] {
    ExplorerOptions options;
    options.concolic.max_runs = 200;
    auto dice = std::make_unique<DistributedExplorer>(options);
    dice->AddChecker(std::make_unique<HijackChecker>());
    dice->AddRemoteService(MakeUpstreamService());
    dice->TakeCheckpoint(provider.state, {provider.customer_view}, 0);
    return dice;
  };
  auto render = [](const std::vector<SystemWideDetection>& system_wide) {
    std::vector<std::string> out;
    for (const SystemWideDetection& sw : system_wide) {
      std::string line = sw.local.ToString() + " input " + sw.local.input.ToString() + " spread " +
                         std::to_string(sw.total_spread);
      for (const std::string& domain : sw.adopting_domains) {
        line += " " + domain;
      }
      out.push_back(line);
    }
    return out;
  };
  const bgp::UpdateMessage second = Announce("203.0.113.0/24", {1, 64501});

  auto long_lived = make_explorer();
  long_lived->ExploreSeed(Announce("10.1.7.0/24", {1, 100}), 1);
  ASSERT_FALSE(long_lived->local_report().detections.empty());
  long_lived->ExploreSeed(second, 1);
  const ExplorationReport& report = long_lived->local_report();
  ASSERT_FALSE(report.detections.empty());
  const RemoteBatchStats& stats = long_lived->remote_stats();
  EXPECT_EQ(stats.updates_sent, report.detections.size() * long_lived->remote_count());
  EXPECT_EQ(stats.batches_sent, long_lived->remote_count());

  auto fresh = make_explorer();
  fresh->ExploreSeed(second, 1);
  EXPECT_EQ(stats.updates_sent, fresh->remote_stats().updates_sent);
  EXPECT_FALSE(fresh->system_wide().empty());
  EXPECT_EQ(render(long_lived->system_wide()), render(fresh->system_wide()));
}

TEST_F(DistributedFixture, GuardedRemoteNotListedAsAdopting) {
  // The victim here is the prefix the upstream *filters*.
  ProviderSetup provider = MakeProvider("198.51.100.0/24");

  ExplorerOptions options;
  options.concolic.max_runs = 200;
  DistributedExplorer dice(options);
  dice.AddChecker(std::make_unique<HijackChecker>());
  dice.AddRemoteService(MakeUpstreamService());
  dice.TakeCheckpoint(provider.state, {provider.customer_view}, 0);
  dice.ExploreSeed(Announce("10.1.7.0/24", {1, 100}), 1);

  for (const SystemWideDetection& sw : dice.system_wide()) {
    if (sw.local.prefix == P("198.51.100.0/24")) {
      ADD_FAILURE() << "upstream filters this prefix; it cannot be adopting";
    }
  }
}

// The acceptance gate: the same seed explored with (a) the old point-to-point
// call shape (batch_size=1) and (b) full batches must produce identical
// SystemWideDetections, and a wire-round-tripped service must agree too.
TEST_F(DistributedFixture, BatchSizeDoesNotChangeSystemWideDetections) {
  auto explore = [&](std::unique_ptr<ExplorationService> service, size_t batch_size) {
    ProviderSetup provider = MakeProvider("192.0.2.0/24");
    ExplorerOptions options;
    options.concolic.max_runs = 200;
    auto dice = std::make_unique<DistributedExplorer>(options);
    dice->AddChecker(std::make_unique<HijackChecker>());
    dice->AddRemoteService(std::move(service));
    dice->set_remote_batch_size(batch_size);
    dice->TakeCheckpoint(provider.state, {provider.customer_view}, 0);
    dice->ExploreSeed(Announce("10.1.7.0/24", {1, 100}), 1);
    return dice;
  };

  auto single = explore(MakeUpstreamService(), 1);
  auto full = explore(MakeUpstreamService(), 0);
  auto wire = explore(std::make_unique<WireExplorationService>(MakeUpstreamService()), 0);

  ASSERT_FALSE(single->local_report().detections.empty());
  // batch_size=1 is the replayed old shape: one RPC per detection.
  EXPECT_EQ(single->remote_stats().batches_sent,
            single->local_report().detections.size());
  EXPECT_EQ(full->remote_stats().batches_sent, 1u);

  auto same = [](const std::vector<SystemWideDetection>& a,
                 const std::vector<SystemWideDetection>& b) {
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a[i].local.prefix, b[i].local.prefix);
      EXPECT_EQ(a[i].local.input, b[i].local.input);
      EXPECT_EQ(a[i].adopting_domains, b[i].adopting_domains);
      EXPECT_EQ(a[i].total_spread, b[i].total_spread);
    }
  };
  same(single->system_wide(), full->system_wide());
  same(single->system_wide(), wire->system_wide());
  EXPECT_FALSE(full->system_wide().empty());
}

// Pure-reject exploratory traffic must stay zero-copy through the whole
// batched pipeline (the acceptance criterion's clones_avoided > 0).
TEST_F(DistributedFixture, PureRejectBatchThroughExplorerAvoidsClones) {
  ProviderSetup provider = MakeProvider("198.51.100.0/24");

  for (size_t batch_size : {size_t{1}, size_t{0}}) {
    ExplorerOptions options;
    options.concolic.max_runs = 200;
    DistributedExplorer dice(options);
    dice.AddChecker(std::make_unique<HijackChecker>());
    dice.AddRemoteService(MakeUpstreamService());
    dice.set_remote_batch_size(batch_size);
    dice.TakeCheckpoint(provider.state, {provider.customer_view}, 0);
    dice.ExploreSeed(Announce("10.1.7.0/24", {1, 100}), 1);

    ASSERT_FALSE(dice.local_report().detections.empty());
    // Every detection names the guarded prefix, which the upstream filters:
    // the whole remote confirmation pass must not copy any state.
    EXPECT_GT(dice.remote_stats().counters.clones_avoided, 0u)
        << "batch_size=" << batch_size;
    EXPECT_EQ(dice.remote_stats().counters.clones_materialized, 0u)
        << "batch_size=" << batch_size;
    EXPECT_TRUE(dice.system_wide().empty());
  }
}

// End-to-end through real serialized bytes: the wire service's counters prove
// every request and reply crossed the byte boundary.
TEST_F(DistributedFixture, WireServiceRoundTripsEveryBatch) {
  ProviderSetup provider = MakeProvider("192.0.2.0/24");

  auto wire = std::make_unique<WireExplorationService>(MakeUpstreamService());
  WireExplorationService* wire_ptr = wire.get();

  ExplorerOptions options;
  options.concolic.max_runs = 200;
  DistributedExplorer dice(options);
  dice.AddChecker(std::make_unique<HijackChecker>());
  dice.AddRemoteService(std::move(wire));
  dice.TakeCheckpoint(provider.state, {provider.customer_view}, 0);
  dice.ExploreSeed(Announce("10.1.7.0/24", {1, 100}), 1);

  ASSERT_FALSE(dice.local_report().detections.empty());
  EXPECT_FALSE(dice.system_wide().empty());
  EXPECT_EQ(wire_ptr->rpcs(), dice.remote_stats().batches_sent);
  EXPECT_GT(wire_ptr->rpcs(), 0u);
  EXPECT_GT(wire_ptr->request_bytes(), 0u);
  EXPECT_GT(wire_ptr->reply_bytes(), 0u);
  EXPECT_EQ(dice.remote_stats().batch_errors, 0u);
}

}  // namespace
}  // namespace dice
