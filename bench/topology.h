// The experimental topology of the paper's Figure 2 (F2):
//
//     Customer(s) ----(customer-provider link)---- Provider ---- Rest of the
//        AS 1                                    AS 3 (DiCE)      Internet
//                                                                 (feed, AS 65000)
//
// The provider is the DiCE-enabled router. It loads a full synthetic
// RouteViews-style table from the feed and applies (possibly misconfigured)
// customer route filtering on the customer session — the setup every
// evaluation bench (E1-E4) runs on.

#ifndef BENCH_TOPOLOGY_H_
#define BENCH_TOPOLOGY_H_

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>

#include "src/bgp/router.h"
#include "src/trace/feed.h"
#include "src/trace/trace.h"
#include "src/util/logging.h"

namespace dice::bench {

// Which customer-filtering mistake the provider is configured with (§4.2:
// "its policy either fails to filter customer routes or has erroneous
// filters").
enum class Misconfig {
  kCorrect,         // proper customer prefix-list; the negative control
  kErroneousEntry,  // fat-fingered extra prefix-list entry leaking foreign space
  kTooBroad,        // a filter term matching far more than the customer owns
  kNoFilter,        // no customer filtering at all (the PCCW mistake)
};

inline const char* MisconfigName(Misconfig m) {
  switch (m) {
    case Misconfig::kCorrect:
      return "correct-filter";
    case Misconfig::kErroneousEntry:
      return "erroneous-entry";
    case Misconfig::kTooBroad:
      return "too-broad-term";
    case Misconfig::kNoFilter:
      return "no-filter";
  }
  return "?";
}

struct Fig2Options {
  size_t prefixes = 50000;   // paper scale: 319355 (pass --prefixes=319355)
  uint64_t seed = 1;
  Misconfig misconfig = Misconfig::kErroneousEntry;
  // Victim space the misconfiguration exposes (the YouTube /22 by default).
  const char* victim_space = "208.65.152.0/22";
  // Total customer /16 blocks in the prefix-list (10.1.0.0/16, 10.2.0.0/16,
  // ...). More entries mean more symbolic range checks per explored UPDATE —
  // the "multi-entry customer filter" knob of the exploration benches.
  size_t filter_entries = 1;
};

class Fig2 {
 public:
  static constexpr net::NodeId kCustomerNode = 1;
  static constexpr net::NodeId kProviderNode = 2;
  static constexpr net::NodeId kFeedNode = 3;

  explicit Fig2(const Fig2Options& options)
      : options_(options), net_(&loop_), generator_(MakeGeneratorOptions(options)) {
    // --- Provider (the DiCE-enabled router) --------------------------------
    bgp::RouterConfig provider;
    provider.name = "provider";
    provider.local_as = 3;
    provider.router_id = *bgp::Ipv4Address::Parse("10.0.0.3");

    bgp::PrefixList customers;
    customers.name = "customers";
    // 10.1/16 .. 10.254/16 at most: the second octet must stay a valid byte.
    const size_t entry_count = std::clamp<size_t>(options.filter_entries, 1, 254);
    for (size_t k = 0; k < entry_count; ++k) {
      std::string block = "10." + std::to_string(1 + k) + ".0.0/16";
      customers.entries.push_back(bgp::PrefixListEntry{*bgp::Prefix::Parse(block), 0, 24});
    }
    if (options.misconfig == Misconfig::kErroneousEntry) {
      // The fat-fingered entry: the victim's space in the *customer* list.
      customers.entries.push_back(
          bgp::PrefixListEntry{*bgp::Prefix::Parse(options.victim_space), 0, 24});
    }
    DICE_CHECK(provider.policies.AddPrefixList(std::move(customers)).ok());

    bgp::Filter filter = bgp::MakeCustomerImportFilter("customer-in", "customers");
    if (options.misconfig == Misconfig::kTooBroad) {
      // An extra term accepting a huge range (e.g. a /6 instead of a /22).
      bgp::FilterTerm broad;
      broad.name = "broad-mistake";
      bgp::Match m;
      m.kind = bgp::MatchKind::kPrefixWithin;
      m.prefix = *bgp::Prefix::Parse("192.0.0.0/6");
      broad.matches.push_back(m);
      bgp::Action accept_action;
      accept_action.kind = bgp::ActionKind::kAccept;
      broad.actions.push_back(accept_action);
      filter.terms.insert(filter.terms.begin() + 1, std::move(broad));
    }
    DICE_CHECK(provider.policies.AddFilter(std::move(filter)).ok());

    bgp::NeighborConfig customer_neighbor;
    customer_neighbor.address = *bgp::Ipv4Address::Parse("10.0.0.1");
    customer_neighbor.remote_as = 1;
    if (options.misconfig != Misconfig::kNoFilter) {
      customer_neighbor.import_filter = "customer-in";
    }
    provider.neighbors.push_back(customer_neighbor);

    bgp::NeighborConfig feed_neighbor;
    feed_neighbor.address = *bgp::Ipv4Address::Parse("10.0.0.9");
    feed_neighbor.remote_as = 65000;
    provider.neighbors.push_back(feed_neighbor);

    // --- Customer -----------------------------------------------------------
    bgp::RouterConfig customer;
    customer.name = "customer";
    customer.local_as = 1;
    customer.router_id = *bgp::Ipv4Address::Parse("10.0.0.1");
    customer.networks.push_back(*bgp::Prefix::Parse("10.1.7.0/24"));
    customer.networks.push_back(*bgp::Prefix::Parse("10.1.8.0/24"));
    bgp::NeighborConfig upstream;
    upstream.address = *bgp::Ipv4Address::Parse("10.0.0.3");
    upstream.remote_as = 3;
    customer.neighbors.push_back(upstream);

    customer_ = std::make_unique<bgp::Router>(kCustomerNode, std::move(customer), &net_);
    provider_ = std::make_unique<bgp::Router>(kProviderNode, std::move(provider), &net_);
    feed_ = std::make_unique<trace::BgpFeedNode>(kFeedNode, "internet", 65000,
                                                 *bgp::Ipv4Address::Parse("10.0.0.9"), &net_);

    net_.AddNode(customer_.get());
    net_.AddNode(provider_.get());
    net_.AddNode(feed_.get());

    customer_->RegisterPeerNode(*bgp::Ipv4Address::Parse("10.0.0.3"), kProviderNode);
    provider_->RegisterPeerNode(*bgp::Ipv4Address::Parse("10.0.0.1"), kCustomerNode);
    provider_->RegisterPeerNode(*bgp::Ipv4Address::Parse("10.0.0.9"), kFeedNode);
    feed_->SetPeer(kProviderNode);

    customer_->Start();
    provider_->Start();
    net_.Connect(kCustomerNode, kProviderNode, net::kMillisecond);
    net_.Connect(kProviderNode, kFeedNode, net::kMillisecond);
    loop_.RunFor(5 * net::kSecond);
    DICE_CHECK(provider_->Established(kCustomerNode));
    DICE_CHECK(provider_->Established(kFeedNode));
  }

  // Replays the full-table dump ("loads 319,355 prefixes from the rest of the
  // Internet", §4) into the provider. Returns UPDATE messages processed.
  //
  // Note: the loop is run for bounded simulated time, not drained — session
  // keepalive timers re-arm forever, so an unbounded Run() never returns.
  size_t LoadTable() {
    trace::Trace dump = generator_.FullDump();
    trace::ScheduleTrace(&net_, feed_.get(), dump, loop_.now());
    loop_.RunFor(20 * net::kSecond);
    return dump.events.size();
  }

  // Runs the simulation for `duration`, letting in-flight traffic settle.
  void Settle(net::SimTime duration = 5 * net::kSecond) { loop_.RunFor(duration); }

  // A 15-minute (or custom) low-rate update trace, as in the paper.
  trace::Trace MakeUpdateTrace() { return generator_.UpdateTrace(); }

  // The seed input DiCE explores: the customer's most recent UPDATE.
  bgp::UpdateMessage CustomerSeedUpdate() const {
    auto it = provider_->last_updates().find(kCustomerNode);
    if (it != provider_->last_updates().end() && !it->second.nlri.empty()) {
      return it->second;
    }
    bgp::UpdateMessage seed;
    seed.attrs.origin = bgp::Origin::kIgp;
    seed.attrs.as_path = bgp::AsPath::Sequence({1, 100});
    seed.attrs.next_hop = *bgp::Ipv4Address::Parse("10.0.0.1");
    seed.nlri.push_back(*bgp::Prefix::Parse("10.1.7.0/24"));
    return seed;
  }

  net::EventLoop& loop() { return loop_; }
  net::Network& net() { return net_; }
  bgp::Router& provider() { return *provider_; }
  bgp::Router& customer() { return *customer_; }
  trace::BgpFeedNode& feed() { return *feed_; }
  trace::TraceGenerator& generator() { return generator_; }
  const Fig2Options& options() const { return options_; }

 private:
  static trace::TraceGeneratorOptions MakeGeneratorOptions(const Fig2Options& options) {
    trace::TraceGeneratorOptions gen;
    gen.seed = options.seed;
    gen.prefix_count = options.prefixes;
    return gen;
  }

  Fig2Options options_;
  net::EventLoop loop_;
  net::Network net_;
  trace::TraceGenerator generator_;
  std::unique_ptr<bgp::Router> customer_;
  std::unique_ptr<bgp::Router> provider_;
  std::unique_ptr<trace::BgpFeedNode> feed_;
};

}  // namespace dice::bench

#endif  // BENCH_TOPOLOGY_H_
