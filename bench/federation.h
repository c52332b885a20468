// Shared federation fixtures for the RPC benches (F1e in
// bench_path_exploration, F1i in bench_rpc_transport): the remote domain the
// narrow interface fans out to, and the deterministic adversarial input mix
// replayed against it. Both benches must measure the same workload so their
// numbers compose — per-message vs batched (F1e) and in-process vs real
// socket (F1i) are two cuts through one cost model.

#ifndef BENCH_FEDERATION_H_
#define BENCH_FEDERATION_H_

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/dice/exploration_service.h"
#include "src/util/logging.h"
#include "src/util/rng.h"

namespace dice::bench {

// One remote domain: filters the foreign space the adversarial input mix
// announces (so most updates are zero-copy rejects), holds victim routes in
// the legit space (so accepted updates produce origin-change verdicts), and
// has a second configured peer so adopted routes show spread.
inline std::unique_ptr<InProcessExplorationService> MakeFederationDomain(size_t index) {
  bgp::RouterConfig config;
  std::string name = "domain" + std::to_string(index);
  config.name = name;
  config.local_as = static_cast<bgp::AsNumber>(100 + index);
  config.router_id = bgp::Ipv4Address(0x0a0000c8u + static_cast<uint32_t>(index));

  bgp::PrefixList guarded;
  guarded.name = "guarded";
  guarded.entries.push_back(bgp::PrefixListEntry{*bgp::Prefix::Parse("85.0.0.0/8"), 0, 32});
  DICE_CHECK(config.policies.AddPrefixList(std::move(guarded)).ok());
  bgp::Filter filter;
  filter.name = "block-foreign";
  bgp::FilterTerm deny;
  bgp::Match match;
  match.kind = bgp::MatchKind::kPrefixInList;
  match.list_name = "guarded";
  deny.matches.push_back(match);
  bgp::Action reject;
  reject.kind = bgp::ActionKind::kReject;
  deny.actions.push_back(reject);
  filter.terms.push_back(deny);
  filter.default_accept = true;
  DICE_CHECK(config.policies.AddFilter(std::move(filter)).ok());

  bgp::NeighborConfig from_provider;
  from_provider.address = *bgp::Ipv4Address::Parse("10.0.0.3");
  from_provider.remote_as = 3;
  from_provider.import_filter = "block-foreign";
  config.neighbors.push_back(from_provider);
  bgp::NeighborConfig downstream;
  downstream.address = *bgp::Ipv4Address::Parse("10.0.0.99");
  downstream.remote_as = 99;
  config.neighbors.push_back(downstream);

  bgp::RouterState state;
  state.config = std::make_shared<const bgp::RouterConfig>(std::move(config));
  for (uint32_t i = 0; i < 64; ++i) {
    bgp::Route victim;
    victim.peer = 9;
    victim.peer_as = 9;
    bgp::PathAttributes attrs;
    attrs.origin = bgp::Origin::kIgp;
    attrs.as_path = bgp::AsPath::Sequence({9, static_cast<bgp::AsNumber>(64500 + i)});
    attrs.next_hop = *bgp::Ipv4Address::Parse("10.0.0.9");
    victim.attrs = std::move(attrs);
    state.rib.AddRoute(bgp::Prefix::Make(bgp::Ipv4Address(0x0a010000u + (i << 8)), 24),
                       victim);
  }

  bgp::PeerView provider_view;
  provider_view.id = 1;
  provider_view.remote_as = 3;
  provider_view.address = *bgp::Ipv4Address::Parse("10.0.0.3");
  provider_view.established = true;
  bgp::PeerView downstream_view;
  downstream_view.id = 2;
  downstream_view.remote_as = 99;
  downstream_view.address = *bgp::Ipv4Address::Parse("10.0.0.99");
  downstream_view.established = true;

  return std::make_unique<InProcessExplorationService>(
      std::move(name), std::move(state),
      std::vector<bgp::PeerView>{provider_view, downstream_view}, provider_view.id);
}

// The same domain behind the wire codec (serialized requests and replies, no
// process boundary) — the F1e shape, and F1i's in-process baseline.
inline std::unique_ptr<WireExplorationService> MakeWireFederationDomain(size_t index) {
  return std::make_unique<WireExplorationService>(MakeFederationDomain(index));
}

// Deterministic steady-state input mix: mostly foreign-space announcements
// the domain's filter rejects (the adversarial posture), a few legitimate
// customer prefixes that are accepted and propagate.
inline std::vector<bgp::UpdateMessage> MakeFederationInputs(uint64_t count,
                                                            uint64_t seed) {
  Rng rng(seed ^ 0xf1dULL);
  std::vector<bgp::UpdateMessage> inputs;
  inputs.reserve(count);
  for (uint64_t i = 0; i < count; ++i) {
    bgp::UpdateMessage u;
    u.attrs.origin = bgp::Origin::kIgp;
    u.attrs.as_path = bgp::AsPath::Sequence(
        {1, static_cast<bgp::AsNumber>(1 + rng.NextBelow(65000))});
    u.attrs.next_hop = *bgp::Ipv4Address::Parse("10.0.0.1");
    uint32_t addr;
    if (rng.NextBelow(8) == 0) {
      // Legitimate customer space (10.1.0.0/16): accepted, mutates the clone.
      addr = 0x0a010000u | (static_cast<uint32_t>(rng.NextBelow(256)) << 8);
    } else {
      // Foreign space outside the customer list and outside martian ranges.
      addr = 0x55000000u + (static_cast<uint32_t>(rng.NextBelow(1 << 16)) << 8);
    }
    u.nlri.push_back(bgp::Prefix::Make(bgp::Ipv4Address(addr), 24));
    inputs.push_back(std::move(u));
  }
  return inputs;
}

}  // namespace dice::bench

#endif  // BENCH_FEDERATION_H_
