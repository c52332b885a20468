// The router's UPDATE-processing core, factored out of the Router class so
// that DiCE exploration clones can run *the same code* over a checkpointed
// RouterState with an intercepting message sink — the paper's requirement that
// exploration exercises the real message-handling path in isolation (§2.3).
//
// Pipeline per announced prefix (RFC 4271 §9):
//   sanity (AS-path loop, own-route) -> import filter -> Adj-RIB-In/Loc-RIB
//   (decision process) -> per-peer export filter -> Adj-RIB-Out delta ->
//   UPDATE/withdraw emission.

#ifndef SRC_BGP_UPDATE_PROCESSING_H_
#define SRC_BGP_UPDATE_PROCESSING_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <vector>

#include "src/bgp/config.h"
#include "src/bgp/message.h"
#include "src/bgp/rib.h"

namespace dice::bgp {

// Live state a checkpoint must capture. Copying a RouterState is cheap: the
// RIB and Adj-RIB-Out tries share structure copy-on-write, and the config is
// an immutable shared pointer.
struct RouterState {
  std::shared_ptr<const RouterConfig> config;
  Rib rib;
  // What has been advertised to each peer (prefix -> interned attributes as
  // sent). Interning makes the per-entry payload one 8-byte handle.
  std::map<PeerId, PrefixTrie<InternedAttrs>> adj_out;

  // Statistics (cheap, copied with the state).
  uint64_t updates_processed = 0;
  uint64_t routes_announced_in = 0;
  uint64_t routes_withdrawn_in = 0;
  uint64_t routes_accepted = 0;
  uint64_t routes_filtered = 0;
  uint64_t routes_loop_rejected = 0;
};

// A peer as the update processor sees it: identity plus session liveness.
struct PeerView {
  PeerId id = 0;
  AsNumber remote_as = 0;
  Ipv4Address address;
  bool established = false;
};

// Where produced messages go: the live router sends them on the network; a
// DiCE clone's sink records them (isolation).
using UpdateSink = std::function<void(PeerId to, const UpdateMessage& update)>;

enum class ImportDisposition : uint8_t {
  kAccepted,
  kFilteredOut,
  kLoopRejected,
  kMartianRejected,
};

struct ImportOutcome {
  ImportDisposition disposition = ImportDisposition::kFilteredOut;
  RibUpdateResult rib;
};

// Returns true for prefixes a router must never accept from a peer
// (host loopback, multicast/class-E, default route).
bool IsMartian(const Prefix& prefix);

// Read-only import classification: the disposition ImportRoute would assign,
// plus (on accept) the post-filter attributes, interned. This is the screen
// lazy exploration clones use to decide whether a run mutates state at all —
// a rejected announcement never needs the clone materialized.
struct ImportClassification {
  ImportDisposition disposition = ImportDisposition::kFilteredOut;
  InternedAttrs attrs;  // meaningful only when disposition == kAccepted
};
ImportClassification ClassifyImport(const RouterState& state, const NeighborConfig& neighbor,
                                    const Prefix& prefix, const PathAttributes& attrs);

// Imports one announced route from `peer`. Applies loop detection and the
// neighbor's import policy (via ClassifyImport), then updates the RIB.
ImportOutcome ImportRoute(RouterState& state, const PeerView& peer,
                          const NeighborConfig& neighbor, const Prefix& prefix,
                          const PathAttributes& attrs);

// Computes the attributes `state` would export to `neighbor` for `route`,
// or nullopt if the export policy rejects it. Applies eBGP export rules:
// prepend own AS, set next-hop to `own_address`, strip LOCAL_PREF and MED.
// The result is interned, so Adj-RIB-Out comparison is pointer equality.
std::optional<InternedAttrs> ExportAttributes(const RouterState& state,
                                              const NeighborConfig& neighbor,
                                              Ipv4Address own_address, const Prefix& prefix,
                                              const Route& route);

// Recomputes the Adj-RIB-Out entry for (`peer`, `prefix`) after a Loc-RIB
// change and emits the resulting UPDATE or withdraw through `sink`.
// Split horizon: the best route is never advertised back to the peer it was
// learned from.
void SyncAdjOut(RouterState& state, const PeerView& peer, const NeighborConfig& neighbor,
                Ipv4Address own_address, const Prefix& prefix, const UpdateSink& sink);

// Processes one inbound UPDATE from `from`: withdrawals, announcements, and
// propagation of every Loc-RIB change to all established peers in `peers`.
void ProcessUpdate(RouterState& state, const std::vector<PeerView>& peers, const PeerView& from,
                   const NeighborConfig& from_neighbor, const UpdateMessage& update,
                   const UpdateSink& sink);

// Originates the configured `network` prefixes into the RIB (empty AS path,
// origin IGP) and propagates to established peers.
void OriginateNetworks(RouterState& state, const std::vector<PeerView>& peers,
                       Ipv4Address own_address, const UpdateSink& sink);

// Announces the full current Adj-RIB-Out to a newly established peer.
void AnnounceAllTo(RouterState& state, const PeerView& peer, const NeighborConfig& neighbor,
                   Ipv4Address own_address, const UpdateSink& sink);

// Flushes everything learned from a lost peer and propagates the fallout.
void HandlePeerDown(RouterState& state, const std::vector<PeerView>& peers, PeerId lost_peer,
                    Ipv4Address own_address, const UpdateSink& sink);

}  // namespace dice::bgp

#endif  // SRC_BGP_UPDATE_PROCESSING_H_
