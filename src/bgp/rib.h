// Routing Information Bases and the BGP decision process (RFC 4271 §9).
//
// The Rib keeps, per prefix, every candidate route learned from any peer
// (the union of the Adj-RIBs-In) plus which candidate the decision process
// selected (the Loc-RIB view). It is built on the copy-on-write PrefixTrie so
// a whole-RIB snapshot is O(1) and clones share structure — the property
// DiCE's checkpointing depends on.

#ifndef SRC_BGP_RIB_H_
#define SRC_BGP_RIB_H_

#include <cstdint>
#include <limits>
#include <optional>
#include <string>
#include <vector>

#include "src/bgp/attr_intern.h"
#include "src/bgp/message.h"
#include "src/bgp/prefix_trie.h"

namespace dice::bgp {

// Identifies the peering a route was learned from. kLocalPeer marks routes the
// router originates itself (network statements).
using PeerId = uint32_t;
constexpr PeerId kLocalPeer = 0;

struct Route {
  PeerId peer = kLocalPeer;
  AsNumber peer_as = 0;  // neighbor AS the route was learned from (0 = local)
  // Interned: copying a Route is O(1), and attrs comparison is pointer
  // equality. Mutation sites build a PathAttributes and assign it.
  InternedAttrs attrs;
  uint64_t sequence = 0;  // arrival order; newer replaces older from same peer

  friend bool operator==(const Route&, const Route&) = default;
};

// All candidates for one prefix; `best` indexes the decision-process winner.
struct RibEntry {
  static constexpr size_t kNoBest = std::numeric_limits<size_t>::max();

  std::vector<Route> routes;
  size_t best = kNoBest;

  const Route* BestRoute() const { return best == kNoBest ? nullptr : &routes[best]; }
};

// Default LOCAL_PREF when a route carries none (RFC 4271 §9.1.1 leaves this to
// configuration; 100 is the universal default).
constexpr uint32_t kDefaultLocalPref = 100;

// Returns true if `a` is preferred over `b` by the decision process:
// higher LOCAL_PREF, then shorter AS path, then lower ORIGIN, then lower MED
// (compared only between routes from the same neighbor AS), then lower peer id
// (stand-in for the lowest-BGP-identifier tie break).
bool RoutePreferred(const Route& a, const Route& b);

// Outcome of applying one route change to the RIB.
struct RibUpdateResult {
  bool best_changed = false;                 // Loc-RIB selection changed for the prefix
  std::optional<Route> previous_best;        // set if there was a previous selection
  std::optional<Route> new_best;             // set if there is a selection now
};

class Rib {
 public:
  Rib() = default;

  // O(1) structural snapshot (copy-on-write afterwards).
  Rib Snapshot() const { return *this; }

  // Installs or replaces `route` for `prefix` (replacing any previous route
  // from the same peer — BGP implicit withdraw) and re-runs the decision
  // process for that prefix.
  RibUpdateResult AddRoute(const Prefix& prefix, Route route);

  // Removes the route for `prefix` learned from `peer`, if any.
  RibUpdateResult RemoveRoute(const Prefix& prefix, PeerId peer);

  // Removes every route learned from `peer` (session loss). Returns the
  // prefixes whose best route changed.
  std::vector<Prefix> RemovePeer(PeerId peer);

  // Current selection for `prefix`, or nullptr.
  const Route* BestRoute(const Prefix& prefix) const;

  // The whole entry for `prefix` (candidates + selection), or nullptr — the
  // zero-copy way to inspect a prefix's state.
  const RibEntry* Entry(const Prefix& prefix) const { return trie_.Find(prefix); }

  // All candidates for `prefix` (a view into the entry; empty if none).
  // Never copies routes: the reference stays valid until the next mutation.
  const std::vector<Route>& Candidates(const Prefix& prefix) const;

  // Longest-prefix-match forwarding lookup against Loc-RIB selections.
  std::optional<std::pair<Prefix, Route>> Lookup(Ipv4Address addr) const;

  // Walks (prefix, entry) in prefix order.
  void Walk(const std::function<bool(const Prefix&, const RibEntry&)>& fn) const {
    trie_.Walk(fn);
  }

  size_t PrefixCount() const { return trie_.size(); }
  size_t NodeCount() const { return trie_.NodeCount(); }

  using Trie = PrefixTrie<RibEntry>;
  const Trie& trie() const { return trie_; }

  // Snapshot restore (src/persist): adopts a trie of fully-formed entries
  // (built in walk order by Trie::Builder) and the sequence counter verbatim
  // — no reselection, no sequence assignment — so a loaded RIB is
  // bit-identical to the persisted one. Ordinary mutation must go through
  // AddRoute.
  static Rib Restore(Trie trie, uint64_t next_sequence) {
    Rib rib;
    rib.trie_ = std::move(trie);
    rib.next_sequence_ = next_sequence;
    return rib;
  }
  uint64_t next_sequence() const { return next_sequence_; }

 private:
  // Recomputes `entry.best`; returns the result bookkeeping.
  static RibUpdateResult Reselect(RibEntry& entry, std::optional<Route> previous_best);

  Trie trie_;
  uint64_t next_sequence_ = 1;
};

}  // namespace dice::bgp

#endif  // SRC_BGP_RIB_H_
