#include "src/checkpoint/checkpoint.h"

#include <unordered_set>

#include "src/bgp/attr_intern.h"
#include "src/util/logging.h"
#include "src/util/strings.h"

namespace dice::checkpoint {

std::string MemoryStats::ToString() const {
  return StrFormat(
      "nodes total=%zu shared=%zu unique=%zu | bytes total=%zu unique=%zu "
      "(attrs %zu/%zu) | pages total=%zu unique=%zu (%.2f%% unique)",
      total_nodes, shared_nodes, unique_nodes, total_bytes, unique_bytes,
      attr_bytes_unique, attr_bytes_total, total_pages, unique_pages,
      UniquePageFraction() * 100.0);
}

namespace {

// Collects every interned attribute set the reference state can reach; an
// attribute set in `state` that also appears here is shared storage no matter
// which trie node points at it.
void CollectAttrs(const bgp::RouterState& reference,
                  std::unordered_set<const bgp::PathAttributes*>& reachable) {
  reference.rib.Walk([&](const bgp::Prefix&, const bgp::RibEntry& entry) {
    for (const bgp::Route& route : entry.routes) {
      reachable.insert(&route.attrs.get());
    }
    return true;
  });
  for (const auto& [peer, trie] : reference.adj_out) {
    trie.Walk([&](const bgp::Prefix&, const bgp::InternedAttrs& attrs) {
      reachable.insert(&attrs.get());
      return true;
    });
  }
}

}  // namespace

MemoryStats ComputeSharing(const bgp::RouterState& state, const bgp::RouterState& reference) {
  MemoryStats stats;

  // Determinism audit: reference_attrs/counted_attrs are membership-tested
  // only, never iterated; all Walk/adj_out traversals below run in trie /
  // std::map key order, so the stats are independent of hash layout.
  // dice_lint's unordered-iteration check keeps it that way.
  std::unordered_set<const bgp::PathAttributes*> reference_attrs;
  CollectAttrs(reference, reference_attrs);

  // Each distinct interned attribute set is charged once, to the unique side
  // only if the reference state references it nowhere.
  std::unordered_set<const bgp::PathAttributes*> counted_attrs;
  auto charge_attrs = [&](const bgp::InternedAttrs& attrs) {
    const bgp::PathAttributes* p = &attrs.get();
    if (!counted_attrs.insert(p).second) {
      return;
    }
    size_t bytes = bgp::AttrsHeapBytes(*p);
    stats.attr_bytes_total += bytes;
    if (reference_attrs.count(p) == 0) {
      stats.attr_bytes_unique += bytes;
    }
  };

  auto accumulate = [&stats](auto sharing, size_t node_bytes) {
    stats.total_nodes += sharing.total_nodes;
    stats.shared_nodes += sharing.shared_nodes;
    stats.unique_nodes += sharing.unique_nodes;
    stats.total_bytes += sharing.total_nodes * node_bytes;
    stats.unique_bytes += sharing.unique_nodes * node_bytes;
  };

  accumulate(state.rib.trie().SharingWith(
                 reference.rib.trie(),
                 [&](const bgp::RibEntry& entry, bool shared) {
                   // The route vector's heap belongs to the trie node that
                   // owns it: unique node -> unique bytes.
                   size_t bytes = entry.routes.size() * sizeof(bgp::Route);
                   stats.total_bytes += bytes;
                   if (!shared) {
                     stats.unique_bytes += bytes;
                   }
                   for (const bgp::Route& route : entry.routes) {
                     charge_attrs(route.attrs);
                   }
                 }),
             bgp::PrefixTrie<bgp::RibEntry>::kNodeBytes);

  static const bgp::PrefixTrie<bgp::InternedAttrs> kEmptyAdjOut;
  for (const auto& [peer, trie] : state.adj_out) {
    auto ref = reference.adj_out.find(peer);
    const bgp::PrefixTrie<bgp::InternedAttrs>& against =
        ref != reference.adj_out.end() ? ref->second : kEmptyAdjOut;
    accumulate(trie.SharingWith(against,
                                [&](const bgp::InternedAttrs& attrs, bool) {
                                  charge_attrs(attrs);
                                }),
               bgp::PrefixTrie<bgp::InternedAttrs>::kNodeBytes);
  }

  stats.total_bytes += stats.attr_bytes_total;
  stats.unique_bytes += stats.attr_bytes_unique;
  stats.total_pages = (stats.total_bytes + kPageSize - 1) / kPageSize;
  stats.unique_pages = (stats.unique_bytes + kPageSize - 1) / kPageSize;
  if (stats.unique_bytes == 0) {
    stats.unique_pages = 0;
  }
  return stats;
}

size_t CloneCostBytes(const bgp::RouterState& state) {
  // One std::map node per Adj-RIB-Out peer: the pair payload plus the
  // three-pointers-and-a-color red-black bookkeeping (approximate).
  constexpr size_t kMapNodeOverhead = 4 * sizeof(void*);
  using AdjOutEntry = std::pair<const bgp::PeerId, bgp::PrefixTrie<bgp::InternedAttrs>>;
  return sizeof(bgp::RouterState) +
         state.adj_out.size() * (sizeof(AdjOutEntry) + kMapNodeOverhead);
}

bgp::RouterState& CloneHandle::Mutable() {
  if (borrowed_ != nullptr) {
    return *borrowed_;
  }
  if (!owned_.has_value()) {
    owned_ = *base_;  // the eager copy, deferred to the first write
    if (manager_ != nullptr) {
      manager_->NoteMaterialized();
    }
  }
  return *owned_;
}

const Checkpoint& CheckpointManager::Take(const bgp::RouterState& state,
                                          std::vector<bgp::PeerView> peers, net::SimTime now) {
  current_.state = state;  // O(1): trie roots + shared config pointer
  current_.peers = std::move(peers);
  current_.taken_at = now;
  current_.id = next_id_++;
  have_ = true;
  return current_;
}

const Checkpoint& CheckpointManager::current() const {
  DICE_CHECK(have_) << "no checkpoint taken";
  return current_;
}

bgp::RouterState CheckpointManager::Clone() const {
  DICE_CHECK(have_) << "no checkpoint taken";
  ++clones_made_;
  bytes_cloned_ += CloneCostBytes(current_.state);
  return current_.state;
}

CloneHandle CheckpointManager::CloneLazy() const {
  DICE_CHECK(have_) << "no checkpoint taken";
  ++lazy_clones_issued_;
  return CloneHandle(&current_.state, this);
}

void CheckpointManager::NoteMaterialized() const {
  ++clones_made_;
  ++clones_materialized_;
  bytes_cloned_ += CloneCostBytes(current_.state);
}

MemoryStats CheckpointManager::CheckpointSharing(const bgp::RouterState& live) const {
  DICE_CHECK(have_);
  return ComputeSharing(current_.state, live);
}

MemoryStats CheckpointManager::CloneSharing(const bgp::RouterState& clone) const {
  DICE_CHECK(have_);
  return ComputeSharing(clone, current_.state);
}

}  // namespace dice::checkpoint
