// Copy-on-write path-compressed binary trie keyed by IPv4 prefix.
//
// This is both the router's RIB data structure (longest-prefix match, exact
// match, ordered walk) and the mechanism behind DiCE's cheap checkpoints: a
// snapshot is one handle copy, and mutations path-copy only the nodes on the
// way to the change while everything else stays structurally shared — the
// user-space analogue of fork()'s copy-on-write pages that the paper's §4.1
// memory measurements rely on, so the size of a node is checkpoint memory.
//
// Layout. Each node is one heap allocation,
// {std::atomic<uint32_t> refs; Prefix key; NodePtr child[2]; std::optional<V>
// value}, where NodePtr is an 8-byte handle to a child node and `refs` counts
// the handles (tries and parent nodes) that hold the node: 72 bytes for a
// RibEntry node, 48 for an Adj-RIB-Out node.
//
// Count protocol (the guarantee std::shared_ptr gives, so a snapshot may be
// copied or dropped on another thread than the one mutating its original):
//   - copying a handle is a relaxed increment;
//   - dropping one is an acq_rel decrement, and the drop that reaches zero
//     frees the node (which drops its children in turn);
//   - a mutation owns each node on its path first (Own): it writes a node in
//     place only when an acquire load reads refs == 1 — no snapshot can see
//     it — and otherwise swaps a shallow copy (children shared) into the
//     slot. A non-snapshotted trie therefore behaves like an ordinary mutable
//     radix tree.
//
// Sharing statistics between two tries (SharingStats) are exact, by pointer
// identity, and feed the checkpoint PageAccountant.
//
// Ordered construction. A Builder takes entries in walk order (Prefix's <=>:
// address, then length) and keeps the right spine of what it has built: the
// nodes from the root to the last key. Each key goes under the deepest spine
// node that covers it — as that node's empty right child, or above the
// subtree in that slot at a new fork node — so an entry costs amortized O(1)
// where Insert descends from the root. A path-compressed binary trie is
// unique for its key set, so the result is node for node the trie that
// Inserts of the same entries build. Snapshot restore (src/persist) uses it.

#ifndef SRC_BGP_PREFIX_TRIE_H_
#define SRC_BGP_PREFIX_TRIE_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <optional>
#include <unordered_set>
#include <utility>
#include <vector>

#include "src/bgp/ip.h"
#include "src/util/logging.h"

namespace dice::bgp {

template <typename V>
class PrefixTrie {
  struct Node;

  // An owning handle to one node: copying it shares the node, destroying it
  // drops a reference (see the count protocol above).
  class NodePtr {
   public:
    NodePtr() = default;
    // Adopts a node fresh from `new` (refs == 1).
    explicit NodePtr(Node* node) : node_(node) {}
    NodePtr(const NodePtr& other) noexcept : node_(other.node_) { Retain(node_); }
    NodePtr(NodePtr&& other) noexcept : node_(std::exchange(other.node_, nullptr)) {}
    NodePtr& operator=(const NodePtr& other) noexcept {
      Retain(other.node_);  // before the release: safe on self-assignment
      Release(std::exchange(node_, other.node_));
      return *this;
    }
    NodePtr& operator=(NodePtr&& other) noexcept {
      Release(std::exchange(node_, std::exchange(other.node_, nullptr)));
      return *this;
    }
    ~NodePtr() { Release(node_); }

    Node* get() const { return node_; }
    Node& operator*() const { return *node_; }
    Node* operator->() const { return node_; }
    friend bool operator==(const NodePtr& p, std::nullptr_t) { return p.node_ == nullptr; }

    // True when this handle is the node's only holder, so it may be written
    // in place. The acquire pairs with the release half of the drops that
    // brought refs down to 1: their reads of the node happen before our writes.
    bool unique() const { return node_->refs.load(std::memory_order_acquire) == 1; }

   private:
    static void Retain(Node* node) {
      if (node != nullptr) {
        node->refs.fetch_add(1, std::memory_order_relaxed);
      }
    }
    static void Release(Node* node) {
      if (node != nullptr && node->refs.fetch_sub(1, std::memory_order_acq_rel) == 1) {
        delete node;
      }
    }

    Node* node_ = nullptr;
  };

  struct Node {
    Node(const Prefix& k, std::optional<V> v) : key(k), value(std::move(v)) {}
    // A shallow copy for Own: the children become shared, the count starts
    // at 1 for the handle the copy is adopted by.
    Node(const Node& other) : key(other.key), child{other.child[0], other.child[1]},
                              value(other.value) {}
    Node& operator=(const Node&) = delete;

    std::atomic<uint32_t> refs{1};
    Prefix key;
    NodePtr child[2];
    std::optional<V> value;
  };

 public:
  PrefixTrie() = default;

  // Snapshots share all nodes; both sides copy-on-write afterwards.
  PrefixTrie(const PrefixTrie&) = default;
  PrefixTrie& operator=(const PrefixTrie&) = default;
  PrefixTrie(PrefixTrie&&) noexcept = default;
  PrefixTrie& operator=(PrefixTrie&&) noexcept = default;

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  // Inserts or overwrites the value at `prefix`. Returns true if inserted.
  // Walks down through the child slots, path-copying only shared nodes.
  bool Insert(const Prefix& prefix, V value) {
    NodePtr* slot = &root_;
    while (*slot != nullptr) {
      const Node& node = **slot;
      const uint8_t common = CommonLength(node.key, prefix);
      if (common == node.key.length() && common == prefix.length()) {
        // Exact node.
        Node& owned = Own(*slot);
        const bool added = !owned.value.has_value();
        owned.value = std::move(value);
        size_ += added ? 1 : 0;
        return added;
      }
      if (common == node.key.length()) {
        // prefix extends below node.
        slot = &Own(*slot).child[BitAt(prefix.address().bits(), common)];
        continue;
      }
      NodePtr above;
      if (common == prefix.length()) {
        // prefix is an ancestor of node.key: new node above.
        above = Leaf(prefix, std::move(value));
      } else {
        // Diverge: internal node at the common prefix, both below it.
        above = NodePtr(new Node(Prefix::Make(prefix.address(), common), std::nullopt));
        above->child[BitAt(prefix.address().bits(), common)] = Leaf(prefix, std::move(value));
      }
      above->child[BitAt(node.key.address().bits(), common)] = std::move(*slot);
      *slot = std::move(above);
      ++size_;
      return true;
    }
    *slot = Leaf(prefix, std::move(value));
    ++size_;
    return true;
  }

  // Returns the value at exactly `prefix`, or nullptr.
  const V* Find(const Prefix& prefix) const {
    const Node* node = FindNode(prefix);
    return node != nullptr && node->value.has_value() ? &*node->value : nullptr;
  }

  // Returns a mutable value at exactly `prefix`, path-copying shared nodes so
  // the write cannot be observed through snapshots. Returns nullptr if absent.
  V* FindMutable(const Prefix& prefix) {
    const Node* node = FindNode(prefix);
    if (node == nullptr || !node->value.has_value()) {
      return nullptr;  // absent, or a valueless fork node at this key
    }
    NodePtr* slot = &root_;
    for (;;) {
      Node& owned = Own(*slot);
      if (owned.key.length() == prefix.length()) {
        return &*owned.value;
      }
      slot = &owned.child[BitAt(prefix.address().bits(), owned.key.length())];
    }
  }

  // Longest-prefix match for a single address; nullopt if no covering prefix.
  std::optional<std::pair<Prefix, const V*>> LongestMatch(Ipv4Address addr) const {
    std::optional<std::pair<Prefix, const V*>> best;
    const Node* node = root_.get();
    while (node != nullptr) {
      if (!node->key.Contains(addr)) {
        break;
      }
      if (node->value.has_value()) {
        best = {node->key, &*node->value};
      }
      if (node->key.length() >= 32) {
        break;
      }
      node = node->child[BitAt(addr.bits(), node->key.length())].get();
    }
    return best;
  }

  // Removes `prefix`. Returns true if it was present.
  bool Erase(const Prefix& prefix) {
    const bool removed = EraseAt(root_, prefix);
    size_ -= removed ? 1 : 0;
    return removed;
  }

  // Calls fn(prefix, value) for every entry in prefix order (address, then
  // length). Return false from fn to stop early.
  void Walk(const std::function<bool(const Prefix&, const V&)>& fn) const {
    WalkRec(root_.get(), fn);
  }

  // Visits the nodes on the longest-prefix-match descent for `addr`, in
  // root-to-leaf order: fn(node_key, has_value). This exposes the branch
  // structure of an LPM lookup so instrumented (concolic) callers can record
  // the address comparisons the lookup performs; see dice/instrumented.cc.
  void WalkDescent(Ipv4Address addr,
                   const std::function<void(const Prefix&, bool)>& fn) const {
    const Node* node = root_.get();
    while (node != nullptr) {
      fn(node->key, node->value.has_value());
      if (!node->key.Contains(addr) || node->key.length() >= 32) {
        break;
      }
      node = node->child[BitAt(addr.bits(), node->key.length())].get();
    }
  }

  // Calls fn for every entry covered by `covering` (itself included).
  void WalkCovered(const Prefix& covering,
                   const std::function<bool(const Prefix&, const V&)>& fn) const {
    const Node* node = root_.get();
    // Descend to the subtree rooted at or below `covering`.
    while (node != nullptr && node->key.length() < covering.length()) {
      if (!node->key.Covers(covering)) {
        return;
      }
      node = node->child[BitAt(covering.address().bits(), node->key.length())].get();
    }
    if (node != nullptr && covering.Covers(node->key)) {
      WalkRec(node, fn);
    }
  }

  void Clear() {
    root_ = NodePtr();
    size_ = 0;
  }

  // Number of trie nodes reachable from the root (shared or not).
  size_t NodeCount() const { return CountRec(root_.get()); }

  struct SharingStats {
    size_t total_nodes = 0;   // nodes reachable in *this*
    size_t shared_nodes = 0;  // of those, also reachable in `other`
    size_t unique_nodes = 0;  // total - shared
  };

  // Exact structural-sharing statistics of this trie versus `other`.
  SharingStats SharingWith(const PrefixTrie& other) const {
    return SharingWith(other, [](const V&, bool) {});
  }

  // As above, but additionally invokes visit(value, shared) for every node
  // carrying a value, where `shared` reports whether that node (and therefore
  // its payload) is also reachable in `other`. The checkpoint layer uses this
  // to charge value-owned heap bytes (route vectors, interned attributes) to
  // the right side of the unique/shared split.
  template <typename Fn>
  SharingStats SharingWith(const PrefixTrie& other, Fn&& visit) const {
    // Determinism audit: both sets are membership-tested only (count/insert),
    // never iterated — traversal order is the trie's structural recursion, so
    // hash order is never observable. dice_lint's unordered-iteration check
    // keeps it that way.
    std::unordered_set<const Node*> theirs;
    CollectRec(other.root_.get(), theirs);
    SharingStats stats;
    std::unordered_set<const Node*> visited;
    ShareRec(root_.get(), theirs, visited, /*inherited_shared=*/false, stats, visit);
    stats.unique_nodes = stats.total_nodes - stats.shared_nodes;
    return stats;
  }

  // Heap bytes per node (one allocation each), used by the checkpoint page
  // accounting.
  static constexpr size_t kNodeBytes = sizeof(Node);

  // Builds a trie from entries appended in walk order (see the header).
  class Builder {
   public:
    // Appends `prefix` with `value`. Returns false, changing nothing, unless
    // `prefix` comes strictly after the previous key in walk order.
    bool Append(const Prefix& prefix, V value) {
      if (!spine_.empty() && !(spine_.back()->key < prefix)) {
        return false;
      }
      while (!spine_.empty() && !spine_.back()->key.Covers(prefix)) {
        spine_.pop_back();
      }
      // The deepest covering node is shorter than `prefix` (an equal key is
      // not after the previous one), so `prefix` has a bit at its length.
      NodePtr* slot = spine_.empty()
                          ? &trie_.root_
                          : &spine_.back()->child[BitAt(prefix.address().bits(),
                                                        spine_.back()->key.length())];
      NodePtr leaf = Leaf(prefix, std::move(value));
      Node* added = leaf.get();
      if (*slot == nullptr) {
        *slot = std::move(leaf);
      } else {
        // The slot holds the subtree of the previous key, which neither
        // covers `prefix` nor is covered by it: fork at their common prefix.
        const Prefix& earlier = (*slot)->key;
        const uint8_t common = CommonLength(earlier, prefix);
        NodePtr fork(new Node(Prefix::Make(prefix.address(), common), std::nullopt));
        fork->child[BitAt(earlier.address().bits(), common)] = std::move(*slot);
        fork->child[BitAt(prefix.address().bits(), common)] = std::move(leaf);
        *slot = std::move(fork);
        spine_.push_back(slot->get());
      }
      spine_.push_back(added);
      ++trie_.size_;
      return true;
    }

    // The trie built so far; leaves the builder empty.
    PrefixTrie Take() {
      spine_.clear();
      return std::exchange(trie_, PrefixTrie());
    }

   private:
    PrefixTrie trie_;
    std::vector<Node*> spine_;  // root to the last key's node
  };

 private:
  static int BitAt(uint32_t bits, uint8_t position) {
    DICE_CHECK_LT(position, 32);
    return (bits >> (31 - position)) & 1;
  }

  // Length of the longest common prefix of a and b.
  static uint8_t CommonLength(const Prefix& a, const Prefix& b) {
    uint8_t max = std::min(a.length(), b.length());
    uint32_t diff = a.address().bits() ^ b.address().bits();
    if (diff == 0) {
      return max;
    }
    uint8_t same = static_cast<uint8_t>(__builtin_clz(diff));
    return same < max ? same : max;
  }

  // Makes the node in `slot` one we are allowed to mutate: the node itself
  // when unshared, or else a shallow copy (children stay shared) that
  // replaces it in the slot, leaving the original to the snapshots that
  // hold it. The slot must itself belong to an owned node (or be the root).
  static Node& Own(NodePtr& slot) {
    if (!slot.unique()) {
      slot = NodePtr(new Node(*slot));
    }
    return *slot;
  }
  static NodePtr Leaf(const Prefix& prefix, V&& value) {
    return NodePtr(new Node(prefix, std::move(value)));
  }

  const Node* FindNode(const Prefix& prefix) const {
    const Node* node = root_.get();
    while (node != nullptr) {
      uint8_t common = CommonLength(node->key, prefix);
      if (common < node->key.length()) {
        return nullptr;  // diverged
      }
      if (node->key.length() == prefix.length()) {
        return node;
      }
      node = node->child[BitAt(prefix.address().bits(), node->key.length())].get();
    }
    return nullptr;
  }

  // Erases `prefix` from the subtree in `slot`, which must belong to an owned
  // node (or be the root). Returns true if it was present.
  static bool EraseAt(NodePtr& slot, const Prefix& prefix) {
    if (slot == nullptr) {
      return false;
    }
    const Node& node = *slot;
    if (CommonLength(node.key, prefix) < node.key.length()) {
      return false;  // not present
    }
    if (node.key.length() == prefix.length()) {
      if (!node.value.has_value()) {
        return false;
      }
      if (node.child[0] != nullptr && node.child[1] != nullptr) {
        Own(slot).value.reset();
      } else {
        SpliceOut(slot);
      }
      return true;
    }
    const int bit = BitAt(prefix.address().bits(), node.key.length());
    if (node.child[bit] == nullptr) {
      return false;
    }
    Node& owned = Own(slot);
    if (!EraseAt(owned.child[bit], prefix)) {
      return false;
    }
    if (!owned.value.has_value() && (owned.child[0] == nullptr || owned.child[1] == nullptr)) {
      SpliceOut(slot);  // it became a pass-through internal node
    }
    return true;
  }

  // Replaces the node in `slot`, which has at most one child, with that child.
  static void SpliceOut(NodePtr& slot) {
    NodePtr only = slot->child[slot->child[0] != nullptr ? 0 : 1];
    slot = std::move(only);
  }

  static bool WalkRec(const Node* node, const std::function<bool(const Prefix&, const V&)>& fn) {
    if (node == nullptr) {
      return true;
    }
    if (node->value.has_value()) {
      if (!fn(node->key, *node->value)) {
        return false;
      }
    }
    return WalkRec(node->child[0].get(), fn) && WalkRec(node->child[1].get(), fn);
  }

  static size_t CountRec(const Node* node) {
    if (node == nullptr) {
      return 0;
    }
    return 1 + CountRec(node->child[0].get()) + CountRec(node->child[1].get());
  }

  static void CollectRec(const Node* node, std::unordered_set<const Node*>& reachable) {
    if (node == nullptr || !reachable.insert(node).second) {
      return;
    }
    CollectRec(node->child[0].get(), reachable);
    CollectRec(node->child[1].get(), reachable);
  }

  // A node present in both tries is shared, and so is its entire subtree
  // (immutability of shared nodes guarantees it) — `inherited_shared` carries
  // that fact down without re-probing `theirs` for every descendant.
  template <typename Fn>
  static void ShareRec(const Node* node, const std::unordered_set<const Node*>& theirs,
                       std::unordered_set<const Node*>& visited, bool inherited_shared,
                       SharingStats& stats, Fn&& visit) {
    if (node == nullptr || !visited.insert(node).second) {
      return;
    }
    const bool shared = inherited_shared || theirs.count(node) != 0;
    ++stats.total_nodes;
    if (shared) {
      ++stats.shared_nodes;
    }
    if (node->value.has_value()) {
      visit(*node->value, shared);
    }
    ShareRec(node->child[0].get(), theirs, visited, shared, stats, visit);
    ShareRec(node->child[1].get(), theirs, visited, shared, stats, visit);
  }

  NodePtr root_;
  size_t size_ = 0;
};

}  // namespace dice::bgp

#endif  // SRC_BGP_PREFIX_TRIE_H_
