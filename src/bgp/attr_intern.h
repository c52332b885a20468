// Hash-consed (interned) BGP path attributes.
//
// Every Route in the RIB and every Adj-RIB-Out entry used to hold a
// PathAttributes by value, so each copy-on-write path-copy of a trie node
// deep-copied AS-path segments and community vectors. InternedAttrs stores
// one immutable PathAttributes per distinct value in a per-process table and
// hands out 8-byte handles to it: structurally equal attributes are
// pointer-equal, node path-copies and route comparisons become O(1) in
// attribute size, and an attribute set referenced by thousands of routes is
// stored once.
//
// Layout. Each distinct set is one heap node, {attrs, hash, refs}: the value,
// its structural hash and an intrusive reference count in a single
// allocation. The table is split into shards (hash -> shard, one mutex each);
// a shard is an open-addressing array of {hash, node*} slots with linear
// probing, and erasing a node shifts the rest of its probe run back, so no
// tombstones accumulate.
//
// Reference protocol:
//   - copying a handle is a relaxed increment of refs;
//   - dropping a handle while refs > 1 is a lock-free decrement;
//   - the last reference is dropped under the shard mutex, which also erases
//     the node's slot. An intern hit takes its reference under that same
//     mutex, so it either comes first (and the drop is no longer the last) or
//     finds the slot already gone: a hit never resurrects a freed node.
//
// Who interns concurrently: the explorer's thread, and the reactor thread of
// an ExplorationServer hosted in the same process, which decodes and screens
// batches for its domains while the explorer runs and can intern and drop
// the very sets the explorer holds. The shards keep those threads from
// serializing on one lock; every other intern table in the tree (sym::Expr)
// is single-threaded. The table is heap-allocated and never destroyed, so
// statically stored handles can outlive it safely.

#ifndef SRC_BGP_ATTR_INTERN_H_
#define SRC_BGP_ATTR_INTERN_H_

#include <atomic>
#include <cstdint>
#include <utility>

#include "src/bgp/message.h"

namespace dice::bgp {

// Structural hash over every PathAttributes field (AS-path segments,
// communities, unknown attributes included).
uint64_t HashAttrs(const PathAttributes& attrs);

// Deterministic heap footprint of one attribute set: the struct itself plus
// the storage its vectors own (size-based, not capacity-based, so tests and
// the checkpoint page accounting get stable numbers).
size_t AttrsHeapBytes(const PathAttributes& attrs);

// A handle to one interned, immutable attribute set. Construction interns;
// equality is pointer equality (== structural equality, by construction).
// A moved-from handle is empty and may only be assigned to or destroyed.
class InternedAttrs {
 public:
  // The interned empty attribute set.
  InternedAttrs();
  // Implicit on purpose: `route.attrs = built_attrs;` is the idiom at every
  // construction site.
  InternedAttrs(const PathAttributes& attrs);  // NOLINT(google-explicit-constructor)
  InternedAttrs(PathAttributes&& attrs);       // NOLINT(google-explicit-constructor)

  InternedAttrs(const InternedAttrs& other) noexcept : node_(other.node_) { Retain(node_); }
  InternedAttrs(InternedAttrs&& other) noexcept : node_(std::exchange(other.node_, nullptr)) {}
  InternedAttrs& operator=(const InternedAttrs& other) noexcept {
    Retain(other.node_);  // before the release: safe on self-assignment
    Release(std::exchange(node_, other.node_));
    return *this;
  }
  InternedAttrs& operator=(InternedAttrs&& other) noexcept {
    // On self-move the inner exchange empties node_ first, so nothing is
    // released and the handle keeps its node.
    Release(std::exchange(node_, std::exchange(other.node_, nullptr)));
    return *this;
  }
  ~InternedAttrs() { Release(node_); }

  const PathAttributes& operator*() const { return node_->attrs; }
  const PathAttributes* operator->() const { return &node_->attrs; }
  const PathAttributes& get() const { return node_->attrs; }
  // HashAttrs(get()), computed once when the set was interned.
  uint64_t hash() const { return node_->hash; }

  friend bool operator==(const InternedAttrs& a, const InternedAttrs& b) {
    return a.node_ == b.node_;
  }

 private:
  friend class AttrInternTable;  // attr_intern.cc: creates, finds and frees nodes

  struct Node {
    PathAttributes attrs;
    uint64_t hash = 0;  // HashAttrs(attrs): picks the shard and the home slot
    std::atomic<uint32_t> refs{1};
  };

  static void Retain(Node* node) {
    if (node != nullptr) {
      node->refs.fetch_add(1, std::memory_order_relaxed);
    }
  }
  static void Release(Node* node) {
    if (node == nullptr) {
      return;
    }
    uint32_t refs = node->refs.load(std::memory_order_relaxed);
    while (refs > 1) {
      if (node->refs.compare_exchange_weak(refs, refs - 1, std::memory_order_release,
                                           std::memory_order_relaxed)) {
        return;
      }
    }
    ReleaseLast(node);
  }
  // Drops what may be the last reference, under the node's shard mutex.
  static void ReleaseLast(Node* node);

  Node* node_;
};

// Intern table statistics (test and bench hooks).
struct AttrInternStats {
  size_t live_entries = 0;  // distinct attribute sets currently alive
  uint64_t hits = 0;        // interning requests resolved to an existing node
  uint64_t misses = 0;      // interning requests that allocated a new node
};
AttrInternStats AttrInternTableStats();

}  // namespace dice::bgp

#endif  // SRC_BGP_ATTR_INTERN_H_
