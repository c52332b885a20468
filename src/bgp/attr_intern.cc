#include "src/bgp/attr_intern.h"

#include <atomic>
#include <bit>
#include <mutex>
#include <utility>
#include <vector>

#include "src/util/logging.h"

namespace dice::bgp {
namespace {

// Same mixing step the sym layer uses (sym::HashCombine); duplicated here so
// the bgp layer does not depend on sym.
inline uint64_t Mix(uint64_t h, uint64_t v) {
  h ^= v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
  return h;
}

}  // namespace

// The process-wide table behind InternedAttrs (see the header for the layout
// and the reference protocol). Determinism audit: slots are only probed and
// counted; nothing iterates them in an order that reaches exploration
// results, so address and hash layout never leak into verdicts.
class AttrInternTable {
 public:
  using Node = InternedAttrs::Node;

  static AttrInternTable& Instance() {
    static AttrInternTable* table = new AttrInternTable;  // intentionally leaked: see header
    return *table;
  }

  // Returns the node equal to `attrs` with one reference taken for the
  // caller, allocating it (and copying or moving `attrs` into it) only on
  // first sighting.
  template <typename Attrs>
  Node* Intern(Attrs&& attrs) {
    const uint64_t hash = HashAttrs(attrs);
    Shard& shard = ShardFor(hash);
    std::lock_guard<std::mutex> lock(shard.mu);
    if (Node* hit = shard.Find(attrs, hash)) {
      hit->refs.fetch_add(1, std::memory_order_relaxed);
      ++shard.hits;
      return hit;
    }
    ++shard.misses;
    Node* node = new Node{PathAttributes(std::forward<Attrs>(attrs)), hash};
    shard.Insert(node);
    return node;
  }

  // The empty set, with one permanent reference so it is never freed.
  Node* Empty() {
    static Node* const empty = Intern(PathAttributes{});
    return empty;
  }

  void ReleaseLast(Node* node) {
    Shard& shard = ShardFor(node->hash);
    {
      std::lock_guard<std::mutex> lock(shard.mu);
      if (node->refs.fetch_sub(1, std::memory_order_acq_rel) != 1) {
        return;  // an intern hit took a reference after the caller read refs == 1
      }
      shard.Erase(node);
    }
    delete node;
  }

  AttrInternStats Stats() {
    AttrInternStats stats;
    for (Shard& shard : shards_) {
      std::lock_guard<std::mutex> lock(shard.mu);
      stats.live_entries += shard.size;
      stats.hits += shard.hits;
      stats.misses += shard.misses;
    }
    return stats;
  }

 private:
  struct Slot {
    uint64_t hash = 0;
    Node* node = nullptr;  // nullptr marks an empty slot
  };

  // One open-addressing table and its intern tallies under one mutex.
  // slots.size() is zero or a power of two, at most 3/4 full.
  struct Shard {
    std::mutex mu;
    std::vector<Slot> slots;
    size_t size = 0;
    unsigned shift = 64;  // 64 - log2(slots.size())
    uint64_t hits = 0;
    uint64_t misses = 0;

    size_t Mask() const { return slots.size() - 1; }
    // Fibonacci hashing spreads every bit of the hash over the slot index;
    // the low bits alone already chose the shard.
    size_t Home(uint64_t hash) const {
      return static_cast<size_t>((hash * 0x9e3779b97f4a7c15ULL) >> shift);
    }

    Node* Find(const PathAttributes& attrs, uint64_t hash) const {
      if (slots.empty()) {
        return nullptr;
      }
      for (size_t i = Home(hash);; i = (i + 1) & Mask()) {
        const Slot& slot = slots[i];
        if (slot.node == nullptr) {
          return nullptr;
        }
        if (slot.hash == hash && slot.node->attrs == attrs) {
          return slot.node;
        }
      }
    }

    void Insert(Node* node) {
      if ((size + 1) * 4 > slots.size() * 3) {
        Grow();
      }
      Place(Slot{node->hash, node});
      ++size;
    }

    // Erases by node identity, then shifts each later entry of the probe run
    // back into the hole unless its home slot lies after the hole.
    void Erase(const Node* node) {
      size_t hole = Home(node->hash);
      while (slots[hole].node != node) {
        DICE_CHECK(slots[hole].node != nullptr) << "interned node missing from its shard";
        hole = (hole + 1) & Mask();
      }
      for (size_t j = (hole + 1) & Mask(); slots[j].node != nullptr; j = (j + 1) & Mask()) {
        const size_t home = Home(slots[j].hash);
        if (((j - home) & Mask()) >= ((j - hole) & Mask())) {
          slots[hole] = slots[j];
          hole = j;
        }
      }
      slots[hole] = Slot{};
      --size;
    }

    void Place(Slot slot) {
      size_t i = Home(slot.hash);
      while (slots[i].node != nullptr) {
        i = (i + 1) & Mask();
      }
      slots[i] = slot;
    }

    void Grow() {
      std::vector<Slot> old = std::move(slots);
      slots.assign(old.empty() ? 16 : old.size() * 2, Slot{});
      shift = 64 - static_cast<unsigned>(std::countr_zero(slots.size()));
      for (const Slot& slot : old) {
        if (slot.node != nullptr) {
          Place(slot);
        }
      }
    }
  };

  static constexpr size_t kShards = 16;

  Shard& ShardFor(uint64_t hash) { return shards_[hash % kShards]; }

  Shard shards_[kShards];
};

uint64_t HashAttrs(const PathAttributes& attrs) {
  uint64_t h = 0x9ddfea08eb382d69ULL;
  h = Mix(h, static_cast<uint64_t>(attrs.origin));
  for (const AsSegment& seg : attrs.as_path.segments()) {
    h = Mix(h, static_cast<uint64_t>(seg.type) | (uint64_t{seg.asns.size()} << 8));
    for (AsNumber asn : seg.asns) {
      h = Mix(h, asn);
    }
  }
  h = Mix(h, attrs.next_hop.bits());
  h = Mix(h, attrs.med.has_value() ? (uint64_t{1} << 32) | *attrs.med : 0);
  h = Mix(h, attrs.local_pref.has_value() ? (uint64_t{1} << 32) | *attrs.local_pref : 0);
  h = Mix(h, attrs.atomic_aggregate ? 1 : 0);
  if (attrs.aggregator.has_value()) {
    h = Mix(h, (uint64_t{attrs.aggregator->asn} << 32) | attrs.aggregator->address.bits());
  }
  h = Mix(h, attrs.communities.size());
  for (Community c : attrs.communities) {
    h = Mix(h, c);
  }
  h = Mix(h, attrs.unknown.size());
  for (const UnknownAttribute& u : attrs.unknown) {
    h = Mix(h, (uint64_t{u.flags} << 8) | u.type);
    for (uint8_t b : u.value) {
      h = Mix(h, b);
    }
  }
  return h;
}

size_t AttrsHeapBytes(const PathAttributes& attrs) {
  size_t bytes = sizeof(PathAttributes);
  bytes += attrs.as_path.segments().size() * sizeof(AsSegment);
  for (const AsSegment& seg : attrs.as_path.segments()) {
    bytes += seg.asns.size() * sizeof(AsNumber);
  }
  bytes += attrs.communities.size() * sizeof(Community);
  bytes += attrs.unknown.size() * sizeof(UnknownAttribute);
  for (const UnknownAttribute& u : attrs.unknown) {
    bytes += u.value.size();
  }
  return bytes;
}

InternedAttrs::InternedAttrs() : node_(AttrInternTable::Instance().Empty()) { Retain(node_); }

InternedAttrs::InternedAttrs(const PathAttributes& attrs)
    : node_(AttrInternTable::Instance().Intern(attrs)) {}

InternedAttrs::InternedAttrs(PathAttributes&& attrs)
    : node_(AttrInternTable::Instance().Intern(std::move(attrs))) {}

void InternedAttrs::ReleaseLast(Node* node) { AttrInternTable::Instance().ReleaseLast(node); }

AttrInternStats AttrInternTableStats() { return AttrInternTable::Instance().Stats(); }

}  // namespace dice::bgp
