#include "src/bgp/attr_intern.h"

#include <atomic>
#include <mutex>
#include <unordered_map>
#include <utility>

namespace dice::bgp {
namespace {

// Same mixing step the sym layer uses (sym::HashCombine); duplicated here so
// the bgp layer does not depend on sym.
inline uint64_t Mix(uint64_t h, uint64_t v) {
  h ^= v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
  return h;
}

// The table keys entries by a pointer to the interned value plus its
// precomputed hash; lookups probe with a pointer to the candidate value, so
// equality dereferences both sides. Any entry present in a shard has its key
// object still allocated: the deleter erases the entry (under the shard
// mutex) *before* freeing the node, so a concurrent probe never dereferences
// freed memory.
struct Key {
  const PathAttributes* attrs;
  uint64_t hash;

  bool operator==(const Key& o) const { return hash == o.hash && *attrs == *o.attrs; }
};

struct KeyHash {
  size_t operator()(const Key& k) const { return static_cast<size_t>(k.hash); }
};

// Determinism audit: the table is only probed (find/emplace/erase) and
// size()-summed for stats; nothing iterates it, so hash order never leaks
// into exploration results. dice_lint's unordered-iteration check keeps it
// that way.
using Table = std::unordered_map<Key, std::weak_ptr<const PathAttributes>, KeyHash>;

// Lock-striped shards (hash -> shard, one mutex each): interning the same
// attribute set from two threads serializes on the shard mutex, so both get
// the same node and pointer identity is preserved. Hit/miss tallies are atomics so concurrent
// interning does not tear them.
constexpr size_t kShards = 16;

struct Shard {
  std::mutex mu;
  Table table;
};

Shard* Shards() {
  static Shard* s = new Shard[kShards];  // intentionally leaked: see header comment
  return s;
}

Shard& ShardFor(uint64_t hash) { return Shards()[hash % kShards]; }

std::atomic<uint64_t>& HitCount() {
  static std::atomic<uint64_t> n{0};
  return n;
}

std::atomic<uint64_t>& MissCount() {
  static std::atomic<uint64_t> n{0};
  return n;
}

// shared_ptr deleter: a dying node erases its own entry, so the table tracks
// exactly the live attribute sets. The hash is recomputed here (death of a
// distinct attribute set is far rarer than interning one). If another thread
// already replaced the expired entry with a live node, leave it alone.
void EraseAndDelete(const PathAttributes* attrs) {
  const uint64_t hash = HashAttrs(*attrs);
  Shard& shard = ShardFor(hash);
  {
    std::lock_guard<std::mutex> lock(shard.mu);
    auto it = shard.table.find(Key{attrs, hash});
    if (it != shard.table.end() && it->second.expired()) {
      shard.table.erase(it);
    }
  }
  delete attrs;
}

// One interning pass under the shard lock: probe, and on miss (or on an
// expired entry whose node died on another thread) insert a node built by
// `make`. The expired entry must be erased — not overwritten — because its
// key points into the dying node's memory.
template <typename MakeNode>
std::shared_ptr<const PathAttributes> FindOrInsert(const PathAttributes& probe, uint64_t hash,
                                                   MakeNode make) {
  Shard& shard = ShardFor(hash);
  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.table.find(Key{&probe, hash});
  if (it != shard.table.end()) {
    if (auto hit = it->second.lock()) {
      HitCount().fetch_add(1, std::memory_order_relaxed);
      return hit;
    }
    shard.table.erase(it);
  }
  MissCount().fetch_add(1, std::memory_order_relaxed);
  const PathAttributes* node = make();
  std::shared_ptr<const PathAttributes> shared(node, &EraseAndDelete);
  shard.table.emplace(Key{node, hash}, shared);
  return shared;
}

std::shared_ptr<const PathAttributes> Intern(PathAttributes&& attrs) {
  const uint64_t hash = HashAttrs(attrs);
  return FindOrInsert(attrs, hash,
                      [&attrs] { return new PathAttributes(std::move(attrs)); });
}

std::shared_ptr<const PathAttributes> Intern(const PathAttributes& attrs) {
  const uint64_t hash = HashAttrs(attrs);
  // Deep copy only on first sighting.
  return FindOrInsert(attrs, hash, [&attrs] { return new PathAttributes(attrs); });
}

const std::shared_ptr<const PathAttributes>& EmptyAttrs() {
  // Holds one permanent reference so the empty set is never evicted.
  static const auto* empty =
      new std::shared_ptr<const PathAttributes>(Intern(PathAttributes{}));
  return *empty;
}

}  // namespace

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

InternedAttrs::InternedAttrs() : ptr_(EmptyAttrs()) {}

InternedAttrs::InternedAttrs(const PathAttributes& attrs) : ptr_(Intern(attrs)) {}

InternedAttrs::InternedAttrs(PathAttributes&& attrs) : ptr_(Intern(std::move(attrs))) {}

AttrInternStats AttrInternTableStats() {
  AttrInternStats stats;
  stats.hits = HitCount().load(std::memory_order_relaxed);
  stats.misses = MissCount().load(std::memory_order_relaxed);
  for (size_t i = 0; i < kShards; ++i) {
    Shard& shard = Shards()[i];
    std::lock_guard<std::mutex> lock(shard.mu);
    stats.live_entries += shard.table.size();
  }
  return stats;
}

}  // namespace dice::bgp
