// Binary codec for PathAttributes, shared by the router-state snapshot
// (src/persist/router_state_snapshot.cc) and the binary trace format
// (src/trace/dtrc.cc).
//
// Both formats dedup attribute sets through an AttrTable: interning makes
// node identity == structural identity, so the address of a set's intern
// node is the dedup key, and indices are assigned in first-encounter order
// over the caller's deterministic serialization walk. A .dtrc leads with the
// whole table; a router-state snapshot defines each set inline at its first
// reference. Every serialized attribute record carries its structural hash
// (bgp::HashAttrs) — a second corruption tripwire beyond the container's
// frame checksum, re-verified against the decoded value on load.

#ifndef SRC_BGP_ATTR_CODEC_H_
#define SRC_BGP_ATTR_CODEC_H_

#include <vector>

#include "src/bgp/attr_intern.h"
#include "src/util/bytes.h"
#include "src/util/frame.h"
#include "src/util/status.h"

namespace dice::bgp {

// Encodes one attribute set (without the leading structural hash).
void EncodeAttrs(ByteWriter& w, const PathAttributes& a);

// Decodes one attribute set encoded by EncodeAttrs. All counts are validated
// against the remaining buffer capacity before any reserve; `what` names the
// enclosing format in error text.
[[nodiscard]] Status DecodeAttrs(ByteReader& r, const char* what, PathAttributes& a);

// One attribute record: the set's structural hash (u64, the one its intern
// node stores), then its EncodeAttrs bytes.
void EncodeAttrRecord(ByteWriter& w, const InternedAttrs& attrs);

// Decodes one EncodeAttrRecord and interns the set in this process, hashing
// it once; the stored hash must match the interned node's, which catches
// any corruption the frame checksum happened to miss and any decode drift
// between writer and reader. `index` names the record in error text. A
// rejected record leaves nothing interned on its behalf.
[[nodiscard]] StatusOr<InternedAttrs> DecodeAttrRecord(ByteReader& r, const char* what,
                                                       uint32_t index);

// Assigns attribute-table indices in first-encounter order and serializes the
// table: u32 count, then one EncodeAttrRecord per entry.
//
// The index is a flat open-addressing table keyed by intern-node address, as
// the intern shards are (power-of-two slots at most 3/4 full, Fibonacci-hashed
// home slot, linear probing). It is only probed, never iterated or erased
// from, so address layout cannot reach the serialized order.
class AttrTable {
 public:
  uint32_t IndexOf(const InternedAttrs& attrs);
  size_t size() const { return attrs_.size(); }
  // Writes the table into `frame`, draining it after every record. The hash
  // written is the one the intern node stores.
  [[nodiscard]] Status Serialize(FrameWriter& frame) const;
  // The number of bytes Serialize appends, so a writer can allocate once.
  size_t SerializedSize() const;

 private:
  struct Slot {
    const PathAttributes* key = nullptr;  // nullptr marks an empty slot
    uint32_t index = 0;
  };

  size_t Home(const PathAttributes* key) const;
  void Place(Slot slot);
  void Grow();

  std::vector<InternedAttrs> attrs_;
  std::vector<Slot> slots_;  // zero or a power of two
  unsigned shift_ = 64;      // 64 - log2(slots_.size())
};

// Loads a Serialize()d attribute table through DecodeAttrRecord. A rejected
// table leaves no set interned on its behalf once `out` is dropped.
[[nodiscard]] Status LoadAttrTable(ByteReader& r, const char* what,
                                   std::vector<InternedAttrs>& out);

}  // namespace dice::bgp

#endif  // SRC_BGP_ATTR_CODEC_H_
