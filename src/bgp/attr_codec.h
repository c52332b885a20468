// Binary codec for PathAttributes, shared by the router-state snapshot
// (src/persist/router_state_snapshot.cc) and the binary trace format
// (src/trace/dtrc.cc).
//
// Both formats dedup attribute sets through an AttrTable: interning makes
// pointer identity == structural identity, so the shared_ptr is the dedup key
// and indices are assigned in first-encounter order over the caller's
// deterministic serialization walk. Every serialized attribute record carries
// its structural hash (bgp::HashAttrs) — a second corruption tripwire beyond
// the container's frame checksum, re-verified against the decoded value on
// load.

#ifndef SRC_BGP_ATTR_CODEC_H_
#define SRC_BGP_ATTR_CODEC_H_

#include <unordered_map>
#include <vector>

#include "src/bgp/attr_intern.h"
#include "src/util/bytes.h"
#include "src/util/status.h"

namespace dice::bgp {

// Encodes one attribute set (without the leading structural hash).
void EncodeAttrs(ByteWriter& w, const PathAttributes& a);

// Decodes one attribute set encoded by EncodeAttrs. All counts are validated
// against the remaining buffer capacity before any reserve; `what` names the
// enclosing format in error text.
[[nodiscard]] Status DecodeAttrs(ByteReader& r, const char* what, PathAttributes& a);

// Assigns attribute-table indices in first-encounter order and serializes the
// table: u32 count, then per entry u64 HashAttrs + EncodeAttrs body.
class AttrTable {
 public:
  uint32_t IndexOf(const InternedAttrs& attrs);
  size_t size() const { return attrs_.size(); }
  void Serialize(ByteWriter& w) const;
  // The number of bytes Serialize appends, so a writer can allocate once.
  size_t SerializedSize() const;

 private:
  std::vector<InternedAttrs> attrs_;
  std::unordered_map<const PathAttributes*, uint32_t> index_;
};

// Loads a Serialize()d attribute table, re-interning every entry in this
// process and verifying each stored hash against the decoded value.
[[nodiscard]] Status LoadAttrTable(ByteReader& r, const char* what,
                                   std::vector<InternedAttrs>& out);

// Reads a u32 table reference and resolves it, rejecting out-of-range indices.
[[nodiscard]] Status ReadAttrIndex(ByteReader& r, const char* what,
                                   const std::vector<InternedAttrs>& attrs,
                                   InternedAttrs& out);

}  // namespace dice::bgp

#endif  // SRC_BGP_ATTR_CODEC_H_
