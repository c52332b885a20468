// Durable form of bgp::RouterState — the interned-attribute checkpoint shape.
//
// Framed container (src/util/frame.h) with magic "DXRS", version 2. The body
// is written in one walk over the state and read back in one pass:
//
//   body    := fingerprint:u64 next_sequence:u64 prefix_count:u32 rib_rec*
//              peer_count:u32 (peer:u32 entry_count:u32 adj_rec*)*
//              updates_processed:u64 routes_announced_in:u64
//              routes_withdrawn_in:u64 routes_accepted:u64
//              routes_filtered:u64 routes_loop_rejected:u64
//   rib_rec := prefix route_count:u32 (peer:u32 peer_as:u32 attr_ref
//              sequence:u64)* best:u32 (0xFFFFFFFF = none)
//   adj_rec := prefix attr_ref
//   attr_ref := index:u32 [hash:u64 attrs]
//
// Prefixes use the NLRI encoding of src/bgp/wire.h. RIB records, and each
// peer's Adj-RIB-Out records, come in walk order (Prefix's <=>: address,
// then length), peers in ascending id. Attribute sets are numbered in
// first-encounter order over that walk: the reference whose index equals
// the number of sets defined so far introduces the next set, and its record
// (structural hash, verified on load, then bgp::EncodeAttrs bytes) follows
// inline; a smaller index refers back to a set already defined. So a RIB
// where thousands of routes share one attribute set costs one record plus
// small references (the on-disk mirror of what bgp::attr_intern does in
// memory).
//
// Version 1 led the body with the whole attribute table, which took a
// separate indexing walk to write; OpenFrame refuses it as version skew, so
// a state directory written by an older build cold-starts once.
//
// The RouterConfig itself is not persisted — it comes from the operator's
// config at startup. The snapshot carries a caller-supplied config
// fingerprint and Load refuses a mismatch: state computed under another
// policy is warmth we must not reuse.

#ifndef SRC_PERSIST_ROUTER_STATE_SNAPSHOT_H_
#define SRC_PERSIST_ROUTER_STATE_SNAPSHOT_H_

#include <memory>
#include <string_view>

#include "src/bgp/update_processing.h"
#include "src/util/bytes.h"
#include "src/util/frame.h"
#include "src/util/status.h"

namespace dice::persist {

// "DXRS".
constexpr uint32_t kRouterStateSnapshotMagic = 0x44585253;
constexpr uint16_t kRouterStateSnapshotVersion = 2;

// The fingerprint a router state built from operator inputs is snapshotted
// under: the FNV-1a BodyChecksum (src/util/frame.h) of `config_text`, '\n',
// `table_source`, '\n', `inject_spec` (the routes planted on top).
// `table_source` is the identity of the table source, as
// trace::TableSourceIdentity gives it: a .dtrc corpus's frame header, a text
// trace's bytes, or a synthetic table's description. A snapshot then only
// loads back under the inputs that produced it. Computed piecewise, so a
// large table source is never copied.
uint64_t StateFingerprint(std::string_view config_text, const Bytes& table_source,
                          std::string_view inject_spec);

// Streams the snapshot of `state` into `sink` — a file being written, say —
// holding at most one FrameWriter chunk of it. One walk over the state makes
// it: each attribute reference is one probe of a flat index keyed by intern
// node, a set is encoded at its first reference, and the frame is drained
// after every record. A sink error stops the write and is returned.
[[nodiscard]] Status SerializeRouterState(const bgp::RouterState& state,
                                          uint64_t config_fingerprint, ByteSink& sink);
// The same bytes, through the same walk, into a buffer that grows as it goes.
Bytes SerializeRouterState(const bgp::RouterState& state, uint64_t config_fingerprint);

// Parses `bytes` and rebuilds the state in one pass: attribute sets are
// re-interned in this process as their definitions come up, and the RIB and
// Adj-RIB-Out tries are built in walk order (bgp::PrefixTrie::Builder), not
// inserted from the root. `config` is attached as-is after
// `config_fingerprint` is checked against the persisted one; a mismatch is
// FailedPrecondition (intact bytes, other inputs). Any malformed byte — bad
// counts, a forward attribute reference, a stored attribute hash
// that does not match the re-hashed value, a record out of walk order or
// repeated, trailing garbage — is InvalidArgument (or OutOfRange for a
// truncated read), never a crash.
[[nodiscard]] StatusOr<bgp::RouterState> LoadRouterState(
    const Bytes& bytes, std::shared_ptr<const bgp::RouterConfig> config,
    uint64_t config_fingerprint);

}  // namespace dice::persist

#endif  // SRC_PERSIST_ROUTER_STATE_SNAPSHOT_H_
