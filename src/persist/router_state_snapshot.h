// Durable form of bgp::RouterState — the interned-attribute checkpoint shape.
//
// Framed container (src/util/frame.h) with magic "DXRS". The body leads with
// an attribute table: each distinct interned PathAttributes set is stored
// once — with its structural hash, verified on load — and every route or
// Adj-RIB-Out entry references it by table index, so a RIB where thousands
// of routes share one attribute set costs one record plus small references
// (the on-disk mirror of what bgp::attr_intern does in memory). Then the RIB
// entries in prefix order (candidates, best index, arrival sequences, the
// sequence counter), the per-peer Adj-RIB-Out tries, and the processing
// counters.
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
#include "src/util/status.h"

namespace dice::persist {

// "DXRS".
constexpr uint32_t kRouterStateSnapshotMagic = 0x44585253;
constexpr uint16_t kRouterStateSnapshotVersion = 1;

// The fingerprint a router state built from operator inputs is snapshotted
// under: the FNV-1a BodyChecksum (src/util/frame.h) of `config_text`, '\n',
// `table_source` (a trace file's bytes, or a description of a synthetic
// table), '\n', `inject_spec` (the routes planted on top). A snapshot then
// only loads back under the exact inputs that produced it. Computed piecewise,
// so a corpus-sized table source is never copied.
uint64_t StateFingerprint(std::string_view config_text, const Bytes& table_source,
                          std::string_view inject_spec);

Bytes SerializeRouterState(const bgp::RouterState& state, uint64_t config_fingerprint);

// Parses `bytes` and rebuilds the state (re-interning every attribute set in
// this process). `config` is attached as-is after `config_fingerprint` is
// checked against the persisted one. Any malformed byte — bad op counts,
// dangling attribute references, a stored attribute hash that does not match
// the re-hashed value, trailing garbage — returns Status, never crashes.
[[nodiscard]] StatusOr<bgp::RouterState> LoadRouterState(
    const Bytes& bytes, std::shared_ptr<const bgp::RouterConfig> config,
    uint64_t config_fingerprint);

}  // namespace dice::persist

#endif  // SRC_PERSIST_ROUTER_STATE_SNAPSHOT_H_
