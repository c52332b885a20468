// Durable form of sym::QueryCache — the learned UNSAT cores and cached
// verdicts that make a restarted DiCE warm instead of cold.
//
// The snapshot rides the shared framed container (src/util/frame.h): magic
// "DXQC", version, FNV-1a body checksum. The body stores one deduplicated
// expression-node table in bottom-up order (children strictly before
// parents), then entries and cores referencing nodes by table index.
// Interned expression ids are process-local, so they are NOT persisted:
// loading rebuilds every node through the public smart constructors (which
// re-intern structurally — the constructors only constant-fold, so a
// round-trip reproduces each stored node exactly) and recomputes every cache
// key from the new ids.
//
// Load validates everything — op codes, node references, counts against
// remaining bytes, sortedness, trailing garbage — and returns Status on any
// defect; a malformed snapshot can cost warmth, never correctness and never
// a crash.

#ifndef SRC_PERSIST_QUERY_CACHE_SNAPSHOT_H_
#define SRC_PERSIST_QUERY_CACHE_SNAPSHOT_H_

#include "src/sym/solver.h"
#include "src/util/bytes.h"
#include "src/util/status.h"

namespace dice::persist {

// "DXQC" — a query-cache snapshot can never parse as a wire batch ("DXB…")
// or a router-state snapshot ("DXRS").
constexpr uint32_t kQueryCacheSnapshotMagic = 0x44585143;
// Version 2: op codes renumbered (bitwise ops removed) and entries hold only
// the exact solver's SAT/UNSAT verdicts. A version-1 snapshot fails to open;
// the snapshot store quarantines it and the process starts cold.
constexpr uint16_t kQueryCacheSnapshotVersion = 2;

// Serializes the cache's current contents (a deterministic Export walk:
// entries sorted by key, cores in publication order).
Bytes SerializeQueryCache(const sym::QueryCache& cache);

// Parses `bytes`, re-interns every expression in this process, and replaces
// `cache`'s contents with the snapshot, marking everything preloaded. On
// error the cache is untouched.
[[nodiscard]] Status LoadQueryCache(const Bytes& bytes, sym::QueryCache& cache);

}  // namespace dice::persist

#endif  // SRC_PERSIST_QUERY_CACHE_SNAPSHOT_H_
