// Constraint solver for path conditions.
//
// Scope: the constraints concolic exploration of BGP processing produces —
// conjunctions/disjunctions of unsigned comparisons between linear
// combinations of small bit-vector variables and constants (prefix range
// tests, field equalities, path-element comparisons). The solver is not
// complete on them: it enumerates disjunction choices depth first under a
// budget (SolverOptions::max_disjunct_paths), and when that budget runs out
// before some choice yields a model or every choice is refuted, the verdict
// is kUnknown. Prefix-list and trie-walk path conditions are chains of 2-4
// way disjunctions, so a filter with a handful of entries already exceeds the
// default budget and most queries on the provider workloads end as kUnknown.
// Anything it cannot linearize falls back to a guided stochastic search.
// This mirrors the paper's stack, where Crest/Oasis handed linear integer
// arithmetic to Yices and punted on the rest (§3.1 notes DiCE avoids
// unsolvable constructs such as hash functions entirely).
//
// Pipeline:
//   0. fast path: constraint-independence slicing (drop the connected
//      components the hint already satisfies) and a cross-run query cache
//      keyed on the canonicalized interned-id constraint set, with an
//      UNSAT-superset shortcut and hint-gated replay of cached verdicts;
//   1. normalize: push negations down, split conjunctions, enumerate
//      disjunction choices (DFS with budget);
//   2. linearize each atom into sum(coef_i * var_i) CMP constant;
//   3. interval propagation over variable domains;
//   4. solution search over constraint-boundary candidate values;
//   5. fallback: hill-climbing over the variable domains.
//
// Every model returned is verified against the original constraints by
// expression evaluation, so kSat results are trustworthy by construction.
//
// Single-thread contract: a Solver, its QueryCache, and the Expr intern table
// they build on (src/sym/expr.h) are used from one thread — the thread that
// drives exploration. Nothing in them takes a lock. Code that runs on other
// threads (the transport server's reactor and request workers) does not
// include src/sym.

#ifndef SRC_SYM_SOLVER_H_
#define SRC_SYM_SOLVER_H_

#include <cstdint>
#include <deque>
#include <optional>
#include <unordered_map>
#include <vector>

#include "src/sym/engine.h"
#include "src/sym/expr.h"
#include "src/util/rng.h"

namespace dice::sym {

enum class SolveKind : uint8_t {
  kSat,
  kUnsat,     // proven by interval propagation / exhausted finite search space
  kUnknown,   // budget exhausted
};

struct SolveResult {
  SolveKind kind = SolveKind::kUnknown;
  Assignment model;  // valid iff kind == kSat
};

struct SolverOptions {
  // Max disjunction branches explored.
  size_t max_disjunct_paths = 256;
  // Max candidate assignments tried in the boundary search per disjunct path.
  size_t max_search_nodes = 20000;
  // Max iterations of the stochastic fallback.
  size_t max_fallback_iterations = 5000;
  uint64_t seed = 42;
  // Fast-path toggles. Both default on; turning them off reproduces the
  // pre-optimization solve pipeline exactly (the baseline the perf benches
  // compare against). The default fast path is exploration-preserving: every
  // served SAT model is one a fresh solve would return (exact constraint
  // set, same anchoring hint, no randomness), so runs, paths, coverage, and
  // detections are bit-identical to the baseline. The one stats-level
  // exception: the UNSAT-superset shortcut may classify as kUnsat a query a
  // fresh solve would give up on as kUnknown (disjunction budget exhausted) —
  // the driver treats both verdicts identically (skip the candidate), only
  // the sat/unsat/unknown tallies can differ.
  bool enable_slicing = true;
  bool enable_cache = true;
  // Bounds for the cross-run cache (entries / retained UNSAT cores).
  size_t max_cache_entries = 4096;
  size_t max_unsat_cores = 1024;
};

struct SolverStats {
  uint64_t queries = 0;
  uint64_t sat = 0;
  uint64_t unsat = 0;
  uint64_t unknown = 0;
  uint64_t fallback_used = 0;
  uint64_t atoms_linearized = 0;
  uint64_t atoms_nonlinear = 0;
  // Independence slicing: top-level constraints dropped because their
  // connected component was already satisfied by the hint.
  uint64_t atoms_sliced = 0;
  // Cross-run query cache.
  uint64_t cache_hits = 0;            // any cache-served verdict
  uint64_t cache_misses = 0;          // cache enabled but a full solve ran
  uint64_t cache_unsat_shortcuts = 0; // served via the UNSAT-superset rule
  // Cache hits whose entry/core was restored from a persisted snapshot
  // (src/persist) rather than learned in this process — the warm-restart
  // payoff counter the kill/restart gate asserts on.
  uint64_t cache_preloaded_hits = 0;
};

// Sorted, deduplicated interned-expression ids — the canonical form of a
// conjunction used as cache key and UNSAT core.
using QueryKey = std::vector<uint64_t>;

// The cross-run query cache: verdicts keyed on the canonical constraint set,
// plus the proven-UNSAT cores behind the superset shortcut. A cache-served
// verdict always equals what a fresh solve of the same query under the same
// hint would return — SAT and unknown entries are validated against the hint
// at serve time, and UNSAT is hint-independent — so which entries happen to
// be present changes only the hit/miss tallies, never a verdict.
//
// Eviction: entries are split by key hash into kGroups groups of
// max_entries / kGroups each, and a group is cleared wholesale when a store
// finds it full. Eviction decides which later queries re-solve (and so draw
// from the solver's rng), which makes the grouping part of the exploration
// trajectory: change it only as a measured change of its own.
class QueryCache {
 public:
  struct Entry {
    SolveKind kind = SolveKind::kUnknown;
    // For kSat: the model restricted to the query's variable support.
    Assignment model;
    // For kSat/kUnknown: the anchoring hint restricted to the support. The
    // search is hint-anchored, so a cached verdict replays a fresh solve
    // exactly only when the current hint matches; UNSAT is hint-independent.
    Assignment hint;
    // Keeps the constraint expressions alive so interned ids stay stable.
    std::vector<ExprPtr> constraints;
    // True iff this entry was restored from a persisted snapshot instead of
    // learned in this process (feeds SolverStats::cache_preloaded_hits).
    bool preloaded = false;
  };

  // A proven-UNSAT constraint-id set; any superset query is UNSAT. `owners`
  // keeps the expressions alive so the interned ids stay matchable.
  struct Core {
    QueryKey key;
    std::vector<ExprPtr> owners;
    bool preloaded = false;
  };

  QueryCache(size_t max_entries, size_t max_cores);

  // Drops all cached state when the variable universe changes (ids, widths,
  // or domain bounds) — cached verdicts are only sound for the domains they
  // were computed under.
  void ResetIfVarsChanged(const std::vector<VarInfo>& vars);

  // The entry stored under `key`, or null. The pointer is valid until the
  // next Store, Import, or reset.
  const Entry* Find(const QueryKey& key) const;

  // True iff `key` (sorted) is a superset of some proven-UNSAT core. When
  // `matched_preloaded` is non-null it reports whether the matching core came
  // from a persisted snapshot (provenance for the warm-hit counter).
  bool MatchesUnsatCore(const QueryKey& key, bool* matched_preloaded = nullptr) const;

  void Store(QueryKey key, Entry entry);

  // Appends proven cores (deduplicated by key, FIFO-capped).
  void PublishCores(std::vector<Core> cores);

  // Snapshot support (src/persist): a deterministic copy of the cache's
  // contents. Entries come back sorted by key (the group layout never leaks
  // into the serialized form); cores in publication order.
  struct Exported {
    uint64_t vars_fingerprint = 0;
    std::vector<std::pair<QueryKey, Entry>> entries;
    std::vector<Core> cores;
  };
  Exported Export() const;

  // Replaces the cache's contents with a snapshot whose expressions have
  // been re-interned in this process (keys already recomputed from the new
  // ids). Every restored entry/core is marked `preloaded` so hits served
  // from them are attributable to the warm start. The snapshot's variable
  // fingerprint is installed too: the first ResetIfVarsChanged keeps the
  // warmth iff the live universe matches the one persisted.
  void Import(Exported snapshot);

 private:
  static constexpr size_t kGroups = 8;

  struct QueryKeyHash {
    size_t operator()(const QueryKey& k) const {
      uint64_t h = 0x2545f4914f6cdd1dULL;
      for (uint64_t id : k) {
        h = HashCombine(h, id);
      }
      return static_cast<size_t>(h);
    }
  };

  // Determinism audit: entries are looked up by key and evicted wholesale
  // (clear()), never iterated — a hit/miss verdict cannot depend on hash
  // layout. dice_lint's unordered-iteration check keeps it that way.
  using Group = std::unordered_map<QueryKey, Entry, QueryKeyHash>;

  static size_t GroupOf(const QueryKey& key) { return QueryKeyHash{}(key) % kGroups; }

  size_t max_entries_per_group_;
  size_t max_cores_;
  std::vector<Group> groups_;
  std::deque<Core> cores_;
  uint64_t vars_fingerprint_ = 0;
};

class Solver {
 public:
  explicit Solver(SolverOptions options = {});

  // Solves the conjunction of `constraints` over `vars` (domain bounds come
  // from VarInfo::lo/hi). `hint` biases the search toward a known-good
  // neighbourhood — concolic drivers pass the assignment of the parent run.
  SolveResult Solve(const std::vector<ExprPtr>& constraints, const std::vector<VarInfo>& vars,
                    const Assignment& hint);

  const SolverStats& stats() const { return stats_; }

  // The cross-run cache (src/persist snapshots and reloads it).
  QueryCache& cache() { return cache_; }

 private:
  // The post-slicing, post-cache pipeline (normalize / linearize / propagate
  // / search / fallback) over `query`, with `base` as the completed hint in
  // dense VarId-indexed form.
  SolveResult SolveCore(const std::vector<ExprPtr>& query, const std::vector<VarInfo>& vars,
                        const std::vector<uint64_t>& base_dense);

  // After a fresh UNSAT verdict, tries to shrink the query to a 1- or
  // 2-constraint core provable by interval refutation alone, so the
  // UNSAT-superset shortcut generalizes to every later query containing the
  // same conflicting pair (concolic candidates share these heavily: the same
  // flipped range check conflicts with the same table constraint regardless
  // of the surrounding path prefix). Cores are appended to `out`.
  void LearnUnsatCores(const std::vector<ExprPtr>& query, const std::vector<VarInfo>& vars,
                       const std::vector<uint64_t>& base_dense,
                       std::vector<QueryCache::Core>& out);

  SolverOptions options_;
  SolverStats stats_;
  Rng rng_;
  // Whether the last SolveCore consumed randomness (candidate sampling or the
  // stochastic fallback). Verdicts produced with rng draws are not replayable
  // and must not enter the cache.
  bool core_used_rng_ = false;
  QueryCache cache_;
};

// --- Internals exposed for unit testing -------------------------------------

namespace solver_internal {

// A linear atom: sum(terms) CMP constant, over 64-bit signed accumulation
// (variables are <= 32-bit so sums cannot overflow int64 in practice; the
// linearizer rejects coefficients that could).
struct LinearTerm {
  VarId var = 0;
  int64_t coef = 0;
};

enum class LinCmp : uint8_t { kEq, kNe, kLe, kGe, kLt, kGt };

struct LinearAtom {
  std::vector<LinearTerm> terms;
  LinCmp cmp = LinCmp::kEq;
  int64_t rhs = 0;

  bool SingleVar() const { return terms.size() == 1; }
};

// Attempts to turn a comparison expression into a LinearAtom. Returns nullopt
// for non-linear structure (masks, shifts by variables, products of vars).
std::optional<LinearAtom> Linearize(const ExprPtr& cmp_expr);

struct Interval {
  // Inclusive bounds, signed domain is never used (all vars unsigned).
  uint64_t lo = 0;
  uint64_t hi = ~uint64_t{0};

  bool Empty() const { return lo > hi; }
};

// Tightens per-variable intervals using single-variable atoms. Returns false
// if some interval becomes empty (UNSAT for this disjunct path).
bool PropagateIntervals(const std::vector<LinearAtom>& atoms, std::vector<Interval>& domains,
                        const std::vector<VarInfo>& vars);

// Constraint-independence slicing: partitions the top-level conjunction into
// connected components by shared variable support (union-find) and keeps only
// the components containing at least one constraint the hint-completed `base`
// assignment (dense, VarId-indexed) violates — the hint already witnesses the
// rest, so their variables carry straight into the model.
struct SliceResult {
  std::vector<ExprPtr> active;   // constraints that still need solving
  size_t sliced_away = 0;        // top-level constraints dropped
  bool trivially_unsat = false;  // a constant-false constraint was present
};

SliceResult SliceConstraints(const std::vector<ExprPtr>& constraints,
                             const std::vector<uint64_t>& base_dense);

}  // namespace solver_internal

}  // namespace dice::sym

#endif  // SRC_SYM_SOLVER_H_
