// Constraint solver for path conditions.
//
// Scope: the constraints concolic exploration of BGP processing produces.
// Every product path condition compares one variable with a constant (prefix
// range tests, field equalities, path-element comparisons) under &&, || and
// ! (src/dice/symbolic_ctx.h). On that language the solver is exact: every
// query ends kSat or kUnsat. This mirrors the paper's stack, where Crest/Oasis
// handed linear integer arithmetic to Yices and punted on the rest (§3.1
// notes DiCE avoids unsolvable constructs such as hash functions entirely).
//
// Pipeline:
//   0. fast path: the hint itself, constraint-independence slicing (drop the
//      connected components the hint already satisfies), and a cross-run
//      query cache keyed on the canonicalized interned-id constraint set,
//      with an UNSAT-superset shortcut and hint-gated replay of SAT models;
//   1. split the query into independent components; each is decided alone;
//   2. domains: one sorted list of disjoint closed intervals per variable,
//      starting at the variable's [lo, hi] clipped to its bit width. A
//      sub-formula over one variable is itself an interval set (an atom gives
//      one or two ranges; && intersects, || unites, ! complements), so a
//      top-level constraint over one variable is intersected into its domain;
//   3. constraints over several variables branch DPLL-style. Each open
//      constraint is checked against the current domains; a disjunction with
//      one live side forces that side, and one no remaining value satisfies
//      is a conflict. A branch decides one single-variable sub-formula of the
//      disjunction's preferred side (the side the hint satisfies, else the
//      left one): first true, then false. Running out of branches proves
//      UNSAT;
//   4. linear atoms over several variables (3*len+5 == sum) tighten bounds
//      through PropagateIntervals, then enumerate values nearest the hint up
//      to a fixed cap; with one variable left free an atom is exact again.
//
// The model gives each variable the value of its final domain nearest the
// hint (ties to the lower value), so a run stays close to its parent. Every
// choice depends only on the query's constraints and the hint — never on
// interned ids, pointers or cache contents — so Solve(query, hint) is a pure
// function and a cache hit, an eviction or an earlier exploration cannot
// change a run. Only two cases still return kUnknown: the enumeration cap
// running out, and atoms the interval reading cannot express (a product of
// two variables), which are decided only by that enumeration. Every model
// returned is verified against the original constraints by expression
// evaluation, so kSat results are trustworthy by construction.
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

namespace dice::sym {

enum class SolveKind : uint8_t {
  kSat,
  kUnsat,     // proven: every branch of the exact search ends in a conflict
  kUnknown,   // the enumeration cap ran out (multi-variable or non-linear atoms)
};

struct SolveResult {
  SolveKind kind = SolveKind::kUnknown;
  Assignment model;  // valid iff kind == kSat
};

struct SolverOptions {
  // Fast-path toggles. Both default on; turning them off runs every query
  // through the full procedure (the oracle the identity tests and perf
  // benches compare against). Slicing and caching change no model and no
  // SAT/UNSAT verdict: the procedure solves independent components
  // separately, and Solve is a pure function of the constraint set and the
  // hint. (A learned UNSAT core may decide a query the enumeration cap would
  // leave kUnknown.)
  bool enable_slicing = true;
  bool enable_cache = true;
};

struct SolverStats {
  uint64_t queries = 0;
  uint64_t sat = 0;
  uint64_t unsat = 0;
  uint64_t unknown = 0;
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

// The cross-run query cache: SAT and UNSAT verdicts keyed on the canonical
// constraint set, plus the proven-UNSAT cores behind the superset shortcut.
// kUnknown is never stored. A cache-served verdict always equals what a fresh
// solve of the same query under the same hint would return — SAT entries are
// validated against the hint at serve time, and UNSAT is hint-independent —
// so which entries happen to be present changes only the hit/miss tallies,
// never a verdict.
//
// Eviction: entries are split by key hash into kGroups groups of
// max_entries / kGroups each, and a group is cleared wholesale when a store
// finds it full. A re-solve returns what the evicted entry held, so eviction
// changes only hit counts, never a run.
class QueryCache {
 public:
  struct Entry {
    SolveKind kind = SolveKind::kUnsat;
    // For kSat: the model restricted to the query's variable support.
    Assignment model;
    // For kSat: the anchoring hint restricted to the support. The model is
    // the solution nearest the hint, so a cached model replays a fresh solve
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
  // from VarInfo::lo/hi). The search prefers, and the model stays near,
  // `hint` — concolic drivers pass the assignment of the parent run.
  SolveResult Solve(const std::vector<ExprPtr>& constraints, const std::vector<VarInfo>& vars,
                    const Assignment& hint);

  // Counters since the last ResetStats(). ConcolicDriver::StartIncremental
  // calls it, so a solver shared by many drivers counts one exploration at a
  // time, exactly like a driver's private one. The query cache is not reset:
  // its warmth outlives explorations by design.
  const SolverStats& stats() const { return stats_; }
  void ResetStats() { stats_ = SolverStats{}; }

  // The cross-run cache (src/persist snapshots and reloads it).
  QueryCache& cache() { return cache_; }

 private:
  SolverOptions options_;
  SolverStats stats_;
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
};

// Attempts to turn a comparison expression into a LinearAtom. Returns nullopt
// for non-linear structure (shifts by variables, products of vars).
std::optional<LinearAtom> Linearize(const ExprPtr& cmp_expr);

struct Interval {
  // Inclusive bounds, signed domain is never used (all vars unsigned).
  uint64_t lo = 0;
  uint64_t hi = ~uint64_t{0};

  bool Empty() const { return lo > hi; }
  bool operator==(const Interval&) const = default;
};

// Tightens per-variable intervals (bounds propagation over every atom's
// terms). Returns false if some interval becomes empty.
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
