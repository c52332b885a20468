#include "src/sym/solver.h"

#include <algorithm>
#include <cstdlib>
#include <iterator>
#include <map>
#include <numeric>
#include <optional>
#include <unordered_map>

#include "src/util/logging.h"

namespace dice::sym {

using solver_internal::Interval;
using solver_internal::LinCmp;
using solver_internal::LinearAtom;
using solver_internal::LinearTerm;
using solver_internal::Linearize;
using solver_internal::PropagateIntervals;
using solver_internal::SliceConstraints;
using solver_internal::SliceResult;

namespace solver_internal {
namespace {

// Floor/ceil division for int64 (C++ division truncates toward zero).
int64_t FloorDiv(int64_t a, int64_t b) {
  DICE_CHECK_NE(b, 0);
  int64_t q = a / b;
  if ((a % b != 0) && ((a < 0) != (b < 0))) {
    --q;
  }
  return q;
}

int64_t CeilDiv(int64_t a, int64_t b) {
  DICE_CHECK_NE(b, 0);
  int64_t q = a / b;
  if ((a % b != 0) && ((a < 0) == (b < 0))) {
    ++q;
  }
  return q;
}

// Linear form under construction: coefficient map + constant.
struct LinForm {
  std::map<VarId, int64_t> coefs;
  int64_t constant = 0;
};

// Magnitude guards chosen so every intermediate fits comfortably in int64:
// coefficients stay below 2^20, variable values below 2^33 (our variables are
// at most 32-bit), constants below 2^40 (prefix bounds like 0xffffffff are
// common); any per-atom sum is then < 64 terms * 2^20 * 2^33 < 2^60.
constexpr int64_t kCoefLimit = int64_t{1} << 20;
constexpr int64_t kConstLimit = int64_t{1} << 40;

bool ExtractLinear(const ExprPtr& e, LinForm& out, int64_t scale) {
  if (std::abs(scale) > kCoefLimit) {
    return false;
  }
  switch (e->op()) {
    case Op::kConst: {
      if (e->imm() > static_cast<uint64_t>(kConstLimit)) {
        return false;
      }
      __int128 c = static_cast<__int128>(scale) * static_cast<int64_t>(e->imm());
      __int128 acc = static_cast<__int128>(out.constant) + c;
      if (acc > (static_cast<__int128>(1) << 62) || acc < -(static_cast<__int128>(1) << 62)) {
        return false;
      }
      out.constant = static_cast<int64_t>(acc);
      return true;
    }
    case Op::kVar: {
      int64_t& coef = out.coefs[static_cast<VarId>(e->imm())];
      coef += scale;
      if (std::abs(coef) > kCoefLimit) {
        return false;
      }
      return true;
    }
    case Op::kAdd:
      return ExtractLinear(e->lhs(), out, scale) && ExtractLinear(e->rhs(), out, scale);
    case Op::kSub:
      return ExtractLinear(e->lhs(), out, scale) && ExtractLinear(e->rhs(), out, -scale);
    case Op::kMul: {
      if (e->lhs()->IsConst()) {
        int64_t c = static_cast<int64_t>(e->lhs()->imm());
        if (std::abs(c) > kCoefLimit) {
          return false;
        }
        return ExtractLinear(e->rhs(), out, scale * c);
      }
      if (e->rhs()->IsConst()) {
        int64_t c = static_cast<int64_t>(e->rhs()->imm());
        if (std::abs(c) > kCoefLimit) {
          return false;
        }
        return ExtractLinear(e->lhs(), out, scale * c);
      }
      return false;  // variable * variable is non-linear
    }
    case Op::kShl: {
      if (e->rhs()->IsConst() && e->rhs()->imm() < 20) {
        return ExtractLinear(e->lhs(), out, scale * (int64_t{1} << e->rhs()->imm()));
      }
      return false;
    }
    default:
      return false;  // masks, xor, shr: non-linear for our purposes
  }
}

}  // namespace

std::optional<LinearAtom> Linearize(const ExprPtr& cmp_expr) {
  LinCmp cmp;
  switch (cmp_expr->op()) {
    case Op::kEq: cmp = LinCmp::kEq; break;
    case Op::kNe: cmp = LinCmp::kNe; break;
    case Op::kULt: cmp = LinCmp::kLt; break;
    case Op::kULe: cmp = LinCmp::kLe; break;
    case Op::kUGt: cmp = LinCmp::kGt; break;
    case Op::kUGe: cmp = LinCmp::kGe; break;
    default:
      return std::nullopt;
  }
  LinForm lhs;
  if (!ExtractLinear(cmp_expr->lhs(), lhs, 1) || !ExtractLinear(cmp_expr->rhs(), lhs, -1)) {
    return std::nullopt;
  }
  LinearAtom atom;
  atom.cmp = cmp;
  atom.rhs = -lhs.constant;  // move the constant to the right-hand side
  for (const auto& [var, coef] : lhs.coefs) {
    if (coef != 0) {
      atom.terms.push_back(LinearTerm{var, coef});
    }
  }
  // Normalize strict comparisons to non-strict over integers.
  if (atom.cmp == LinCmp::kLt) {
    atom.cmp = LinCmp::kLe;
    atom.rhs -= 1;
  } else if (atom.cmp == LinCmp::kGt) {
    atom.cmp = LinCmp::kGe;
    atom.rhs += 1;
  }
  return atom;
}

namespace {

// Minimum/maximum achievable value of sum(terms) under the given domains,
// excluding the term at `skip` (SIZE_MAX to include all).
void SumBounds(const LinearAtom& atom, const std::vector<Interval>& domains, size_t skip,
               int64_t& min_sum, int64_t& max_sum) {
  min_sum = 0;
  max_sum = 0;
  for (size_t i = 0; i < atom.terms.size(); ++i) {
    if (i == skip) {
      continue;
    }
    const LinearTerm& t = atom.terms[i];
    const Interval& d = domains[t.var];
    int64_t lo = static_cast<int64_t>(d.lo);
    int64_t hi = static_cast<int64_t>(d.hi);
    if (t.coef >= 0) {
      min_sum += t.coef * lo;
      max_sum += t.coef * hi;
    } else {
      min_sum += t.coef * hi;
      max_sum += t.coef * lo;
    }
  }
}

// Tightens the domain of atom.terms[idx] using the other terms' bounds.
// Returns false if the domain becomes empty.
bool TightenOne(const LinearAtom& atom, size_t idx, std::vector<Interval>& domains) {
  const LinearTerm& t = atom.terms[idx];
  Interval& d = domains[t.var];
  int64_t min_rest;
  int64_t max_rest;
  SumBounds(atom, domains, idx, min_rest, max_rest);

  auto apply_le = [&](int64_t bound_rhs) {
    // t.coef * x <= bound_rhs - min_rest
    int64_t avail = bound_rhs - min_rest;
    if (t.coef > 0) {
      int64_t ub = FloorDiv(avail, t.coef);
      if (ub < static_cast<int64_t>(d.lo)) {
        d = Interval{1, 0};
        return;
      }
      d.hi = std::min<uint64_t>(d.hi, static_cast<uint64_t>(std::max<int64_t>(ub, 0)));
      if (ub < 0) {
        d = Interval{1, 0};
      }
    } else {
      int64_t lb = CeilDiv(avail, t.coef);  // dividing by negative flips
      if (lb > static_cast<int64_t>(d.hi)) {
        d = Interval{1, 0};
        return;
      }
      if (lb > 0) {
        d.lo = std::max<uint64_t>(d.lo, static_cast<uint64_t>(lb));
      }
    }
  };
  auto apply_ge = [&](int64_t bound_rhs) {
    // t.coef * x >= bound_rhs - max_rest
    int64_t need = bound_rhs - max_rest;
    if (t.coef > 0) {
      int64_t lb = CeilDiv(need, t.coef);
      if (lb > static_cast<int64_t>(d.hi)) {
        d = Interval{1, 0};
        return;
      }
      if (lb > 0) {
        d.lo = std::max<uint64_t>(d.lo, static_cast<uint64_t>(lb));
      }
    } else {
      int64_t ub = FloorDiv(need, t.coef);
      if (ub < static_cast<int64_t>(d.lo)) {
        d = Interval{1, 0};
        return;
      }
      d.hi = std::min<uint64_t>(d.hi, static_cast<uint64_t>(std::max<int64_t>(ub, 0)));
      if (ub < 0) {
        d = Interval{1, 0};
      }
    }
  };

  switch (atom.cmp) {
    case LinCmp::kLe:
      apply_le(atom.rhs);
      break;
    case LinCmp::kGe:
      apply_ge(atom.rhs);
      break;
    case LinCmp::kEq:
      apply_le(atom.rhs);
      if (!d.Empty()) {
        apply_ge(atom.rhs);
      }
      break;
    case LinCmp::kNe:
      // Only prunes when the domain is a single point equal to the only
      // solution; handled by the search instead.
      break;
    case LinCmp::kLt:
    case LinCmp::kGt:
      DICE_LOG(kFatal) << "strict comparisons are normalized away";
  }
  return !d.Empty();
}

}  // namespace

bool PropagateIntervals(const std::vector<LinearAtom>& atoms, std::vector<Interval>& domains,
                        const std::vector<VarInfo>& vars) {
  (void)vars;
  for (int round = 0; round < 4; ++round) {
    bool changed = false;
    for (const LinearAtom& atom : atoms) {
      for (size_t i = 0; i < atom.terms.size(); ++i) {
        Interval before = domains[atom.terms[i].var];
        if (!TightenOne(atom, i, domains)) {
          return false;
        }
        const Interval& after = domains[atom.terms[i].var];
        if (after.lo != before.lo || after.hi != before.hi) {
          changed = true;
        }
      }
    }
    if (!changed) {
      break;
    }
  }
  return true;
}

namespace {

// Labels each constraint with its connected component: constraints sharing a
// variable, directly or through others, get the same label (the index of a
// member constraint).
std::vector<size_t> ComponentLabels(const std::vector<ExprPtr>& constraints) {
  const size_t n = constraints.size();
  std::vector<size_t> parent(n);
  std::iota(parent.begin(), parent.end(), size_t{0});
  auto find = [&parent](size_t i) -> size_t {
    while (parent[i] != i) {
      parent[i] = parent[parent[i]];
      i = parent[i];
    }
    return i;
  };
  std::unordered_map<VarId, size_t> var_owner;  // variable -> first constraint seen
  for (size_t i = 0; i < n; ++i) {
    for (VarId v : constraints[i]->vars()) {
      auto [it, inserted] = var_owner.emplace(v, i);
      if (!inserted) {
        parent[find(i)] = find(it->second);
      }
    }
  }
  std::vector<size_t> labels(n);
  for (size_t i = 0; i < n; ++i) {
    labels[i] = find(i);
  }
  return labels;
}

}  // namespace

SliceResult SliceConstraints(const std::vector<ExprPtr>& constraints,
                             const std::vector<uint64_t>& base_dense) {
  SliceResult out;
  const size_t n = constraints.size();
  const std::vector<size_t> component = ComponentLabels(constraints);

  // A component must be solved iff the hint-completed base violates at least
  // one of its constraints. Variable-free constraints are constants: a false
  // one refutes the whole conjunction, a true one is dropped outright.
  std::vector<char> component_violated(n, 0);
  for (size_t i = 0; i < n; ++i) {
    bool satisfied = constraints[i]->EvalDense(base_dense) != 0;
    if (constraints[i]->vars().empty()) {
      if (!satisfied) {
        out.trivially_unsat = true;
        out.active.clear();
        out.sliced_away = 0;
        return out;
      }
      continue;
    }
    if (!satisfied) {
      component_violated[component[i]] = 1;
    }
  }
  for (size_t i = 0; i < n; ++i) {
    if (constraints[i]->vars().empty()) {
      ++out.sliced_away;  // constant-true
      continue;
    }
    if (component_violated[component[i]] != 0) {
      out.active.push_back(constraints[i]);
    } else {
      ++out.sliced_away;
    }
  }
  return out;
}

}  // namespace solver_internal

namespace {

// Fingerprint of the variable universe (ids, widths, domain bounds): cached
// verdicts are only sound for the domains they were computed under.
uint64_t VarsFingerprint(const std::vector<VarInfo>& vars) {
  uint64_t h = 0x2545f4914f6cdd1dULL;
  for (const VarInfo& v : vars) {
    h = HashCombine(h, v.id);
    h = HashCombine(h, v.bits);
    h = HashCombine(h, v.lo);
    h = HashCombine(h, v.hi);
  }
  return h;
}

}  // namespace

// --- QueryCache --------------------------------------------------------------

QueryCache::QueryCache(size_t max_entries, size_t max_cores)
    : max_entries_per_group_(std::max<size_t>(1, max_entries / kGroups)),
      max_cores_(max_cores),
      groups_(kGroups) {}

void QueryCache::ResetIfVarsChanged(const std::vector<VarInfo>& vars) {
  const uint64_t h = VarsFingerprint(vars);
  if (vars_fingerprint_ == h) {
    return;
  }
  for (Group& group : groups_) {
    group.clear();
  }
  cores_.clear();
  vars_fingerprint_ = h;
}

const QueryCache::Entry* QueryCache::Find(const QueryKey& key) const {
  const Group& group = groups_[GroupOf(key)];
  auto it = group.find(key);
  return it == group.end() ? nullptr : &it->second;
}

bool QueryCache::MatchesUnsatCore(const QueryKey& key, bool* matched_preloaded) const {
  for (const Core& core : cores_) {
    if (core.key.size() <= key.size() &&
        std::includes(key.begin(), key.end(), core.key.begin(), core.key.end())) {
      if (matched_preloaded != nullptr) {
        *matched_preloaded = core.preloaded;
      }
      return true;
    }
  }
  return false;
}

void QueryCache::Store(QueryKey key, Entry entry) {
  Group& group = groups_[GroupOf(key)];
  if (group.size() >= max_entries_per_group_) {
    group.clear();
  }
  group.insert_or_assign(std::move(key), std::move(entry));
}

void QueryCache::PublishCores(std::vector<Core> cores) {
  for (Core& core : cores) {
    bool duplicate = false;
    for (const Core& existing : cores_) {
      if (existing.key == core.key) {
        duplicate = true;
        break;
      }
    }
    if (duplicate) {
      continue;
    }
    cores_.push_back(std::move(core));
    if (cores_.size() > max_cores_) {
      cores_.pop_front();
    }
  }
}

QueryCache::Exported QueryCache::Export() const {
  Exported out;
  out.vars_fingerprint = vars_fingerprint_;
  for (const Group& group : groups_) {
    out.entries.reserve(out.entries.size() + group.size());
    // dice-lint: unordered-iteration-ok(collected wholesale, then sorted by key below)
    for (const auto& [key, entry] : group) {
      out.entries.emplace_back(key, entry);
    }
  }
  std::sort(out.entries.begin(), out.entries.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  out.cores.assign(cores_.begin(), cores_.end());
  return out;
}

void QueryCache::Import(Exported snapshot) {
  for (Group& group : groups_) {
    group.clear();
  }
  cores_.clear();
  for (Core& core : snapshot.cores) {
    if (cores_.size() >= max_cores_) {
      break;
    }
    core.preloaded = true;
    cores_.push_back(std::move(core));
  }
  for (auto& [key, entry] : snapshot.entries) {
    Group& group = groups_[GroupOf(key)];
    if (group.size() >= max_entries_per_group_) {
      continue;  // capacity-capped import: keep what fits, stay warm
    }
    entry.preloaded = true;
    group.insert_or_assign(std::move(key), std::move(entry));
  }
  // The first ResetIfVarsChanged after a warm start keeps these entries iff
  // the live variable universe matches the one the snapshot was computed
  // under.
  vars_fingerprint_ = snapshot.vars_fingerprint;
}

// --- Exact search over interval-set domains -----------------------------------

namespace {

constexpr uint64_t kMaxValue = ~uint64_t{0};

// Bounds for the cross-run cache (entries / retained UNSAT cores).
constexpr size_t kMaxCacheEntries = 4096;
constexpr size_t kMaxUnsatCores = 1024;

// Values the search may pin while enumerating multi-variable linear or
// non-linear atoms, per decided constraint set. Running out is the only way
// a query ends kUnknown.
constexpr size_t kMaxEnumeratedValues = 4096;

// A sorted list of disjoint closed intervals.
using IntervalSet = std::vector<Interval>;

IntervalSet Point(uint64_t v) { return {Interval{v, v}}; }

bool Singleton(const IntervalSet& set) { return set.size() == 1 && set[0].lo == set[0].hi; }

IntervalSet Intersect(const IntervalSet& a, const IntervalSet& b) {
  IntervalSet out;
  for (size_t i = 0, j = 0; i < a.size() && j < b.size();) {
    const Interval both{std::max(a[i].lo, b[j].lo), std::min(a[i].hi, b[j].hi)};
    if (!both.Empty()) {
      out.push_back(both);
    }
    (a[i].hi < b[j].hi ? i : j) += 1;
  }
  return out;
}

IntervalSet Complement(const IntervalSet& set) {
  IntervalSet out;
  uint64_t next = 0;  // lowest value not yet covered
  for (const Interval& r : set) {
    if (r.lo > next) {
      out.push_back(Interval{next, r.lo - 1});
    }
    if (r.hi == kMaxValue) {
      return out;
    }
    next = r.hi + 1;
  }
  out.push_back(Interval{next, kMaxValue});
  return out;
}

// The value of non-empty `set` nearest `anchor`, the lower one on a tie.
uint64_t Nearest(const IntervalSet& set, uint64_t anchor) {
  auto above = std::lower_bound(set.begin(), set.end(), anchor,
                                [](const Interval& r, uint64_t x) { return r.hi < x; });
  if (above != set.end() && above->lo <= anchor) {
    return anchor;
  }
  if (above == set.begin()) {
    return above->lo;
  }
  const uint64_t below = std::prev(above)->hi;
  return above == set.end() || anchor - below <= above->lo - anchor ? below : above->lo;
}

enum class Truth : uint8_t { kFalse, kTrue, kUndecided };

// Whether domain `d` lies inside `s` (kTrue), outside it (kFalse), or both.
Truth Relate(const IntervalSet& d, const IntervalSet& s) {
  const IntervalSet inside = Intersect(d, s);
  return inside.empty() ? Truth::kFalse : (inside == d ? Truth::kTrue : Truth::kUndecided);
}

LinearAtom Negated(LinearAtom atom) {
  switch (atom.cmp) {
    case LinCmp::kEq: atom.cmp = LinCmp::kNe; break;
    case LinCmp::kNe: atom.cmp = LinCmp::kEq; break;
    case LinCmp::kLe: atom.cmp = LinCmp::kGe; atom.rhs += 1; break;
    case LinCmp::kGe: atom.cmp = LinCmp::kLe; atom.rhs -= 1; break;
    default: DICE_LOG(kFatal) << "strict comparisons are normalized away";
  }
  return atom;
}

// The values x with coef * x CMP rhs; a zero coef leaves 0 CMP rhs.
IntervalSet AtomSet(int64_t coef, LinCmp cmp, int64_t rhs) {
  const IntervalSet all = Complement({});
  if (coef == 0) {
    const bool holds = cmp == LinCmp::kEq ? rhs == 0
                       : cmp == LinCmp::kNe ? rhs != 0
                       : cmp == LinCmp::kLe ? rhs >= 0
                                            : rhs <= 0;
    return holds ? all : IntervalSet{};
  }
  if (cmp == LinCmp::kEq || cmp == LinCmp::kNe) {
    const bool exact = rhs % coef == 0 && rhs / coef >= 0;
    const IntervalSet point = exact ? Point(static_cast<uint64_t>(rhs / coef)) : IntervalSet{};
    return cmp == LinCmp::kEq ? point : Complement(point);
  }
  // coef * x <= rhs bounds x above for a positive coef and below for a
  // negative one (and the other way round for >=).
  if ((cmp == LinCmp::kLe) == (coef > 0)) {
    const int64_t ub = solver_internal::FloorDiv(rhs, coef);
    return ub < 0 ? IntervalSet{} : IntervalSet{Interval{0, static_cast<uint64_t>(ub)}};
  }
  const int64_t lb = solver_internal::CeilDiv(rhs, coef);
  return lb <= 0 ? all : IntervalSet{Interval{static_cast<uint64_t>(lb), kMaxValue}};
}

// The values of a sub-formula over one variable, or nullopt when some atom
// has no interval reading (a product of variables, a shift by a variable).
std::optional<IntervalSet> SetOf(const ExprPtr& e) {
  if (e->op() == Op::kConst) {
    return e->imm() != 0 ? Complement({}) : IntervalSet{};
  }
  if (e->op() == Op::kLNot || e->op() == Op::kLAnd || e->op() == Op::kLOr) {
    std::optional<IntervalSet> a = SetOf(e->lhs());
    if (!a.has_value() || e->op() == Op::kLNot) {
      return a.has_value() ? std::optional(Complement(*a)) : std::nullopt;
    }
    std::optional<IntervalSet> b = SetOf(e->rhs());
    if (!b.has_value()) {
      return std::nullopt;
    }
    // a || b is the complement of !a && !b.
    return e->op() == Op::kLAnd ? Intersect(*a, *b)
                                : Complement(Intersect(Complement(*a), Complement(*b)));
  }
  std::optional<LinearAtom> atom = Linearize(e);
  if (!atom.has_value() || atom->terms.size() > 1) {
    return std::nullopt;
  }
  return AtomSet(atom->terms.empty() ? 0 : atom->terms[0].coef, atom->cmp, atom->rhs);
}

// One query's constraints as formulas over interval-set domains, and the
// exact DPLL-style search that decides any subset of them.
class ExactSearch {
 public:
  ExactSearch(const std::vector<ExprPtr>& constraints, const std::vector<VarInfo>& vars,
              const std::vector<uint64_t>& hint)
      : constraints_(constraints), vars_(vars), hint_(hint), domains_(hint.size()) {
    for (const VarInfo& v : vars_) {
      const uint64_t width_max = v.bits >= 64 ? kMaxValue : ((uint64_t{1} << v.bits) - 1);
      domains_[v.id] = Intersect({Interval{v.lo, v.hi}}, {Interval{0, width_max}});
    }
    for (const ExprPtr& c : constraints_) {
      roots_.push_back(Build(c, /*neg=*/false));
    }
  }

  // Decides all constraints, one independent component at a time. On kSat,
  // `model` (dense, hint-initialized) holds the solution.
  SolveKind SolveAll(std::vector<uint64_t>& model) {
    const std::vector<size_t> labels = solver_internal::ComponentLabels(constraints_);
    std::map<size_t, std::vector<size_t>> components;
    for (size_t i = 0; i < labels.size(); ++i) {
      components[labels[i]].push_back(i);
    }
    SolveKind kind = SolveKind::kSat;
    for (auto& [label, members] : components) {
      const SolveKind part = Decide(std::move(members), model);
      if (part == SolveKind::kUnsat) {
        return part;
      }
      kind = part == SolveKind::kUnknown ? part : kind;
    }
    return kind;
  }

  // Decides the conjunction of constraints[i] for i in `subset`; on kSat,
  // writes the subset's variables into `model`. The subset is taken in
  // structural-hash order, so the verdict and model depend only on the
  // constraint set and the hint.
  SolveKind Decide(std::vector<size_t> subset, std::vector<uint64_t>& model) {
    std::stable_sort(subset.begin(), subset.end(), [this](size_t a, size_t b) {
      return constraints_[a]->hash() < constraints_[b]->hash();
    });
    State state{domains_, {}};
    support_.clear();
    for (size_t i : subset) {
      state.open.push_back(Ref{roots_[i], false});
      support_.insert(support_.end(), constraints_[i]->vars().begin(),
                      constraints_[i]->vars().end());
    }
    std::sort(support_.begin(), support_.end());
    support_.erase(std::unique(support_.begin(), support_.end()), support_.end());
    if (std::any_of(support_.begin(), support_.end(),
                    [&](VarId v) { return state.domains[v].empty(); })) {
      return SolveKind::kUnsat;  // lo > hi: a variable has no value at all
    }
    budget_ = kMaxEnumeratedValues;
    return Search(std::move(state), model);
  }

 private:
  // A formula node in negation normal form; kAnd/kOr children are node
  // indices. Every node keeps its source expression: it holds at a point iff
  // the expression evaluates nonzero there, flipped when expr_neg.
  struct Node {
    enum class Kind : uint8_t { kConst, kSet, kLinear, kOpaque, kAnd, kOr };
    Kind kind = Kind::kConst;
    ExprPtr expr;
    bool expr_neg = false;
    VarId var = 0;        // kSet: the node holds iff var is in set
    IntervalSet set;
    LinearAtom atom;      // kLinear
    uint32_t lhs = 0;     // kAnd / kOr
    uint32_t rhs = 0;
  };

  // A node taken positively or negated.
  struct Ref {
    uint32_t node;
    bool neg;
  };

  struct State {
    std::vector<IntervalSet> domains;  // indexed by VarId
    std::vector<Ref> open;             // constraints not yet entailed by the domains
  };

  // A single-variable sub-formula: it holds exactly when var is in set.
  struct Split {
    VarId var;
    IntervalSet set;
  };

  uint32_t Build(const ExprPtr& e, bool neg) {
    if (e->op() == Op::kLNot) {
      return Build(e->lhs(), !neg);
    }
    Node n;
    n.expr = e;
    n.expr_neg = neg;
    std::optional<IntervalSet> set = e->vars().size() == 1 ? SetOf(e) : std::nullopt;
    std::optional<LinearAtom> atom;
    if (set.has_value()) {
      n.kind = Node::Kind::kSet;
      n.var = e->vars()[0];
      n.set = neg ? Complement(*set) : std::move(*set);
    } else if (e->op() == Op::kLAnd || e->op() == Op::kLOr) {
      n.kind = (e->op() == Op::kLAnd) != neg ? Node::Kind::kAnd : Node::Kind::kOr;
      n.lhs = Build(e->lhs(), neg);
      n.rhs = Build(e->rhs(), neg);
    } else if (!e->vars().empty() && (atom = Linearize(e)).has_value()) {
      n.kind = Node::Kind::kLinear;
      n.atom = neg ? Negated(*atom) : std::move(*atom);
    } else {
      n.kind = e->vars().empty() ? Node::Kind::kConst : Node::Kind::kOpaque;
    }
    nodes_.push_back(std::move(n));
    return static_cast<uint32_t>(nodes_.size() - 1);
  }

  bool IsAndOr(const Node& n) const {
    return n.kind == Node::Kind::kAnd || n.kind == Node::Kind::kOr;
  }
  bool AndLike(const Node& n, Ref r) const { return (n.kind == Node::Kind::kAnd) != r.neg; }

  bool Holds(Ref r, const std::vector<uint64_t>& point) const {
    const Node& n = nodes_[r.node];
    return ((n.expr->EvalDense(point) != 0) != n.expr_neg) != r.neg;
  }

  // The exact single-variable reading of a leaf under `s`: a set leaf, or a
  // linear atom with one variable left non-singleton.
  std::optional<Split> LeafSet(Ref r, const State& s) const {
    const Node& n = nodes_[r.node];
    if (n.kind == Node::Kind::kSet) {
      return Split{n.var, r.neg ? Complement(n.set) : n.set};
    }
    if (n.kind != Node::Kind::kLinear) {
      return std::nullopt;
    }
    const LinearAtom atom = r.neg ? Negated(n.atom) : n.atom;
    const LinearTerm* free = nullptr;
    int64_t rhs = atom.rhs;
    for (const LinearTerm& t : atom.terms) {
      if (Singleton(s.domains[t.var])) {
        rhs -= t.coef * static_cast<int64_t>(s.domains[t.var][0].lo);
      } else if (free != nullptr) {
        return std::nullopt;
      } else {
        free = &t;
      }
    }
    if (free == nullptr) {
      return std::nullopt;
    }
    return Split{free->var, AtomSet(free->coef, atom.cmp, rhs)};
  }

  Truth Eval(Ref r, const State& s) const {
    const Node& n = nodes_[r.node];
    if (IsAndOr(n)) {
      // A conjunction is decided by a false side, a disjunction by a true one.
      const Truth decisive = AndLike(n, r) ? Truth::kFalse : Truth::kTrue;
      const Truth a = Eval(Ref{n.lhs, r.neg}, s);
      const Truth b = a == decisive ? a : Eval(Ref{n.rhs, r.neg}, s);
      return a == decisive || b == decisive || a == b ? b : Truth::kUndecided;
    }
    if (n.kind == Node::Kind::kSet) {
      const Truth t = Relate(s.domains[n.var], n.set);
      if (t == Truth::kUndecided || !r.neg) {
        return t;
      }
      return t == Truth::kTrue ? Truth::kFalse : Truth::kTrue;
    }
    if (std::optional<Split> leaf = LeafSet(r, s)) {
      return Relate(s.domains[leaf->var], leaf->set);
    }
    // Constants, and atoms whose variables are all pinned, evaluate exactly.
    for (VarId v : n.expr->vars()) {
      if (!Singleton(s.domains[v])) {
        return Truth::kUndecided;
      }
    }
    std::vector<uint64_t> point = hint_;
    for (VarId v : n.expr->vars()) {
      point[v] = s.domains[v][0].lo;
    }
    return Holds(r, point) ? Truth::kTrue : Truth::kFalse;
  }

  // Tightens the domains' hulls with the open multi-variable linear atoms.
  // Returns false on a conflict; sets `changed` when a domain shrank.
  bool TightenLinear(State& s, bool& changed) const {
    std::vector<LinearAtom> atoms;
    for (const Ref& r : s.open) {
      const Node& n = nodes_[r.node];
      if (n.kind == Node::Kind::kLinear) {
        atoms.push_back(r.neg ? Negated(n.atom) : n.atom);
      }
    }
    // Only variables of the decided subset are read; others may be empty.
    std::vector<Interval> hulls(s.domains.size());
    for (VarId v : support_) {
      hulls[v] = Interval{s.domains[v].front().lo, s.domains[v].back().hi};
    }
    if (atoms.empty() || !PropagateIntervals(atoms, hulls, vars_)) {
      return atoms.empty();
    }
    for (VarId v : support_) {
      IntervalSet tightened = Intersect(s.domains[v], {hulls[v]});
      if (tightened.empty()) {
        return false;
      }
      changed = changed || tightened != s.domains[v];
      s.domains[v] = std::move(tightened);
    }
    return true;
  }

  // Unit propagation to a fixpoint: drops entailed constraints, intersects
  // single-variable ones into the domains, splits conjunctions, and forces a
  // disjunction's one live side. Returns false on a conflict.
  bool Propagate(State& s) const {
    for (bool tightened = false;;) {
      bool changed = false;
      std::vector<Ref> open;
      for (size_t i = 0; i < s.open.size(); ++i) {  // s.open grows as conjunctions split
        const Ref r = s.open[i];
        const Node& n = nodes_[r.node];
        const Truth truth = Eval(r, s);
        if (truth != Truth::kUndecided) {
          if (truth == Truth::kFalse) {
            return false;
          }
        } else if (std::optional<Split> leaf = LeafSet(r, s)) {
          s.domains[leaf->var] = Intersect(s.domains[leaf->var], leaf->set);
          changed = true;
        } else if (!IsAndOr(n)) {
          open.push_back(r);  // multi-variable linear or non-linear atom
        } else if (AndLike(n, r)) {
          s.open.push_back(Ref{n.lhs, r.neg});
          s.open.push_back(Ref{n.rhs, r.neg});
        } else if (Eval(Ref{n.lhs, r.neg}, s) == Truth::kFalse) {
          s.open.push_back(Ref{n.rhs, r.neg});
        } else if (Eval(Ref{n.rhs, r.neg}, s) == Truth::kFalse) {
          s.open.push_back(Ref{n.lhs, r.neg});
        } else {
          open.push_back(r);
        }
      }
      s.open = std::move(open);
      // Bounds propagation runs once per call: on cyclic atoms (x < y,
      // y < x) it would otherwise shave one value per round.
      if (!changed && !tightened) {
        tightened = true;
        if (!TightenLinear(s, changed)) {
          return false;
        }
      }
      if (!changed) {
        return true;
      }
    }
  }

  // The first undecided single-variable sub-formula under `r`, visiting a
  // disjunction's side the hint satisfies first (else its left side). Other
  // undecided leaves lower `pin` to their lowest non-singleton variable.
  std::optional<Split> FindSplit(Ref r, const State& s, VarId& pin) const {
    const Node& n = nodes_[r.node];
    if (!IsAndOr(n)) {
      std::optional<Split> leaf = LeafSet(r, s);
      for (VarId v : n.expr->vars()) {
        if (!leaf.has_value() && !Singleton(s.domains[v])) {
          pin = std::min(pin, v);
        }
      }
      return leaf;
    }
    Ref first{n.lhs, r.neg};
    Ref second{n.rhs, r.neg};
    if (!AndLike(n, r) && !Holds(first, hint_) && Holds(second, hint_)) {
      std::swap(first, second);
    }
    for (Ref kid : {first, second}) {
      if (Eval(kid, s) == Truth::kUndecided) {
        if (std::optional<Split> split = FindSplit(kid, s, pin)) {
          return split;
        }
      }
    }
    return std::nullopt;
  }

  // kUnknown: the enumeration budget ran out before a model or a proof.
  SolveKind Search(State s, std::vector<uint64_t>& model) {
    if (!Propagate(s)) {
      return SolveKind::kUnsat;
    }
    if (s.open.empty()) {
      // Every constraint holds on the whole box: take its point nearest the hint.
      for (VarId v : support_) {
        model[v] = Nearest(s.domains[v], hint_[v]);
      }
      return SolveKind::kSat;
    }
    VarId pin = ~VarId{0};
    std::optional<Split> split;
    for (size_t i = 0; i < s.open.size() && !split.has_value(); ++i) {
      split = FindSplit(s.open[i], s, pin);
    }
    if (split.has_value()) {
      // Branch on the sub-formula: true first, then false.
      State other = s;
      other.domains[split->var] = Intersect(s.domains[split->var], Complement(split->set));
      s.domains[split->var] = Intersect(s.domains[split->var], split->set);
      const SolveKind first = Search(std::move(s), model);
      if (first == SolveKind::kSat) {
        return first;
      }
      const SolveKind second = Search(std::move(other), model);
      return second == SolveKind::kSat || first != SolveKind::kUnknown ? second : first;
    }
    // Only multi-variable linear or non-linear atoms are left: pin their
    // lowest free variable to its values in order of distance from the hint.
    DICE_CHECK_LT(pin, s.domains.size());
    bool gave_up = false;
    while (!s.domains[pin].empty()) {
      if (budget_ == 0) {
        return SolveKind::kUnknown;
      }
      --budget_;
      State pinned = s;
      pinned.domains[pin] = Point(Nearest(s.domains[pin], hint_[pin]));
      s.domains[pin] = Intersect(s.domains[pin], Complement(pinned.domains[pin]));
      const SolveKind outcome = Search(std::move(pinned), model);
      if (outcome == SolveKind::kSat) {
        return outcome;
      }
      gave_up = gave_up || outcome == SolveKind::kUnknown;
    }
    return gave_up ? SolveKind::kUnknown : SolveKind::kUnsat;
  }

  const std::vector<ExprPtr>& constraints_;
  const std::vector<VarInfo>& vars_;
  std::vector<uint64_t> hint_;
  std::vector<IntervalSet> domains_;  // each variable's [lo, hi] clipped to its width
  std::vector<Node> nodes_;
  std::vector<uint32_t> roots_;       // one node per constraint
  std::vector<VarId> support_;        // variables of the subset being decided
  size_t budget_ = 0;
};

// After a fresh UNSAT verdict, tries to shrink the query to a 1- or
// 2-constraint core, so the UNSAT-superset shortcut generalizes to every
// later query containing the same conflicting pair (concolic candidates share
// these heavily: the same flipped range check conflicts with the same table
// constraint regardless of the surrounding path prefix). Cores are appended
// to `out`.
void LearnUnsatCores(ExactSearch& search, const std::vector<ExprPtr>& query,
                     const std::vector<uint64_t>& base_dense,
                     std::vector<QueryCache::Core>& out) {
  constexpr size_t kMaxQueryForLearning = 128;
  if (query.size() > kMaxQueryForLearning || query.empty()) {
    return;
  }
  // In concolic use the base violates exactly the flipped predicate; a core,
  // if one exists, must contain a violated constraint.
  std::vector<size_t> violated;
  for (size_t i = 0; i < query.size(); ++i) {
    if (query[i]->EvalDense(base_dense) == 0) {
      violated.push_back(i);
      if (violated.size() > 2) {
        return;  // unusual query shape; learning pairs would be a poor fit
      }
    }
  }
  auto add_core = [&](QueryKey core_key, std::vector<ExprPtr> owners) {
    std::sort(core_key.begin(), core_key.end());
    for (const QueryCache::Core& existing : out) {
      if (existing.key == core_key) {
        return;
      }
    }
    out.push_back(QueryCache::Core{std::move(core_key), std::move(owners)});
  };
  std::vector<uint64_t> scratch = base_dense;
  for (size_t v_idx : violated) {
    const ExprPtr& v = query[v_idx];
    if (search.Decide({v_idx}, scratch) == SolveKind::kUnsat) {
      add_core({v->id()}, {v});
      continue;
    }
    for (size_t j = 0; j < query.size(); ++j) {
      if (j != v_idx && search.Decide({v_idx, j}, scratch) == SolveKind::kUnsat) {
        add_core({v->id(), query[j]->id()}, {v, query[j]});
        break;  // one learned pair per violated constraint
      }
    }
  }
}

}  // namespace

// --- Solver ------------------------------------------------------------------

Solver::Solver(SolverOptions options)
    : options_(options), cache_(kMaxCacheEntries, kMaxUnsatCores) {}

SolveResult Solver::Solve(const std::vector<ExprPtr>& constraints,
                          const std::vector<VarInfo>& vars, const Assignment& hint) {
  ++stats_.queries;
  SolveResult result;

  // Base assignment: hint completed with seeds, in dense VarId-indexed form —
  // the whole fast path (verify, slicing, cache validation) runs without
  // hash-map lookups; Assignments are materialized only for returned models.
  size_t max_id = 0;
  for (const VarInfo& v : vars) {
    max_id = std::max<size_t>(max_id, v.id);
  }
  std::vector<uint64_t> base_dense(max_id + 1, 0);
  for (const VarInfo& v : vars) {
    auto it = hint.find(v.id);
    base_dense[v.id] = it != hint.end() ? Expr::MaskTo(it->second, v.bits) : v.seed;
  }

  auto verify_full = [&](const std::vector<uint64_t>& model) {
    for (const ExprPtr& c : constraints) {
      if (c->EvalDense(model) == 0) {
        return false;
      }
    }
    return true;
  };
  auto to_assignment = [&](const std::vector<uint64_t>& model) {
    Assignment dense_as_map;
    dense_as_map.reserve(vars.size());
    for (const VarInfo& v : vars) {
      dense_as_map.emplace(v.id, model[v.id]);
    }
    return dense_as_map;
  };

  // Fast path: maybe the hint already satisfies everything.
  if (verify_full(base_dense)) {
    ++stats_.sat;
    result.kind = SolveKind::kSat;
    result.model = to_assignment(base_dense);
    return result;
  }

  // Independence slicing: keep only the connected components the base
  // assignment violates; the untouched components' variables carry their
  // hint/seed values straight into any model.
  const std::vector<ExprPtr>* query = &constraints;
  SliceResult slice;
  if (options_.enable_slicing) {
    slice = SliceConstraints(constraints, base_dense);
    stats_.atoms_sliced += slice.sliced_away;
    if (slice.trivially_unsat) {
      ++stats_.unsat;
      result.kind = SolveKind::kUnsat;
      return result;
    }
    query = &slice.active;
  }

  // Cross-run query cache over the canonicalized (sorted interned-id) slice.
  QueryKey key;
  if (options_.enable_cache) {
    cache_.ResetIfVarsChanged(vars);
    key.reserve(query->size());
    for (const ExprPtr& c : *query) {
      key.push_back(c->id());
    }
    std::sort(key.begin(), key.end());
    key.erase(std::unique(key.begin(), key.end()), key.end());

    auto serve_sat = [&](const QueryCache::Entry& entry) -> bool {
      // SAT models replay a fresh solve only under the hint they were found
      // from. Order-insensitive: a pure conjunction over all entries.
      // dice-lint: unordered-iteration-ok(pure conjunction, no early-exit side effects)
      for (const auto& [var, value] : entry.hint) {
        if (var >= base_dense.size() || base_dense[var] != value) {
          return false;
        }
      }
      std::vector<uint64_t> scratch = base_dense;
      // Order-insensitive: keys are unique, each write lands in a distinct
      // dense slot, and the result is read only after the loop completes.
      // dice-lint: unordered-iteration-ok(unique keys scatter into distinct dense slots)
      for (const auto& [var, value] : entry.model) {
        if (var < scratch.size()) {
          scratch[var] = value;
        }
      }
      if (!verify_full(scratch)) {
        return false;  // not a model of this query under this hint
      }
      ++stats_.sat;
      result.kind = SolveKind::kSat;
      result.model = to_assignment(scratch);
      return true;
    };

    if (const QueryCache::Entry* entry = cache_.Find(key)) {
      bool served = false;
      if (entry->kind == SolveKind::kUnsat) {
        ++stats_.unsat;
        result.kind = SolveKind::kUnsat;
        served = true;
      } else {
        served = serve_sat(*entry);
      }
      if (served) {
        ++stats_.cache_hits;
        if (entry->preloaded) {
          ++stats_.cache_preloaded_hits;
        }
        return result;
      }
    } else {
      // Any superset of a proven-UNSAT constraint set is UNSAT.
      bool core_preloaded = false;
      if (cache_.MatchesUnsatCore(key, &core_preloaded)) {
        ++stats_.cache_hits;
        ++stats_.cache_unsat_shortcuts;
        ++stats_.unsat;
        if (core_preloaded) {
          ++stats_.cache_preloaded_hits;
        }
        result.kind = SolveKind::kUnsat;
        // Promote to an exact entry so repeats of this query skip the
        // linear core scan; the entry inherits the core's snapshot
        // provenance so later hits keep counting as warm.
        QueryCache::Entry promoted;
        promoted.kind = SolveKind::kUnsat;
        promoted.constraints = *query;
        promoted.preloaded = core_preloaded;
        cache_.Store(std::move(key), std::move(promoted));
        return result;
      }
    }
    ++stats_.cache_misses;
  }

  ExactSearch search(*query, vars, base_dense);
  std::vector<uint64_t> model = base_dense;
  result.kind = search.SolveAll(model);
  if (result.kind == SolveKind::kSat && !verify_full(model)) {
    // Safety net: a sliced model is never trusted without the full-conjunction
    // check, and an interval reading that disagrees with evaluation (a linear
    // form wrapping around its bit width) gives no verdict, not a wrong one.
    result.kind = SolveKind::kUnknown;
  }
  if (result.kind == SolveKind::kSat) {
    result.model = to_assignment(model);
  }

  if (options_.enable_cache && result.kind != SolveKind::kUnknown) {
    QueryCache::Entry entry;
    entry.kind = result.kind;
    entry.constraints = *query;
    if (result.kind == SolveKind::kSat) {
      // Remember the model and its anchoring hint over the query's support.
      for (const ExprPtr& c : *query) {
        for (VarId v : c->vars()) {
          entry.hint.emplace(v, base_dense[v]);
          auto it = result.model.find(v);
          if (it != result.model.end()) {
            entry.model.emplace(v, it->second);
          }
        }
      }
    } else {
      // The full query is itself a proven-UNSAT core; the learner then tries
      // to shrink it to reusable 1-2 constraint cores.
      std::vector<QueryCache::Core> learned;
      learned.push_back(QueryCache::Core{key, *query});
      LearnUnsatCores(search, *query, base_dense, learned);
      cache_.PublishCores(std::move(learned));
    }
    cache_.Store(std::move(key), std::move(entry));
  }

  switch (result.kind) {
    case SolveKind::kSat: ++stats_.sat; break;
    case SolveKind::kUnsat: ++stats_.unsat; break;
    case SolveKind::kUnknown: ++stats_.unknown; break;
  }
  return result;
}

}  // namespace dice::sym
