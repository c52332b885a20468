// A reference decision procedure for path conditions whose atoms compare one
// variable with a constant — the language every product path condition is
// written in. The solver differential tests check each verdict against it.
//
// An atom `x CMP c` changes truth only where x crosses c, so the points
// {lo, hi} ∪ {c-1, c, c+1} of each variable (for every constant c compared
// with it) meet every cell of the formula's truth table. Enumerating their
// cross product decides the conjunction exactly; a constraint is checked as
// soon as all of its variables are set, which keeps independent variables
// from multiplying the work.

#ifndef TESTS_BOUNDARY_ORACLE_H_
#define TESTS_BOUNDARY_ORACLE_H_

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "src/sym/solver.h"

namespace dice::sym {

inline void CollectAtomConstants(const ExprPtr& e, std::map<VarId, std::set<uint64_t>>& out) {
  if (e->lhs() == nullptr || e->rhs() == nullptr) {
    if (e->lhs() != nullptr) {
      CollectAtomConstants(e->lhs(), out);
    }
    return;
  }
  const bool comparison = e->op() == Op::kEq || e->op() == Op::kNe || e->op() == Op::kULt ||
                          e->op() == Op::kULe || e->op() == Op::kUGt || e->op() == Op::kUGe;
  if (comparison && e->lhs()->IsVar() && e->rhs()->IsConst()) {
    out[static_cast<VarId>(e->lhs()->imm())].insert(e->rhs()->imm());
  } else if (comparison && e->rhs()->IsVar() && e->lhs()->IsConst()) {
    out[static_cast<VarId>(e->rhs()->imm())].insert(e->lhs()->imm());
  }
  CollectAtomConstants(e->lhs(), out);
  CollectAtomConstants(e->rhs(), out);
}

// True iff the conjunction of `constraints` has a solution with every
// variable inside its VarInfo [lo, hi], clipped to its bit width.
inline bool BoundaryOracleSat(const std::vector<ExprPtr>& constraints,
                              const std::vector<VarInfo>& vars) {
  std::map<VarId, std::set<uint64_t>> constants;
  std::set<VarId> support;
  for (const ExprPtr& c : constraints) {
    CollectAtomConstants(c, constants);
    support.insert(c->vars().begin(), c->vars().end());
  }
  std::vector<VarId> order(support.begin(), support.end());
  std::vector<std::vector<uint64_t>> points(order.size());
  size_t max_id = 0;
  for (const VarInfo& v : vars) {
    max_id = std::max<size_t>(max_id, v.id);
  }
  for (VarId id : order) {
    max_id = std::max<size_t>(max_id, id);
  }
  for (size_t k = 0; k < order.size(); ++k) {
    auto info = std::find_if(vars.begin(), vars.end(),
                             [&](const VarInfo& v) { return v.id == order[k]; });
    if (info == vars.end()) {
      return false;  // not a declared variable
    }
    const uint64_t width_max =
        info->bits >= 64 ? ~uint64_t{0} : ((uint64_t{1} << info->bits) - 1);
    const uint64_t lo = info->lo;
    const uint64_t hi = std::min(info->hi, width_max);
    std::set<uint64_t> candidates = {lo, hi};
    for (uint64_t c : constants[order[k]]) {
      candidates.insert(c);
      if (c > 0) {
        candidates.insert(c - 1);
      }
      if (c < ~uint64_t{0}) {
        candidates.insert(c + 1);
      }
    }
    for (uint64_t p : candidates) {
      if (p >= lo && p <= hi) {
        points[k].push_back(p);
      }
    }
  }
  // Constraints grouped by the position of their last variable in `order`.
  std::vector<std::vector<ExprPtr>> ready(order.size() + 1);
  for (const ExprPtr& c : constraints) {
    size_t last = 0;
    for (VarId v : c->vars()) {
      last = std::max<size_t>(
          last, 1 + static_cast<size_t>(std::lower_bound(order.begin(), order.end(), v) -
                                        order.begin()));
    }
    ready[last].push_back(c);
  }
  std::vector<uint64_t> point(max_id + 1, 0);
  auto holds = [&](size_t depth) {
    for (const ExprPtr& c : ready[depth]) {
      if (c->EvalDense(point) == 0) {
        return false;
      }
    }
    return true;
  };
  std::function<bool(size_t)> search = [&](size_t k) {
    if (k == order.size()) {
      return true;
    }
    for (uint64_t p : points[k]) {
      point[order[k]] = p;
      if (holds(k + 1) && search(k + 1)) {
        return true;
      }
    }
    return false;
  };
  return holds(0) && search(0);
}

// Checks one query: the verdict equals the oracle's and is never kUnknown, and
// a model satisfies every constraint inside every variable's domain.
inline void ExpectMatchesOracle(Solver& solver, const std::vector<ExprPtr>& constraints,
                                const std::vector<VarInfo>& vars, const Assignment& hint) {
  SolveResult result = solver.Solve(constraints, vars, hint);
  std::string query;
  for (const ExprPtr& c : constraints) {
    query += "\n  " + c->ToString();
  }
  ASSERT_NE(result.kind, SolveKind::kUnknown) << query;
  ASSERT_EQ(result.kind == SolveKind::kSat, BoundaryOracleSat(constraints, vars)) << query;
  if (result.kind != SolveKind::kSat) {
    return;
  }
  for (const ExprPtr& c : constraints) {
    EXPECT_NE(c->Eval(result.model), 0u) << "model violates " << c->ToString() << query;
  }
  for (const VarInfo& v : vars) {
    EXPECT_GE(result.model.at(v.id), v.lo);
    EXPECT_LE(result.model.at(v.id), v.hi);
  }
}

}  // namespace dice::sym

#endif  // TESTS_BOUNDARY_ORACLE_H_
