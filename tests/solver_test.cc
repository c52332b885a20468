// Tests for the path-condition solver: linearization, interval propagation,
// SAT/UNSAT verdicts, disjunction handling, a verification property over
// random constraint systems, and a differential check against the
// boundary-point oracle.

#include <gtest/gtest.h>

#include <functional>
#include <string>

#include "src/sym/solver.h"
#include "src/util/rng.h"
#include "tests/boundary_oracle.h"

namespace dice::sym {
namespace {

using solver_internal::Interval;
using solver_internal::LinCmp;
using solver_internal::Linearize;

std::vector<VarInfo> Vars(std::initializer_list<std::pair<uint64_t, uint64_t>> domains,
                          uint8_t bits = 32) {
  std::vector<VarInfo> out;
  VarId id = 0;
  for (auto [lo, hi] : domains) {
    VarInfo v;
    v.id = id++;
    v.bits = bits;
    v.lo = lo;
    v.hi = hi;
    v.seed = lo;
    out.push_back(v);
  }
  return out;
}

ExprPtr V(VarId id, uint8_t bits = 32) { return Expr::MakeVar(id, bits); }
ExprPtr C(uint64_t v, uint8_t bits = 32) { return Expr::MakeConst(v, bits); }

// --- Linearize -----------------------------------------------------------------

TEST(LinearizeTest, SimpleComparison) {
  auto atom = Linearize(Expr::ULe(V(0), C(10)));
  ASSERT_TRUE(atom.has_value());
  EXPECT_EQ(atom->cmp, LinCmp::kLe);
  EXPECT_EQ(atom->rhs, 10);
  ASSERT_EQ(atom->terms.size(), 1u);
  EXPECT_EQ(atom->terms[0].coef, 1);
}

TEST(LinearizeTest, MovesEverythingLeft) {
  // x + 3 < y  =>  x - y <= -4
  auto atom = Linearize(Expr::ULt(Expr::Add(V(0), C(3)), V(1)));
  ASSERT_TRUE(atom.has_value());
  EXPECT_EQ(atom->cmp, LinCmp::kLe);
  EXPECT_EQ(atom->rhs, -4);
  ASSERT_EQ(atom->terms.size(), 2u);
}

TEST(LinearizeTest, MulByConstAndShl) {
  // 3*x + (y << 2) == 20
  auto atom = Linearize(
      Expr::Eq(Expr::Add(Expr::Mul(C(3), V(0)), Expr::Shl(V(1), C(2))), C(20)));
  ASSERT_TRUE(atom.has_value());
  EXPECT_EQ(atom->rhs, 20);
  int64_t coef0 = 0;
  int64_t coef1 = 0;
  for (const auto& t : atom->terms) {
    (t.var == 0 ? coef0 : coef1) = t.coef;
  }
  EXPECT_EQ(coef0, 3);
  EXPECT_EQ(coef1, 4);
}

TEST(LinearizeTest, CancellingTermsDropOut) {
  // x - x + y <= 5  => y <= 5
  auto atom = Linearize(Expr::ULe(Expr::Add(Expr::Sub(V(0), V(0)), V(1)), C(5)));
  ASSERT_TRUE(atom.has_value());
  ASSERT_EQ(atom->terms.size(), 1u);
  EXPECT_EQ(atom->terms[0].var, 1u);
}

TEST(LinearizeTest, RejectsNonLinear) {
  EXPECT_FALSE(Linearize(Expr::Eq(Expr::Mul(V(0), V(1)), C(6))).has_value());
  EXPECT_FALSE(Linearize(Expr::MakeVar(0, 1)).has_value()) << "bare var is not a comparison";
}

// --- Solve: basic verdicts -------------------------------------------------------

TEST(SolverTest, SingleEquality) {
  Solver solver;
  auto vars = Vars({{0, 1000}});
  auto result = solver.Solve({Expr::Eq(V(0), C(42))}, vars, {});
  ASSERT_EQ(result.kind, SolveKind::kSat);
  EXPECT_EQ(result.model.at(0), 42u);
}

TEST(SolverTest, RangeConjunction) {
  Solver solver;
  auto vars = Vars({{0, 0xffffffff}});
  auto result = solver.Solve({Expr::UGe(V(0), C(100)), Expr::ULe(V(0), C(110)),
                              Expr::Ne(V(0), C(105))},
                             vars, {});
  ASSERT_EQ(result.kind, SolveKind::kSat);
  EXPECT_GE(result.model.at(0), 100u);
  EXPECT_LE(result.model.at(0), 110u);
  EXPECT_NE(result.model.at(0), 105u);
}

TEST(SolverTest, UnsatByIntervals) {
  Solver solver;
  auto vars = Vars({{0, 50}});
  auto result = solver.Solve({Expr::UGe(V(0), C(100))}, vars, {});
  EXPECT_EQ(result.kind, SolveKind::kUnsat);

  result = solver.Solve({Expr::UGt(V(0), C(10)), Expr::ULt(V(0), C(5))}, vars, {});
  EXPECT_EQ(result.kind, SolveKind::kUnsat);
}

TEST(SolverTest, DomainBoundsRespected) {
  Solver solver;
  auto vars = Vars({{0, 32}}, 8);  // e.g. a prefix length
  auto result = solver.Solve({Expr::UGt(V(0, 8), C(24, 8))}, vars, {});
  ASSERT_EQ(result.kind, SolveKind::kSat);
  EXPECT_GT(result.model.at(0), 24u);
  EXPECT_LE(result.model.at(0), 32u);
}

TEST(SolverTest, TwoVariableDifference) {
  Solver solver;
  auto vars = Vars({{0, 100}, {0, 100}});
  // x - y == 7, x <= 20
  auto result = solver.Solve({Expr::Eq(Expr::Sub(V(0), V(1)), C(7)), Expr::ULe(V(0), C(20))},
                             vars, {});
  ASSERT_EQ(result.kind, SolveKind::kSat);
  EXPECT_EQ(result.model.at(0) - result.model.at(1), 7u);
  EXPECT_LE(result.model.at(0), 20u);
}

TEST(SolverTest, DisjunctionPicksFeasibleBranch) {
  Solver solver;
  auto vars = Vars({{0, 50}});
  // (x >= 100 || x == 33)
  auto constraint = Expr::LOr(Expr::UGe(V(0), C(100)), Expr::Eq(V(0), C(33)));
  auto result = solver.Solve({constraint}, vars, {});
  ASSERT_EQ(result.kind, SolveKind::kSat);
  EXPECT_EQ(result.model.at(0), 33u);
}

TEST(SolverTest, NestedDisjunctionAllInfeasible) {
  Solver solver;
  auto vars = Vars({{0, 50}});
  auto constraint = Expr::LOr(Expr::UGe(V(0), C(100)),
                              Expr::LOr(Expr::UGe(V(0), C(200)), Expr::UGe(V(0), C(300))));
  auto result = solver.Solve({constraint}, vars, {});
  EXPECT_EQ(result.kind, SolveKind::kUnsat);
}

TEST(SolverTest, NegationViaLNot) {
  Solver solver;
  auto vars = Vars({{0, 100}});
  // !(x < 50) && x < 60  =>  50 <= x < 60
  auto result = solver.Solve({Expr::LNot(Expr::ULt(V(0), C(50))), Expr::ULt(V(0), C(60))},
                             vars, {});
  ASSERT_EQ(result.kind, SolveKind::kSat);
  EXPECT_GE(result.model.at(0), 50u);
  EXPECT_LT(result.model.at(0), 60u);
}

TEST(SolverTest, HintFastPath) {
  Solver solver;
  auto vars = Vars({{0, 1000}});
  Assignment hint{{0, 77}};
  auto result = solver.Solve({Expr::Eq(V(0), C(77))}, vars, hint);
  ASSERT_EQ(result.kind, SolveKind::kSat);
  EXPECT_EQ(result.model.at(0), 77u);
  EXPECT_EQ(solver.stats().queries, 1u);
}

TEST(SolverTest, PrefixRangeConstraintShape) {
  // The constraint shape prefix-list matching produces:
  // addr in [0x0a010000, 0x0a01ffff] && len in [16, 24], plus the negation
  // of the "already matched" entry.
  Solver solver;
  auto vars = Vars({{0, 0xffffffff}, {0, 32}});
  auto addr_in = Expr::LAnd(Expr::UGe(V(0), C(0x0a010000)), Expr::ULe(V(0), C(0x0a01ffff)));
  auto len_in = Expr::LAnd(Expr::UGe(V(1), C(16)), Expr::ULe(V(1), C(24)));
  auto not_first = Expr::LNot(Expr::LAnd(
      Expr::LAnd(Expr::UGe(V(0), C(0x0a010000)), Expr::ULe(V(0), C(0x0a0100ff))),
      Expr::Eq(V(1), C(24))));
  auto result = solver.Solve({addr_in, len_in, not_first}, vars, {});
  ASSERT_EQ(result.kind, SolveKind::kSat);
  uint64_t addr = result.model.at(0);
  uint64_t len = result.model.at(1);
  EXPECT_GE(addr, 0x0a010000u);
  EXPECT_LE(addr, 0x0a01ffffu);
  EXPECT_GE(len, 16u);
  EXPECT_LE(len, 24u);
  EXPECT_FALSE(addr >= 0x0a010000 && addr <= 0x0a0100ff && len == 24);
}

TEST(SolverTest, ProductOfVariablesIsDecidedOnlyByBoundedEnumeration) {
  Solver solver;
  // Small domains: enumeration finds a model, or exhausts them and proves UNSAT.
  auto small = Vars({{0, 15}, {0, 15}});
  auto product = Expr::Mul(V(0), V(1));
  auto found = solver.Solve({Expr::Eq(product, C(35))}, small, {});
  ASSERT_EQ(found.kind, SolveKind::kSat);
  EXPECT_EQ(found.model.at(0) * found.model.at(1), 35u);
  EXPECT_EQ(solver.Solve({Expr::Eq(product, C(7 * 17))}, small, {}).kind, SolveKind::kUnsat);
  // Full 32-bit domains: the enumeration cap runs out, the one way to kUnknown.
  auto wide = Vars({{0, 0xffffffff}, {0, 0xffffffff}});
  EXPECT_EQ(solver.Solve({Expr::Eq(product, C(1000003))}, wide, {}).kind, SolveKind::kUnknown);
  EXPECT_EQ(solver.stats().unknown, 1u);
}

TEST(SolverTest, StatsAccumulate) {
  Solver solver;
  auto vars = Vars({{0, 10}});
  solver.Solve({Expr::Eq(V(0), C(3))}, vars, {});
  solver.Solve({Expr::UGe(V(0), C(100))}, vars, {});
  EXPECT_EQ(solver.stats().queries, 2u);
  EXPECT_EQ(solver.stats().sat, 1u);
  EXPECT_EQ(solver.stats().unsat, 1u);
}

// --- Property: every kSat model satisfies the constraints -----------------------

class SolverSatProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SolverSatProperty, ModelsVerify) {
  Rng rng(GetParam());
  Solver solver;
  size_t sat_count = 0;

  for (int iter = 0; iter < 120; ++iter) {
    const size_t nvars = 1 + rng.NextBelow(3);
    std::vector<VarInfo> vars;
    for (size_t i = 0; i < nvars; ++i) {
      VarInfo v;
      v.id = static_cast<VarId>(i);
      v.bits = 16;
      v.lo = 0;
      v.hi = 200;
      v.seed = rng.NextBelow(200);
      vars.push_back(v);
    }
    auto term = [&]() -> ExprPtr {
      ExprPtr e = V(static_cast<VarId>(rng.NextBelow(nvars)), 16);
      if (rng.NextBool(0.4)) {
        e = Expr::Add(e, V(static_cast<VarId>(rng.NextBelow(nvars)), 16));
      }
      if (rng.NextBool(0.3)) {
        e = Expr::Mul(e, C(1 + rng.NextBelow(4), 16));
      }
      return e;
    };
    auto atom = [&]() -> ExprPtr {
      ExprPtr lhs = term();
      ExprPtr rhs = C(rng.NextBelow(400), 16);
      switch (rng.NextBelow(6)) {
        case 0: return Expr::Eq(lhs, rhs);
        case 1: return Expr::Ne(lhs, rhs);
        case 2: return Expr::ULt(lhs, rhs);
        case 3: return Expr::ULe(lhs, rhs);
        case 4: return Expr::UGt(lhs, rhs);
        default: return Expr::UGe(lhs, rhs);
      }
    };
    std::vector<ExprPtr> constraints;
    size_t n = 1 + rng.NextBelow(4);
    for (size_t i = 0; i < n; ++i) {
      ExprPtr c = atom();
      if (rng.NextBool(0.3)) {
        c = Expr::LOr(c, atom());
      }
      constraints.push_back(c);
    }

    auto result = solver.Solve(constraints, vars, {});
    if (result.kind == SolveKind::kSat) {
      ++sat_count;
      for (const ExprPtr& c : constraints) {
        EXPECT_NE(c->Eval(result.model), 0u)
            << "model must satisfy " << c->ToString();
      }
    }
  }
  // Random systems over small domains are mostly satisfiable; the solver
  // should find a good share of them.
  EXPECT_GT(sat_count, 40u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SolverSatProperty, ::testing::Values(11, 22, 33, 44));

// Property: verdicts are sound and complete — brute force agrees on tiny
// domains, and the solver never gives up on variable-vs-constant atoms.
class SolverUnsatProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SolverUnsatProperty, UnsatNeverLies) {
  Rng rng(GetParam());
  Solver solver;
  for (int iter = 0; iter < 150; ++iter) {
    VarInfo v;
    v.id = 0;
    v.bits = 8;
    v.lo = 0;
    v.hi = 15;
    v.seed = rng.NextBelow(16);
    std::vector<VarInfo> vars{v};

    std::vector<ExprPtr> constraints;
    size_t n = 1 + rng.NextBelow(3);
    for (size_t i = 0; i < n; ++i) {
      ExprPtr lhs = V(0, 8);
      ExprPtr rhs = C(rng.NextBelow(20), 8);
      switch (rng.NextBelow(4)) {
        case 0: constraints.push_back(Expr::Eq(lhs, rhs)); break;
        case 1: constraints.push_back(Expr::ULt(lhs, rhs)); break;
        case 2: constraints.push_back(Expr::UGt(lhs, rhs)); break;
        default: constraints.push_back(Expr::Ne(lhs, rhs)); break;
      }
    }
    auto result = solver.Solve(constraints, vars, {});
    bool brute_sat = false;
    for (uint64_t x = 0; x <= 15 && !brute_sat; ++x) {
      bool all = true;
      for (const ExprPtr& c : constraints) {
        if (c->Eval({{0, x}}) == 0) {
          all = false;
          break;
        }
      }
      brute_sat = all;
    }
    ASSERT_NE(result.kind, SolveKind::kUnknown);
    EXPECT_EQ(result.kind == SolveKind::kSat, brute_sat)
        << "solver verdict disagrees with brute force";
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SolverUnsatProperty, ::testing::Values(5, 6, 7));

// --- Differential: every verdict matches the boundary-point oracle --------------

class SolverOracleProperty : public ::testing::TestWithParam<uint64_t> {};

// Generated formulas: 1-4 variables of 8, 16 and 32 bits, atoms comparing one
// variable with a constant (either side), nested &&, || and !.
TEST_P(SolverOracleProperty, GeneratedFormulas) {
  Rng rng(GetParam());
  Solver solver;
  for (int iter = 0; iter < 300; ++iter) {
    const size_t nvars = 1 + rng.NextBelow(4);
    std::vector<VarInfo> vars;
    std::vector<std::vector<uint64_t>> anchors(nvars);
    for (size_t i = 0; i < nvars; ++i) {
      VarInfo v;
      v.id = static_cast<VarId>(i);
      v.bits = std::vector<uint8_t>{8, 16, 32}[rng.NextBelow(3)];
      const uint64_t max = (uint64_t{1} << v.bits) - 1;
      v.lo = rng.NextBool(0.5) ? 0 : rng.NextBelow(max / 2);
      v.hi = rng.NextBool(0.5) ? max : v.lo + rng.NextBelow(max - v.lo + 1);
      v.seed = v.lo;
      vars.push_back(v);
      for (int k = 0; k < 3; ++k) {
        anchors[i].push_back(rng.NextBool(0.3) ? (rng.NextBool(0.5) ? v.lo : v.hi)
                                               : rng.NextBelow(max + 1));
      }
    }
    auto atom = [&]() -> ExprPtr {
      const auto i = static_cast<VarId>(rng.NextBelow(nvars));
      const uint8_t bits = vars[i].bits;
      const uint64_t anchor = anchors[i][rng.NextBelow(3)];
      ExprPtr x = V(i, bits);
      ExprPtr c = C(anchor + rng.NextBelow(3) - 1, bits);
      if (rng.NextBool(0.3)) {
        std::swap(x, c);
      }
      switch (rng.NextBelow(6)) {
        case 0: return Expr::Eq(x, c);
        case 1: return Expr::Ne(x, c);
        case 2: return Expr::ULt(x, c);
        case 3: return Expr::ULe(x, c);
        case 4: return Expr::UGt(x, c);
        default: return Expr::UGe(x, c);
      }
    };
    std::function<ExprPtr(int)> formula = [&](int depth) -> ExprPtr {
      if (depth == 0 || rng.NextBool(0.3)) {
        return atom();
      }
      switch (rng.NextBelow(3)) {
        case 0: return Expr::LAnd(formula(depth - 1), formula(depth - 1));
        case 1: return Expr::LOr(formula(depth - 1), formula(depth - 1));
        default: return Expr::LNot(formula(depth - 1));
      }
    };
    std::vector<ExprPtr> constraints;
    const size_t n = 1 + rng.NextBelow(4);
    for (size_t k = 0; k < n; ++k) {
      constraints.push_back(formula(3));
    }
    Assignment hint;  // concolic hints are earlier inputs, so inside the domains
    for (const VarInfo& v : vars) {
      hint[v.id] = v.lo + rng.NextBelow(v.hi - v.lo + 1);
    }
    ExpectMatchesOracle(solver, constraints, vars, hint);
  }
}

// Prefix-list chains: up to 16 "addr outside block || len outside [ge, le]"
// clauses (the path condition of an unmatched prefix-list prefix), over nested
// and overlapping blocks, optionally with a matched entry (the flipped branch)
// and trie-walk ranges.
TEST_P(SolverOracleProperty, PrefixListChains) {
  Rng rng(GetParam());
  Solver solver;
  std::vector<VarInfo> vars(2);
  vars[0] = VarInfo{0, "addr", 32, 0x0a000000, 0, 0xffffffff};
  vars[1] = VarInfo{1, "len", 8, 24, 0, 32};
  const ExprPtr addr = V(0, 32);
  const ExprPtr len = V(1, 8);
  auto in_range = [](const ExprPtr& x, uint64_t lo, uint64_t hi, uint8_t bits) {
    return Expr::LAnd(Expr::UGe(x, C(lo, bits)), Expr::ULe(x, C(hi, bits)));
  };
  for (int iter = 0; iter < 200; ++iter) {
    // Blocks live under one of two /8s so that they nest and overlap.
    std::vector<ExprPtr> matches;
    const size_t entries = 1 + rng.NextBelow(16);
    for (size_t k = 0; k < entries; ++k) {
      const auto plen = static_cast<uint32_t>(8 + rng.NextBelow(17));
      const uint64_t mask = (0xffffffffULL << (32 - plen)) & 0xffffffffULL;
      const uint64_t net =
          ((rng.NextBool(0.5) ? 0x0a000000ULL : 0xc0000000ULL) | rng.NextBelow(1ULL << 24)) & mask;
      const uint64_t bcast = net | (~mask & 0xffffffffULL);
      const uint64_t ge = plen + rng.NextBelow(33 - plen);
      const uint64_t le = ge + rng.NextBelow(33 - ge);
      matches.push_back(Expr::LAnd(in_range(addr, net, bcast, 32), in_range(len, ge, le, 8)));
    }
    std::vector<ExprPtr> constraints;
    for (const ExprPtr& m : matches) {
      constraints.push_back(rng.NextBool(0.5) ? Expr::Negate(m) : Expr::LNot(m));
    }
    if (rng.NextBool(0.5)) {
      constraints.back() = matches.back();  // the flipped entry now matches
    }
    if (rng.NextBool(0.5)) {
      const uint64_t lo = rng.NextBelow(1ULL << 32);
      constraints.push_back(in_range(addr, lo, lo + rng.NextBelow(1ULL << 26), 32));
    }
    Assignment hint{{0, rng.NextBelow(1ULL << 32)}, {1, rng.NextBelow(33)}};
    ExpectMatchesOracle(solver, constraints, vars, hint);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SolverOracleProperty, ::testing::Values(1, 2, 3, 4));

}  // namespace
}  // namespace dice::sym
