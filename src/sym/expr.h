// Symbolic expression DAG for the concolic engine.
//
// Expressions are immutable, hash-consed (interned), and shared via
// shared_ptr: the smart constructors constant-fold, canonicalize, and then
// intern the node in a per-process table, so structurally equal expressions
// are pointer-equal. Every node carries a stable id and a precomputed hash,
// which makes constraint-set deduplication and solver cache keys O(1) per
// node, plus an eagerly merged sorted variable-support vector, which makes
// constraint-independence slicing O(support) per atom. Semantics are
// unsigned machine arithmetic masked to the expression's bit width (BGP
// fields are 8/16/32-bit unsigned); boolean expressions have width 1.
//
// This plays the role Crest/Oasis's constraint representation plays in the
// paper: every branch on symbolic data records one boolean Expr.
//
// Single-thread contract: the intern table takes no lock, so expressions are
// built, copied, and released on one thread — the thread that drives
// exploration (see src/sym/solver.h). Only src/sym and the dice layer above
// it touch expressions; code on other threads does not include src/sym.

#ifndef SRC_SYM_EXPR_H_
#define SRC_SYM_EXPR_H_

#include <cstdint>
#include <memory>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

namespace dice::sym {

enum class Op : uint8_t {
  kConst,
  kVar,
  // Arithmetic (width = operand width).
  kAdd,
  kSub,
  kMul,
  kShl,
  // Comparisons (unsigned; width 1).
  kEq,
  kNe,
  kULt,
  kULe,
  kUGt,
  kUGe,
  // Boolean connectives (width 1).
  kLAnd,
  kLOr,
  kLNot,
};

const char* OpName(Op op);

// The one hash-mixing step used across the sym layer (expression interning,
// solver cache keys, decision-sequence hashing).
inline uint64_t HashCombine(uint64_t h, uint64_t v) {
  h ^= v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
  return h;
}

using VarId = uint32_t;

// Variable assignment used for evaluation and as a solver model.
using Assignment = std::unordered_map<VarId, uint64_t>;

class Expr;
using ExprPtr = std::shared_ptr<const Expr>;

class Expr {
 public:
  // --- Smart constructors (fold constants, canonicalize, intern) ---------
  static ExprPtr MakeConst(uint64_t value, uint8_t bits);
  static ExprPtr MakeVar(VarId id, uint8_t bits);
  static ExprPtr Add(ExprPtr a, ExprPtr b);
  static ExprPtr Sub(ExprPtr a, ExprPtr b);
  static ExprPtr Mul(ExprPtr a, ExprPtr b);
  static ExprPtr Shl(ExprPtr a, ExprPtr b);
  static ExprPtr Eq(ExprPtr a, ExprPtr b);
  static ExprPtr Ne(ExprPtr a, ExprPtr b);
  static ExprPtr ULt(ExprPtr a, ExprPtr b);
  static ExprPtr ULe(ExprPtr a, ExprPtr b);
  static ExprPtr UGt(ExprPtr a, ExprPtr b);
  static ExprPtr UGe(ExprPtr a, ExprPtr b);
  static ExprPtr LAnd(ExprPtr a, ExprPtr b);
  static ExprPtr LOr(ExprPtr a, ExprPtr b);
  static ExprPtr LNot(ExprPtr a);

  // Logical negation with comparison flipping and De Morgan push-down — the
  // "negate the predicate" operation of concolic exploration (Fig. 1).
  static ExprPtr Negate(const ExprPtr& e);

  Op op() const { return op_; }
  uint8_t bits() const { return bits_; }
  uint64_t imm() const { return imm_; }           // kConst value / kVar id
  const ExprPtr& lhs() const { return lhs_; }
  const ExprPtr& rhs() const { return rhs_; }

  // Stable per-process id (creation order in the intern table; never reused)
  // and precomputed structural hash. Structurally equal expressions share a
  // node, so equal ids imply — and are implied by — structural equality.
  uint64_t id() const { return id_; }
  uint64_t hash() const { return hash_; }

  // Sorted, deduplicated variable support, merged eagerly at intern time.
  const std::vector<VarId>& vars() const { return vars_; }

  bool IsConst() const { return op_ == Op::kConst; }
  bool IsVar() const { return op_ == Op::kVar; }
  bool IsBool() const;

  // Evaluates under `assignment`; unassigned variables evaluate to 0.
  uint64_t Eval(const Assignment& assignment) const;

  // Evaluates against a dense table indexed by VarId (ids >= values.size()
  // evaluate to 0) — the allocation-free form the solver's fast path and
  // model checks use.
  uint64_t EvalDense(const std::vector<uint64_t>& values) const;

  void CollectVars(std::set<VarId>& out) const;
  size_t NodeCount() const;
  std::string ToString() const;

  // Structural equality (used by tests and dedupe). With interning this is
  // pointer equality; the structural walk remains as a cross-check.
  static bool Identical(const ExprPtr& a, const ExprPtr& b);

  // Number of live nodes in the per-process intern table (test hook).
  static size_t InternTableSize();

  static uint64_t MaskTo(uint64_t value, uint8_t bits) {
    return bits >= 64 ? value : (value & ((uint64_t{1} << bits) - 1));
  }

 private:
  Expr(Op op, uint8_t bits, uint64_t imm, ExprPtr lhs, ExprPtr rhs)
      : op_(op), bits_(bits), imm_(imm), lhs_(std::move(lhs)), rhs_(std::move(rhs)) {}

  // The one true constructor: interns (op, bits, imm, lhs, rhs).
  static ExprPtr Intern(Op op, uint8_t bits, uint64_t imm, ExprPtr lhs, ExprPtr rhs);
  static ExprPtr MakeBinary(Op op, uint8_t bits, ExprPtr a, ExprPtr b);

  Op op_;
  uint8_t bits_;
  uint64_t imm_;
  uint64_t id_ = 0;
  uint64_t hash_ = 0;
  ExprPtr lhs_;
  ExprPtr rhs_;
  std::vector<VarId> vars_;

  friend struct ExprInternAccess;
};

}  // namespace dice::sym

#endif  // SRC_SYM_EXPR_H_
