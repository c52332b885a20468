// sym::Value — the concolic pair (concrete machine value, symbolic expression).
//
// This is what instrumented code computes on: every operation produces the
// concrete result (so execution proceeds exactly as uninstrumented code would)
// and, when any operand is symbolic, the corresponding expression (so branch
// predicates can later be negated and solved). A Value without an expression
// is a plain constant and costs no expression allocation — the fast path for
// unmarked fields.

#ifndef SRC_SYM_VALUE_H_
#define SRC_SYM_VALUE_H_

#include <cstdint>

#include "src/sym/expr.h"

namespace dice::sym {

class Value {
 public:
  Value() : concrete_(0) {}
  // Concrete constant.
  Value(uint64_t concrete) : concrete_(concrete) {}  // NOLINT(runtime/explicit)
  // Symbolic value with its current concrete interpretation.
  Value(uint64_t concrete, ExprPtr expr) : concrete_(concrete), expr_(std::move(expr)) {}

  uint64_t concrete() const { return concrete_; }
  const ExprPtr& expr() const { return expr_; }
  bool symbolic() const { return expr_ != nullptr; }

  // The expression form, materializing a constant node if concrete.
  ExprPtr AsExpr(uint8_t bits_if_const = 64) const {
    return expr_ != nullptr ? expr_ : Expr::MakeConst(concrete_, bits_if_const);
  }

  friend Value operator+(const Value& a, const Value& b) {
    return Combine(a, b, a.concrete_ + b.concrete_, &Expr::Add);
  }
  friend Value operator-(const Value& a, const Value& b) {
    return Combine(a, b, a.concrete_ - b.concrete_, &Expr::Sub);
  }
  friend Value operator*(const Value& a, const Value& b) {
    return Combine(a, b, a.concrete_ * b.concrete_, &Expr::Mul);
  }

 private:
  static Value Combine(const Value& a, const Value& b, uint64_t concrete,
                       ExprPtr (*make)(ExprPtr, ExprPtr)) {
    if (!a.symbolic() && !b.symbolic()) {
      return Value(concrete);
    }
    return Value(concrete, make(a.AsExpr(), b.AsExpr()));
  }

  uint64_t concrete_;
  ExprPtr expr_;
};

// A boolean condition: concrete outcome plus (when inputs were symbolic) the
// predicate expression. This is what Engine::Branch consumes.
class Bool {
 public:
  Bool() : concrete_(false) {}
  Bool(bool concrete) : concrete_(concrete) {}  // NOLINT(runtime/explicit)
  Bool(bool concrete, ExprPtr expr) : concrete_(concrete), expr_(std::move(expr)) {}

  bool concrete() const { return concrete_; }
  const ExprPtr& expr() const { return expr_; }
  bool symbolic() const { return expr_ != nullptr; }

  ExprPtr AsExpr() const { return expr_ != nullptr ? expr_ : Expr::MakeConst(concrete_ ? 1 : 0, 1); }

  friend Bool operator&&(const Bool& a, const Bool& b) {
    bool c = a.concrete_ && b.concrete_;
    if (!a.symbolic() && !b.symbolic()) {
      return Bool(c);
    }
    return Bool(c, Expr::LAnd(a.AsExpr(), b.AsExpr()));
  }
  friend Bool operator||(const Bool& a, const Bool& b) {
    bool c = a.concrete_ || b.concrete_;
    if (!a.symbolic() && !b.symbolic()) {
      return Bool(c);
    }
    return Bool(c, Expr::LOr(a.AsExpr(), b.AsExpr()));
  }
  friend Bool operator!(const Bool& a) {
    if (!a.symbolic()) {
      return Bool(!a.concrete_);
    }
    return Bool(!a.concrete_, Expr::Negate(a.expr_));
  }

 private:
  bool concrete_;
  ExprPtr expr_;
};

// Comparisons between Values produce Bools.
#define DICE_SYM_VALUE_CMP(op, Maker, cexpr)                                  \
  inline Bool operator op(const Value& a, const Value& b) {                   \
    bool c = (cexpr);                                                         \
    if (!a.symbolic() && !b.symbolic()) {                                     \
      return Bool(c);                                                         \
    }                                                                         \
    return Bool(c, Expr::Maker(a.AsExpr(), b.AsExpr()));                      \
  }

DICE_SYM_VALUE_CMP(==, Eq, a.concrete() == b.concrete())
DICE_SYM_VALUE_CMP(!=, Ne, a.concrete() != b.concrete())
DICE_SYM_VALUE_CMP(<, ULt, a.concrete() < b.concrete())
DICE_SYM_VALUE_CMP(<=, ULe, a.concrete() <= b.concrete())
DICE_SYM_VALUE_CMP(>, UGt, a.concrete() > b.concrete())
DICE_SYM_VALUE_CMP(>=, UGe, a.concrete() >= b.concrete())
#undef DICE_SYM_VALUE_CMP

}  // namespace dice::sym

#endif  // SRC_SYM_VALUE_H_
