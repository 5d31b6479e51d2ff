// Scalar expression AST shared by the relational engine and the graph
// path matcher: step conditions like `country = %Country1%` (paper Fig. 7)
// and relational WHERE clauses are both Exprs. Parsed by src/graql, bound
// against a scope (table schema or path-step schema) by bind.hpp, and
// evaluated by eval.hpp.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "storage/value.hpp"

namespace gems::relational {

enum class BinaryOp {
  kEq,
  kNe,
  kLt,
  kLe,
  kGt,
  kGe,
  kAnd,
  kOr,
  kAdd,
  kSub,
  kMul,
  kDiv,
};

enum class UnaryOp { kNot, kNeg };

std::string_view binary_op_name(BinaryOp op) noexcept;

struct Expr;
using ExprPtr = std::shared_ptr<const Expr>;

/// Deepest expression tree the parser and the IR decoder accept. Every
/// later pass (binding, evaluation, encoding, the ExprPtr destructor)
/// recurses on the tree, so the limit keeps hostile input from exhausting
/// a worker's stack.
inline constexpr std::uint32_t kMaxExprDepth = 256;

/// Immutable expression node. Shared ownership lets ASTs embed
/// sub-expressions in several places (e.g. IR round-trips) cheaply.
struct Expr {
  enum class Kind { kLiteral, kColumnRef, kParameter, kUnary, kBinary };

  Kind kind;

  // kLiteral
  storage::Value literal;

  // kColumnRef — `qualifier.column` or bare `column` (empty qualifier).
  // The qualifier names a step type, step label or table alias; resolution
  // is the binder's job.
  std::string qualifier;
  std::string column;

  // kParameter — `%name%` placeholders substituted at bind time.
  std::string param_name;

  // kUnary (operand in lhs) / kBinary
  UnaryOp uop = UnaryOp::kNot;
  BinaryOp bop = BinaryOp::kAnd;
  ExprPtr lhs;
  ExprPtr rhs;

  // Source location, 1-based (0 = unknown, e.g. synthesized expressions).
  // `src_end_*` point one past the last character. Ignored by equals() —
  // two structurally identical expressions from different places are
  // equal. The graql layer wraps these into a diag SourceSpan; they live
  // here as plain integers because relational sits below graql.
  std::uint32_t src_line = 0;
  std::uint32_t src_column = 0;
  std::uint32_t src_end_line = 0;
  std::uint32_t src_end_column = 0;

  /// Nodes on the longest root-to-leaf path (1 for a leaf).
  std::uint32_t depth = 1;

  /// Leaf factories take an optional source position; make_unary and
  /// make_binary derive theirs from the operands (covering range).
  static ExprPtr make_literal(storage::Value v, std::uint32_t line = 0,
                              std::uint32_t column = 0,
                              std::uint32_t end_line = 0,
                              std::uint32_t end_column = 0);
  static ExprPtr make_column(std::string qualifier, std::string column,
                             std::uint32_t line = 0, std::uint32_t col = 0,
                             std::uint32_t end_line = 0,
                             std::uint32_t end_column = 0);
  static ExprPtr make_parameter(std::string name, std::uint32_t line = 0,
                                std::uint32_t column = 0,
                                std::uint32_t end_line = 0,
                                std::uint32_t end_column = 0);
  static ExprPtr make_unary(UnaryOp op, ExprPtr operand);
  static ExprPtr make_binary(BinaryOp op, ExprPtr lhs, ExprPtr rhs);

  /// GraQL-ish rendering, for error messages and IR dumps.
  std::string to_string() const;

  /// Structural equality (used by IR round-trip tests).
  bool equals(const Expr& other) const;
};

/// Splits a conjunction into its non-AND leaves: (a and (b and c)) -> a,b,c.
std::vector<ExprPtr> split_conjuncts(const ExprPtr& expr);

}  // namespace gems::relational
