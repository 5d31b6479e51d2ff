// Bound (type-checked) expressions — the output of the static analysis the
// paper describes in Sec. III-A ("is the query comparing an attribute with
// a constant of the wrong type?"). Binding resolves column references to
// (source, column) slots, substitutes %parameters%, interns string
// constants, and computes a static result type for every node.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/status.hpp"
#include "common/string_pool.hpp"
#include "relational/expr.hpp"
#include "storage/schema.hpp"
#include "storage/table.hpp"

namespace gems::relational {

/// Where a bound column reference reads from: source `source` (a table or
/// path-step cursor supplied at evaluation time), column `column`.
struct Slot {
  std::uint16_t source = 0;
  storage::ColumnIndex column = 0;
  storage::DataType type;
};

/// Unboxed runtime value for the evaluator's hot path.
struct Cell {
  bool null = true;
  storage::TypeKind kind = storage::TypeKind::kInt64;
  union {
    bool b;
    std::int64_t i;  // Int64 and Date
    double d;
  };
  StringId s = kInvalidStringId;  // Varchar payload

  static Cell null_cell() { return Cell{}; }
  static Cell of_bool(bool v) {
    Cell c;
    c.null = false;
    c.kind = storage::TypeKind::kBool;
    c.b = v;
    return c;
  }
  static Cell of_int64(std::int64_t v,
                       storage::TypeKind k = storage::TypeKind::kInt64) {
    Cell c;
    c.null = false;
    c.kind = k;
    c.i = v;
    return c;
  }
  static Cell of_double(double v) {
    Cell c;
    c.null = false;
    c.kind = storage::TypeKind::kDouble;
    c.d = v;
    return c;
  }
  static Cell of_string(StringId v) {
    Cell c;
    c.null = false;
    c.kind = storage::TypeKind::kVarchar;
    c.s = v;
    return c;
  }

  /// True for a non-null true boolean (predicate acceptance test).
  bool truthy() const noexcept {
    return !null && kind == storage::TypeKind::kBool && b;
  }
};

struct BoundExpr;
using BoundExprPtr = std::unique_ptr<BoundExpr>;

struct BoundExpr {
  enum class Kind { kConst, kColumnRef, kUnary, kBinary };

  Kind kind = Kind::kConst;
  storage::DataType type;  // static result type

  Cell constant;  // kConst (string constants pre-interned)
  Slot slot;      // kColumnRef
  UnaryOp uop = UnaryOp::kNot;
  BinaryOp bop = BinaryOp::kAnd;
  BoundExprPtr lhs;
  BoundExprPtr rhs;
};

/// Name-resolution context for binding. Table scans expose one source with
/// the table's schema; path queries expose one source per step, addressable
/// by step type name, alias or label.
class Scope {
 public:
  virtual ~Scope() = default;

  /// Resolves `qualifier.column` (qualifier may be empty) to a slot.
  virtual Result<Slot> resolve(std::string_view qualifier,
                               std::string_view column) const = 0;
};

/// Scope over one source named `name`: bare columns and columns qualified
/// by the name or the alias all resolve into source 0.
class TableScope : public Scope {
 public:
  TableScope(const storage::Schema& schema, std::string name,
             std::string alias = "")
      : schema_(schema), name_(std::move(name)), alias_(std::move(alias)) {}
  explicit TableScope(const storage::Table& table, std::string alias = "")
      : TableScope(table.schema(), table.name(), std::move(alias)) {}

  Result<Slot> resolve(std::string_view qualifier,
                       std::string_view column) const override;

 private:
  const storage::Schema& schema_;
  std::string name_;
  std::string alias_;
};

/// Scope over the join sources of an edge declaration: source s is
/// addressed by any of `qualifiers[s]`, and a bare column must be in
/// exactly one source.
class MultiSourceScope final : public Scope {
 public:
  MultiSourceScope(std::span<const std::vector<std::string>> qualifiers,
                   std::span<const storage::Schema* const> schemas)
      : qualifiers_(qualifiers), schemas_(schemas) {}

  Result<Slot> resolve(std::string_view qualifier,
                       std::string_view column) const override;

 private:
  std::span<const std::vector<std::string>> qualifiers_;
  std::span<const storage::Schema* const> schemas_;
};

/// Bind-time parameter assignment for %Name% placeholders (paper Figs. 6-7
/// use %Product1%, %Country1%...).
using ParamMap = std::map<std::string, storage::Value, std::less<>>;

/// Binds and type-checks `expr`. String literals are interned into `pool`.
/// Fails with kTypeError on incomparable operand types, non-boolean
/// logical operands, or unknown columns/parameters.
Result<BoundExprPtr> bind_expr(const ExprPtr& expr, const Scope& scope,
                               const ParamMap& params, StringPool& pool);

/// Binds and additionally requires a boolean result (WHERE clauses).
Result<BoundExprPtr> bind_predicate(const ExprPtr& expr, const Scope& scope,
                                    const ParamMap& params, StringPool& pool);

}  // namespace gems::relational
