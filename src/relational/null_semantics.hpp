// SQL three-valued logic and NULL-propagation rules, in one place.
//
// Both evaluators — the scalar interpreter (eval.cpp: per-binding graph
// conditions, and the row oracle under tests/) and the vectorized kernel
// tree (vector_eval.cpp) — consult these tables, so the
// NULL semantics of every operator have a single source of truth. The
// vectorized engine processes validity word-at-a-time with the closed-form
// bit formulas below; relational_test cross-checks each formula against
// the truth tables for all nine operand combinations, which is what makes
// "one truth table, two engines" an enforced invariant rather than a
// convention.
#pragma once

#include <cstdint>

#include "relational/bound_expr.hpp"

namespace gems::relational {

/// Three-valued boolean. The numeric values are table indices.
enum class Tri : std::uint8_t { kFalse = 0, kTrue = 1, kNull = 2 };

/// and/or/not truth tables (SQL 1999 8.12). Indexed [lhs][rhs].
inline constexpr Tri kAnd3[3][3] = {
    /* F */ {Tri::kFalse, Tri::kFalse, Tri::kFalse},
    /* T */ {Tri::kFalse, Tri::kTrue, Tri::kNull},
    /* N */ {Tri::kFalse, Tri::kNull, Tri::kNull},
};
inline constexpr Tri kOr3[3][3] = {
    /* F */ {Tri::kFalse, Tri::kTrue, Tri::kNull},
    /* T */ {Tri::kTrue, Tri::kTrue, Tri::kTrue},
    /* N */ {Tri::kNull, Tri::kTrue, Tri::kNull},
};
inline constexpr Tri kNot3[3] = {Tri::kTrue, Tri::kFalse, Tri::kNull};

/// NULL rule shared by every comparison and arithmetic operator: the
/// result is NULL iff either operand is NULL. Indexed [lhs_null][rhs_null].
inline constexpr bool kBinaryNullYieldsNull[2][2] = {{false, true},
                                                     {true, true}};

inline constexpr bool binary_result_is_null(bool lhs_null,
                                            bool rhs_null) noexcept {
  return kBinaryNullYieldsNull[lhs_null ? 1 : 0][rhs_null ? 1 : 0];
}

/// Short-circuit legality, read off the tables: `and` is decided by a
/// false lhs, `or` by a true lhs, regardless of the rhs (including NULL).
inline constexpr bool and_decided_by(Tri lhs) noexcept {
  return kAnd3[static_cast<int>(lhs)][0] ==
             kAnd3[static_cast<int>(lhs)][1] &&
         kAnd3[static_cast<int>(lhs)][1] == kAnd3[static_cast<int>(lhs)][2];
}
inline constexpr bool or_decided_by(Tri lhs) noexcept {
  return kOr3[static_cast<int>(lhs)][0] == kOr3[static_cast<int>(lhs)][1] &&
         kOr3[static_cast<int>(lhs)][1] == kOr3[static_cast<int>(lhs)][2];
}
static_assert(and_decided_by(Tri::kFalse) && !and_decided_by(Tri::kTrue) &&
              !and_decided_by(Tri::kNull));
static_assert(or_decided_by(Tri::kTrue) && !or_decided_by(Tri::kFalse) &&
              !or_decided_by(Tri::kNull));

inline Tri tri_of(const Cell& c) noexcept {
  return c.null ? Tri::kNull : (c.b ? Tri::kTrue : Tri::kFalse);
}

inline Cell cell_of(Tri t) noexcept {
  return t == Tri::kNull ? Cell::null_cell()
                         : Cell::of_bool(t == Tri::kTrue);
}

// ---- Word-at-a-time forms (vectorized engine) ---------------------------
//
// A boolean vector is a (value, valid) bit-word pair with the invariant
// value ⊆ valid (a NULL lane never has its value bit set). Under that
// invariant the tables above collapse to the formulas below; the property
// test Sql3vlWordFormulasMatchTruthTables proves the equivalence
// exhaustively.

/// and: true iff both true; false iff either side is a valid false.
inline constexpr void and3_words(std::uint64_t lv, std::uint64_t ld,
                                 std::uint64_t rv, std::uint64_t rd,
                                 std::uint64_t& value,
                                 std::uint64_t& valid) noexcept {
  value = lv & rv;
  valid = (ld & rd) | (ld & ~lv) | (rd & ~rv);
}

/// or: true iff either true; false iff both are valid false.
inline constexpr void or3_words(std::uint64_t lv, std::uint64_t ld,
                                std::uint64_t rv, std::uint64_t rd,
                                std::uint64_t& value,
                                std::uint64_t& valid) noexcept {
  value = lv | rv;
  valid = (ld & rd) | lv | rv;
}

/// not: flips valid lanes, NULL stays NULL.
inline constexpr void not3_words(std::uint64_t v, std::uint64_t d,
                                 std::uint64_t& value,
                                 std::uint64_t& valid) noexcept {
  value = d & ~v;
  valid = d;
}

}  // namespace gems::relational
