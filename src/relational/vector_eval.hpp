// Compiled kernel trees: the vectorized counterpart of eval.cpp.
//
// A BoundExpr is compiled ONCE per statement into a VectorExpr tree; each
// node then evaluates whole RowBatches (batch.hpp) instead of being
// re-dispatched per row:
//
//  * kConst leaves pre-broadcast their value into lane arrays at compile
//    time (a NULL constant folds to an all-invalid vector); a node whose
//    operands are all constants is folded into one, by evaluating its own
//    kernel once on a one-lane batch,
//  * kColumnRef leaves view the column's storage directly for contiguous
//    windows and gather lanes for selection batches; validity windows are
//    extracted word-at-a-time from the column's DynamicBitset,
//  * comparisons run branch-free lane loops that pack results into bit
//    words (with AVX2 specializations behind runtime dispatch — see
//    vector_eval_simd.cpp — and portable scalar fallbacks, selectable
//    with -DGEMS_DISABLE_SIMD),
//  * and/or/not and NULL propagation are pure 64-bit word arithmetic
//    using the shared truth tables of null_semantics.hpp.
//
// Results are bit-identical to eval_cell (property-tested against the
// row-at-a-time oracle in tests/relational_oracle.hpp).
//
// Compilation requires every column slot to address a single source: the
// relational operators, vertex `where` filters and matcher
// self-conditions. Multi-source expressions (cross-step predicates)
// return nullptr. Those, and hop conditions, are still checked one
// binding at a time through eval_cell by the matcher and enumerator.
#pragma once

#include <memory>

#include "common/string_pool.hpp"
#include "relational/batch.hpp"
#include "relational/bound_expr.hpp"

namespace gems::relational {

class VectorExpr;
using VectorExprPtr = std::unique_ptr<const VectorExpr>;

/// Per-evaluation scratch: one VectorBuf per kernel node. Kernels are
/// immutable after compile; concurrent evaluations of one tree need one
/// scratch each.
struct EvalScratch {
  std::vector<VectorBuf> bufs;
};

class VectorExpr {
 public:
  /// Compiles `expr` against source id `source`. Returns nullptr when the
  /// expression references any other source, and only then. `pool` is
  /// captured for varchar ordering comparisons; it must outlive the tree.
  static VectorExprPtr compile(const BoundExpr& expr, std::uint16_t source,
                               const StringPool& pool);

  std::size_t num_nodes() const noexcept { return num_nodes_; }
  storage::TypeKind out_kind() const noexcept { return type_; }

  EvalScratch make_scratch() const { return EvalScratch{
      std::vector<VectorBuf>(num_nodes_)}; }

  /// Evaluates over `batch` (batch.size <= kBatchRows). The returned
  /// view's pointers alias `scratch` and/or the source columns; they stay
  /// valid until the next eval with the same scratch.
  ValueVector eval(const RowBatch& batch, EvalScratch& scratch) const;

  ~VectorExpr();

 private:
  VectorExpr() = default;

  struct Builder;
  ValueVector eval_node(const RowBatch& batch, EvalScratch& scratch) const;
  ValueVector eval_const(const RowBatch& batch, EvalScratch& scratch) const;
  ValueVector eval_column(const RowBatch& batch,
                          EvalScratch& scratch) const;
  ValueVector eval_unary(const RowBatch& batch, EvalScratch& scratch) const;
  ValueVector eval_compare(const RowBatch& batch,
                           EvalScratch& scratch) const;
  ValueVector eval_logical(const RowBatch& batch,
                           EvalScratch& scratch) const;
  ValueVector eval_arith(const RowBatch& batch, EvalScratch& scratch) const;

  BoundExpr::Kind kind_ = BoundExpr::Kind::kConst;
  storage::TypeKind type_ = storage::TypeKind::kBool;  // output kind
  storage::ColumnIndex column_ = 0;                    // kColumnRef
  UnaryOp uop_ = UnaryOp::kNot;
  BinaryOp bop_ = BinaryOp::kAnd;
  std::unique_ptr<const VectorExpr> lhs_;
  std::unique_ptr<const VectorExpr> rhs_;
  std::uint32_t id_ = 0;          // scratch buffer slot
  std::uint32_t num_nodes_ = 0;   // root: total nodes in the tree
  const StringPool* pool_ = nullptr;

  // kConst: the folded cell and its compile-time broadcast lanes.
  Cell konst_;
  std::vector<std::int64_t> const_i64_;
  std::vector<double> const_f64_;
  std::vector<StringId> const_str_;
};

/// Evaluates an expression with no column reference through the kernels
/// on a one-lane batch: the value every row would get. String constants
/// must be interned in `pool`.
Cell fold_constant(const BoundExpr& expr, const StringPool& pool);

/// Evaluates a boolean kernel over `batch` and writes the *global* row
/// indices of accepting lanes (non-null true — Cell::truthy) to `out`,
/// which has room for batch.size of them. Returns how many it wrote.
std::size_t filter_batch(const VectorExpr& pred, const RowBatch& batch,
                         EvalScratch& scratch, storage::RowIndex* out);

/// Appends `n` lanes of `v` to `column` (kinds must agree, except that
/// Int64 lanes promote into a Double column; Bool arrives as bit words).
void append_vector(storage::Column& column, const ValueVector& v,
                   std::size_t n);

// ---- Hot compare kernels (SIMD dispatch surface) ------------------------

/// Comparison ops in BinaryOp order kEq..kGe, as a dense kernel index.
inline constexpr int cmp_index(BinaryOp op) noexcept {
  return static_cast<int>(op) - static_cast<int>(BinaryOp::kEq);
}

/// Lane comparators packing one result bit per lane. Semantics mirror
/// compare_cells' cmp3 (so double NaN compares "equal" to everything,
/// exactly like the row oracle). Bits at or past n are zero.
struct CmpKernels {
  using I64Fn = void (*)(const std::int64_t*, const std::int64_t*,
                         std::size_t, std::uint64_t*);
  using F64Fn = void (*)(const double*, const double*, std::size_t,
                         std::uint64_t*);
  I64Fn i64[6];
  F64Fn f64[6];
};

/// The active kernel table: AVX2 when the binary carries the AVX2 TU and
/// the CPU supports it, scalar otherwise.
const CmpKernels& cmp_kernels() noexcept;

/// Portable scalar table (the fallback; exposed for A/B tests).
const CmpKernels& scalar_cmp_kernels() noexcept;

/// AVX2 table, defined in vector_eval_simd.cpp. Only referenced when the
/// build carries that TU (GEMS_HAVE_AVX2_TU); call sites must still check
/// __builtin_cpu_supports("avx2") before using it.
const CmpKernels& avx2_cmp_kernels() noexcept;

}  // namespace gems::relational
