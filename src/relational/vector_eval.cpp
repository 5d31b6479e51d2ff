#include "relational/vector_eval.hpp"

#include <cstring>

#include "common/check.hpp"
#include "relational/expr_rules.hpp"
#include "relational/null_semantics.hpp"

namespace gems::relational {

using storage::Column;
using storage::RowIndex;
using storage::TypeKind;

namespace {

// ---- Compare kernels -----------------------------------------------------
//
// All six comparison predicates expressed through `<` only, so the double
// versions inherit compare_cells' cmp3 semantics verbatim: a NaN operand
// makes both x<y and y<x false, which cmp3 reports as "equal" — Eq/Le/Ge
// accept, Ne/Lt/Gt reject. Plain ==/!= would disagree on NaN lanes.

template <typename Pred>
inline void produce_bits(std::size_t n, std::uint64_t* out, Pred&& pred) {
  const std::size_t nw = batch_words(n);
  for (std::size_t w = 0; w < nw; ++w) {
    const std::size_t lane0 = w * 64;
    const std::size_t lim = std::min<std::size_t>(64, n - lane0);
    std::uint64_t word = 0;
    for (std::size_t b = 0; b < lim; ++b) {
      word |= static_cast<std::uint64_t>(pred(lane0 + b) ? 1 : 0) << b;
    }
    out[w] = word;
  }
}

template <typename T, int Op>
inline bool cmp_pred(T x, T y) noexcept {
  if constexpr (Op == 0) {  // kEq: cmp3 == 0
    return !(x < y) && !(y < x);
  } else if constexpr (Op == 1) {  // kNe
    return (x < y) || (y < x);
  } else if constexpr (Op == 2) {  // kLt
    return x < y;
  } else if constexpr (Op == 3) {  // kLe: !(x > y)
    return !(y < x);
  } else if constexpr (Op == 4) {  // kGt
    return y < x;
  } else {  // kGe: !(x < y)
    return !(x < y);
  }
}

/// Packs one result bit per lane into `out`; bits at or past n are zero.
template <typename T, int Op>
void cmp_lanes_scalar(const T* a, const T* b, std::size_t n,
                      std::uint64_t* out) {
  produce_bits(n, out, [&](std::size_t i) { return cmp_pred<T, Op>(a[i], b[i]); });
}

/// Comparison ops in BinaryOp order kEq..kGe, as a dense kernel index.
constexpr int cmp_index(BinaryOp op) noexcept {
  return static_cast<int>(op) - static_cast<int>(BinaryOp::kEq);
}

/// The lane kernels by comparison, indexed by cmp_index.
template <typename T>
constexpr void (*kCmpLanes[6])(const T*, const T*, std::size_t,
                               std::uint64_t*) = {
    cmp_lanes_scalar<T, 0>, cmp_lanes_scalar<T, 1>, cmp_lanes_scalar<T, 2>,
    cmp_lanes_scalar<T, 3>, cmp_lanes_scalar<T, 4>, cmp_lanes_scalar<T, 5>};

// ---- Arithmetic kernels --------------------------------------------------
//
// Int64 arithmetic follows the one int64 rule (expr_rules.hpp): it wraps.
// Lanes under a cleared validity bit hold unspecified payloads; their
// result is discarded (appends mask them to zero, keys and filters consult
// the validity words first).

inline void and_words(const std::uint64_t* a, const std::uint64_t* b,
                      std::size_t n, std::uint64_t* out) noexcept {
  const std::size_t nw = batch_words(n);
  for (std::size_t w = 0; w < nw; ++w) out[w] = a[w] & b[w];
}

/// A batch of one lane over no table: all a tree of constants reads.
constexpr RowBatch kOneLane{nullptr, 0, nullptr, 1};

/// Lane 0 of `v` as a cell.
Cell lane_cell(const ValueVector& v) {
  if ((v.valid[0] & 1) == 0) return Cell::null_cell();
  switch (v.kind) {
    case TypeKind::kBool:
      return Cell::of_bool((v.bits[0] & 1) != 0);
    case TypeKind::kInt64:
    case TypeKind::kDate:
      return Cell::of_int64(v.i64[0], v.kind);
    case TypeKind::kDouble:
      return Cell::of_double(v.f64[0]);
    case TypeKind::kVarchar:
      return Cell::of_string(v.str[0]);
  }
  GEMS_UNREACHABLE("bad vector kind");
}

}  // namespace

// ---- Compilation ---------------------------------------------------------

struct VectorExpr::Builder {
  std::uint16_t source;
  const StringPool* pool;
  std::uint32_t next_id = 0;
  bool ok = true;

  using Node = std::unique_ptr<VectorExpr>;

  Node make_const(const Cell& cell, TypeKind fallback_kind) {
    Node node(new VectorExpr());
    node->kind_ = BoundExpr::Kind::kConst;
    node->type_ = cell.null ? fallback_kind : cell.kind;
    node->konst_ = cell;
    node->id_ = next_id++;
    node->pool_ = pool;
    broadcast_const(*node);
    return node;
  }

  /// (Re)fills the compile-time lane arrays from node.konst_. NULL
  /// constants still get zero lanes: kernels read every lane
  /// unconditionally and need defined storage behind invalid bits.
  static void broadcast_const(VectorExpr& node) {
    const Cell& c = node.konst_;
    switch (node.type_) {
      case TypeKind::kBool:
        break;  // bits are broadcast per batch (tail masking)
      case TypeKind::kInt64:
      case TypeKind::kDate:
        node.const_i64_.assign(kBatchRows, c.null ? 0 : c.i);
        break;
      case TypeKind::kDouble:
        node.const_f64_.assign(kBatchRows, c.null ? 0.0 : c.d);
        break;
      case TypeKind::kVarchar:
        node.const_str_.assign(kBatchRows, c.null ? kInvalidStringId : c.s);
        break;
    }
  }

  /// Rewrites an int64 constant operand as double when the sibling forces
  /// numeric promotion, so the hot kernels never see mixed-kind inputs
  /// from constants.
  static void promote_const_to_double(VectorExpr& node) {
    GEMS_DCHECK(node.kind_ == BoundExpr::Kind::kConst);
    if (!node.konst_.null) {
      node.konst_ = Cell::of_double(static_cast<double>(node.konst_.i));
    }
    node.type_ = TypeKind::kDouble;
    node.const_i64_.clear();
    broadcast_const(node);
  }

  /// Replaces a node whose operands are all constants by a constant. The
  /// node's own kernel computes it once on a one-lane batch, so a folded
  /// value is the value every row would get. The folded subtree's scratch
  /// ids [first_id, next_id) are handed out again.
  Node fold_if_constant(Node node, const BoundExpr& e,
                        std::uint32_t first_id) {
    const auto is_const = [](const VectorExprPtr& n) {
      return n == nullptr || n->kind_ == BoundExpr::Kind::kConst;
    };
    if (!is_const(node->lhs_) || !is_const(node->rhs_)) return node;
    EvalScratch scratch{std::vector<VectorBuf>(next_id)};
    const Cell value = lane_cell(node->eval_node(kOneLane, scratch));
    next_id = first_id;
    return make_const(value, e.type.kind);
  }

  Node build(const BoundExpr& e) {
    if (!ok) return nullptr;
    const std::uint32_t first_id = next_id;
    switch (e.kind) {
      case BoundExpr::Kind::kConst:
        return make_const(e.constant, e.type.kind);
      case BoundExpr::Kind::kColumnRef: {
        if (e.slot.source != source) {
          ok = false;  // other-source reference: not vectorizable here
          return nullptr;
        }
        Node node(new VectorExpr());
        node->kind_ = BoundExpr::Kind::kColumnRef;
        node->type_ = e.slot.type.kind;
        node->column_ = e.slot.column;
        node->id_ = next_id++;
        node->pool_ = pool;
        return node;
      }
      case BoundExpr::Kind::kUnary: {
        Node child = build(*e.lhs);
        if (!ok) return nullptr;
        Node node(new VectorExpr());
        node->kind_ = BoundExpr::Kind::kUnary;
        node->uop_ = e.uop;
        node->type_ = e.uop == UnaryOp::kNot ? TypeKind::kBool
                      : child->type_ == TypeKind::kDouble
                          ? TypeKind::kDouble
                          : TypeKind::kInt64;
        node->lhs_ = std::move(child);
        node->id_ = next_id++;
        node->pool_ = pool;
        return fold_if_constant(std::move(node), e, first_id);
      }
      case BoundExpr::Kind::kBinary: {
        Node l = build(*e.lhs);
        Node r = build(*e.rhs);
        if (!ok) return nullptr;
        Node node(new VectorExpr());
        node->kind_ = BoundExpr::Kind::kBinary;
        node->bop_ = e.bop;
        node->type_ = is_comparison(e.bop) || e.bop == BinaryOp::kAnd ||
                              e.bop == BinaryOp::kOr
                          ? TypeKind::kBool
                          : e.type.kind;
        // Numeric promotion: if either operand is double, fold int64
        // constants on the other side to double at compile time
        // (non-const int64 operands are promoted lane-wise at eval).
        const bool wants_f64 =
            (is_comparison(e.bop) || e.bop == BinaryOp::kAdd ||
             e.bop == BinaryOp::kSub || e.bop == BinaryOp::kMul ||
             e.bop == BinaryOp::kDiv) &&
            (l->type_ == TypeKind::kDouble || r->type_ == TypeKind::kDouble ||
             (!is_comparison(e.bop) && e.type.kind == TypeKind::kDouble));
        if (wants_f64) {
          for (VectorExpr* side : {l.get(), r.get()}) {
            if (side->kind_ == BoundExpr::Kind::kConst &&
                side->type_ == TypeKind::kInt64) {
              promote_const_to_double(*side);
            }
          }
        }
        node->lhs_ = std::move(l);
        node->rhs_ = std::move(r);
        node->id_ = next_id++;
        node->pool_ = pool;
        return fold_if_constant(std::move(node), e, first_id);
      }
    }
    GEMS_UNREACHABLE("bad bound expr kind");
  }
};

VectorExpr::~VectorExpr() = default;

VectorExprPtr VectorExpr::compile(const BoundExpr& expr, std::uint16_t source,
                                  const StringPool& pool) {
  Builder builder{source, &pool};
  std::unique_ptr<VectorExpr> root = builder.build(expr);
  if (!builder.ok || root == nullptr) return nullptr;
  root->num_nodes_ = builder.next_id;
  return root;
}

Cell fold_constant(const BoundExpr& expr, const StringPool& pool) {
  const VectorExprPtr root = VectorExpr::compile(expr, 0, pool);
  GEMS_CHECK(root != nullptr);
  EvalScratch scratch = root->make_scratch();
  return lane_cell(root->eval(kOneLane, scratch));
}

// ---- Evaluation ----------------------------------------------------------

ValueVector VectorExpr::eval(const RowBatch& batch,
                             EvalScratch& scratch) const {
  GEMS_DCHECK(batch.size > 0 && batch.size <= kBatchRows);
  GEMS_DCHECK(scratch.bufs.size() >= num_nodes_);
  return eval_node(batch, scratch);
}

ValueVector VectorExpr::eval_node(const RowBatch& batch,
                                  EvalScratch& scratch) const {
  switch (kind_) {
    case BoundExpr::Kind::kConst:
      return eval_const(batch, scratch);
    case BoundExpr::Kind::kColumnRef:
      return eval_column(batch, scratch);
    case BoundExpr::Kind::kUnary:
      return eval_unary(batch, scratch);
    case BoundExpr::Kind::kBinary:
      if (bop_ == BinaryOp::kAnd || bop_ == BinaryOp::kOr) {
        return eval_logical(batch, scratch);
      }
      if (is_comparison(bop_)) return eval_compare(batch, scratch);
      return eval_arith(batch, scratch);
  }
  GEMS_UNREACHABLE("bad kernel kind");
}

ValueVector VectorExpr::eval_const(const RowBatch& batch,
                                   EvalScratch& scratch) const {
  VectorBuf& buf = scratch.bufs[id_];
  const std::size_t n = batch.size;
  ValueVector out;
  out.kind = type_;
  if (konst_.null) {
    const std::size_t nw = batch_words(n);
    for (std::size_t w = 0; w < nw; ++w) buf.valid[w] = 0;
  } else {
    fill_ones_words(buf.valid.data(), n);
  }
  out.valid = buf.valid.data();
  switch (type_) {
    case TypeKind::kBool:
      if (!konst_.null && konst_.b) {
        fill_ones_words(buf.bits.data(), n);
      } else {
        const std::size_t nw = batch_words(n);
        for (std::size_t w = 0; w < nw; ++w) buf.bits[w] = 0;
      }
      out.bits = buf.bits.data();
      break;
    case TypeKind::kInt64:
    case TypeKind::kDate:
      out.i64 = const_i64_.data();
      break;
    case TypeKind::kDouble:
      out.f64 = const_f64_.data();
      break;
    case TypeKind::kVarchar:
      out.str = const_str_.data();
      break;
  }
  return out;
}

namespace {

/// The batch's lanes of one column: a view into the column's chunk when
/// the window is contiguous and lies in one full-width chunk or the tail,
/// widened into `scratch` when it is contiguous otherwise, else gathered
/// into `scratch` row by row.
template <typename T>
const T* column_lanes(const storage::ColumnData<T>& data,
                      const RowBatch& batch, std::vector<T>& scratch) {
  if (scratch.size() < kBatchRows) scratch.resize(kBatchRows);
  if (batch.contiguous()) {
    return data.lanes(batch.base, batch.size, scratch.data());
  }
  for (std::size_t i = 0; i < batch.size; ++i) {
    scratch[i] = data[batch.row_at(i)];
  }
  return scratch.data();
}

}  // namespace

ValueVector VectorExpr::eval_column(const RowBatch& batch,
                                    EvalScratch& scratch) const {
  VectorBuf& buf = scratch.bufs[id_];
  const Column& col = batch.table->column(column_);
  const std::size_t n = batch.size;
  gather_valid_words(col, batch, buf.valid.data());
  ValueVector out;
  out.kind = type_;
  out.valid = buf.valid.data();
  switch (type_) {
    case TypeKind::kInt64:
    case TypeKind::kDate:
      out.i64 = column_lanes(col.int_chunks(), batch, buf.i64);
      break;
    case TypeKind::kDouble:
      out.f64 = column_lanes(col.double_chunks(), batch, buf.f64);
      break;
    case TypeKind::kVarchar:
      out.str = column_lanes(col.string_chunks(), batch, buf.str);
      break;
    case TypeKind::kBool: {
      // Bool columns store int64 0/1 lanes; pack to bit-words. NULL lanes
      // store 0, so value ⊆ valid holds by construction, but mask anyway
      // to keep the invariant independent of storage guarantees.
      const std::int64_t* src =
          column_lanes(col.int_chunks(), batch, buf.i64);
      produce_bits(n, buf.bits.data(),
                   [&](std::size_t i) { return src[i] != 0; });
      const std::size_t nw = batch_words(n);
      for (std::size_t w = 0; w < nw; ++w) buf.bits[w] &= buf.valid[w];
      out.bits = buf.bits.data();
      break;
    }
  }
  return out;
}

ValueVector VectorExpr::eval_unary(const RowBatch& batch,
                                   EvalScratch& scratch) const {
  const ValueVector v = lhs_->eval_node(batch, scratch);
  VectorBuf& buf = scratch.bufs[id_];
  const std::size_t n = batch.size;
  const std::size_t nw = batch_words(n);
  ValueVector out;
  out.kind = type_;
  if (uop_ == UnaryOp::kNot) {
    GEMS_DCHECK(v.kind == TypeKind::kBool);
    for (std::size_t w = 0; w < nw; ++w) {
      not3_words(v.bits[w], v.valid[w], buf.bits[w], buf.valid[w]);
    }
    out.bits = buf.bits.data();
    out.valid = buf.valid.data();
    return out;
  }
  // kNeg: lanes flip, validity is shared with the operand.
  out.valid = v.valid;
  if (type_ == TypeKind::kDouble) {
    const double* src =
        v.kind == TypeKind::kDouble ? v.f64 : nullptr;
    double* dst = buf.f64_lanes();
    if (src != nullptr) {
      for (std::size_t i = 0; i < n; ++i) dst[i] = -src[i];
    } else {
      for (std::size_t i = 0; i < n; ++i) {
        dst[i] = -static_cast<double>(v.i64[i]);
      }
    }
    out.f64 = dst;
  } else {
    std::int64_t* dst = buf.i64_lanes();
    for (std::size_t i = 0; i < n; ++i) dst[i] = wrap_neg(v.i64[i]);
    out.i64 = dst;
  }
  return out;
}

ValueVector VectorExpr::eval_logical(const RowBatch& batch,
                                     EvalScratch& scratch) const {
  const ValueVector l = lhs_->eval_node(batch, scratch);
  const ValueVector r = rhs_->eval_node(batch, scratch);
  GEMS_DCHECK(l.kind == TypeKind::kBool && r.kind == TypeKind::kBool);
  VectorBuf& buf = scratch.bufs[id_];
  const std::size_t nw = batch_words(batch.size);
  if (bop_ == BinaryOp::kAnd) {
    for (std::size_t w = 0; w < nw; ++w) {
      and3_words(l.bits[w], l.valid[w], r.bits[w], r.valid[w], buf.bits[w],
                 buf.valid[w]);
    }
  } else {
    for (std::size_t w = 0; w < nw; ++w) {
      or3_words(l.bits[w], l.valid[w], r.bits[w], r.valid[w], buf.bits[w],
                buf.valid[w]);
    }
  }
  ValueVector out;
  out.kind = TypeKind::kBool;
  out.bits = buf.bits.data();
  out.valid = buf.valid.data();
  return out;
}

namespace {

/// Lane view of `v` as doubles: pass-through for double vectors,
/// otherwise an int64→double conversion into `buf` (the producing node's
/// scratch lane array, unused by int64 outputs).
const double* as_f64_lanes(const ValueVector& v, VectorBuf& buf,
                           std::size_t n) {
  if (v.kind == TypeKind::kDouble) return v.f64;
  double* dst = buf.f64_lanes();
  for (std::size_t i = 0; i < n; ++i) {
    dst[i] = static_cast<double>(v.i64[i]);
  }
  return dst;
}

}  // namespace

ValueVector VectorExpr::eval_compare(const RowBatch& batch,
                                     EvalScratch& scratch) const {
  const ValueVector l = lhs_->eval_node(batch, scratch);
  const ValueVector r = rhs_->eval_node(batch, scratch);
  VectorBuf& buf = scratch.bufs[id_];
  const std::size_t n = batch.size;
  const std::size_t nw = batch_words(n);
  and_words(l.valid, r.valid, n, buf.valid.data());
  const int op = cmp_index(bop_);

  if (l.kind == TypeKind::kVarchar) {
    GEMS_DCHECK(r.kind == TypeKind::kVarchar);
    if (bop_ == BinaryOp::kEq || bop_ == BinaryOp::kNe) {
      // Interned: id equality <=> string equality (mirrors eval_binary).
      const bool want_eq = bop_ == BinaryOp::kEq;
      produce_bits(n, buf.bits.data(), [&](std::size_t i) {
        return (l.str[i] == r.str[i]) == want_eq;
      });
    } else {
      // Ordering needs the pool; invalid lanes may hold kInvalidStringId,
      // so only walk lanes under the combined validity mask.
      for (std::size_t w = 0; w < nw; ++w) buf.bits[w] = 0;
      for_each_lane(buf.valid.data(), n, [&](std::size_t i) {
        const StringId a = l.str[i];
        const StringId b = r.str[i];
        const int c =
            a == b ? 0 : (pool_->view(a).compare(pool_->view(b)) < 0 ? -1 : 1);
        const bool pass = op == 2   ? c < 0
                          : op == 3 ? c <= 0
                          : op == 4 ? c > 0
                                    : c >= 0;
        if (pass) buf.bits[i >> 6] |= 1ull << (i & 63);
      });
      ValueVector out;
      out.kind = TypeKind::kBool;
      out.bits = buf.bits.data();
      out.valid = buf.valid.data();
      return out;
    }
  } else if (l.kind == TypeKind::kBool) {
    GEMS_DCHECK(r.kind == TypeKind::kBool);
    // cmp3 over 0/1 lanes, as pure word arithmetic.
    for (std::size_t w = 0; w < nw; ++w) {
      const std::uint64_t a = l.bits[w];
      const std::uint64_t b = r.bits[w];
      std::uint64_t word = 0;
      switch (op) {
        case 0: word = ~(a ^ b); break;  // ==
        case 1: word = a ^ b; break;     // !=
        case 2: word = ~a & b; break;    // <
        case 3: word = ~a | b; break;    // <=
        case 4: word = a & ~b; break;    // >
        case 5: word = a | ~b; break;    // >=
      }
      buf.bits[w] = word;
    }
  } else if (l.kind == TypeKind::kDouble || r.kind == TypeKind::kDouble) {
    const double* a = as_f64_lanes(l, scratch.bufs[lhs_->id_], n);
    const double* b = as_f64_lanes(r, scratch.bufs[rhs_->id_], n);
    kCmpLanes<double>[op](a, b, n, buf.bits.data());
  } else {
    // Int64 and Date lanes share the i64 kernels.
    kCmpLanes<std::int64_t>[op](l.i64, r.i64, n, buf.bits.data());
  }

  // Mask garbage lanes (invalid inputs) and enforce value ⊆ valid.
  for (std::size_t w = 0; w < nw; ++w) buf.bits[w] &= buf.valid[w];
  ValueVector out;
  out.kind = TypeKind::kBool;
  out.bits = buf.bits.data();
  out.valid = buf.valid.data();
  return out;
}

ValueVector VectorExpr::eval_arith(const RowBatch& batch,
                                   EvalScratch& scratch) const {
  const ValueVector l = lhs_->eval_node(batch, scratch);
  const ValueVector r = rhs_->eval_node(batch, scratch);
  VectorBuf& buf = scratch.bufs[id_];
  const std::size_t n = batch.size;
  and_words(l.valid, r.valid, n, buf.valid.data());
  ValueVector out;
  out.kind = type_;
  out.valid = buf.valid.data();

  if (type_ == TypeKind::kInt64) {
    GEMS_DCHECK(l.kind != TypeKind::kDouble && r.kind != TypeKind::kDouble);
    std::int64_t* dst = buf.i64_lanes();
    switch (bop_) {
      case BinaryOp::kAdd:
        for (std::size_t i = 0; i < n; ++i) dst[i] = wrap_add(l.i64[i], r.i64[i]);
        break;
      case BinaryOp::kSub:
        for (std::size_t i = 0; i < n; ++i) dst[i] = wrap_sub(l.i64[i], r.i64[i]);
        break;
      case BinaryOp::kMul:
        for (std::size_t i = 0; i < n; ++i) dst[i] = wrap_mul(l.i64[i], r.i64[i]);
        break;
      default:
        GEMS_UNREACHABLE("int division is typed double");
    }
    out.i64 = dst;
    return out;
  }

  const double* a = as_f64_lanes(l, scratch.bufs[lhs_->id_], n);
  const double* b = as_f64_lanes(r, scratch.bufs[rhs_->id_], n);
  double* dst = buf.f64_lanes();
  switch (bop_) {
    case BinaryOp::kAdd:
      for (std::size_t i = 0; i < n; ++i) dst[i] = a[i] + b[i];
      break;
    case BinaryOp::kSub:
      for (std::size_t i = 0; i < n; ++i) dst[i] = a[i] - b[i];
      break;
    case BinaryOp::kMul:
      for (std::size_t i = 0; i < n; ++i) dst[i] = a[i] * b[i];
      break;
    case BinaryOp::kDiv: {
      // SQL: x/0 is NULL. IEEE division never traps with default masks,
      // so divide everything and clear validity where the divisor is
      // (+/-)0.0 — exactly the lanes eval_binary nulls out.
      for (std::size_t i = 0; i < n; ++i) dst[i] = a[i] / b[i];
      std::uint64_t zero_mask[kBatchWords];
      produce_bits(n, zero_mask, [&](std::size_t i) { return b[i] == 0.0; });
      const std::size_t nw = batch_words(n);
      for (std::size_t w = 0; w < nw; ++w) buf.valid[w] &= ~zero_mask[w];
      break;
    }
    default:
      GEMS_UNREACHABLE("bad arithmetic op");
  }
  out.f64 = dst;
  return out;
}

// ---- Operator-facing helpers --------------------------------------------

std::size_t filter_batch(const VectorExpr& pred, const RowBatch& batch,
                         EvalScratch& scratch, RowIndex* out) {
  GEMS_DCHECK(pred.out_kind() == TypeKind::kBool);
  const ValueVector v = pred.eval(batch, scratch);
  // bits ⊆ valid, so set bits are exactly the truthy (non-null true) lanes.
  std::size_t n = 0;
  if (batch.contiguous()) {
    for_each_lane(v.bits, batch.size, [&](std::size_t i) {
      out[n++] = batch.base + static_cast<RowIndex>(i);
    });
  } else {
    for_each_lane(v.bits, batch.size,
                  [&](std::size_t i) { out[n++] = batch.rows[i]; });
  }
  return n;
}

void append_vector(Column& column, const ValueVector& v, std::size_t n) {
  switch (column.type().kind) {
    case TypeKind::kBool:
      GEMS_DCHECK(v.kind == TypeKind::kBool);
      column.append_bool_bits(v.bits, v.valid, n);
      return;
    case TypeKind::kInt64:
    case TypeKind::kDate:
      GEMS_DCHECK(v.i64 != nullptr);
      column.append_lanes_int64(v.i64, v.valid, n);
      return;
    case TypeKind::kDouble:
      if (v.kind == TypeKind::kDouble) {
        column.append_lanes_double(v.f64, v.valid, n);
      } else {
        // Int64 lanes into a double column: numeric promotion.
        double lanes[kBatchRows];
        GEMS_DCHECK(n <= kBatchRows);
        for (std::size_t i = 0; i < n; ++i) {
          lanes[i] = static_cast<double>(v.i64[i]);
        }
        column.append_lanes_double(lanes, v.valid, n);
      }
      return;
    case TypeKind::kVarchar:
      GEMS_DCHECK(v.kind == TypeKind::kVarchar);
      column.append_lanes_string(v.str, v.valid, n);
      return;
  }
  GEMS_UNREACHABLE("bad column kind");
}

}  // namespace gems::relational
