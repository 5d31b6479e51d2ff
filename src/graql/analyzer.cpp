#include "graql/analyzer.hpp"

#include <algorithm>
#include <cstdio>

#include "common/check.hpp"
#include "common/string_pool.hpp"
#include "relational/expr_rules.hpp"
#include "relational/null_semantics.hpp"
#include "relational/vector_eval.hpp"

namespace gems::graql {

namespace {

using relational::BinaryOp;
using relational::Expr;
using relational::ExprPtr;
using relational::ParamMap;
using relational::UnaryOp;
using storage::DataType;
using storage::Schema;
using storage::TypeKind;

SourceSpan expr_span(const Expr& e) {
  return SourceSpan{e.src_line, e.src_column, e.src_end_line, e.src_end_column};
}

SourceSpan span_or(SourceSpan span, SourceSpan fallback) {
  return span.known() ? span : fallback;
}

/// Reports each error a shape derivation found at its span, else at
/// `fallback`.
void report_shape_errors(const std::vector<ShapeError>& errors,
                         SourceSpan fallback, DiagnosticEngine& diags) {
  for (const ShapeError& e : errors) {
    diags.error(e.code, e.status.code(), span_or(e.span, fallback),
                std::string(e.status.message()));
  }
}

// ---- Schema-level expression typing ----------------------------------------
// The typing rules are relational's (relational/expr_rules.hpp), the ones the
// binder applies, and columns resolve through the scope the runtime binds
// with. This walk adds what analysis needs on top: an unknown type for a
// %parameter% when no parameters are given, and the span of the node where
// a problem starts.

using relational::MaybeType;

// On failure `err_span` (when non-null) receives the span of the deepest
// node where the problem originated, so diagnostics point at the offending
// sub-expression, not the whole condition.
Result<MaybeType> infer_type(const ExprPtr& expr,
                             const relational::Scope& scope,
                             const ParamMap* params, SourceSpan* err_span) {
  GEMS_CHECK(expr != nullptr);
  auto infer = [&]() -> Result<MaybeType> {
    switch (expr->kind) {
      case Expr::Kind::kLiteral:
        return MaybeType(relational::value_type(expr->literal));
      case Expr::Kind::kParameter: {
        if (params == nullptr) return MaybeType();
        auto it = params->find(expr->param_name);
        if (it == params->end()) {
          return invalid_argument("unbound query parameter %" +
                                  expr->param_name + "%");
        }
        return MaybeType(relational::value_type(it->second));
      }
      case Expr::Kind::kColumnRef: {
        GEMS_ASSIGN_OR_RETURN(relational::Slot slot,
                              scope.resolve(expr->qualifier, expr->column));
        return MaybeType(slot.type);
      }
      case Expr::Kind::kUnary: {
        GEMS_ASSIGN_OR_RETURN(MaybeType operand,
                              infer_type(expr->lhs, scope, params, err_span));
        return relational::unary_type(expr->uop, operand);
      }
      case Expr::Kind::kBinary: {
        GEMS_ASSIGN_OR_RETURN(MaybeType lt,
                              infer_type(expr->lhs, scope, params, err_span));
        GEMS_ASSIGN_OR_RETURN(MaybeType rt,
                              infer_type(expr->rhs, scope, params, err_span));
        return relational::binary_type(expr->bop, lt, rt);
      }
    }
    GEMS_UNREACHABLE("bad expr kind");
  };
  Result<MaybeType> out = infer();
  if (!out.is_ok() && err_span != nullptr && !err_span->known()) {
    *err_span = expr_span(*expr);
  }
  return out;
}

// Diag code for an error bubbled out of expression inference: the only
// sources are scope misses (kNotFound), type errors, and unbound
// parameters (kInvalidArgument).
DiagCode expr_error_code(StatusCode code) {
  switch (code) {
    case StatusCode::kNotFound:
      return DiagCode::kUnknownAttribute;
    case StatusCode::kInvalidArgument:
      return DiagCode::kBadParameter;
    default:
      return DiagCode::kTypeMismatch;
  }
}

// ---- Pass 2: constant folding ----------------------------------------------
// Whether a condition is true, false or NULL on every row. Each maximal
// subtree with no column and no unknown parameter is bound into a
// statement-local string pool (never the database's) and evaluated by the
// kernels, so the lint claims only what execution does; a bare literal or
// parameter is its own value. Above those subtrees, and/or/not combine
// partial knowledge through the truth tables of null_semantics.hpp
// (`true or <column>` is true), and a NULL operand makes a comparison or
// arithmetic NULL. Only truth values and NULL matter there, so any other
// value folds to "unknown".

using relational::Tri;

class Folder {
 public:
  explicit Folder(const ParamMap* params) : params_(params) {}

  /// The truth value of `expr` on every row (kNull for a NULL of any
  /// type), or nullopt when it depends on the row or is not a boolean.
  /// `expr` must be well typed.
  std::optional<Tri> fold(const ExprPtr& expr) {
    if (is_constant(*expr)) return constant(expr);
    if (expr->kind == Expr::Kind::kUnary) {
      const auto v = fold(expr->lhs);
      if (expr->uop == UnaryOp::kNot && v) {
        return relational::kNot3[static_cast<int>(*v)];
      }
      return v == Tri::kNull ? v : std::nullopt;
    }
    if (expr->kind != Expr::Kind::kBinary) return std::nullopt;
    const auto l = fold(expr->lhs);
    const auto r = fold(expr->rhs);
    if (relational::is_logical(expr->bop)) {
      // An unknown side may be any of the three truth values; the result
      // is known when the table gives one answer for all of them.
      const auto& table = expr->bop == BinaryOp::kAnd ? relational::kAnd3
                                                       : relational::kOr3;
      std::optional<Tri> out;
      for (int a = 0; a < 3; ++a) {
        for (int b = 0; b < 3; ++b) {
          if ((l && a != static_cast<int>(*l)) ||
              (r && b != static_cast<int>(*r))) {
            continue;
          }
          if (out && *out != table[a][b]) return std::nullopt;
          out = table[a][b];
        }
      }
      return out;
    }
    if (relational::binary_result_is_null(l == Tri::kNull,
                                          r == Tri::kNull)) {
      return Tri::kNull;
    }
    return std::nullopt;
  }

 private:
  bool is_constant(const Expr& e) const {
    switch (e.kind) {
      case Expr::Kind::kLiteral:
        return true;
      case Expr::Kind::kParameter:
        return params_ != nullptr && params_->contains(e.param_name);
      case Expr::Kind::kColumnRef:
        return false;
      case Expr::Kind::kUnary:
        return is_constant(*e.lhs);
      case Expr::Kind::kBinary:
        return is_constant(*e.lhs) && is_constant(*e.rhs);
    }
    GEMS_UNREACHABLE("bad expr kind");
  }

  std::optional<Tri> constant(const ExprPtr& expr) {
    if (expr->kind == Expr::Kind::kLiteral ||
        expr->kind == Expr::Kind::kParameter) {
      const storage::Value& v = expr->kind == Expr::Kind::kLiteral
                                    ? expr->literal
                                    : params_->find(expr->param_name)->second;
      if (v.is_null()) return Tri::kNull;
      if (v.kind() != TypeKind::kBool) return std::nullopt;
      return v.as_bool() ? Tri::kTrue : Tri::kFalse;
    }
    static const ParamMap kNoParams;
    // A folded subtree has no columns: its scope resolves nothing.
    auto bound = relational::bind_expr(
        expr, relational::MultiSourceScope({}, {}),
        params_ != nullptr ? *params_ : kNoParams, pool_);
    if (!bound.is_ok()) return std::nullopt;
    const relational::Cell c = relational::fold_constant(**bound, pool_);
    if (!c.null && c.kind != TypeKind::kBool) return std::nullopt;
    return relational::tri_of(c);
  }

  const ParamMap* params_;
  StringPool pool_;
};

/// Pass 2 reporting: warns when a (type-correct) condition keeps every row
/// or none. `empty_consequence` states what an always-false condition
/// means for this context ("this step never matches", ...).
void fold_and_warn(const ExprPtr& cond, const ParamMap* params,
                   DiagnosticEngine& diags, SourceSpan fallback,
                   std::string_view empty_consequence) {
  const auto v = Folder(params).fold(cond);
  if (!v) return;
  const SourceSpan span = span_or(expr_span(*cond), fallback);
  if (*v == Tri::kTrue) {
    diags.warning(DiagCode::kAlwaysTrue, span,
                  "condition '" + cond->to_string() + "' is always true")
        .fixit = "remove the condition; it filters nothing";
  } else {
    diags.warning(DiagCode::kAlwaysFalse, span,
                  "condition '" + cond->to_string() + "' is always " +
                      (*v == Tri::kNull ? "NULL" : "false") + "; " +
                      std::string(empty_consequence))
        .fixit = "fix or remove the contradictory condition";
  }
}

/// Type-checks a condition, reporting into `diags` on failure, and then
/// runs pass 2 over it. Returns true when the condition is a well-typed
/// boolean.
bool check_condition(const ExprPtr& expr, const relational::Scope& scope,
                     const ParamMap* params, DiagnosticEngine& diags,
                     SourceSpan fallback, std::string_view empty_consequence) {
  SourceSpan err_span;
  auto t = infer_type(expr, scope, params, &err_span);
  if (!t.is_ok()) {
    diags.error(expr_error_code(t.status().code()), t.status().code(),
                span_or(err_span, fallback),
                std::string(t.status().message()));
    return false;
  }
  const MaybeType& mt = t.value();
  if (mt && mt->kind != TypeKind::kBool) {
    diags.error(DiagCode::kNotBoolean, StatusCode::kTypeError,
                span_or(expr_span(*expr), fallback),
                "condition '" + expr->to_string() + "' is not boolean (type " +
                    mt->to_string() + ")");
    return false;
  }
  fold_and_warn(expr, params, diags, fallback, empty_consequence);
  return true;
}

// ---- Graph query analysis ------------------------------------------------
// Names resolve per and-group through graql::StepNames and StepScope, as the
// lowering resolves them: a step is a NamedStep (type "" when variant or
// unknown), and a regex group's interior step binds over its own table.

SourceSpan element_span(const PathElement& el) {
  return std::visit([](const auto& s) { return s.span; }, el);
}

std::string format_avg(double avg) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.1f", avg);
  return buf;
}

/// Every vertex step of a graph query, group interiors included, and its
/// type ("" when variant or unknown).
using VertexSteps = std::vector<std::pair<const VertexStep*, std::string>>;

class GraphQueryAnalyzer {
 public:
  GraphQueryAnalyzer(const MetaCatalog& catalog, const AnalyzeOptions& opts,
                     DiagnosticEngine& diags)
      : catalog_(catalog), opts_(opts), params_(opts.params), diags_(diags) {}

  void analyze(const GraphQueryStmt& stmt) {
    stmt_span_ = stmt.span;
    const std::size_t errs_before = diags_.error_count();
    if (stmt.or_groups.empty() || stmt.or_groups[0].empty()) {
      diags_.error(DiagCode::kBadStructure, StatusCode::kInvalidArgument,
                   stmt.span, "graph query has no path pattern");
      return;
    }
    groups_.reserve(stmt.or_groups.size());
    for (const auto& and_group : stmt.or_groups) {
      groups_.push_back({StepNames(and_group), {}, {}});
      for (const auto& path : and_group) {
        analyze_path(path);
      }
    }
    check_targets(stmt, errs_before);
    warn_unused_labels();  // pass 3
  }

  /// The vertex types a subgraph result may hold, so a later `S.V` seeding
  /// can be checked: those of the selected vertex steps (of every vertex
  /// step, group interiors included, for `*`), and every declared vertex
  /// type for a variant step. A superset of the types it marks a vertex of.
  SubgraphMeta subgraph_meta(const GraphQueryStmt& stmt) const {
    SubgraphMeta meta;
    auto add = [&](const std::string& type) {
      if (!type.empty()) {
        meta.vertex_steps.insert(type);
        return;
      }
      for (const std::string& name : catalog_.vertex_names()) {
        meta.vertex_steps.insert(name);
      }
    };
    for (const auto& t : stmt.targets) {
      if (t.star) {
        for (const auto& [v, type] : vertex_steps_) add(type);
        continue;
      }
      for (const Group& group : groups_) {
        auto it = group.names.steps.find(t.qualifier);
        if (it != group.names.steps.end() && !it->second.is_edge) {
          add(it->second.type);
        }
      }
    }
    return meta;
  }

  /// The output columns of a table result; set when the statement has no
  /// error.
  const std::vector<GraphOutput>& outputs() const { return outputs_; }

  const VertexSteps& vertex_steps() const { return vertex_steps_; }

 private:
  struct LabelSite {
    std::string label;
    SourceSpan span;
    LabelKind kind;
  };

  /// One and-group: its names and its labels (pass 3 bookkeeping).
  struct Group {
    StepNames names;
    std::vector<LabelSite> label_sites;
    std::set<std::string, std::less<>> used_labels;

    bool defines(std::string_view label) const {
      return std::any_of(
          label_sites.begin(), label_sites.end(),
          [&](const LabelSite& site) { return site.label == label; });
    }
    /// Pass 3: a reference to `name` uses it when it is a label.
    void use(std::string_view name) {
      if (defines(name)) used_labels.emplace(name);
    }
  };

  Group& group() { return groups_.back(); }

  void analyze_path(const PathPattern& path) {
    if (path.elements.empty()) {
      diags_.error(DiagCode::kBadStructure, StatusCode::kInvalidArgument,
                   stmt_span_, "empty path pattern");
      return;
    }
    if (!std::holds_alternative<VertexStep>(path.elements.front())) {
      diags_.error(DiagCode::kBadStructure, StatusCode::kInvalidArgument,
                   element_span(path.elements.front()),
                   "a path query must start with a vertex step");
      return;
    }
    // The previous *vertex* step, for edge adjacency checks.
    NamedStep prev_vertex;
    bool have_prev = false;
    // Pass 1 pin state: when the last vertex step was a variant `[ ]`
    // reached over a known edge, that edge pins the variant's type; a
    // known outgoing edge demanding a different type makes the
    // intersection empty (GQL0042).
    const VertexStep* variant_step = nullptr;
    std::string variant_pin;
    std::string variant_pin_edge;

    for (std::size_t i = 0; i < path.elements.size(); ++i) {
      const PathElement& el = path.elements[i];
      if (const auto* v = std::get_if<VertexStep>(&el)) {
        if (have_prev && i > 0 &&
            std::holds_alternative<VertexStep>(path.elements[i - 1])) {
          diags_.error(DiagCode::kBadStructure, StatusCode::kInvalidArgument,
                       v->span,
                       "two consecutive vertex steps; an edge step must "
                       "connect them");
        }
        NamedStep step = analyze_vertex_step(*v, /*in_group=*/false);
        vertex_steps_.emplace_back(v, step.type);
        variant_step = nullptr;
        variant_pin.clear();
        variant_pin_edge.clear();
        // Adjacency check against a preceding edge step.
        if (i > 0) {
          if (const auto* e = std::get_if<EdgeStep>(&path.elements[i - 1])) {
            check_edge_adjacency(*e, prev_vertex, step);
            if (v->variant) {
              variant_step = v;
              if (!e->variant) {
                if (const EdgeMeta* meta = catalog_.find_edge(e->type_name)) {
                  variant_pin =
                      e->reversed ? meta->source_vertex : meta->target_vertex;
                  variant_pin_edge = e->type_name;
                }
              }
            }
          }
        } else if (v->variant) {
          variant_step = v;
        }
        prev_vertex = step;
        have_prev = true;
        continue;
      }
      if (const auto* e = std::get_if<EdgeStep>(&el)) {
        analyze_edge_step(*e, /*in_group=*/false);
        // Pass 1: a known edge leaving a pinned variant vertex must agree
        // with the type the incoming edge pinned.
        if (variant_step != nullptr && !variant_pin.empty() && !e->variant) {
          if (const EdgeMeta* meta = catalog_.find_edge(e->type_name)) {
            const std::string& need =
                e->reversed ? meta->target_vertex : meta->source_vertex;
            if (!need.empty() && need != variant_pin) {
              diags_
                  .error(DiagCode::kEmptyIntersection,
                         StatusCode::kInvalidArgument, variant_step->span,
                         "statically empty query: the '[ ]' step must be a "
                         "'" + variant_pin + "' (edge '" + variant_pin_edge +
                             "') and a '" + need + "' (edge '" +
                             e->type_name + "') at the same time")
                  .fixit = "replace '[ ]' with a concrete vertex type or "
                           "fix an edge direction";
            }
          }
        }
        if (i + 1 >= path.elements.size()) {
          diags_.error(DiagCode::kBadStructure, StatusCode::kInvalidArgument,
                       e->span, "a path query must end with a vertex step");
        }
        continue;
      }
      const auto& group = std::get<PathGroup>(el);
      prev_vertex = analyze_group(group, prev_vertex);
      have_prev = true;
      variant_step = nullptr;
      variant_pin.clear();
      variant_pin_edge.clear();
    }
  }

  NamedStep analyze_vertex_step(const VertexStep& v, bool in_group) {
    NamedStep step{&v, false, ""};
    const auto ref = group().names.refs.find(&v);
    if (!in_group && ref != group().names.refs.end()) {
      // Bare label reference (Eq. 6/8): adopts the labeled step's type.
      if (ref->second.is_edge) {
        diags_.error(DiagCode::kWrongEntityKind, StatusCode::kTypeError,
                     v.span,
                     "label '" + v.type_name +
                         "' names an edge step but is used as a vertex "
                         "step");
        return step;
      }
      step.type = ref->second.type;
      group().use(v.type_name);
    } else if (!v.variant) {
      if (!v.seed_result.empty()) {
        const SubgraphMeta* sub = catalog_.find_subgraph(v.seed_result);
        if (sub == nullptr) {
          diags_.error(DiagCode::kUnknownName, StatusCode::kNotFound, v.span,
                       "unknown result subgraph '" + v.seed_result +
                           "' (Fig. 12 seeding requires a prior 'into "
                           "subgraph')");
          return step;
        }
        if (!sub->vertex_steps.contains(v.type_name)) {
          diags_.error(DiagCode::kUnknownName, StatusCode::kNotFound, v.span,
                       "subgraph '" + v.seed_result +
                           "' has no vertex step '" + v.type_name + "'");
          return step;
        }
      }
      if (catalog_.find_vertex(v.type_name) == nullptr) {
        if (catalog_.find_table(v.type_name) != nullptr) {
          diags_.error(DiagCode::kWrongEntityKind, StatusCode::kTypeError,
                       v.span,
                       "'" + v.type_name +
                           "' is a table, but a vertex type is required "
                           "in a path step");
        } else if (catalog_.find_edge(v.type_name) != nullptr) {
          diags_.error(DiagCode::kWrongEntityKind, StatusCode::kTypeError,
                       v.span,
                       "'" + v.type_name +
                           "' is an edge type, but a vertex type is "
                           "required here");
        } else {
          diags_.error(DiagCode::kUnknownName, StatusCode::kNotFound, v.span,
                       "unknown vertex type '" + v.type_name + "'");
        }
        return step;
      }
      step.type = v.type_name;
    }

    if (v.condition) check_step_condition(v, step, in_group);
    define_label(v.label_kind, v.label, v.span);
    return step;
  }

  NamedStep analyze_edge_step(const EdgeStep& e, bool in_group) {
    NamedStep step{&e, true, ""};
    if (!e.variant) {
      const EdgeMeta* meta = catalog_.find_edge(e.type_name);
      if (meta == nullptr) {
        if (catalog_.find_vertex(e.type_name) != nullptr) {
          diags_.error(DiagCode::kWrongEntityKind, StatusCode::kTypeError,
                       e.span,
                       "'" + e.type_name +
                           "' is a vertex type, but an edge type is "
                           "required between '--' arrows");
        } else {
          diags_.error(DiagCode::kUnknownName, StatusCode::kNotFound, e.span,
                       "unknown edge type '" + e.type_name + "'");
        }
        return step;
      }
      step.type = e.type_name;
    }
    if (e.condition) check_step_condition(e, step, in_group);
    define_label(e.label_kind, e.label, e.span);
    return step;
  }

  NamedStep analyze_group(const PathGroup& group, const NamedStep& entry) {
    NamedStep last_vertex = entry;
    const EdgeStep* first_edge = nullptr;
    for (std::size_t i = 0; i < group.body.size(); ++i) {
      const PathElement& el = group.body[i];
      const auto* e = std::get_if<EdgeStep>(&el);
      const auto* v = std::get_if<VertexStep>(&el);
      if ((e != nullptr && e->label_kind != LabelKind::kNone) ||
          (v != nullptr && v->label_kind != LabelKind::kNone)) {
        diags_.error(DiagCode::kBadStructure, StatusCode::kInvalidArgument,
                     element_span(el),
                     "labels are not allowed inside path regular "
                     "expressions");
        continue;
      }
      if (e != nullptr) {
        analyze_edge_step(*e, /*in_group=*/true);
        if (i == 0) first_edge = e;
        continue;
      }
      if (v != nullptr) {
        NamedStep step = analyze_vertex_step(*v, /*in_group=*/true);
        vertex_steps_.emplace_back(v, step.type);
        // Adjacency within the group.
        if (i > 0) {
          if (const auto* prev = std::get_if<EdgeStep>(&group.body[i - 1])) {
            check_edge_adjacency(*prev, last_vertex, step);
          }
        }
        last_vertex = step;
        continue;
      }
      diags_.error(DiagCode::kBadStructure, StatusCode::kInvalidArgument,
                   element_span(el), "nested path groups are not supported");
    }
    check_closure(group, first_edge, last_vertex);
    return last_vertex;
  }

  /// Passes 1 and 4 over a regex group: can the body chain onto itself at
  /// all (GQL0043), and is an unbounded closure affordable (GQL0070)?
  void check_closure(const PathGroup& group, const EdgeStep* first_edge,
                     const NamedStep& last_vertex) {
    const bool repeats =
        group.quant == PathGroup::Quant::kStar ||
        group.quant == PathGroup::Quant::kPlus ||
        (group.quant == PathGroup::Quant::kExact && group.count > 1);
    if (!repeats || first_edge == nullptr) return;
    // GQL0043: on every iteration after the first, the body's first edge
    // leaves the vertex its last step arrived at; contradictory types
    // mean the closure degenerates to at most one traversal.
    if (!first_edge->variant && !last_vertex.type.empty()) {
      if (const EdgeMeta* meta = catalog_.find_edge(first_edge->type_name)) {
        const std::string& need = first_edge->reversed
                                      ? meta->target_vertex
                                      : meta->source_vertex;
        if (need != last_vertex.type) {
          diags_
              .warning(DiagCode::kClosureCannotRepeat, group.span,
                       "closure body cannot repeat: edge '" +
                           first_edge->type_name + "' leaves '" + need +
                           "' but the body ends at '" + last_vertex.type +
                           "'")
              .fixit = "use '{1}' or make the body end where its first "
                       "edge starts";
        }
      }
    }
    // Pass 4 (GQL0070): unbounded closures over dense edge types. The
    // planner's degree statistics arrive through AnalyzeOptions; without
    // them (no data loaded, or a bare front-end) the pass is silent.
    if (group.quant == PathGroup::Quant::kExact || !opts_.edge_stats) return;
    for (const auto& el : group.body) {
      const auto* e = std::get_if<EdgeStep>(&el);
      if (e == nullptr) continue;
      std::vector<std::string> names;
      if (e->variant) {
        names = catalog_.edge_names();
      } else {
        names.push_back(e->type_name);
      }
      for (const auto& name : names) {
        auto stats = opts_.edge_stats(name);
        if (!stats) continue;
        const double avg = e->reversed ? stats->avg_in : stats->avg_out;
        const std::uint32_t mx = e->reversed ? stats->max_in : stats->max_out;
        if (avg <= opts_.closure_avg_degree_warn &&
            mx <= opts_.closure_max_degree_warn) {
          continue;
        }
        diags_
            .warning(DiagCode::kCostlyClosure, span_or(e->span, group.span),
                     "unbounded closure over dense edge type '" + name +
                         "' (avg " + format_avg(avg) + ", max " +
                         std::to_string(mx) +
                         (e->reversed ? " in-edges" : " out-edges") +
                         " per vertex): the match frontier can grow "
                         "exponentially with path length")
            .fixit = "bound the repetition with '{n}' or tighten the step "
                     "conditions";
        break;  // one warning per edge step
      }
    }
  }

  /// Non-variant edge between two (possibly variant/unknown) vertex steps:
  /// endpoints must match declared source/target given the direction.
  void check_edge_adjacency(const EdgeStep& e, const NamedStep& left,
                            const NamedStep& right) {
    const std::string& lt = left.type;
    const std::string& rt = right.type;
    if (!e.variant) {
      const EdgeMeta* meta = catalog_.find_edge(e.type_name);
      if (meta == nullptr) return;  // reported elsewhere
      const std::string& want_src = e.reversed ? rt : lt;
      const std::string& want_dst = e.reversed ? lt : rt;
      if (!want_src.empty() && meta->source_vertex != want_src) {
        diags_.error(DiagCode::kEndpointMismatch, StatusCode::kTypeError,
                     e.span,
                     "edge '" + e.type_name + "' starts at '" +
                         meta->source_vertex + "', not '" + want_src +
                         "' (check the arrow direction)");
        return;
      }
      if (!want_dst.empty() && meta->target_vertex != want_dst) {
        diags_.error(DiagCode::kEndpointMismatch, StatusCode::kTypeError,
                     e.span,
                     "edge '" + e.type_name + "' ends at '" +
                         meta->target_vertex + "', not '" + want_dst + "'");
      }
      return;
    }
    // Variant edge between two known vertex types: at least one edge type
    // must connect them, else the query is statically empty (Sec. III-A
    // "will the query result be empty?").
    if (!lt.empty() && !rt.empty()) {
      const std::string& src = e.reversed ? rt : lt;
      const std::string& dst = e.reversed ? lt : rt;
      if (catalog_.edges_between(src, dst).empty()) {
        diags_.error(DiagCode::kNoEdgeBetween, StatusCode::kInvalidArgument,
                     e.span,
                     "statically empty query: no edge type connects '" + src +
                         "' to '" + dst + "'");
      }
    }
  }

  /// A vertex type's source schema or an edge type's attribute schema.
  const Schema* attrs_of(bool is_edge, const std::string& type) const {
    if (!is_edge) {
      const VertexMeta* meta = catalog_.find_vertex(type);
      return meta == nullptr ? nullptr : &meta->attr_schema;
    }
    const EdgeMeta* meta = catalog_.find_edge(type);
    return meta == nullptr || !meta->attr_schema ? nullptr
                                                 : &*meta->attr_schema;
  }

  /// The analyzer's side of a StepScope: a column of a step's catalog
  /// schema.
  Result<relational::Slot> slot_of(const NamedStep& step,
                                   std::string_view column) const {
    if (step.type.empty()) {
      return type_error("variant steps have no referencable attributes");
    }
    const Schema* schema = attrs_of(step.is_edge, step.type);
    if (schema == nullptr) {
      return type_error("step '" + step.type + "' has no attributes");
    }
    auto idx = schema->find(column);
    if (!idx) {
      return not_found("step '" + step.type + "' has no attribute '" +
                       std::string(column) + "'");
    }
    return relational::Slot{0, *idx, schema->column(*idx).type};
  }

  /// Types `step`'s condition through the scope the lowering binds it
  /// with: the and-group's StepScope, or inside a regex group the step's
  /// own table alone.
  template <typename Step>
  void check_step_condition(const Step& step, const NamedStep& self,
                            bool in_group) {
    if (in_group) {
      const Schema* schema = attrs_of(self.is_edge, self.type);
      if (schema == nullptr) {
        diags_.error(DiagCode::kTypeMismatch, StatusCode::kTypeError,
                     step.span,
                     "edge type '" + self.type +
                         "' has no attributes to filter on");
        return;
      }
      const relational::TableScope scope(
          *schema,
          self.is_edge ? self.type
                       : catalog_.find_vertex(self.type)->source_table,
          self.type);
      check_condition(step.condition, scope, params_, diags_, step.span,
                      kNeverMatches);
    } else {
      const StepScope scope(
          group().names, step,
          [this](const NamedStep& named, std::string_view column) {
            return slot_of(named, column);
          });
      check_condition(step.condition, scope, params_, diags_, step.span,
                      kNeverMatches);
      note_label_qualifiers(*step.condition, step.label);
    }
  }

  static constexpr std::string_view kNeverMatches =
      "this step can never match";

  /// Pass 3: a condition naming a label of its and-group, other than its
  /// own step's, uses it.
  void note_label_qualifiers(const Expr& e, const std::string& own_label) {
    if (e.kind == Expr::Kind::kColumnRef && e.qualifier != own_label) {
      group().use(e.qualifier);
    }
    if (e.lhs) note_label_qualifiers(*e.lhs, own_label);
    if (e.rhs) note_label_qualifiers(*e.rhs, own_label);
  }

  void define_label(LabelKind kind, const std::string& label,
                    SourceSpan span) {
    if (kind == LabelKind::kNone) return;
    if (group().defines(label)) {
      diags_.error(DiagCode::kDuplicateLabel, StatusCode::kAlreadyExists,
                   span,
                   "label '" + label + "' defined twice in one query");
      return;
    }
    if (catalog_.find_vertex(label) != nullptr ||
        catalog_.find_edge(label) != nullptr) {
      diags_.error(DiagCode::kLabelShadowsType, StatusCode::kAlreadyExists,
                   span,
                   "label '" + label + "' shadows a declared graph type");
      return;
    }
    group().label_sites.push_back({label, span, kind});
  }

  void check_targets(const GraphQueryStmt& stmt, std::size_t errs_before) {
    if (stmt.targets.empty()) {
      diags_.error(DiagCode::kBadStructure, StatusCode::kInvalidArgument,
                   stmt.span, "graph query selects nothing");
      return;
    }
    for (Group& group : groups_) {
      for (const auto& t : stmt.targets) group.use(t.qualifier);
    }
    // A step whose type is unknown (already reported) reads as a step
    // without attributes; do not report it twice.
    if (diags_.error_count() != errs_before) return;
    std::vector<ShapeError> errors;
    if (stmt.into == IntoKind::kSubgraph) {
      errors = subgraph_targets(stmt).errors;
    } else {
      GraphOutputs outputs = graph_query_outputs(
          stmt, [this](bool is_edge, const std::string& type) {
            return attrs_of(is_edge, type);
          });
      errors = std::move(outputs.errors);
      if (errors.empty()) outputs_ = std::move(outputs.columns);
    }
    report_shape_errors(errors, stmt.span, diags_);
  }

  /// Pass 3: a `def`/`foreach` label nothing in its and-group references
  /// is either dead weight or a typo for a reference elsewhere.
  void warn_unused_labels() {
    for (const Group& group : groups_) {
      for (const LabelSite& site : group.label_sites) {
        if (group.used_labels.contains(site.label)) continue;
        const char* kw = site.kind == LabelKind::kForeach ? "foreach" : "def";
        diags_
            .warning(DiagCode::kUnusedLabel, site.span,
                     "label '" + site.label + "' is defined but never "
                     "referenced")
            .fixit = std::string("drop '") + kw + " " + site.label +
                     ":' or reference the label in a condition, step or "
                     "select target";
      }
    }
  }

  const MetaCatalog& catalog_;
  const AnalyzeOptions& opts_;
  const ParamMap* params_;
  DiagnosticEngine& diags_;
  SourceSpan stmt_span_;
  std::vector<Group> groups_;
  VertexSteps vertex_steps_;
  std::vector<GraphOutput> outputs_;
};

// ---- Table query analysis --------------------------------------------------

/// Reports every problem in a table query; returns the output schema when
/// the query is clean enough to have one.
std::optional<Schema> analyze_table_query(const TableQueryStmt& stmt,
                                          const MetaCatalog& catalog,
                                          const AnalyzeOptions& opts,
                                          DiagnosticEngine& diags) {
  const ParamMap* params = opts.params;
  const std::size_t errs_before = diags.error_count();
  const Schema* schema = catalog.find_table(stmt.from_table);
  if (schema == nullptr) {
    // Paper Sec. III-A: "a table name should be used when a table is
    // required, rather than a vertex type name".
    if (catalog.find_vertex(stmt.from_table) != nullptr) {
      diags.error(DiagCode::kWrongEntityKind, StatusCode::kTypeError,
                  stmt.span,
                  "'" + stmt.from_table +
                      "' is a vertex type; 'from table' requires a table");
    } else if (catalog.find_edge(stmt.from_table) != nullptr) {
      diags.error(DiagCode::kWrongEntityKind, StatusCode::kTypeError,
                  stmt.span,
                  "'" + stmt.from_table +
                      "' is an edge type; 'from table' requires a table");
    } else {
      diags.error(DiagCode::kUnknownName, StatusCode::kNotFound, stmt.span,
                  "unknown table '" + stmt.from_table + "'");
    }
    return std::nullopt;
  }

  const relational::TableScope scope(*schema, stmt.from_table);
  if (stmt.where) {
    check_condition(stmt.where, scope, params, diags, stmt.span,
                    "the query returns no rows");
  }
  // The run binds each item before resolving the shape.
  std::vector<MaybeType> item_types(stmt.items.size());
  for (std::size_t i = 0; i < stmt.items.size(); ++i) {
    const SelectItem& item = stmt.items[i];
    if (item.expr == nullptr) continue;  // `*` and count(*)
    SourceSpan err_span;
    auto type = infer_type(item.expr, scope, params, &err_span);
    if (type.is_ok()) {
      item_types[i] = *type;
      continue;
    }
    diags.error(expr_error_code(type.status().code()), type.status().code(),
                span_or(err_span, span_or(item.span, stmt.span)),
                std::string(type.status().message()));
  }
  const TableQueryShape shape = table_query_shape(stmt, *schema, item_types);
  report_shape_errors(shape.errors, stmt.span, diags);
  if (diags.error_count() > errs_before) return std::nullopt;
  std::vector<storage::ColumnDef> out_cols;
  for (const TableOutput& col : shape.outputs) {
    out_cols.push_back({col.name, col.type.value_or(DataType::int64())});
  }
  auto out = Schema::create(std::move(out_cols));
  if (!out.is_ok()) {
    diags.error(DiagCode::kBadStructure, out.status().code(), stmt.span,
                std::string(out.status().message()));
    return std::nullopt;
  }
  return std::move(out).value();
}

// ---- DDL analysis -----------------------------------------------------------

/// The first %parameter% in `e`, or null.
const Expr* first_parameter(const ExprPtr& e) {
  if (!e) return nullptr;
  if (e->kind == Expr::Kind::kParameter) return e.get();
  if (const Expr* p = first_parameter(e->lhs)) return p;
  return first_parameter(e->rhs);
}

/// A type is a view over tables (paper Eqs. 1-2) that ingest and recovery
/// rebuild with no parameters bound, so its WHERE clause takes none.
/// Returns false after reporting the first %parameter% in `where`.
bool check_no_parameter(const ExprPtr& where, const std::string& type,
                        DiagnosticEngine& diags, SourceSpan fallback) {
  const Expr* param = first_parameter(where);
  if (param == nullptr) return true;
  diags
      .error(DiagCode::kBadParameter, StatusCode::kInvalidArgument,
             span_or(expr_span(*param), fallback),
             "declaration of '" + type + "' uses parameter %" +
                 param->param_name +
                 "%; a vertex or edge type is rebuilt from its tables "
                 "without parameters")
      .fixit = "write the value into the declaration as a literal";
  return false;
}

/// Reports a declaration the builder's binder refuses after its WHERE
/// clause typed: a missing column, a structural rule, or a join link
/// between columns of two kinds.
void report_binding(const Status& status, DiagnosticEngine& diags,
                    SourceSpan span) {
  diags.error(status.code() == StatusCode::kInvalidArgument
                  ? DiagCode::kBadStructure
                  : expr_error_code(status.code()),
              status.code(), span, std::string(status.message()));
}

void analyze_create_vertex(const CreateVertexStmt& stmt,
                           const MetaCatalog& catalog,
                           const AnalyzeOptions& opts,
                           DiagnosticEngine& diags) {
  const graph::VertexDecl& d = stmt.decl;
  const Schema* schema = catalog.find_table(d.table);
  if (schema == nullptr) {
    if (catalog.find_vertex(d.table) != nullptr) {
      diags.error(DiagCode::kWrongEntityKind, StatusCode::kTypeError,
                  stmt.span,
                  "'" + d.table +
                      "' is a vertex type; vertices are created from "
                      "tables");
    } else {
      diags.error(DiagCode::kUnknownName, StatusCode::kNotFound, stmt.span,
                  "unknown table '" + d.table + "'");
    }
    return;
  }
  if (catalog.name_in_use(d.name)) {
    diags.error(DiagCode::kNameInUse, StatusCode::kAlreadyExists, stmt.span,
                "name '" + d.name + "' is already in use");
  }
  if (d.key_columns.empty()) {
    diags.error(DiagCode::kBadStructure, StatusCode::kInvalidArgument,
                stmt.span, "vertex '" + d.name + "' needs a key column");
  }
  if (d.where && (!check_no_parameter(d.where, d.name, diags, stmt.span) ||
                  !check_condition(
                      d.where, relational::TableScope(*schema, d.table, d.name),
                      opts.params, diags, stmt.span,
                      "the vertex set is empty"))) {
    return;
  }
  StringPool pool;
  auto bound = graph::bind_vertex_decl(d, *schema, pool);
  if (!bound.is_ok()) report_binding(bound.status(), diags, stmt.span);
}

void analyze_create_edge(const CreateEdgeStmt& stmt,
                         const MetaCatalog& catalog,
                         const AnalyzeOptions& opts,
                         DiagnosticEngine& diags) {
  const graph::EdgeDecl& d = stmt.decl;
  if (catalog.name_in_use(d.name)) {
    diags.error(DiagCode::kNameInUse, StatusCode::kAlreadyExists, stmt.span,
                "name '" + d.name + "' is already in use");
  }
  std::vector<const Schema*> sources;
  for (const graph::EdgeEndpoint* ep : {&d.source, &d.target}) {
    const VertexMeta* meta = catalog.find_vertex(ep->vertex_type);
    if (meta == nullptr) {
      diags.error(DiagCode::kUnknownName, StatusCode::kNotFound, stmt.span,
                  "unknown vertex type '" + ep->vertex_type + "'");
    } else {
      sources.push_back(&meta->attr_schema);
    }
  }
  auto quals = graph::edge_join_qualifiers(d);
  if (!quals.is_ok()) report_binding(quals.status(), diags, stmt.span);
  if (sources.size() < 2 || !quals.is_ok() ||
      !check_no_parameter(d.where, d.name, diags, stmt.span)) {
    return;
  }
  for (const auto& name : d.assoc_tables) {
    const Schema* s = catalog.find_table(name);
    if (s == nullptr) {
      diags.error(DiagCode::kUnknownName, StatusCode::kNotFound, stmt.span,
                  "unknown associated table '" + name + "' in edge '" +
                      d.name + "'");
      return;
    }
    sources.push_back(s);
  }
  if (!check_condition(d.where,
                       relational::MultiSourceScope(quals.value(), sources),
                       opts.params, diags, stmt.span,
                       "the edge set is empty")) {
    return;
  }
  StringPool pool;
  auto bound = graph::bind_edge_decl(d, sources, pool);
  if (!bound.is_ok()) report_binding(bound.status(), diags, stmt.span);
}

// ---- Script-level driver (statement dispatch + pass 5) ---------------------

/// Runs the per-statement analyses, applies catalog effects of clean
/// statements, and maintains the cross-statement state pass 5 reads:
/// which tables this script created, which have been filled, and which
/// results are still waiting for a reader.
class ScriptAnalyzer {
 public:
  ScriptAnalyzer(MetaCatalog& catalog, DiagnosticEngine& diags,
                 const AnalyzeOptions& opts)
      : catalog_(catalog), diags_(diags), opts_(opts) {}

  bool statement(const Statement& stmt, std::size_t index) {
    const std::size_t errs_before = diags_.error_count();
    const SourceSpan sspan = statement_span(stmt);

    if (const auto* s = std::get_if<CreateTableStmt>(&stmt)) {
      auto schema = Schema::create(s->columns);
      if (!schema.is_ok()) {
        diags_.error(DiagCode::kBadStructure, schema.status().code(), sspan,
                     std::string(schema.status().message()));
      } else if (catalog_.name_in_use(s->name)) {
        diags_.error(DiagCode::kNameInUse, StatusCode::kAlreadyExists, sspan,
                     "name '" + s->name + "' is already in use");
      } else {
        GEMS_CHECK(catalog_.add_table(s->name, std::move(schema).value())
                       .is_ok());
        tables_[s->name].created_here = true;
      }
    } else if (const auto* s = std::get_if<CreateVertexStmt>(&stmt)) {
      analyze_create_vertex(*s, catalog_, opts_, diags_);
      if (diags_.error_count() == errs_before) {
        const Schema* source = catalog_.find_table(s->decl.table);
        GEMS_CHECK(catalog_
                       .add_vertex(s->decl.name,
                                   VertexMeta{s->decl.table, *source,
                                              s->decl.key_columns})
                       .is_ok());
      }
    } else if (const auto* s = std::get_if<CreateEdgeStmt>(&stmt)) {
      analyze_create_edge(*s, catalog_, opts_, diags_);
      if (diags_.error_count() == errs_before) {
        std::optional<Schema> attr;
        if (s->decl.assoc_tables.size() == 1) {
          attr = *catalog_.find_table(s->decl.assoc_tables[0]);
        }
        GEMS_CHECK(catalog_
                       .add_edge(s->decl.name,
                                 EdgeMeta{s->decl.source.vertex_type,
                                          s->decl.target.vertex_type,
                                          std::move(attr),
                                          s->decl.assoc_tables})
                       .is_ok());
      }
    } else if (const auto* s = std::get_if<IngestStmt>(&stmt)) {
      if (catalog_.find_table(s->table) == nullptr) {
        if (catalog_.find_vertex(s->table) != nullptr) {
          diags_.error(DiagCode::kWrongEntityKind, StatusCode::kTypeError,
                       sspan,
                       "'" + s->table +
                           "' is a vertex type; ingest targets tables");
        } else {
          diags_.error(DiagCode::kUnknownName, StatusCode::kNotFound, sspan,
                       "unknown table '" + s->table + "'");
        }
      } else {
        tables_[s->table].has_data = true;
      }
    } else if (const auto* s = std::get_if<OutputStmt>(&stmt)) {
      if (catalog_.find_table(s->table) == nullptr) {
        if (catalog_.find_vertex(s->table) != nullptr ||
            catalog_.find_edge(s->table) != nullptr) {
          diags_.error(DiagCode::kWrongEntityKind, StatusCode::kTypeError,
                       sspan,
                       "'" + s->table +
                           "' is a graph type; output targets tables");
        } else {
          diags_.error(DiagCode::kUnknownName, StatusCode::kNotFound, sspan,
                       "unknown table '" + s->table + "'");
        }
      } else {
        note_data_read(s->table, sspan,
                       "table '" + s->table + "' is written out here");
      }
    } else if (const auto* s = std::get_if<GraphQueryStmt>(&stmt)) {
      GraphQueryAnalyzer analyzer(catalog_, opts_, diags_);
      analyzer.analyze(*s);
      note_graph_reads(analyzer, sspan);
      if (s->into == IntoKind::kTable) check_into_table(s->into_name, sspan);
      if (diags_.error_count() == errs_before) {
        if (s->into == IntoKind::kSubgraph) {
          catalog_.add_subgraph(s->into_name, analyzer.subgraph_meta(*s));
          note_result_write(s->into_name, index, sspan);
        }
        if (s->into == IntoKind::kTable) {
          std::vector<storage::ColumnDef> cols;
          for (const GraphOutput& col : analyzer.outputs()) {
            cols.push_back({col.name, col.type});
          }
          auto schema = Schema::create(std::move(cols));
          if (!schema.is_ok()) {
            diags_.error(DiagCode::kBadStructure, schema.status().code(),
                         sspan, std::string(schema.status().message()));
          } else {
            catalog_.put_table(s->into_name, std::move(schema).value());
            tables_[s->into_name].has_data = true;
            note_result_write(s->into_name, index, sspan);
          }
        }
      }
    } else if (const auto* s = std::get_if<TableQueryStmt>(&stmt)) {
      auto schema = analyze_table_query(*s, catalog_, opts_, diags_);
      if (s->into == IntoKind::kTable) check_into_table(s->into_name, sspan);
      if (catalog_.find_table(s->from_table) != nullptr) {
        note_data_read(s->from_table, sspan,
                       "table '" + s->from_table + "' is queried here");
      }
      if (schema.has_value() && diags_.error_count() == errs_before &&
          s->into == IntoKind::kTable) {
        catalog_.put_table(s->into_name, std::move(*schema));
        tables_[s->into_name].has_data = true;
        note_result_write(s->into_name, index, sspan);
      }
    } else {
      GEMS_UNREACHABLE("unhandled statement kind");
    }
    return diags_.error_count() == errs_before;
  }

 private:
  struct TableState {
    bool created_here = false;   // `create table` in this script
    bool has_data = false;       // ingested or written by a query result
    int last_writer = -1;        // statement index of the last result write
    SourceSpan writer_span;
    bool read_since_write = true;
  };

  /// An `into table` result replaces its target in the catalog. The
  /// graph is a view over the tables its declarations read (paper Eq. 2),
  /// so none of those is replaced (GQL0106), and a type's name never
  /// becomes a table's (GQL0102).
  void check_into_table(const std::string& name, SourceSpan span) {
    if (catalog_.find_vertex(name) != nullptr ||
        catalog_.find_edge(name) != nullptr) {
      diags_.error(DiagCode::kNameInUse, StatusCode::kAlreadyExists, span,
                   "'into table " + name + "': '" + name +
                       "' is a graph type");
      return;
    }
    if (const std::string* reader = catalog_.declaration_reading(name)) {
      diags_
          .error(DiagCode::kIntoDeclaredTable, StatusCode::kInvalidArgument,
                 span,
                 "'into table " + name + "' would replace table '" + name +
                     "', which the declaration of '" + *reader + "' reads")
          .fixit = "write the result into a table of another name";
    }
  }

  /// Pass 5a (GQL0080): reading the *data* of a table this script created
  /// but never filled — the classic "forgot the ingest" mistake the
  /// scheduler (plan::schedule) would otherwise surface only as an empty
  /// result at run time. DDL reads (create vertex/edge `from table`) are
  /// exempt: declaring graph types over a still-empty table is the normal
  /// statement order, and ingest regenerates derived instances.
  void note_data_read(const std::string& table, SourceSpan span,
                      const std::string& what) {
    auto& st = tables_[table];
    st.read_since_write = true;
    if (st.created_here && !st.has_data) {
      diags_
          .warning(DiagCode::kUseBeforeIngest, span,
                   what + ", but it was created in this script and never "
                   "ingested or filled — it is empty")
          .fixit = "add \"ingest table " + table +
                   " '<file.csv>'\" (or reorder the statements) first";
    }
  }

  /// Pass 5b (GQL0081): two statements writing the same result name with
  /// no read in between — under plan::schedule's dependence rules the
  /// first write is dead, which is almost always a copy-paste slip.
  void note_result_write(const std::string& name, std::size_t index,
                         SourceSpan span) {
    auto& st = tables_[name];
    if (st.last_writer >= 0 && !st.read_since_write) {
      diags_
          .warning(DiagCode::kOverwrittenResult, span,
                   "result '" + name + "' overwrites the result of "
                   "statement " + std::to_string(st.last_writer + 1) +
                   " before anything reads it")
          .fixit = "drop the earlier statement or consume its result "
                   "before this one";
    }
    st.last_writer = static_cast<int>(index);
    st.writer_span = span;
    st.read_since_write = false;
  }

  /// Graph queries read vertex data materialized from source tables and
  /// seed from prior subgraph results; surface both to pass 5.
  void note_graph_reads(const GraphQueryAnalyzer& analyzer, SourceSpan sspan) {
    std::set<std::string> source_tables;
    for (const auto& [v, type] : analyzer.vertex_steps()) {
      if (!v->seed_result.empty()) {
        tables_[v->seed_result].read_since_write = true;
      }
      if (const VertexMeta* meta = catalog_.find_vertex(type)) {
        source_tables.insert(meta->source_table);
      }
    }
    for (const auto& table : source_tables) {
      note_data_read(table, sspan,
                     "this query matches vertices built from table '" +
                         table + "'");
    }
  }

  MetaCatalog& catalog_;
  DiagnosticEngine& diags_;
  const AnalyzeOptions& opts_;
  std::map<std::string, TableState> tables_;
};

}  // namespace

// ---- MetaCatalog -------------------------------------------------------------

Status MetaCatalog::add_table(const std::string& name,
                              storage::Schema schema) {
  if (name_in_use(name)) {
    return already_exists("name '" + name + "' is already in use");
  }
  tables_.emplace(name, std::move(schema));
  return Status::ok();
}

Status MetaCatalog::add_vertex(const std::string& name, VertexMeta meta) {
  if (name_in_use(name)) {
    return already_exists("name '" + name + "' is already in use");
  }
  vertices_.emplace(name, std::move(meta));
  return Status::ok();
}

Status MetaCatalog::add_edge(const std::string& name, EdgeMeta meta) {
  if (name_in_use(name)) {
    return already_exists("name '" + name + "' is already in use");
  }
  edges_.emplace(name, std::move(meta));
  return Status::ok();
}

void MetaCatalog::add_subgraph(const std::string& name, SubgraphMeta meta) {
  subgraphs_[name] = std::move(meta);
}

void MetaCatalog::put_table(const std::string& name,
                            storage::Schema schema) {
  tables_[name] = std::move(schema);
}

const std::string* MetaCatalog::declaration_reading(
    const std::string& table) const {
  for (const auto& [name, meta] : vertices_) {
    if (meta.source_table == table) return &name;
  }
  for (const auto& [name, meta] : edges_) {
    if (std::find(meta.assoc_tables.begin(), meta.assoc_tables.end(),
                  table) != meta.assoc_tables.end()) {
      return &name;
    }
  }
  return nullptr;
}

const storage::Schema* MetaCatalog::find_table(const std::string& name) const {
  auto it = tables_.find(name);
  return it == tables_.end() ? nullptr : &it->second;
}
const VertexMeta* MetaCatalog::find_vertex(const std::string& name) const {
  auto it = vertices_.find(name);
  return it == vertices_.end() ? nullptr : &it->second;
}
const EdgeMeta* MetaCatalog::find_edge(const std::string& name) const {
  auto it = edges_.find(name);
  return it == edges_.end() ? nullptr : &it->second;
}
const SubgraphMeta* MetaCatalog::find_subgraph(
    const std::string& name) const {
  auto it = subgraphs_.find(name);
  return it == subgraphs_.end() ? nullptr : &it->second;
}

bool MetaCatalog::name_in_use(const std::string& name) const {
  return tables_.contains(name) || vertices_.contains(name) ||
         edges_.contains(name);
}

std::vector<std::string> MetaCatalog::edges_between(
    const std::string& src, const std::string& dst) const {
  std::vector<std::string> out;
  for (const auto& [name, meta] : edges_) {
    if (meta.source_vertex == src && meta.target_vertex == dst) {
      out.push_back(name);
    }
  }
  return out;
}

std::vector<std::string> MetaCatalog::edge_names() const {
  std::vector<std::string> out;
  out.reserve(edges_.size());
  for (const auto& [name, meta] : edges_) out.push_back(name);
  return out;
}

std::vector<std::string> MetaCatalog::vertex_names() const {
  std::vector<std::string> out;
  out.reserve(vertices_.size());
  for (const auto& [name, meta] : vertices_) out.push_back(name);
  return out;
}

// ---- Entry points ------------------------------------------------------------

void analyze_script_collect(const Script& script, MetaCatalog& catalog,
                            DiagnosticEngine& diags,
                            const AnalyzeOptions& opts) {
  ScriptAnalyzer analyzer(catalog, diags, opts);
  for (std::size_t i = 0; i < script.statements.size(); ++i) {
    analyzer.statement(script.statements[i], i);
  }
}

Status analyze_statement(const Statement& stmt, MetaCatalog& catalog,
                         const relational::ParamMap* params) {
  DiagnosticEngine diags;
  AnalyzeOptions opts;
  opts.params = params;
  ScriptAnalyzer analyzer(catalog, diags, opts);
  analyzer.statement(stmt, 0);
  return diags.to_status();
}

Status analyze_script(const Script& script, MetaCatalog& catalog,
                      const relational::ParamMap* params) {
  DiagnosticEngine diags;
  AnalyzeOptions opts;
  opts.params = params;
  ScriptAnalyzer analyzer(catalog, diags, opts);
  for (std::size_t i = 0; i < script.statements.size(); ++i) {
    const std::size_t errs_before = diags.error_count();
    analyzer.statement(script.statements[i], i);
    if (diags.error_count() > errs_before) {
      return diags.to_status().with_context("statement " +
                                            std::to_string(i + 1));
    }
  }
  return Status::ok();
}

}  // namespace gems::graql
