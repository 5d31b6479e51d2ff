// GraQL abstract syntax tree. One Script holds the statements of a GraQL
// script Ω = q1..qn (paper Sec. III); each statement is DDL, ingest, a
// graph path query, or a relational table query.
//
// The language surface follows paper Sec. II:
//   create table T(col type, ...)
//   create vertex V(key[, key...]) from table T [where φ]
//   create edge E with vertices (V1 [as A], V2 [as B])
//       [from table T1[, T2...]] where φ
//   ingest table T 'file.csv'
//   select <targets> from graph <path> [and <path>]... [or <path>]...
//       into {subgraph|table} Name
//   select [top n] [distinct] <items> from table T [where φ]
//       [group by cols] [order by col [desc], ...] [into table Name]
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <type_traits>
#include <variant>
#include <vector>

#include "graph/builder.hpp"
#include "graql/diag.hpp"
#include "graql/token.hpp"
#include "relational/expr.hpp"
#include "relational/expr_rules.hpp"
#include "relational/operators.hpp"
#include "storage/schema.hpp"

namespace gems::graql {

// ---- DDL statements --------------------------------------------------------

struct CreateTableStmt {
  std::string name;
  std::vector<storage::ColumnDef> columns;
  SourceSpan span;
};

struct CreateVertexStmt {
  graph::VertexDecl decl;
  SourceSpan span;
};

struct CreateEdgeStmt {
  graph::EdgeDecl decl;
  SourceSpan span;
};

struct IngestStmt {
  std::string table;
  std::string path;      // CSV file
  bool has_header = false;  // `ingest table T 'f.csv' with header`
  SourceSpan span;
};

/// `output table T 'file.csv'` — the converse of ingest (paper Sec. III:
/// the parallel filesystem serves "for purposes of data ingest and
/// eventual output to files"). Writes the table as CSV with a header.
struct OutputStmt {
  std::string table;
  std::string path;
  SourceSpan span;
};

// ---- Path queries ----------------------------------------------------------

enum class LabelKind : std::uint8_t { kNone, kSet, kForeach };

/// A vertex step: `ProductVtx(cond)`, `[ ]`, `def X: V(cond)`,
/// a bare label reference `y`, or a seeded step `resQ1.Vn(cond)`.
struct VertexStep {
  bool variant = false;      // [ ] — matches any vertex type (Eq. 10)
  std::string type_name;     // empty for variant steps and label refs
  std::string label_ref;     // set when the step is a bare label reference
  std::string seed_result;   // `resQ1` in `resQ1.Vn(...)` (Fig. 12)
  relational::ExprPtr condition;  // may be null ("( )" = no filter)
  LabelKind label_kind = LabelKind::kNone;  // def X: / foreach x:
  std::string label;
  SourceSpan span;
};

/// An edge step: `--producer-->` (forward) or `<--reviewer--` (reverse,
/// paper Sec. II-B: "--> indicates a path from the left vertex ... along an
/// outedge, and <-- ... along an inedge"). `--[]-->` is a variant step.
struct EdgeStep {
  bool variant = false;
  std::string type_name;
  bool reversed = false;
  relational::ExprPtr condition;
  LabelKind label_kind = LabelKind::kNone;
  std::string label;
  SourceSpan span;
};

struct PathGroup;

using PathElement = std::variant<VertexStep, EdgeStep, PathGroup>;

/// Regular-expression group over steps (Fig. 10): `( --[]--> [ ] )+`.
/// The body starts with an edge step and ends with a vertex step so that
/// repetition preserves vertex/edge alternation.
struct PathGroup {
  enum class Quant : std::uint8_t { kStar, kPlus, kExact };
  std::vector<PathElement> body;
  Quant quant = Quant::kPlus;
  std::uint32_t count = 0;  // for kExact ({n})
  SourceSpan span;
};

/// One linear path pattern (Eq. 3): alternating vertex/edge steps with
/// optional regex groups.
struct PathPattern {
  std::vector<PathElement> elements;
};

/// What a graph query selects (paper Figs. 6, 11, 13).
struct SelectTarget {
  bool star = false;        // select *
  std::string qualifier;    // step type name, alias or label (V0, y)
  std::string column;       // empty = the whole step
  std::string alias;        // `as x`
  SourceSpan span;
};

enum class IntoKind : std::uint8_t { kNone, kSubgraph, kTable };

/// `select ... from graph p1 [and p2]... [or p3 [and p4]...] into ...`.
/// Or-composition has lower precedence than and-composition; each
/// and-group is a conjunction of label-connected paths (Sec. II-B3).
struct GraphQueryStmt {
  std::vector<SelectTarget> targets;
  std::vector<std::vector<PathPattern>> or_groups;  // outer: or, inner: and
  IntoKind into = IntoKind::kNone;
  std::string into_name;
  SourceSpan span;
};

// ---- Relational queries -----------------------------------------------------

enum class AggFunc : std::uint8_t {
  kNone,
  kCountStar,
  kCount,
  kSum,
  kAvg,
  kMin,
  kMax,
};

struct SelectItem {
  bool star = false;
  AggFunc agg = AggFunc::kNone;
  relational::ExprPtr expr;  // null for * and count(*)
  std::string alias;
  SourceSpan span;
};

struct OrderItem {
  std::string column;  // output-column name (may be an alias)
  bool descending = false;
  SourceSpan span;
};

struct TableQueryStmt {
  std::vector<SelectItem> items;
  std::uint64_t top_n = 0;  // 0 = no limit
  bool distinct = false;
  std::string from_table;
  relational::ExprPtr where;  // may be null
  std::vector<std::string> group_by;
  std::vector<OrderItem> order_by;
  IntoKind into = IntoKind::kNone;  // only kTable is legal here
  std::string into_name;
  SourceSpan span;
};

// ---- Script ------------------------------------------------------------------

using Statement = std::variant<CreateTableStmt, CreateVertexStmt,
                               CreateEdgeStmt, IngestStmt, OutputStmt,
                               GraphQueryStmt, TableQueryStmt>;

struct Script {
  std::vector<Statement> statements;
};

/// Position of a statement in its source script (unknown-span when the
/// statement was decoded from a pre-span binary IR).
SourceSpan statement_span(const Statement& stmt);

/// Pretty-prints a statement back to (canonical) GraQL — used by error
/// messages, the shell's `explain`, and IR round-trip tests.
std::string to_string(const Statement& stmt);
std::string to_string(const Script& script);
std::string to_string(const PathPattern& path);

/// The relational aggregate `f` names; `f` must not be kNone. AggFunc
/// lists the aggregates in relational::AggKind's order after kNone.
relational::AggKind agg_kind(AggFunc f);

/// An error a shape derivation found: the run's Status, and the span and
/// code the analyzer reports it under.
struct ShapeError {
  SourceSpan span;
  DiagCode code = DiagCode::kUnknownName;
  Status status;
};

/// One output column of a table query. `item` is null for a column that
/// `*` expanded. `source_column` is the source column a `*` column or a
/// bare column item reads; `grouped_column` is a grouped query's output's
/// column of the grouped table, whose columns are the group keys and then
/// one aggregate per aggregated item.
struct TableOutput {
  std::string name;
  relational::MaybeType type;
  const SelectItem* item = nullptr;
  std::optional<storage::ColumnIndex> source_column;
  storage::ColumnIndex grouped_column = 0;
};

/// A table query resolved against its source table.
struct TableQueryShape {
  std::vector<TableOutput> outputs;  // in select-item order, `*` expanded
  bool grouped = false;              // an aggregate or a group by
  std::vector<storage::ColumnIndex> group_keys;  // source columns
  // Source columns, sorted before projection, when `sort_source`; else
  // indices of `outputs`.
  std::vector<relational::SortKey> sort_keys;
  bool sort_source = false;
  std::vector<ShapeError> errors;
};

/// The shape of `stmt` over `source`: the one derivation of a table
/// query's outputs, grouping and ordering, and of their errors, used by
/// the analyzer and the executor. `item_types[i]` is the type of item i's
/// expression (an aggregate's input), or unknown; it is ignored for `*`
/// and count(*).
///
/// An output's name is the alias, else the column, the aggregate or
/// `exprN`, made unique by a numbered suffix; an aggregate's type is
/// relational::agg_output_type's (GQL0202 on its error). A group-by
/// column must be a source column (GQL0103). A grouped query takes no `*`
/// and no item that is neither aggregated nor a group-by column
/// (GQL0202). An ORDER BY key names an output or a source column
/// (GQL0103); in a grouped query, an output (GQL0202). Otherwise the keys
/// are all outputs or all source columns (GQL0103 at the first key that
/// names no output). Source keys, and output keys that all name a `*`
/// column or a bare column item, sort the source rows before projection.
TableQueryShape table_query_shape(
    const TableQueryStmt& stmt, const storage::Schema& source,
    std::span<const relational::MaybeType> item_types);

/// A named step: the VertexStep or EdgeStep (by identity) and its type
/// name, "" for a variant step (a label reference: the referred step's).
struct NamedStep {
  const void* ast = nullptr;
  bool is_edge = false;
  std::string type;
};

/// The names one and-group's steps register, path by path, a vertex step
/// before the edge step that reaches it (the lowering order): its display
/// name (its label, else its type name), then a labeled step's type name;
/// a label reference only a label of its own. The first registration wins;
/// regex-group interiors and `_` names register none. A vertex step whose
/// type name is a label registered before it is a label reference.
struct StepNames {
  explicit StepNames(const std::vector<PathPattern>& and_group);

  std::map<std::string, NamedStep, std::less<>> steps;
  std::vector<std::string> shown;  // display names that won, in order
  bool variant = false;            // a variant step outside regex groups
  // Each VertexStep and EdgeStep outside regex groups -> its place in the
  // lowering order.
  std::map<const void*, std::size_t> order;
  // Each label reference -> the step its label names.
  std::map<const void*, NamedStep> refs;
};

/// The slot of `column` of `step`: the analyzer's from the catalog, the
/// lowering's from the live graph.
using StepSlot = std::function<Result<relational::Slot>(
    const NamedStep& step, std::string_view column)>;

/// The binding scope of the condition of `step`, a VertexStep or EdgeStep of
/// the and-group `names` describes, for the analyzer and the lowering
/// alike. Bare columns and the step's own type name or label address the
/// step (a label reference: as the step its label names); any other name
/// addresses the step `names` gives it when that step comes before `step`
/// in the lowering order, and nothing otherwise.
class StepScope final : public relational::Scope {
 public:
  template <typename Step>
  StepScope(const StepNames& names, const Step& step, StepSlot slot)
      : names_(names),
        self_{&step, std::is_same_v<Step, EdgeStep>,
              step.variant ? "" : step.type_name},
        self_name_(step.type_name),
        self_label_(step.label),
        slot_(std::move(slot)) {
    if (const auto ref = names.refs.find(&step); ref != names.refs.end()) {
      self_.type = ref->second.type;
    }
  }

  Result<relational::Slot> resolve(std::string_view qualifier,
                                   std::string_view column) const override;

 private:
  const StepNames& names_;
  NamedStep self_;
  std::string_view self_name_;
  std::string_view self_label_;
  StepSlot slot_;
};

/// A vertex type's source-table schema or an edge type's attribute-table
/// schema; null when the edge type has none or the type is unknown.
using StepAttrs = std::function<const storage::Schema*(
    bool is_edge, const std::string& type_name)>;

/// One output column of a graph query. Per or-group g, `step[g]` is its
/// step's NamedStep::ast and `attribute[g]` the step's column, or none
/// where group g leaves the cell NULL.
struct GraphOutput {
  std::string name;
  storage::DataType type;
  const SelectTarget* target = nullptr;
  std::vector<const void*> step;
  std::vector<std::optional<storage::ColumnIndex>> attribute;
};

/// A graph query's table columns, or one error per bad target, at the
/// target's span.
struct GraphOutputs {
  std::vector<GraphOutput> columns;
  std::vector<ShapeError> errors;
};

/// A graph query's table columns from the AST and `attrs_of`, for the
/// analyzer and the executor alike. A target names a step by a StepNames
/// name; `*` expands each display name once, at its first mention over
/// the or-groups. Columns are named `<step>_<attribute>` for a whole
/// step, else the alias or the attribute (qualified on a collision), made
/// unique by a numbered suffix.
GraphOutputs graph_query_outputs(const GraphQueryStmt& stmt,
                                 const StepAttrs& attrs_of);

/// The steps an `into subgraph` statement selects, for the analyzer and the
/// executor alike: `*`, and per or-group g the step (by identity) each
/// target names in g's StepNames. One error per target that names a step
/// of no or-group or selects an attribute.
struct SubgraphTargets {
  bool star = false;
  std::vector<std::vector<const void*>> steps;  // per or-group
  std::vector<ShapeError> errors;
};
SubgraphTargets subgraph_targets(const GraphQueryStmt& stmt);

}  // namespace gems::graql
