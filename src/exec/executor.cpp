#include "exec/executor.hpp"

#include <algorithm>
#include "graph/delta.hpp"

#include "common/check.hpp"
#include "common/scratch_arena.hpp"
#include "common/timer.hpp"
#include "exec/enumerate.hpp"
#include "exec/lowering.hpp"
#include "exec/matcher.hpp"
#include "relational/eval.hpp"
#include "relational/operators.hpp"
#include "storage/csv.hpp"

namespace gems::exec {

namespace {

using graph::EdgeRef;
using graph::EdgeType;
using graph::GraphView;
using graph::VertexRef;
using graph::VertexType;
using graql::AggFunc;
using graql::GraphQueryStmt;
using graql::IntoKind;
using graql::TableQueryStmt;
using relational::AggKind;
using relational::AggSpec;
using relational::BoundExprPtr;
using relational::OutputColumn;
using relational::SortKey;
using storage::Column;
using storage::ColumnDef;
using storage::ColumnIndex;
using storage::DataType;
using storage::RowIndex;
using storage::Schema;
using storage::Table;
using storage::TablePtr;
using storage::Value;

// =====================  Graph queries  ====================================

/// Attribute source of one output column within one network.
struct ColSource {
  enum class Kind : std::uint8_t { kNone, kVertex, kEdge };
  Kind kind = Kind::kNone;
  int index = -1;  // var index or edge-constraint index
  ColumnIndex column = 0;
};

struct OutCol {
  std::string name;
  DataType type;
  std::vector<ColSource> per_network;  // indexed by network
};

/// Attribute schema of a step (vertex: full source schema; edge: attribute
/// table schema; null when the step has none or is variant).
const Schema* step_schema(const ConstraintNetwork& net, const GraphView& g,
                          const StepRef& ref) {
  if (!ref.is_edge) {
    const VertexVar& var = net.vars[ref.index];
    if (var.variant) return nullptr;
    return &g.vertex_type(var.types.front()).source().schema();
  }
  const EdgeConstraint& con = net.edges[ref.index];
  if (con.variant) return nullptr;
  const Table* attrs = g.edge_type(con.moves.front().type).attr_table();
  return attrs == nullptr ? nullptr : &attrs->schema();
}

struct MergedStep {
  std::string display;
  std::vector<std::optional<StepRef>> per_network;
};

std::vector<MergedStep> merge_steps(const LoweredQuery& lowered) {
  std::vector<MergedStep> merged;
  std::map<std::string, std::size_t> index;
  const std::size_t n = lowered.networks.size();
  for (std::size_t net = 0; net < n; ++net) {
    for (const auto& [display, ref] : lowered.ordered_steps[net]) {
      auto [it, inserted] = index.emplace(display, merged.size());
      if (inserted) {
        merged.push_back({display, std::vector<std::optional<StepRef>>(n)});
      }
      merged[it->second].per_network[net] = ref;
    }
  }
  return merged;
}

/// Builds the output schema for table materialization, matching the
/// analyzer's inference (both use OutputNamer and the same expansion
/// rules).
Result<std::vector<OutCol>> build_out_cols(const GraphQueryStmt& stmt,
                                           const LoweredQuery& lowered,
                                           const GraphView& graph) {
  const std::size_t n = lowered.networks.size();
  const auto merged = merge_steps(lowered);
  graql::OutputNamer namer;
  std::vector<OutCol> cols;

  auto expand_step = [&](const MergedStep& step,
                         const std::string& display) -> Status {
    // Column set comes from the first network defining the step.
    const Schema* schema = nullptr;
    for (std::size_t net = 0; net < n && schema == nullptr; ++net) {
      if (!step.per_network[net]) continue;
      const StepRef& ref = *step.per_network[net];
      if ((ref.is_edge && lowered.networks[net].edges[ref.index].variant) ||
          (!ref.is_edge && lowered.networks[net].vars[ref.index].variant)) {
        return type_error(
            "variant '[ ]' steps cannot be selected into a table; use "
            "'into subgraph'");
      }
      schema = step_schema(lowered.networks[net], graph, ref);
    }
    if (schema == nullptr) return Status::ok();  // attribute-less edge
    for (ColumnIndex c = 0; c < schema->num_columns(); ++c) {
      OutCol col;
      col.name = namer.assign(display + "_" + schema->column(c).name, "");
      col.type = schema->column(c).type;
      col.per_network.resize(n);
      for (std::size_t net = 0; net < n; ++net) {
        if (!step.per_network[net]) continue;
        const StepRef& ref = *step.per_network[net];
        const Schema* s = step_schema(lowered.networks[net], graph, ref);
        if (s == nullptr) continue;
        auto idx = s->find(schema->column(c).name);
        if (!idx) continue;
        col.per_network[net] = {ref.is_edge ? ColSource::Kind::kEdge
                                            : ColSource::Kind::kVertex,
                                ref.index, *idx};
      }
      cols.push_back(std::move(col));
    }
    return Status::ok();
  };

  for (const auto& target : stmt.targets) {
    if (target.star) {
      // Fig. 13: "each row has all the attributes of all entities involved
      // in the query path" — impossible when a step is variant, so reject
      // (matches the static analyzer).
      for (const auto& net : lowered.networks) {
        for (const auto& var : net.vars) {
          // Group endpoints (display "_g<n>") are opaque regex interiors
          // and simply contribute no columns; explicit `[ ]` steps are an
          // error.
          const bool group_endpoint = var.display.rfind("_g", 0) == 0;
          if (var.variant && !group_endpoint) {
            return type_error(
                "variant '[ ]' steps cannot be selected into a table; use "
                "'into subgraph'");
          }
        }
        for (const auto& con : net.edges) {
          if (con.variant) {
            return type_error(
                "variant '[ ]' steps cannot be selected into a table; use "
                "'into subgraph'");
          }
        }
      }
      for (const auto& step : merged) {
        GEMS_RETURN_IF_ERROR(expand_step(step, step.display));
      }
      continue;
    }
    // Locate the step by qualifier in each network's registry (covers
    // labels and the type-name aliases of labeled steps).
    MergedStep resolved;
    resolved.display = target.qualifier;
    resolved.per_network.resize(n);
    bool found = false;
    for (std::size_t net = 0; net < n; ++net) {
      auto it = lowered.step_refs[net].find(target.qualifier);
      if (it == lowered.step_refs[net].end()) continue;
      resolved.per_network[net] = it->second;
      found = true;
    }
    if (!found) {
      return not_found("select target '" + target.qualifier +
                       "' does not name a step of this query");
    }
    const MergedStep* step = &resolved;
    if (target.column.empty()) {
      GEMS_RETURN_IF_ERROR(expand_step(
          *step, target.alias.empty() ? target.qualifier : target.alias));
      continue;
    }
    OutCol col;
    col.per_network.resize(n);
    bool typed = false;
    for (std::size_t net = 0; net < n; ++net) {
      if (!step->per_network[net]) continue;
      const StepRef& ref = *step->per_network[net];
      const Schema* s = step_schema(lowered.networks[net], graph, ref);
      if (s == nullptr) {
        return type_error("step '" + target.qualifier +
                          "' has no attributes");
      }
      auto idx = s->find(target.column);
      if (!idx) {
        return not_found("step '" + target.qualifier +
                         "' has no attribute '" + target.column + "'");
      }
      // For vertex steps, enforce many-to-one visibility.
      if (!ref.is_edge) {
        const VertexVar& var = lowered.networks[net].vars[ref.index];
        const VertexType& vt = graph.vertex_type(var.types.front());
        GEMS_RETURN_IF_ERROR(vt.resolve_attribute(target.column).status());
      }
      if (!typed) {
        col.type = s->column(*idx).type;
        typed = true;
      }
      col.per_network[net] = {ref.is_edge ? ColSource::Kind::kEdge
                                          : ColSource::Kind::kVertex,
                              ref.index, *idx};
    }
    GEMS_CHECK(typed);
    col.name = namer.assign(
        target.alias.empty() ? target.column : target.alias,
        target.qualifier);
    cols.push_back(std::move(col));
  }
  return cols;
}

/// Steps contributing elements to a subgraph result.
struct SubgraphSelection {
  bool star = false;
  std::vector<int> vertex_vars;
  std::vector<int> edge_cons;
};

Result<SubgraphSelection> resolve_subgraph_targets(
    const GraphQueryStmt& stmt, const LoweredQuery& lowered,
    std::size_t net_index) {
  SubgraphSelection sel;
  const auto& refs = lowered.step_refs[net_index];
  for (const auto& target : stmt.targets) {
    if (target.star) {
      sel.star = true;
      for (std::size_t v = 0; v < lowered.networks[net_index].num_vars();
           ++v) {
        sel.vertex_vars.push_back(static_cast<int>(v));
      }
      for (std::size_t c = 0; c < lowered.networks[net_index].edges.size();
           ++c) {
        sel.edge_cons.push_back(static_cast<int>(c));
      }
      return sel;
    }
    if (!target.column.empty()) {
      return invalid_argument(
          "attribute selections ('" + target.qualifier + "." +
          target.column + "') require 'into table'");
    }
    auto it = refs.find(target.qualifier);
    if (it == refs.end()) continue;  // step lives in another or-branch
    if (it->second.is_edge) {
      sel.edge_cons.push_back(it->second.index);
    } else {
      sel.vertex_vars.push_back(it->second.index);
    }
  }
  return sel;
}

void mark_domain(Subgraph& out, const GraphView& graph, const Domain& d) {
  for (const auto& [type, bits] : d.sets) {
    if (!bits.any()) continue;
    out.vertices(type, graph.vertex_type(type).num_vertices()) |= bits;
  }
}

Result<SubgraphPtr> collect_subgraph(const GraphQueryStmt& stmt,
                                     const LoweredQuery& lowered,
                                     const ExecContext& ctx,
                                     const std::vector<MatchResult>& matches,
                                     const std::vector<NetworkPlan>& plans,
                                     bool* truncated) {
  auto out = std::make_shared<Subgraph>(
      stmt.into_name.empty() ? "result" : stmt.into_name);
  const GraphView& graph = ctx.graph;

  for (std::size_t n = 0; n < lowered.networks.size(); ++n) {
    const ConstraintNetwork& net = lowered.networks[n];
    const MatchResult& match = matches[n];
    if (match.empty()) continue;
    GEMS_ASSIGN_OR_RETURN(SubgraphSelection sel,
                          resolve_subgraph_targets(stmt, lowered, n));

    if (net.tree_exact) {
      for (const int v : sel.vertex_vars) {
        mark_domain(*out, graph, match.domains[v]);
      }
      for (const int c : sel.edge_cons) {
        for (const auto& [type, bits] : match.matched_edges[c]) {
          if (!bits.any()) continue;
          out->edges(type, graph.edge_type(type).num_edges()) |= bits;
        }
      }
      if (sel.star) {
        for (const Subgraph& g : match.group_elements) out->merge(g);
      }
      continue;
    }

    // Non-tree networks: enumerate and mark elements actually used.
    EnumOptions options;
    options.max_rows = ctx.max_result_rows;
    options.root_var = plans[n].root_var;
    auto emit = [&](std::span<const VertexRef> vertices,
                    std::span<const EdgeRef> edges) {
      for (const int v : sel.vertex_vars) {
        const VertexRef ref = vertices[v];
        out->vertices(ref.type,
                      graph.vertex_type(ref.type).num_vertices())
            .set(ref.index);
      }
      for (const int c : sel.edge_cons) {
        const EdgeRef ref = edges[c];
        if (!ref.valid()) continue;
        out->edges(ref.type, graph.edge_type(ref.type).num_edges())
            .set(ref.index);
      }
      return true;
    };
    GEMS_ASSIGN_OR_RETURN(
        EnumStats stats,
        enumerate_assignments(net, graph, *ctx.pool, match, options, emit));
    if (stats.truncated && truncated != nullptr) *truncated = true;
    if (sel.star) {
      // Group interiors come from the fixpoint marking (groups cannot be
      // constrained by cross predicates, so this stays exact).
      for (const Subgraph& g : match.group_elements) out->merge(g);
    }
  }
  return out;
}

Result<TablePtr> collect_table(const GraphQueryStmt& stmt,
                               const LoweredQuery& lowered,
                               const ExecContext& ctx,
                               const std::vector<MatchResult>& matches,
                               const std::vector<NetworkPlan>& plans,
                               bool* truncated) {
  const GraphView& graph = ctx.graph;
  GEMS_ASSIGN_OR_RETURN(std::vector<OutCol> cols,
                        build_out_cols(stmt, lowered, graph));
  std::vector<ColumnDef> defs;
  defs.reserve(cols.size());
  for (const auto& c : cols) defs.push_back({c.name, c.type});
  GEMS_ASSIGN_OR_RETURN(Schema schema, Schema::create(std::move(defs)));
  auto out = std::make_shared<Table>(
      stmt.into_name.empty() ? "result" : stmt.into_name, std::move(schema),
      *ctx.pool);

  // A cell whose source column has the output column's kind is copied by
  // id (the pool is shared, so string ids carry over); only NULLs and
  // numeric promotion are boxed. The bytes equal boxing every cell, since
  // re-interning an interned string returns its own id.
  std::vector<Column*> out_cols(cols.size());
  for (std::size_t c = 0; c < cols.size(); ++c) {
    out_cols[c] = &out->column_mut(static_cast<ColumnIndex>(c));
  }
  auto append_cell = [&](Column& dst, const Table& src, RowIndex row,
                         ColumnIndex column) {
    const Column& from = src.column(column);
    if (from.type().kind == dst.type().kind) {
      dst.append_from(from, row);
    } else {
      dst.append_value(from.value_at(row, *ctx.pool), *ctx.pool);
    }
  };
  for (std::size_t n = 0; n < lowered.networks.size(); ++n) {
    const ConstraintNetwork& net = lowered.networks[n];
    const MatchResult& match = matches[n];
    if (match.empty()) continue;

    EnumOptions options;
    options.max_rows = ctx.max_result_rows;
    options.root_var = plans[n].root_var;
    auto emit = [&](std::span<const VertexRef> vertices,
                    std::span<const EdgeRef> edges) {
      for (std::size_t c = 0; c < cols.size(); ++c) {
        const ColSource& src = cols[c].per_network[n];
        Column& dst = *out_cols[c];
        switch (src.kind) {
          case ColSource::Kind::kNone:
            dst.append_null();
            break;
          case ColSource::Kind::kVertex: {
            const VertexRef ref = vertices[src.index];
            const VertexType& vt = graph.vertex_type(ref.type);
            append_cell(dst, vt.source(), vt.representative_row(ref.index),
                        src.column);
            break;
          }
          case ColSource::Kind::kEdge: {
            const EdgeRef ref = edges[src.index];
            const Table* attrs = graph.edge_type(ref.type).attr_table();
            if (attrs == nullptr) {
              dst.append_null();
            } else {
              append_cell(dst, *attrs, ref.index, src.column);
            }
            break;
          }
        }
      }
      out->bump_row_count();
      return true;
    };
    GEMS_ASSIGN_OR_RETURN(
        EnumStats stats,
        enumerate_assignments(net, graph, *ctx.pool, match, options, emit));
    if (stats.truncated && truncated != nullptr) *truncated = true;
  }
  return out;
}

/// Resolves the `from table` / `output` source: the script-local overlay
/// shadows the shared catalog (scripts see their own staged `into`
/// results, exactly as a serial script would).
Result<TablePtr> find_source_table(const ExecContext& ctx,
                                   const CatalogOverlay* overlay,
                                   const std::string& name) {
  if (overlay != nullptr) {
    auto it = overlay->tables.find(name);
    if (it != overlay->tables.end()) return it->second;
  }
  return ctx.tables.find(name);
}

/// Graph-query body of execute_statement_read: runs the query against an
/// immutable context with explicit params and returns the result
/// *without* registering `into` objects anywhere — the caller stages it.
Result<StatementResult> graph_query_core(const GraphQueryStmt& stmt,
                                         const ExecContext& ctx,
                                         const relational::ParamMap& params,
                                         const CatalogOverlay* overlay) {
  SubgraphResolver resolver =
      [&ctx, overlay](const std::string& name) -> Result<SubgraphPtr> {
    if (overlay != nullptr) {
      auto staged = overlay->subgraphs.find(name);
      if (staged != overlay->subgraphs.end()) return staged->second;
    }
    auto it = ctx.subgraphs.find(name);
    if (it == ctx.subgraphs.end()) {
      return not_found("unknown result subgraph '" + name + "'");
    }
    return it->second;
  };
  GEMS_ASSIGN_OR_RETURN(
      LoweredQuery lowered,
      lower_graph_query(stmt, ctx.graph, resolver, params, *ctx.pool));

  std::vector<MatchResult> matches;
  std::vector<NetworkPlan> plans(lowered.networks.size());
  matches.reserve(lowered.networks.size());
  for (std::size_t i = 0; i < lowered.networks.size(); ++i) {
    const auto& net = lowered.networks[i];
    if (ctx.planner) plans[i] = ctx.planner(net);
    const std::vector<int>* order =
        plans[i].constraint_order.empty() ? nullptr
                                          : &plans[i].constraint_order;
    // Cluster hand-off: offer the network to the distributed matcher
    // first. kUnimplemented = not distributable, fall through to the
    // local matcher; any other error fails the statement.
    if (ctx.dist_matcher) {
      Result<MatchResult> dist =
          ctx.dist_matcher(stmt, i, net, params, ctx);
      if (dist.is_ok()) {
        matches.push_back(std::move(dist).value());
        continue;
      }
      if (dist.status().code() != StatusCode::kUnimplemented) {
        return dist.status();
      }
    }
    GEMS_ASSIGN_OR_RETURN(MatchResult m,
                          match_network(net, ctx.graph, *ctx.pool, order));
    if (ctx.matcher_metrics) ctx.matcher_metrics->record(m.stats);
    matches.push_back(std::move(m));
  }

  StatementResult result;
  result.into = stmt.into;
  result.into_name = stmt.into_name;
  if (stmt.into == IntoKind::kSubgraph) {
    GEMS_ASSIGN_OR_RETURN(
        SubgraphPtr sub,
        collect_subgraph(stmt, lowered, ctx, matches, plans,
                         &result.truncated));
    result.kind = StatementResult::Kind::kSubgraph;
    result.subgraph = std::move(sub);
    result.message = result.subgraph->summary();
    return result;
  }

  GEMS_ASSIGN_OR_RETURN(
      TablePtr table,
      collect_table(stmt, lowered, ctx, matches, plans,
                    &result.truncated));
  result.kind = StatementResult::Kind::kTable;
  result.table = std::move(table);
  result.message = result.table->name() + ": " +
                   std::to_string(result.table->num_rows()) + " rows";
  return result;
}

}  // namespace

// =====================  Table queries  =====================================

namespace {

/// Table-query body of execute_statement_read (see graph_query_core for
/// the contract: immutable context, explicit params, no catalog
/// registration).
Result<StatementResult> table_query_core(const TableQueryStmt& stmt,
                                         const ExecContext& ctx,
                                         const relational::ParamMap& params,
                                         const CatalogOverlay* overlay) {
  GEMS_ASSIGN_OR_RETURN(TablePtr source,
                        find_source_table(ctx, overlay, stmt.from_table));
  StringPool& pool = *ctx.pool;
  relational::TableScope scope(*source);
  // The statement's transient arrays (row lists, hash tables, group ids,
  // aggregate states, sort permutations) live here and are unmapped when
  // the statement returns; its tables stay on the heap (DESIGN.md §5n).
  ScratchArena scratch;

  std::pmr::vector<RowIndex> rows(&scratch);
  if (stmt.where) {
    GEMS_ASSIGN_OR_RETURN(
        BoundExprPtr pred,
        relational::bind_predicate(stmt.where, scope, params, pool));
    rows = relational::filter_rows(*source, *pred, 0, &scratch);
  } else {
    rows.resize(source->num_rows());
    for (std::size_t r = 0; r < rows.size(); ++r) {
      rows[r] = static_cast<RowIndex>(r);
    }
  }

  const bool has_agg =
      std::any_of(stmt.items.begin(), stmt.items.end(),
                  [](const auto& i) { return i.agg != AggFunc::kNone; });
  const bool grouped = has_agg || !stmt.group_by.empty();
  const std::string out_name =
      stmt.into == IntoKind::kTable ? stmt.into_name : "result";
  // Output names only: the operators type each column by the same rules.
  const std::vector<relational::MaybeType> unknown_types(stmt.items.size());

  TablePtr out;
  if (!grouped) {
    // Plain selection/projection; `*` expands to all source columns.
    GEMS_ASSIGN_OR_RETURN(
        std::vector<graql::TableOutput> columns,
        graql::table_query_outputs(stmt, source->schema(), unknown_types));
    std::vector<OutputColumn> outputs;
    for (auto& col : columns) {
      OutputColumn oc;
      oc.name = std::move(col.name);
      if (col.item != nullptr) {
        GEMS_ASSIGN_OR_RETURN(oc.expr, relational::bind_expr(col.item->expr,
                                                             scope, params,
                                                             pool));
      } else {
        GEMS_ASSIGN_OR_RETURN(
            oc.expr,
            relational::bind_expr(
                relational::Expr::make_column(
                    "", source->schema().column(col.source_column).name),
                scope, params, pool));
      }
      outputs.push_back(std::move(oc));
    }

    // ORDER BY: by output columns when possible, else by source columns
    // before projection.
    std::vector<std::string> out_names;
    for (const auto& o : outputs) out_names.push_back(o.name);
    bool order_on_output = !stmt.order_by.empty();
    bool order_on_source = !stmt.order_by.empty();
    for (const auto& ord : stmt.order_by) {
      if (std::find(out_names.begin(), out_names.end(), ord.column) ==
          out_names.end()) {
        order_on_output = false;
      }
      if (!source->schema().find(ord.column)) order_on_source = false;
    }
    if (!stmt.order_by.empty() && !order_on_output && !order_on_source) {
      return not_found("order by columns must all be output columns or all "
                       "be source columns");
    }
    if (!stmt.order_by.empty() && !order_on_output) {
      std::vector<SortKey> keys;
      for (const auto& ord : stmt.order_by) {
        keys.push_back({*source->schema().find(ord.column), ord.descending});
      }
      relational::sort_rows(*source, rows, keys, &scratch);
    }

    out = relational::project(*source, rows, outputs, out_name);
    if (stmt.distinct) {
      out = relational::distinct(*out, out_name, &scratch);
    }
    if (!stmt.order_by.empty() && order_on_output) {
      std::vector<SortKey> keys;
      for (const auto& ord : stmt.order_by) {
        keys.push_back({*out->schema().find(ord.column), ord.descending});
      }
      out = relational::order_by(*out, keys, out_name, &scratch);
    }
    if (stmt.top_n > 0) {
      out = relational::head(*out, stmt.top_n, out_name, &scratch);
    }
  } else {
    // Aggregation pipeline: pre-project group keys + aggregate inputs,
    // group, then arrange outputs in item order.
    std::vector<OutputColumn> pre_outputs;
    // Group keys first (named g<i>).
    for (std::size_t k = 0; k < stmt.group_by.size(); ++k) {
      OutputColumn oc;
      oc.name = "g" + std::to_string(k);
      GEMS_ASSIGN_OR_RETURN(
          oc.expr,
          relational::bind_expr(
              relational::Expr::make_column("", stmt.group_by[k]), scope,
              params, pool));
      pre_outputs.push_back(std::move(oc));
    }
    // Aggregate inputs (named a<i> aligned with item order).
    std::vector<AggSpec> aggs;
    for (std::size_t i = 0; i < stmt.items.size(); ++i) {
      const auto& item = stmt.items[i];
      if (item.agg == AggFunc::kNone) {
        if (item.star) {
          return type_error("'*' cannot be combined with aggregation");
        }
        if (item.expr->kind != relational::Expr::Kind::kColumnRef ||
            std::find(stmt.group_by.begin(), stmt.group_by.end(),
                      item.expr->column) == stmt.group_by.end()) {
          return type_error("select item '" + item.expr->to_string() +
                            "' must be aggregated or listed in group by");
        }
        continue;
      }
      AggSpec spec;
      spec.kind = graql::agg_kind(item.agg);
      spec.output_name = "a" + std::to_string(i);
      if (item.agg != AggFunc::kCountStar) {
        OutputColumn oc;
        oc.name = "in" + std::to_string(i);
        GEMS_ASSIGN_OR_RETURN(
            oc.expr,
            relational::bind_expr(item.expr, scope, params, pool));
        spec.input = static_cast<ColumnIndex>(pre_outputs.size());
        pre_outputs.push_back(std::move(oc));
      }
      aggs.push_back(std::move(spec));
    }

    TablePtr pre =
        relational::project(*source, rows, pre_outputs, "$pre");
    std::vector<ColumnIndex> keys(stmt.group_by.size());
    for (std::size_t k = 0; k < keys.size(); ++k) {
      keys[k] = static_cast<ColumnIndex>(k);
    }
    GEMS_ASSIGN_OR_RETURN(
        TablePtr grouped_table,
        relational::group_by(*pre, keys, aggs, "$grouped", &scratch));

    // Final projection into item order with user-facing names.
    GEMS_ASSIGN_OR_RETURN(
        std::vector<graql::TableOutput> columns,
        graql::table_query_outputs(stmt, source->schema(), unknown_types));
    std::vector<ColumnIndex> out_cols;
    std::vector<std::string> names;
    std::size_t agg_pos = 0;
    for (std::size_t i = 0; i < stmt.items.size(); ++i) {
      const auto& item = stmt.items[i];
      names.push_back(std::move(columns[i].name));
      if (item.agg == AggFunc::kNone) {
        // Key column: position in group_by.
        const auto key_it = std::find(stmt.group_by.begin(),
                                      stmt.group_by.end(), item.expr->column);
        out_cols.push_back(static_cast<ColumnIndex>(
            key_it - stmt.group_by.begin()));
      } else {
        out_cols.push_back(
            static_cast<ColumnIndex>(stmt.group_by.size() + agg_pos));
        ++agg_pos;
      }
    }
    std::pmr::vector<RowIndex> all(grouped_table->num_rows(), &scratch);
    for (std::size_t r = 0; r < all.size(); ++r) {
      all[r] = static_cast<RowIndex>(r);
    }
    out = relational::materialize(*grouped_table, all, out_cols, out_name,
                                  &names);
    if (stmt.distinct) {
      out = relational::distinct(*out, out_name, &scratch);
    }
    if (!stmt.order_by.empty()) {
      std::vector<SortKey> sort_keys;
      for (const auto& ord : stmt.order_by) {
        auto idx = out->schema().find(ord.column);
        if (!idx) {
          return not_found("order by column '" + ord.column +
                           "' is not an output column");
        }
        sort_keys.push_back({*idx, ord.descending});
      }
      out = relational::order_by(*out, sort_keys, out_name, &scratch);
    }
    if (stmt.top_n > 0) {
      out = relational::head(*out, stmt.top_n, out_name, &scratch);
    }
  }

  StatementResult result;
  result.kind = StatementResult::Kind::kTable;
  result.into = stmt.into;
  result.into_name = stmt.into_name;
  result.table = std::move(out);
  result.message = result.table->name() + ": " +
                   std::to_string(result.table->num_rows()) + " rows";
  return result;
}

}  // namespace

void stage_result(const StatementResult& result, CatalogOverlay& overlay) {
  if (result.into == IntoKind::kTable && result.table != nullptr) {
    overlay.tables[result.into_name] = result.table;
  }
  if (result.into == IntoKind::kSubgraph && result.subgraph != nullptr) {
    overlay.subgraphs[result.into_name] = result.subgraph;
  }
}

void commit_overlay(const CatalogOverlay& overlay, ExecContext& ctx) {
  for (const auto& [name, table] : overlay.tables) {
    (void)name;
    ctx.tables.add_or_replace(table);
  }
  for (const auto& [name, subgraph] : overlay.subgraphs) {
    ctx.subgraphs[name] = subgraph;
  }
}

// =====================  DDL / ingest  ======================================

Status ExecContext::rebuild_graph() {
  // The build waits on intra_pool tasks: on one of its workers, it could
  // wait on itself.
  GEMS_DCHECK(intra_pool == nullptr || ThreadPool::current() != intra_pool);
  ScopeTimer timer("graph rebuild");
  GEMS_ASSIGN_OR_RETURN(graph::GraphView fresh,
                        graph::build_graph(vertex_decls, edge_decls, tables,
                                           *pool, params, intra_pool));
  graph = std::move(fresh);
  timer.append(std::to_string(graph.total_vertices()) + " vertices, " +
               std::to_string(graph.total_edges()) + " edges");
  ++graph_version;
  ++renumber_version;
  // Prior subgraph results index the old instance numbering.
  subgraphs.clear();
  return Status::ok();
}

Status ExecContext::maintain_graph_after_ingest(
    const std::string& table, storage::RowIndex first_new_row) {
  const Timer timer;
  graph::DeltaFolds folds;
  GEMS_ASSIGN_OR_RETURN(
      const bool delta_applied,
      graph::extend_graph_for_ingest(graph, table, first_new_row,
                                     vertex_decls, edge_decls, tables, *pool,
                                     params, &folds));
  if (delta_applied) {
    ++graph_version;
    // Instance numbering is preserved: named subgraphs stay valid,
    // zero-padded to the grown type sizes (fresh copies — the old ones
    // may be shared with pinned epochs).
    for (auto& [name, sub] : subgraphs) sub = sub->resized_for(graph);
  } else {
    GEMS_RETURN_IF_ERROR(rebuild_graph());
  }
  if (on_graph_maintenance) {
    on_graph_maintenance(
        delta_applied,
        static_cast<std::uint64_t>(timer.elapsed_seconds() * 1e9), folds);
  }
  return Status::ok();
}

namespace {

/// Prepends the context's data directory to a relative `ingest` or
/// `output` path.
std::string resolve_path(const ExecContext& ctx, const std::string& path) {
  if (ctx.data_dir.empty() || path.empty() || path.front() == '/') {
    return path;
  }
  return ctx.data_dir + "/" + path;
}

/// Fires the durability hook for a successful mutation (no-op when the
/// database runs without a store).
Status notify_mutation(ExecContext& ctx, const graql::Statement& stmt,
                       const storage::Table* table = nullptr,
                       std::size_t first_row = 0, std::size_t num_rows = 0) {
  if (!ctx.on_mutation) return Status::ok();
  MutationEvent ev;
  ev.statement = &stmt;
  ev.table = table;
  ev.first_row = first_row;
  ev.num_rows = num_rows;
  return ctx.on_mutation(ev).with_context("write-ahead log");
}

}  // namespace

Result<StatementResult> execute_statement(const graql::Statement& stmt,
                                          ExecContext& ctx) {
  GEMS_CHECK(ctx.pool != nullptr);
  StatementResult result;

  if (const auto* s = std::get_if<graql::CreateTableStmt>(&stmt)) {
    GEMS_ASSIGN_OR_RETURN(Schema schema, Schema::create(s->columns));
    GEMS_RETURN_IF_ERROR(ctx.tables.add(
        std::make_shared<Table>(s->name, std::move(schema), *ctx.pool)));
    GEMS_RETURN_IF_ERROR(notify_mutation(ctx, stmt));
    result.message = "created table " + s->name;
    return result;
  }
  if (const auto* s = std::get_if<graql::CreateVertexStmt>(&stmt)) {
    GEMS_RETURN_IF_ERROR(graph::add_vertex_type(ctx.graph, s->decl,
                                                ctx.tables, *ctx.pool,
                                                ctx.params));
    ctx.vertex_decls.push_back(s->decl);
    ++ctx.graph_version;
    GEMS_RETURN_IF_ERROR(notify_mutation(ctx, stmt));
    result.message = "created vertex type " + s->decl.name;
    return result;
  }
  if (const auto* s = std::get_if<graql::CreateEdgeStmt>(&stmt)) {
    GEMS_RETURN_IF_ERROR(graph::add_edge_type(ctx.graph, s->decl, ctx.tables,
                                              *ctx.pool, ctx.params));
    ctx.edge_decls.push_back(s->decl);
    ++ctx.graph_version;
    GEMS_RETURN_IF_ERROR(notify_mutation(ctx, stmt));
    result.message = "created edge type " + s->decl.name;
    return result;
  }
  if (const auto* s = std::get_if<graql::IngestStmt>(&stmt)) {
    // Timed + logged so a CSV re-ingest and a store recovery of the same
    // data can be compared from the logs (see gems::store).
    ScopeTimer timer("ingest " + s->table);
    GEMS_ASSIGN_OR_RETURN(TablePtr table, ctx.tables.find(s->table));
    const std::string path = resolve_path(ctx, s->path);
    storage::CsvOptions options;
    options.has_header = s->has_header;
    // Epochs pinned on the previous catalog share the Table object, so
    // append to a copy and swap it in: they never see the new rows. The
    // copy shares the table's sealed chunks and copies only their tails.
    table = std::make_shared<Table>(*table);
    ctx.tables.add_or_replace(table);
    const std::size_t rows_before = table->num_rows();
    GEMS_ASSIGN_OR_RETURN(storage::CsvIngestStats stats,
                          storage::ingest_csv_file(*table, path, options));
    timer.append(std::to_string(stats.rows) + " rows, " +
                 std::to_string(stats.bytes) + " bytes");
    GEMS_RETURN_IF_ERROR(ctx.maintain_graph_after_ingest(
        s->table, static_cast<storage::RowIndex>(rows_before)));
    GEMS_RETURN_IF_ERROR(
        notify_mutation(ctx, stmt, table.get(), rows_before, stats.rows));
    result.message = "ingested " + std::to_string(stats.rows) +
                     " rows into " + s->table;
    return result;
  }
  // Queries and `output`: the read path, then register the `into` result.
  CatalogOverlay staged;
  GEMS_ASSIGN_OR_RETURN(result,
                        execute_statement_read(stmt, {&ctx, &ctx.params}));
  stage_result(result, staged);
  commit_overlay(staged, ctx);
  return result;
}

Result<StatementResult> execute_statement_read(const graql::Statement& stmt,
                                               const ReadView& view) {
  GEMS_CHECK(view.base != nullptr && view.params != nullptr);
  const ExecContext& ctx = *view.base;
  GEMS_CHECK(ctx.pool != nullptr);

  if (const auto* s = std::get_if<graql::OutputStmt>(&stmt)) {
    GEMS_ASSIGN_OR_RETURN(TablePtr table,
                          find_source_table(ctx, view.overlay, s->table));
    const std::string path = resolve_path(ctx, s->path);
    GEMS_RETURN_IF_ERROR(storage::write_csv_file(*table, path));
    StatementResult result;
    result.message = "wrote " + std::to_string(table->num_rows()) +
                     " rows of " + s->table + " to " + s->path;
    return result;
  }
  if (const auto* s = std::get_if<graql::GraphQueryStmt>(&stmt)) {
    return graph_query_core(*s, ctx, *view.params, view.overlay);
  }
  if (const auto* s = std::get_if<graql::TableQueryStmt>(&stmt)) {
    return table_query_core(*s, ctx, *view.params, view.overlay);
  }
  // DDL / ingest: plan::run_scheduled sends them to execute_statement.
  return internal_error("mutating statement reached the read execution path");
}

}  // namespace gems::exec
