#include "exec/executor.hpp"

#include <algorithm>
#include <numeric>
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
using relational::Aggregate;
using relational::BoundExprPtr;
using relational::OutputColumn;
using relational::SortKey;
using storage::Column;
using storage::ColumnDef;
using storage::ColumnIndex;
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

/// The per-network source of each output column: its step's variable or
/// constraint in each network. An attribute target of a vertex step must
/// also be visible (a many-to-one vertex type shows only its key
/// attributes), which only the live vertex type knows.
Result<std::vector<std::vector<ColSource>>> column_sources(
    const std::vector<graql::GraphOutput>& outputs,
    const LoweredQuery& lowered, const GraphView& graph) {
  const std::size_t n = lowered.networks.size();
  std::vector<std::vector<ColSource>> sources(outputs.size(),
                                              std::vector<ColSource>(n));
  for (std::size_t c = 0; c < outputs.size(); ++c) {
    const graql::GraphOutput& out = outputs[c];
    for (std::size_t net = 0; net < n; ++net) {
      if (!out.attribute[net]) continue;
      const StepRef& ref = lowered.step_refs[net].at(out.step[net]);
      if (!ref.is_edge && !out.target->column.empty()) {
        const VertexVar& var = lowered.networks[net].vars[ref.index];
        GEMS_RETURN_IF_ERROR(graph.vertex_type(var.types.front())
                                 .resolve_attribute(out.target->column)
                                 .status());
      }
      sources[c][net] = {ref.is_edge ? ColSource::Kind::kEdge
                                     : ColSource::Kind::kVertex,
                         ref.index, *out.attribute[net]};
    }
  }
  return sources;
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
  const graql::SubgraphTargets targets = graql::subgraph_targets(stmt);
  if (!targets.errors.empty()) return targets.errors.front().status;
  auto out = std::make_shared<Subgraph>(
      stmt.into_name.empty() ? "result" : stmt.into_name);
  const GraphView& graph = ctx.graph;

  for (std::size_t n = 0; n < lowered.networks.size(); ++n) {
    const ConstraintNetwork& net = lowered.networks[n];
    const MatchResult& match = matches[n];
    if (match.empty()) continue;
    // The selected steps' variables and constraints: all of them for `*`.
    std::vector<int> vertex_vars;
    std::vector<int> edge_cons;
    if (targets.star) {
      vertex_vars.resize(net.num_vars());
      std::iota(vertex_vars.begin(), vertex_vars.end(), 0);
      edge_cons.resize(net.edges.size());
      std::iota(edge_cons.begin(), edge_cons.end(), 0);
    }
    for (const void* step : targets.steps[n]) {
      const StepRef& ref = lowered.step_refs[n].at(step);
      (ref.is_edge ? edge_cons : vertex_vars).push_back(ref.index);
    }

    if (net.tree_exact) {
      for (const int v : vertex_vars) {
        mark_domain(*out, graph, match.domains[v]);
      }
      for (const int c : edge_cons) {
        for (const auto& [type, bits] : match.matched_edges[c]) {
          if (!bits.any()) continue;
          out->edges(type, graph.edge_type(type).num_edges()) |= bits;
        }
      }
      if (targets.star) {
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
      for (const int v : vertex_vars) {
        const VertexRef ref = vertices[v];
        out->vertices(ref.type,
                      graph.vertex_type(ref.type).num_vertices())
            .set(ref.index);
      }
      for (const int c : edge_cons) {
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
    if (targets.star) {
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
  auto attrs_of = [&graph](bool is_edge,
                           const std::string& type) -> const Schema* {
    if (!is_edge) {
      auto id = graph.find_vertex_type(type);
      return id.is_ok() ? &graph.vertex_type(*id).source().schema() : nullptr;
    }
    auto id = graph.find_edge_type(type);
    const Table* attrs =
        id.is_ok() ? graph.edge_type(*id).attr_table() : nullptr;
    return attrs == nullptr ? nullptr : &attrs->schema();
  };
  graql::GraphOutputs outputs = graql::graph_query_outputs(stmt, attrs_of);
  if (!outputs.errors.empty()) return outputs.errors.front().status;
  const std::vector<graql::GraphOutput>& cols = outputs.columns;
  GEMS_ASSIGN_OR_RETURN(std::vector<std::vector<ColSource>> sources,
                        column_sources(cols, lowered, graph));
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
        const ColSource& src = sources[c][n];
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
/// registration). Filter, group, distinct, order and top n work on row
/// lists; the statement builds only its grouped table (when it groups)
/// and its result (DESIGN.md §5n).
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

  BoundExprPtr pred;
  if (stmt.where) {
    GEMS_ASSIGN_OR_RETURN(
        pred, relational::bind_predicate(stmt.where, scope, params, pool));
  }
  // Each item's expression, bound once: an output or an aggregate input.
  std::vector<BoundExprPtr> bound(stmt.items.size());
  std::vector<relational::MaybeType> item_types(stmt.items.size());
  for (std::size_t i = 0; i < stmt.items.size(); ++i) {
    if (stmt.items[i].expr == nullptr) continue;  // `*` and count(*)
    GEMS_ASSIGN_OR_RETURN(
        bound[i],
        relational::bind_expr(stmt.items[i].expr, scope, params, pool));
    item_types[i] = bound[i]->type;
  }
  graql::TableQueryShape shape =
      graql::table_query_shape(stmt, source->schema(), item_types);
  if (!shape.errors.empty()) return shape.errors.front().status;

  std::pmr::vector<RowIndex> rows =
      pred != nullptr ? relational::filter_rows(*source, *pred, 0, &scratch)
                      : relational::all_rows(source->num_rows(), &scratch);
  const std::string out_name =
      stmt.into == IntoKind::kTable ? stmt.into_name : "result";
  const std::size_t limit =
      stmt.top_n > 0 ? stmt.top_n : relational::kNoLimit;
  TablePtr out;
  if (!shape.grouped) {
    std::vector<OutputColumn> outputs;
    for (graql::TableOutput& col : shape.outputs) {
      OutputColumn& oc = outputs.emplace_back();
      oc.name = std::move(col.name);
      if (col.item != nullptr) {
        oc.expr = std::move(bound[col.item - stmt.items.data()]);
        continue;
      }
      GEMS_ASSIGN_OR_RETURN(
          oc.expr,
          relational::bind_expr(
              relational::Expr::make_column(
                  "", source->schema().column(*col.source_column).name),
              scope, params, pool));
    }
    // Distinct and computed order keys read the projected values; without
    // them only the kept rows are projected.
    const std::span<const SortKey> keys = shape.sort_keys;
    const auto source_keys = shape.sort_source ? keys : keys.first(0);
    const auto output_keys = shape.sort_source ? keys.first(0) : keys;
    const bool project_all = stmt.distinct || !output_keys.empty();
    relational::sort_rows(*source, rows, source_keys, &scratch,
                          project_all ? relational::kNoLimit : limit);
    if (!project_all) {
      out = relational::project(*source, rows, outputs, out_name);
    } else {
      const TablePtr projected =
          relational::project(*source, rows, outputs, out_name);
      std::vector<ColumnIndex> cols(outputs.size());
      std::iota(cols.begin(), cols.end(), ColumnIndex{0});
      std::pmr::vector<RowIndex> kept =
          stmt.distinct
              ? relational::distinct_rows(*projected, cols, &scratch)
              : relational::all_rows(projected->num_rows(), &scratch);
      relational::sort_rows(*projected, kept, output_keys, &scratch, limit);
      out = relational::materialize(*projected, kept, cols, out_name);
    }
  } else {
    // Group the source rows by their key columns, one aggregate per
    // aggregated item, then arrange the outputs in item order.
    std::vector<Aggregate> aggs;
    for (std::size_t i = 0; i < stmt.items.size(); ++i) {
      if (stmt.items[i].agg == AggFunc::kNone) continue;
      aggs.push_back({graql::agg_kind(stmt.items[i].agg), std::move(bound[i]),
                      "a" + std::to_string(i)});
    }
    GEMS_ASSIGN_OR_RETURN(
        TablePtr grouped_table,
        relational::group_by(*source, rows, shape.group_keys, aggs,
                             "$grouped", &scratch));
    std::vector<ColumnIndex> out_cols;
    std::vector<std::string> names;
    for (graql::TableOutput& col : shape.outputs) {
      out_cols.push_back(col.grouped_column);
      names.push_back(std::move(col.name));
    }
    std::vector<SortKey> sort_keys;
    for (const SortKey& k : shape.sort_keys) {
      sort_keys.push_back({out_cols[k.column], k.descending});
    }
    std::pmr::vector<RowIndex> kept =
        stmt.distinct
            ? relational::distinct_rows(*grouped_table, out_cols, &scratch)
            : relational::all_rows(grouped_table->num_rows(), &scratch);
    relational::sort_rows(*grouped_table, kept, sort_keys, &scratch, limit);
    out = relational::materialize(*grouped_table, kept, out_cols, out_name,
                                  &names);
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
                                           *pool, intra_pool));
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
  const graph::GraphView before = graph;
  GEMS_ASSIGN_OR_RETURN(
      const bool delta_applied,
      graph::extend_graph_for_ingest(graph, table, first_new_row,
                                     vertex_decls, edge_decls, tables, *pool,
                                     &folds));
  if (delta_applied) {
    ++graph_version;
    // Instance numbering is preserved, except for the edge types the delta
    // built in full: named subgraphs are zero-padded to the grown type
    // sizes and follow those types' edges to their new ids (fresh copies —
    // the old ones may be shared with pinned epochs).
    if (!folds.renumbered.empty()) ++renumber_version;
    for (auto& [name, sub] : subgraphs) {
      sub = sub->resized_for(graph, before, folds.renumbered);
    }
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
                                                ctx.tables, *ctx.pool));
    ctx.vertex_decls.push_back(s->decl);
    ++ctx.graph_version;
    GEMS_RETURN_IF_ERROR(notify_mutation(ctx, stmt));
    result.message = "created vertex type " + s->decl.name;
    return result;
  }
  if (const auto* s = std::get_if<graql::CreateEdgeStmt>(&stmt)) {
    GEMS_RETURN_IF_ERROR(
        graph::add_edge_type(ctx.graph, s->decl, ctx.tables, *ctx.pool));
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
