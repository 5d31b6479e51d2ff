#include "plan/schedule.hpp"

#include <algorithm>

#include "common/check.hpp"

namespace gems::plan {

using exec::ExecContext;
using exec::StatementResult;
using graql::EdgeStep;
using graql::PathElement;
using graql::PathGroup;
using graql::Script;
using graql::Statement;
using graql::VertexStep;

namespace {

void add_name(std::vector<std::string>& names, const std::string& name) {
  if (name.empty()) return;
  if (std::find(names.begin(), names.end(), name) == names.end()) {
    names.push_back(name);
  }
}

void collect_path_reads(const graql::PathPattern& path,
                        std::vector<std::string>& reads) {
  for (const PathElement& el : path.elements) {
    if (const auto* v = std::get_if<VertexStep>(&el)) {
      add_name(reads, v->type_name);
      add_name(reads, v->seed_result);
    } else if (const auto* e = std::get_if<EdgeStep>(&el)) {
      add_name(reads, e->type_name);
    } else {
      for (const PathElement& inner : std::get<PathGroup>(el).body) {
        if (const auto* iv = std::get_if<VertexStep>(&inner)) {
          add_name(reads, iv->type_name);
        } else if (const auto* ie = std::get_if<EdgeStep>(&inner)) {
          add_name(reads, ie->type_name);
        }
      }
    }
  }
}

bool intersects(const std::vector<std::string>& a,
                const std::vector<std::string>& b) {
  for (const auto& x : a) {
    if (std::find(b.begin(), b.end(), x) != b.end()) return true;
  }
  return false;
}

}  // namespace

StatementIo analyze_io(const Statement& stmt) {
  StatementIo io;
  if (const auto* s = std::get_if<graql::CreateTableStmt>(&stmt)) {
    io.writes.push_back(s->name);
    io.barrier = true;
    return io;
  }
  if (const auto* s = std::get_if<graql::CreateVertexStmt>(&stmt)) {
    io.reads.push_back(s->decl.table);
    io.writes.push_back(s->decl.name);
    io.barrier = true;
    return io;
  }
  if (const auto* s = std::get_if<graql::CreateEdgeStmt>(&stmt)) {
    io.reads.push_back(s->decl.source.vertex_type);
    io.reads.push_back(s->decl.target.vertex_type);
    for (const auto& t : s->decl.assoc_tables) io.reads.push_back(t);
    io.writes.push_back(s->decl.name);
    io.barrier = true;
    return io;
  }
  if (const auto* s = std::get_if<graql::IngestStmt>(&stmt)) {
    io.writes.push_back(s->table);
    io.barrier = true;  // regenerates derived vertex/edge instances
    return io;
  }
  if (const auto* s = std::get_if<graql::OutputStmt>(&stmt)) {
    io.reads.push_back(s->table);
    io.file_writes.push_back(s->path);
    return io;
  }
  if (const auto* s = std::get_if<graql::GraphQueryStmt>(&stmt)) {
    for (const auto& group : s->or_groups) {
      for (const auto& path : group) collect_path_reads(path, io.reads);
    }
    if (s->into != graql::IntoKind::kNone) add_name(io.writes, s->into_name);
    return io;
  }
  if (const auto* s = std::get_if<graql::TableQueryStmt>(&stmt)) {
    io.reads.push_back(s->from_table);
    if (s->into != graql::IntoKind::kNone) add_name(io.writes, s->into_name);
    return io;
  }
  GEMS_UNREACHABLE("unhandled statement kind");
}

Schedule build_schedule(const Script& script) {
  const std::size_t n = script.statements.size();
  std::vector<StatementIo> io;
  io.reserve(n);
  for (const auto& stmt : script.statements) io.push_back(analyze_io(stmt));

  std::vector<std::size_t> level(n, 0);
  std::size_t max_level = 0;
  for (std::size_t i = 0; i < n; ++i) {
    std::size_t min_level = 0;
    for (std::size_t j = 0; j < i; ++j) {
      const bool conflict =
          io[i].barrier || io[j].barrier ||
          intersects(io[j].writes, io[i].reads) ||   // RAW
          intersects(io[j].writes, io[i].writes) ||  // WAW
          intersects(io[j].reads, io[i].writes) ||   // WAR
          intersects(io[j].file_writes, io[i].file_writes);
      if (conflict) min_level = std::max(min_level, level[j] + 1);
    }
    level[i] = min_level;
    max_level = std::max(max_level, min_level);
  }

  Schedule schedule;
  schedule.levels.resize(max_level + 1);
  for (std::size_t i = 0; i < n; ++i) schedule.levels[level[i]].push_back(i);
  // Remove empty levels (can appear when barriers collapse).
  schedule.levels.erase(
      std::remove_if(schedule.levels.begin(), schedule.levels.end(),
                     [](const auto& l) { return l.empty(); }),
      schedule.levels.end());
  return schedule;
}

bool script_is_read_only(const Script& script) {
  for (const Statement& stmt : script.statements) {
    if (analyze_io(stmt).barrier) return false;
  }
  return true;
}

Result<std::vector<StatementResult>> run_scheduled(
    const Script& script, const Schedule& schedule, const ExecContext& ctx,
    const relational::ParamMap& params, exec::CatalogOverlay& overlay,
    ExecContext* writer) {
  GEMS_CHECK(writer == nullptr || writer == &ctx);
  const exec::ReadView view{&ctx, &params, &overlay};
  std::vector<StatementResult> results(script.statements.size());
  for (const auto& level : schedule.levels) {
    Status failure;
    for (const std::size_t i : level) {
      const Statement& stmt = script.statements[i];
      auto r = writer != nullptr && analyze_io(stmt).barrier
                   ? exec::execute_statement(stmt, *writer)
                   : exec::execute_statement_read(stmt, view);
      if (!r.is_ok()) {
        failure = r.status();
        break;
      }
      results[i] = std::move(r).value();
      exec::stage_result(results[i], overlay);
    }
    if (writer != nullptr) {
      // The next level may be DDL or ingest, which resolve names in the
      // live catalog, not the overlay.
      exec::commit_overlay(overlay, *writer);
      overlay = {};
    }
    if (!failure.is_ok()) return failure;
  }
  return results;
}

}  // namespace gems::plan
