#include "graql/ast.hpp"

#include <algorithm>
#include <sstream>

#include "common/check.hpp"

namespace gems::graql {

namespace {

void print_label(std::ostream& out, LabelKind kind, const std::string& label) {
  if (kind == LabelKind::kSet) out << "def " << label << ": ";
  if (kind == LabelKind::kForeach) out << "foreach " << label << ": ";
}

void print_vertex_step(std::ostream& out, const VertexStep& v) {
  print_label(out, v.label_kind, v.label);
  if (!v.label_ref.empty()) {
    out << v.label_ref;
    // A bare label reference may still carry a condition.
  } else if (v.variant) {
    out << "[ ]";
  } else {
    if (!v.seed_result.empty()) out << v.seed_result << ".";
    out << v.type_name;
  }
  if (v.condition) {
    out << "(" << v.condition->to_string() << ")";
  } else if (!v.variant && v.label_ref.empty()) {
    out << "()";
  }
}

void print_edge_step(std::ostream& out, const EdgeStep& e) {
  if (e.reversed) {
    out << "<--";
  } else {
    out << "--";
  }
  print_label(out, e.label_kind, e.label);
  if (e.variant) {
    out << "[ ]";
  } else {
    out << e.type_name;
  }
  if (e.condition) out << "(" << e.condition->to_string() << ")";
  if (e.reversed) {
    out << "--";
  } else {
    out << "-->";
  }
}

void print_element(std::ostream& out, const PathElement& el);

void print_group(std::ostream& out, const PathGroup& g) {
  out << "( ";
  for (std::size_t i = 0; i < g.body.size(); ++i) {
    if (i > 0) out << " ";
    print_element(out, g.body[i]);
  }
  out << " )";
  switch (g.quant) {
    case PathGroup::Quant::kStar:
      out << "*";
      break;
    case PathGroup::Quant::kPlus:
      out << "+";
      break;
    case PathGroup::Quant::kExact:
      out << "{" << g.count << "}";
      break;
  }
}

void print_element(std::ostream& out, const PathElement& el) {
  std::visit(
      [&](const auto& e) {
        using T = std::decay_t<decltype(e)>;
        if constexpr (std::is_same_v<T, VertexStep>) {
          print_vertex_step(out, e);
        } else if constexpr (std::is_same_v<T, EdgeStep>) {
          print_edge_step(out, e);
        } else {
          print_group(out, e);
        }
      },
      el);
}

void print_target(std::ostream& out, const SelectTarget& t) {
  if (t.star) {
    out << "*";
    return;
  }
  out << t.qualifier;
  if (!t.column.empty()) out << "." << t.column;
  if (!t.alias.empty()) out << " as " << t.alias;
}

const char* agg_name(AggFunc f) {
  switch (f) {
    case AggFunc::kCountStar:
    case AggFunc::kCount:
      return "count";
    case AggFunc::kSum:
      return "sum";
    case AggFunc::kAvg:
      return "avg";
    case AggFunc::kMin:
      return "min";
    case AggFunc::kMax:
      return "max";
    case AggFunc::kNone:
      break;
  }
  return "";
}

struct Printer {
  std::ostringstream out;

  void operator()(const CreateTableStmt& s) {
    out << "create table " << s.name << "(";
    for (std::size_t i = 0; i < s.columns.size(); ++i) {
      if (i > 0) out << ", ";
      out << s.columns[i].name << " " << s.columns[i].type.to_string();
    }
    out << ")";
  }

  void operator()(const CreateVertexStmt& s) {
    out << "create vertex " << s.decl.name << "(";
    for (std::size_t i = 0; i < s.decl.key_columns.size(); ++i) {
      if (i > 0) out << ", ";
      out << s.decl.key_columns[i];
    }
    out << ") from table " << s.decl.table;
    if (s.decl.where) out << " where " << s.decl.where->to_string();
  }

  void operator()(const CreateEdgeStmt& s) {
    out << "create edge " << s.decl.name << " with vertices ("
        << s.decl.source.vertex_type;
    if (!s.decl.source.alias.empty()) out << " as " << s.decl.source.alias;
    out << ", " << s.decl.target.vertex_type;
    if (!s.decl.target.alias.empty()) out << " as " << s.decl.target.alias;
    out << ")";
    if (!s.decl.assoc_tables.empty()) {
      out << " from table ";
      for (std::size_t i = 0; i < s.decl.assoc_tables.size(); ++i) {
        if (i > 0) out << ", ";
        out << s.decl.assoc_tables[i];
      }
    }
    if (s.decl.where) out << " where " << s.decl.where->to_string();
  }

  void operator()(const IngestStmt& s) {
    out << "ingest table " << s.table << " '" << s.path << "'";
    if (s.has_header) out << " with header";
  }

  void operator()(const OutputStmt& s) {
    out << "output table " << s.table << " '" << s.path << "'";
  }

  void operator()(const GraphQueryStmt& s) {
    out << "select ";
    for (std::size_t i = 0; i < s.targets.size(); ++i) {
      if (i > 0) out << ", ";
      print_target(out, s.targets[i]);
    }
    out << " from graph ";
    for (std::size_t g = 0; g < s.or_groups.size(); ++g) {
      if (g > 0) out << " or ";
      for (std::size_t p = 0; p < s.or_groups[g].size(); ++p) {
        if (p > 0) out << " and ";
        out << to_string(s.or_groups[g][p]);
      }
    }
    if (s.into == IntoKind::kSubgraph) out << " into subgraph " << s.into_name;
    if (s.into == IntoKind::kTable) out << " into table " << s.into_name;
  }

  void operator()(const TableQueryStmt& s) {
    out << "select ";
    if (s.top_n > 0) out << "top " << s.top_n << " ";
    if (s.distinct) out << "distinct ";
    for (std::size_t i = 0; i < s.items.size(); ++i) {
      if (i > 0) out << ", ";
      const SelectItem& item = s.items[i];
      if (item.star) {
        out << "*";
      } else if (item.agg == AggFunc::kCountStar) {
        out << "count(*)";
      } else if (item.agg != AggFunc::kNone) {
        out << agg_name(item.agg) << "(" << item.expr->to_string() << ")";
      } else {
        out << item.expr->to_string();
      }
      if (!item.alias.empty()) out << " as " << item.alias;
    }
    out << " from table " << s.from_table;
    if (s.where) out << " where " << s.where->to_string();
    if (!s.group_by.empty()) {
      out << " group by ";
      for (std::size_t i = 0; i < s.group_by.size(); ++i) {
        if (i > 0) out << ", ";
        out << s.group_by[i];
      }
    }
    if (!s.order_by.empty()) {
      out << " order by ";
      for (std::size_t i = 0; i < s.order_by.size(); ++i) {
        if (i > 0) out << ", ";
        out << s.order_by[i].column;
        if (s.order_by[i].descending) out << " desc";
      }
    }
    if (s.into == IntoKind::kTable) out << " into table " << s.into_name;
  }
};

}  // namespace

std::string to_string(const PathPattern& path) {
  std::ostringstream out;
  for (std::size_t i = 0; i < path.elements.size(); ++i) {
    if (i > 0) out << " ";
    print_element(out, path.elements[i]);
  }
  return out.str();
}

std::string to_string(const Statement& stmt) {
  Printer p;
  std::visit(p, stmt);
  return p.out.str();
}

std::string OutputNamer::assign(const std::string& preferred,
                                const std::string& prefix) {
  auto taken = [this](const std::string& name) {
    return std::find(used_.begin(), used_.end(), name) != used_.end();
  };
  std::string name = preferred;
  if (taken(name) && !prefix.empty()) name = prefix + "_" + preferred;
  int suffix = 1;
  const std::string base = name;
  while (taken(name)) name = base + "_" + std::to_string(++suffix);
  used_.push_back(name);
  return name;
}

relational::AggKind agg_kind(AggFunc f) {
  static_assert(static_cast<int>(AggFunc::kCountStar) - 1 ==
                    static_cast<int>(relational::AggKind::kCountStar) &&
                static_cast<int>(AggFunc::kMax) - 1 ==
                    static_cast<int>(relational::AggKind::kMax));
  GEMS_CHECK(f != AggFunc::kNone);
  return static_cast<relational::AggKind>(static_cast<int>(f) - 1);
}

Result<std::vector<TableOutput>> table_query_outputs(
    const TableQueryStmt& stmt, const storage::Schema& source,
    std::span<const relational::MaybeType> item_types) {
  GEMS_CHECK(item_types.size() == stmt.items.size());
  static constexpr const char* kAggNames[] = {"", "count", "count", "sum",
                                              "avg", "min", "max"};
  OutputNamer namer;
  std::vector<TableOutput> out;
  std::size_t anon = 0;
  for (std::size_t i = 0; i < stmt.items.size(); ++i) {
    const SelectItem& item = stmt.items[i];
    if (item.star) {
      for (storage::ColumnIndex c = 0; c < source.num_columns(); ++c) {
        const storage::ColumnDef& def = source.column(c);
        out.push_back({namer.assign(def.name, ""), def.type, nullptr, c});
      }
      continue;
    }
    TableOutput col;
    col.item = &item;
    col.type = item_types[i];
    std::string name = item.alias;
    if (item.agg != AggFunc::kNone) {
      GEMS_ASSIGN_OR_RETURN(
          col.type, relational::agg_output_type(agg_kind(item.agg), col.type));
      if (name.empty()) name = kAggNames[static_cast<int>(item.agg)];
    } else if (name.empty()) {
      name = item.expr->kind == relational::Expr::Kind::kColumnRef
                 ? item.expr->column
                 : "expr" + std::to_string(anon++);
    }
    col.name = namer.assign(name, "");
    out.push_back(std::move(col));
  }
  return out;
}

std::string to_string(const Script& script) {
  std::string out;
  for (const auto& s : script.statements) {
    out += to_string(s);
    out += "\n";
  }
  return out;
}

SourceSpan statement_span(const Statement& stmt) {
  return std::visit([](const auto& s) { return s.span; }, stmt);
}

}  // namespace gems::graql
