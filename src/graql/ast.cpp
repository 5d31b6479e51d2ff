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

/// Deterministic output-column naming. Preference order: `preferred`,
/// then `<prefix>_<preferred>`, then numbered suffixes.
class OutputNamer {
 public:
  std::string assign(const std::string& preferred,
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

 private:
  std::vector<std::string> used_;
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

relational::AggKind agg_kind(AggFunc f) {
  static_assert(static_cast<int>(AggFunc::kCountStar) - 1 ==
                    static_cast<int>(relational::AggKind::kCountStar) &&
                static_cast<int>(AggFunc::kMax) - 1 ==
                    static_cast<int>(relational::AggKind::kMax));
  GEMS_CHECK(f != AggFunc::kNone);
  return static_cast<relational::AggKind>(static_cast<int>(f) - 1);
}

TableQueryShape table_query_shape(
    const TableQueryStmt& stmt, const storage::Schema& source,
    std::span<const relational::MaybeType> item_types) {
  GEMS_CHECK(item_types.size() == stmt.items.size());
  static constexpr const char* kAggNames[] = {"", "count", "count", "sum",
                                              "avg", "min", "max"};
  TableQueryShape shape;
  auto fail = [&](SourceSpan span, DiagCode code, Status status) {
    shape.errors.push_back({span, code, std::move(status)});
  };
  shape.grouped =
      !stmt.group_by.empty() ||
      std::any_of(stmt.items.begin(), stmt.items.end(),
                  [](const SelectItem& i) { return i.agg != AggFunc::kNone; });
  for (const std::string& key : stmt.group_by) {
    if (const auto c = source.find(key)) {
      shape.group_keys.push_back(*c);
    } else {
      fail(stmt.span, DiagCode::kUnknownAttribute,
           not_found("group by column '" + key + "' is not in table '" +
                     stmt.from_table + "'"));
    }
  }

  OutputNamer namer;
  std::size_t anon = 0;
  auto next_agg = static_cast<storage::ColumnIndex>(stmt.group_by.size());
  for (std::size_t i = 0; i < stmt.items.size(); ++i) {
    const SelectItem& item = stmt.items[i];
    if (item.star) {
      if (shape.grouped) {
        fail(item.span, DiagCode::kBadAggregate,
             type_error("'*' cannot be combined with aggregates or group by"));
      }
      for (storage::ColumnIndex c = 0; c < source.num_columns(); ++c) {
        const storage::ColumnDef& def = source.column(c);
        shape.outputs.push_back(
            {namer.assign(def.name, ""), def.type, nullptr, c});
      }
      continue;
    }
    TableOutput col;
    col.item = &item;
    col.type = item_types[i];
    std::string name = item.alias;
    if (item.agg != AggFunc::kNone) {
      auto type = relational::agg_output_type(agg_kind(item.agg), col.type);
      if (type.is_ok()) {
        col.type = *type;
      } else {
        fail(item.span, DiagCode::kBadAggregate, type.status());
      }
      col.grouped_column = next_agg++;
      if (name.empty()) name = kAggNames[static_cast<int>(item.agg)];
    } else {
      const bool bare = item.expr->kind == relational::Expr::Kind::kColumnRef;
      if (bare) col.source_column = source.find(item.expr->column);
      if (name.empty()) {
        name = bare ? item.expr->column : "expr" + std::to_string(anon++);
      }
      const auto& keys = stmt.group_by;
      const auto key =
          bare ? std::find(keys.begin(), keys.end(), item.expr->column)
               : keys.end();
      if (shape.grouped && key != keys.end()) {
        col.grouped_column =
            static_cast<storage::ColumnIndex>(key - keys.begin());
      } else if (shape.grouped) {
        // SQL rule: non-aggregate outputs must be grouping columns.
        fail(item.span, DiagCode::kBadAggregate,
             type_error("select item '" + item.expr->to_string() +
                        "' must be aggregated or listed in group by"));
      }
    }
    col.name = namer.assign(name, "");
    shape.outputs.push_back(std::move(col));
  }

  // ORDER BY keys name outputs or source columns, an output first.
  const OrderItem* unnamed = nullptr;  // the first key naming no output
  bool all_source = true;
  for (const OrderItem& ord : stmt.order_by) {
    const auto out = std::find_if(
        shape.outputs.begin(), shape.outputs.end(),
        [&](const TableOutput& o) { return o.name == ord.column; });
    const bool in_source = source.find(ord.column).has_value();
    if (out == shape.outputs.end() && !in_source) {
      fail(ord.span, DiagCode::kUnknownAttribute,
           not_found("order by column '" + ord.column +
                     "' is neither an output column nor a column of '" +
                     stmt.from_table + "'"));
      continue;
    }
    if (out == shape.outputs.end() && shape.grouped) {
      fail(ord.span, DiagCode::kBadAggregate,
           type_error("order by column '" + ord.column +
                      "' must be an output column of the grouped query"));
      continue;
    }
    all_source &= in_source;
    if (out != shape.outputs.end()) {
      shape.sort_keys.push_back(
          {static_cast<storage::ColumnIndex>(out - shape.outputs.begin()),
           ord.descending});
    } else if (unnamed == nullptr) {
      unnamed = &ord;
    }
  }
  if (unnamed != nullptr && !all_source) {
    fail(unnamed->span, DiagCode::kUnknownAttribute,
         not_found("order by columns must all be output columns or all be "
                   "source columns"));
  }
  if (!shape.errors.empty() || shape.grouped) return shape;
  if (unnamed != nullptr) {
    shape.sort_keys.clear();
    for (const OrderItem& ord : stmt.order_by) {
      shape.sort_keys.push_back({*source.find(ord.column), ord.descending});
    }
    shape.sort_source = true;
  } else if (std::all_of(shape.sort_keys.begin(), shape.sort_keys.end(),
                         [&](const relational::SortKey& k) {
                           return shape.outputs[k.column]
                               .source_column.has_value();
                         })) {
    // An output that is a bare column sorts as its source column.
    for (relational::SortKey& k : shape.sort_keys) {
      k.column = *shape.outputs[k.column].source_column;
    }
    shape.sort_source = true;
  }
  return shape;
}

StepNames::StepNames(const std::vector<PathPattern>& and_group) {
  std::map<std::string, NamedStep> labels;
  auto add = [&](const std::string& display, const NamedStep& step,
                 const std::string& alias) {
    if (display.empty() || display[0] == '_') return;  // internal names
    if (steps.emplace(display, step).second) shown.push_back(display);
    if (!alias.empty() && alias[0] != '_') steps.emplace(alias, step);
  };
  auto add_step = [&](const auto& el, bool is_edge) {
    const NamedStep step{&el, is_edge, el.variant ? "" : el.type_name};
    variant |= el.variant;
    if (el.label_kind != LabelKind::kNone) labels.emplace(el.label, step);
    add(el.label.empty() ? step.type : el.label, step, step.type);
  };
  for (const PathPattern& path : and_group) {
    const EdgeStep* edge = nullptr;
    for (const PathElement& el : path.elements) {
      if (const auto* e = std::get_if<EdgeStep>(&el)) edge = e;
      const auto* v = std::get_if<VertexStep>(&el);
      if (v == nullptr) continue;  // a regex group's interior: no names
      order.emplace(v, order.size());
      auto ref = labels.find(v->type_name);
      if (v->variant || !v->seed_result.empty() || ref == labels.end()) {
        add_step(*v, false);
      } else {
        // A label reference revisits its step; only its own label is new.
        refs.emplace(v, ref->second);
        if (v->label_kind != LabelKind::kNone) {
          const NamedStep step{v, ref->second.is_edge, ref->second.type};
          labels.emplace(v->label, step);
          add(v->label, step, "");
        }
      }
      if (edge != nullptr) {
        order.emplace(edge, order.size());
        add_step(*edge, true);
      }
      edge = nullptr;
    }
  }
}

Result<relational::Slot> StepScope::resolve(std::string_view qualifier,
                                            std::string_view column) const {
  if (qualifier.empty() || qualifier == self_name_ ||
      (!self_label_.empty() && qualifier == self_label_)) {
    return slot_(self_, column);
  }
  // A step outside the order (an edge step no vertex step follows, which
  // only a malformed path has) sees itself alone.
  const auto it = names_.steps.find(qualifier);
  const auto self = names_.order.find(self_.ast);
  if (it == names_.steps.end() || self == names_.order.end() ||
      names_.order.at(it->second.ast) > self->second) {
    return not_found("unknown qualifier '" + std::string(qualifier) +
                     "' in step condition (a condition may name its own "
                     "step and the steps before it in its and-group, "
                     "outside regex groups)");
  }
  return slot_(it->second, column);
}

GraphOutputs graph_query_outputs(const GraphQueryStmt& stmt,
                                 const StepAttrs& attrs_of) {
  const std::vector<StepNames> groups(stmt.or_groups.begin(),
                                      stmt.or_groups.end());
  const std::size_t n = groups.size();
  // Per group, the step `name` addresses (among the shown names only, or
  // among all), or null.
  auto steps_named = [&](const std::string& name, bool shown) {
    std::vector<const NamedStep*> steps(n);
    for (std::size_t g = 0; g < n; ++g) {
      const auto it = groups[g].steps.find(name);
      if (it != groups[g].steps.end() &&
          (!shown || std::count(groups[g].shown.begin(),
                                groups[g].shown.end(), name) > 0)) {
        steps[g] = &it->second;
      }
    }
    return steps;
  };
  auto attrs = [&](const NamedStep* step) -> const storage::Schema* {
    return step == nullptr || step->type.empty()
               ? nullptr
               : attrs_of(step->is_edge, step->type);
  };
  OutputNamer namer;
  GraphOutputs out;
  const ShapeError variant{
      {}, DiagCode::kBadStructure,
      type_error("variant '[ ]' steps cannot be selected into a table; use "
                 "'into subgraph'")};
  // Every attribute of the step, as the first group with attributes has
  // them; false for a variant step.
  auto expand = [&](const SelectTarget& target, const std::string& step,
                    const std::string& display, bool shown) {
    const std::vector<const NamedStep*> steps = steps_named(step, shown);
    const storage::Schema* schema = nullptr;
    for (std::size_t g = 0; g < n && schema == nullptr; ++g) {
      if (steps[g] != nullptr && steps[g]->type.empty()) return false;
      schema = attrs(steps[g]);
    }
    if (schema == nullptr) return true;
    for (const storage::ColumnDef& def : schema->columns()) {
      GraphOutput& col = out.columns.emplace_back(GraphOutput{
          namer.assign(display + "_" + def.name, ""), def.type, &target, {},
          {}});
      for (const NamedStep* s : steps) {
        const storage::Schema* a = attrs(s);
        col.step.push_back(s == nullptr ? nullptr : s->ast);
        col.attribute.push_back(a == nullptr ? std::nullopt
                                             : a->find(def.name));
      }
    }
    return true;
  };
  // The target's columns, or its error.
  auto add = [&](const SelectTarget& target) -> ShapeError {
    if (target.star) {
      // Fig. 13: "each row has all the attributes of all entities involved
      // in the query path", which variant steps do not have in common.
      std::vector<std::string> order;
      for (const StepNames& group : groups) {
        if (group.variant) return variant;
        for (const std::string& name : group.shown) {
          if (std::count(order.begin(), order.end(), name) == 0) {
            order.push_back(name);
          }
        }
      }
      for (const std::string& name : order) expand(target, name, name, true);
      return {};
    }
    const std::vector<const NamedStep*> steps =
        steps_named(target.qualifier, false);
    if (std::count(steps.begin(), steps.end(), nullptr) ==
        static_cast<std::ptrdiff_t>(n)) {
      return {{}, DiagCode::kUnknownName,
              not_found("select target '" + target.qualifier +
                        "' does not name a step of this query")};
    }
    if (target.column.empty()) {
      const bool ok = expand(
          target, target.qualifier,
          target.alias.empty() ? target.qualifier : target.alias, false);
      return ok ? ShapeError{} : variant;
    }
    GraphOutput col{
        namer.assign(target.alias.empty() ? target.column : target.alias,
                     target.qualifier),
        {}, &target, std::vector<const void*>(n),
        std::vector<std::optional<storage::ColumnIndex>>(n)};
    bool typed = false;
    for (std::size_t g = 0; g < n; ++g) {
      if (steps[g] == nullptr) continue;
      const storage::Schema* s = attrs(steps[g]);
      if (s == nullptr) {
        return {{}, DiagCode::kTypeMismatch,
                type_error("step '" + target.qualifier +
                           "' has no attributes")};
      }
      col.step[g] = steps[g]->ast;
      col.attribute[g] = s->find(target.column);
      if (!col.attribute[g]) {
        return {{}, DiagCode::kUnknownAttribute,
                not_found("step '" + target.qualifier +
                          "' has no attribute '" + target.column + "'")};
      }
      if (!typed) col.type = s->column(*col.attribute[g]).type;
      typed = true;
    }
    out.columns.push_back(std::move(col));
    return {};
  };

  for (const SelectTarget& target : stmt.targets) {
    ShapeError error = add(target);
    if (error.status.is_ok()) continue;
    error.span = target.span;
    out.errors.push_back(std::move(error));
  }
  return out;
}

SubgraphTargets subgraph_targets(const GraphQueryStmt& stmt) {
  const std::vector<StepNames> groups(stmt.or_groups.begin(),
                                      stmt.or_groups.end());
  SubgraphTargets out;
  out.steps.resize(groups.size());
  for (const SelectTarget& target : stmt.targets) {
    out.star |= target.star;
    bool named = target.star;
    for (std::size_t g = 0; g < groups.size() && !target.star; ++g) {
      const auto it = groups[g].steps.find(target.qualifier);
      if (it == groups[g].steps.end()) continue;
      out.steps[g].push_back(it->second.ast);
      named = true;
    }
    if (!named) {
      out.errors.push_back(
          {target.span, DiagCode::kUnknownName,
           not_found("select target '" + target.qualifier +
                     "' does not name a step or label of this query")});
    } else if (!target.column.empty()) {
      out.errors.push_back(
          {target.span, DiagCode::kBadStructure,
           invalid_argument("attribute selections ('" + target.qualifier +
                            "." + target.column +
                            "') require 'into table'")});
    }
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
