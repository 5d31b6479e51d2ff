#include "graql/ir.hpp"

#include <algorithm>
#include <string_view>

#include "common/check.hpp"
#include "common/lane_codec.hpp"

namespace gems::graql {

namespace {

using relational::Expr;
using relational::ExprPtr;
using storage::DataType;
using storage::TypeKind;
using storage::Value;

// ---- Field helpers ----------------------------------------------------------

ByteReader ir_reader(std::span<const std::uint8_t> bytes) {
  return ByteReader(bytes, StatusCode::kParseError, "malformed IR");
}

void encode_span(ByteWriter& w, const SourceSpan& s) {
  w.u32(s.line);
  w.u32(s.column);
  w.u32(s.end_line);
  w.u32(s.end_column);
}

Result<SourceSpan> decode_span(ByteReader& r) {
  SourceSpan s;
  GEMS_ASSIGN_OR_RETURN(s.line, r.u32());
  GEMS_ASSIGN_OR_RETURN(s.column, r.u32());
  GEMS_ASSIGN_OR_RETURN(s.end_line, r.u32());
  GEMS_ASSIGN_OR_RETURN(s.end_column, r.u32());
  return s;
}

void encode_strings(ByteWriter& w, const std::vector<std::string>& v) {
  w.u32(static_cast<std::uint32_t>(v.size()));
  for (const auto& s : v) w.str(s);
}

Result<std::vector<std::string>> decode_strings(ByteReader& r) {
  GEMS_ASSIGN_OR_RETURN(std::uint32_t n, r.count("string list", 4));
  std::vector<std::string> out;
  // A string is 4 wire bytes but 32 in memory: reserve no more than a
  // bounded prefix; the loop fails cleanly on truncation.
  out.reserve(std::min<std::uint32_t>(n, 1024));
  for (std::uint32_t i = 0; i < n; ++i) {
    GEMS_ASSIGN_OR_RETURN(std::string s, r.str());
    out.push_back(std::move(s));
  }
  return out;
}


void encode_data_type(ByteWriter& w, const DataType& t) {
  w.u8(static_cast<std::uint8_t>(t.kind));
  w.u32(t.varchar_length);
}

Result<DataType> decode_data_type(ByteReader& r) {
  GEMS_ASSIGN_OR_RETURN(TypeKind kind,
                        r.enum8(TypeKind::kDate, "type kind"));
  GEMS_ASSIGN_OR_RETURN(std::uint32_t len, r.u32());
  return DataType{kind, len};
}

void encode_expr(ByteWriter& w, const ExprPtr& e) {
  if (!e) {
    w.u8(0);
    return;
  }
  // Only leaves carry spans on the wire: unary/binary spans are the
  // covering range of their operands, which make_unary/make_binary
  // rederive identically on decode.
  const auto leaf_span = [&](std::uint8_t tag) {
    w.u8(tag);
    encode_span(w, {e->src_line, e->src_column, e->src_end_line,
                    e->src_end_column});
  };
  switch (e->kind) {
    case Expr::Kind::kLiteral:
      leaf_span(1);
      encode_value(e->literal, w);
      return;
    case Expr::Kind::kColumnRef:
      leaf_span(2);
      w.str(e->qualifier);
      w.str(e->column);
      return;
    case Expr::Kind::kParameter:
      leaf_span(3);
      w.str(e->param_name);
      return;
    case Expr::Kind::kUnary:
      w.u8(4);
      w.u8(static_cast<std::uint8_t>(e->uop));
      encode_expr(w, e->lhs);
      return;
    case Expr::Kind::kBinary:
      w.u8(5);
      w.u8(static_cast<std::uint8_t>(e->bop));
      encode_expr(w, e->lhs);
      encode_expr(w, e->rhs);
      return;
  }
  GEMS_UNREACHABLE("bad expr kind");
}

/// `depth` is the decoded node's level in its tree (1 = root); deeper than
/// relational::kMaxExprDepth is an error, before the recursion can
/// exhaust the stack.
Result<ExprPtr> decode_expr(ByteReader& r, std::uint32_t depth = 1) {
  const std::size_t at = r.pos();
  if (depth > relational::kMaxExprDepth) {
    return r.error_at(at, "expression nested deeper than " +
                              std::to_string(relational::kMaxExprDepth) +
                              " levels");
  }
  GEMS_ASSIGN_OR_RETURN(std::uint8_t tag, r.u8());
  switch (tag) {
    case 0:
      return ExprPtr(nullptr);
    case 1: {
      GEMS_ASSIGN_OR_RETURN(SourceSpan sp, decode_span(r));
      GEMS_ASSIGN_OR_RETURN(Value v, decode_value(r));
      return Expr::make_literal(std::move(v), sp.line, sp.column,
                                sp.end_line, sp.end_column);
    }
    case 2: {
      GEMS_ASSIGN_OR_RETURN(SourceSpan sp, decode_span(r));
      GEMS_ASSIGN_OR_RETURN(std::string qual, r.str());
      GEMS_ASSIGN_OR_RETURN(std::string col, r.str());
      return Expr::make_column(std::move(qual), std::move(col), sp.line,
                               sp.column, sp.end_line, sp.end_column);
    }
    case 3: {
      GEMS_ASSIGN_OR_RETURN(SourceSpan sp, decode_span(r));
      GEMS_ASSIGN_OR_RETURN(std::string name, r.str());
      return Expr::make_parameter(std::move(name), sp.line, sp.column,
                                  sp.end_line, sp.end_column);
    }
    case 4: {
      GEMS_ASSIGN_OR_RETURN(
          relational::UnaryOp op,
          r.enum8(relational::UnaryOp::kNeg, "unary op"));
      GEMS_ASSIGN_OR_RETURN(ExprPtr operand, decode_expr(r, depth + 1));
      if (!operand) return r.error_at(at, "unary without operand");
      return Expr::make_unary(op, std::move(operand));
    }
    case 5: {
      GEMS_ASSIGN_OR_RETURN(
          relational::BinaryOp op,
          r.enum8(relational::BinaryOp::kDiv, "binary op"));
      GEMS_ASSIGN_OR_RETURN(ExprPtr lhs, decode_expr(r, depth + 1));
      GEMS_ASSIGN_OR_RETURN(ExprPtr rhs, decode_expr(r, depth + 1));
      if (!lhs || !rhs) return r.error_at(at, "binary without operands");
      return Expr::make_binary(op, std::move(lhs), std::move(rhs));
    }
    default:
      return r.error_at(at, "bad expr tag");
  }
}

// ---- Statement encode/decode ---------------------------------------------

enum class StmtTag : std::uint8_t {
  kCreateTable = 1,
  kCreateVertex,
  kCreateEdge,
  kIngest,
  kGraphQuery,
  kTableQuery,
  kOutput,
};

void encode_vertex_step(ByteWriter& w, const VertexStep& v) {
  encode_span(w, v.span);
  w.boolean(v.variant);
  w.str(v.type_name);
  w.str(v.label_ref);
  w.str(v.seed_result);
  encode_expr(w, v.condition);
  w.u8(static_cast<std::uint8_t>(v.label_kind));
  w.str(v.label);
}

Result<VertexStep> decode_vertex_step(ByteReader& r) {
  VertexStep v;
  GEMS_ASSIGN_OR_RETURN(v.span, decode_span(r));
  GEMS_ASSIGN_OR_RETURN(v.variant, r.boolean());
  GEMS_ASSIGN_OR_RETURN(v.type_name, r.str());
  GEMS_ASSIGN_OR_RETURN(v.label_ref, r.str());
  GEMS_ASSIGN_OR_RETURN(v.seed_result, r.str());
  GEMS_ASSIGN_OR_RETURN(v.condition, decode_expr(r));
  GEMS_ASSIGN_OR_RETURN(v.label_kind,
                        r.enum8(LabelKind::kForeach, "label kind"));
  GEMS_ASSIGN_OR_RETURN(v.label, r.str());
  return v;
}

void encode_edge_step(ByteWriter& w, const EdgeStep& e) {
  encode_span(w, e.span);
  w.boolean(e.variant);
  w.str(e.type_name);
  w.boolean(e.reversed);
  encode_expr(w, e.condition);
  w.u8(static_cast<std::uint8_t>(e.label_kind));
  w.str(e.label);
}

Result<EdgeStep> decode_edge_step(ByteReader& r) {
  EdgeStep e;
  GEMS_ASSIGN_OR_RETURN(e.span, decode_span(r));
  GEMS_ASSIGN_OR_RETURN(e.variant, r.boolean());
  GEMS_ASSIGN_OR_RETURN(e.type_name, r.str());
  GEMS_ASSIGN_OR_RETURN(e.reversed, r.boolean());
  GEMS_ASSIGN_OR_RETURN(e.condition, decode_expr(r));
  GEMS_ASSIGN_OR_RETURN(e.label_kind,
                        r.enum8(LabelKind::kForeach, "label kind"));
  GEMS_ASSIGN_OR_RETURN(e.label, r.str());
  return e;
}

void encode_element(ByteWriter& w, const PathElement& el);

void encode_group(ByteWriter& w, const PathGroup& g) {
  encode_span(w, g.span);
  w.u32(static_cast<std::uint32_t>(g.body.size()));
  for (const auto& el : g.body) encode_element(w, el);
  w.u8(static_cast<std::uint8_t>(g.quant));
  w.u32(g.count);
}

Result<PathGroup> decode_group(ByteReader& r, int depth);

Result<PathElement> decode_element(ByteReader& r, int depth) {
  const std::size_t at = r.pos();
  GEMS_ASSIGN_OR_RETURN(std::uint8_t tag, r.u8());
  switch (tag) {
    case 1: {
      GEMS_ASSIGN_OR_RETURN(VertexStep v, decode_vertex_step(r));
      return PathElement(std::move(v));
    }
    case 2: {
      GEMS_ASSIGN_OR_RETURN(EdgeStep e, decode_edge_step(r));
      return PathElement(std::move(e));
    }
    case 3: {
      if (depth > 4) return r.error_at(at, "bad group nesting");
      GEMS_ASSIGN_OR_RETURN(PathGroup g, decode_group(r, depth + 1));
      return PathElement(std::move(g));
    }
    default:
      return r.error_at(at, "bad path element tag");
  }
}

Result<PathGroup> decode_group(ByteReader& r, int depth) {
  PathGroup g;
  GEMS_ASSIGN_OR_RETURN(g.span, decode_span(r));
  GEMS_ASSIGN_OR_RETURN(std::uint32_t n, r.count("path group"));
  g.body.reserve(std::min<std::uint32_t>(n, 1024));
  for (std::uint32_t i = 0; i < n; ++i) {
    GEMS_ASSIGN_OR_RETURN(PathElement el, decode_element(r, depth));
    g.body.push_back(std::move(el));
  }
  GEMS_ASSIGN_OR_RETURN(
      g.quant, r.enum8(PathGroup::Quant::kExact, "group quantifier"));
  GEMS_ASSIGN_OR_RETURN(g.count, r.u32());
  return g;
}

void encode_element(ByteWriter& w, const PathElement& el) {
  if (const auto* v = std::get_if<VertexStep>(&el)) {
    w.u8(1);
    encode_vertex_step(w, *v);
  } else if (const auto* e = std::get_if<EdgeStep>(&el)) {
    w.u8(2);
    encode_edge_step(w, *e);
  } else {
    w.u8(3);
    encode_group(w, std::get<PathGroup>(el));
  }
}

void encode_statement(ByteWriter& w, const Statement& stmt) {
  if (const auto* s = std::get_if<CreateTableStmt>(&stmt)) {
    w.u8(static_cast<std::uint8_t>(StmtTag::kCreateTable));
    w.str(s->name);
    w.u32(static_cast<std::uint32_t>(s->columns.size()));
    for (const auto& c : s->columns) {
      w.str(c.name);
      encode_data_type(w, c.type);
    }
    return;
  }
  if (const auto* s = std::get_if<CreateVertexStmt>(&stmt)) {
    w.u8(static_cast<std::uint8_t>(StmtTag::kCreateVertex));
    w.str(s->decl.name);
    encode_strings(w, s->decl.key_columns);
    w.str(s->decl.table);
    encode_expr(w, s->decl.where);
    return;
  }
  if (const auto* s = std::get_if<CreateEdgeStmt>(&stmt)) {
    w.u8(static_cast<std::uint8_t>(StmtTag::kCreateEdge));
    w.str(s->decl.name);
    w.str(s->decl.source.vertex_type);
    w.str(s->decl.source.alias);
    w.str(s->decl.target.vertex_type);
    w.str(s->decl.target.alias);
    encode_strings(w, s->decl.assoc_tables);
    encode_expr(w, s->decl.where);
    return;
  }
  if (const auto* s = std::get_if<IngestStmt>(&stmt)) {
    w.u8(static_cast<std::uint8_t>(StmtTag::kIngest));
    w.str(s->table);
    w.str(s->path);
    w.boolean(s->has_header);
    return;
  }
  if (const auto* s = std::get_if<OutputStmt>(&stmt)) {
    w.u8(static_cast<std::uint8_t>(StmtTag::kOutput));
    w.str(s->table);
    w.str(s->path);
    return;
  }
  if (const auto* s = std::get_if<GraphQueryStmt>(&stmt)) {
    w.u8(static_cast<std::uint8_t>(StmtTag::kGraphQuery));
    w.u32(static_cast<std::uint32_t>(s->targets.size()));
    for (const auto& t : s->targets) {
      encode_span(w, t.span);
      w.boolean(t.star);
      w.str(t.qualifier);
      w.str(t.column);
      w.str(t.alias);
    }
    w.u32(static_cast<std::uint32_t>(s->or_groups.size()));
    for (const auto& group : s->or_groups) {
      w.u32(static_cast<std::uint32_t>(group.size()));
      for (const auto& path : group) {
        w.u32(static_cast<std::uint32_t>(path.elements.size()));
        for (const auto& el : path.elements) encode_element(w, el);
      }
    }
    w.u8(static_cast<std::uint8_t>(s->into));
    w.str(s->into_name);
    return;
  }
  if (const auto* s = std::get_if<TableQueryStmt>(&stmt)) {
    w.u8(static_cast<std::uint8_t>(StmtTag::kTableQuery));
    w.u32(static_cast<std::uint32_t>(s->items.size()));
    for (const auto& item : s->items) {
      encode_span(w, item.span);
      w.boolean(item.star);
      w.u8(static_cast<std::uint8_t>(item.agg));
      encode_expr(w, item.expr);
      w.str(item.alias);
    }
    w.u64(s->top_n);
    w.boolean(s->distinct);
    w.str(s->from_table);
    encode_expr(w, s->where);
    encode_strings(w, s->group_by);
    w.u32(static_cast<std::uint32_t>(s->order_by.size()));
    for (const auto& o : s->order_by) {
      encode_span(w, o.span);
      w.str(o.column);
      w.boolean(o.descending);
    }
    w.u8(static_cast<std::uint8_t>(s->into));
    w.str(s->into_name);
    return;
  }
  GEMS_UNREACHABLE("unhandled statement kind");
}

Result<Statement> decode_statement(ByteReader& r) {
  const std::size_t at = r.pos();
  GEMS_ASSIGN_OR_RETURN(std::uint8_t tag, r.u8());
  switch (static_cast<StmtTag>(tag)) {
    case StmtTag::kCreateTable: {
      CreateTableStmt s;
      GEMS_ASSIGN_OR_RETURN(s.name, r.str());
      GEMS_ASSIGN_OR_RETURN(std::uint32_t n, r.count("column list"));
      for (std::uint32_t i = 0; i < n; ++i) {
        storage::ColumnDef def;
        GEMS_ASSIGN_OR_RETURN(def.name, r.str());
        GEMS_ASSIGN_OR_RETURN(def.type, decode_data_type(r));
        s.columns.push_back(std::move(def));
      }
      return Statement(std::move(s));
    }
    case StmtTag::kCreateVertex: {
      CreateVertexStmt s;
      GEMS_ASSIGN_OR_RETURN(s.decl.name, r.str());
      GEMS_ASSIGN_OR_RETURN(s.decl.key_columns, decode_strings(r));
      GEMS_ASSIGN_OR_RETURN(s.decl.table, r.str());
      GEMS_ASSIGN_OR_RETURN(s.decl.where, decode_expr(r));
      return Statement(std::move(s));
    }
    case StmtTag::kCreateEdge: {
      CreateEdgeStmt s;
      GEMS_ASSIGN_OR_RETURN(s.decl.name, r.str());
      GEMS_ASSIGN_OR_RETURN(s.decl.source.vertex_type, r.str());
      GEMS_ASSIGN_OR_RETURN(s.decl.source.alias, r.str());
      GEMS_ASSIGN_OR_RETURN(s.decl.target.vertex_type, r.str());
      GEMS_ASSIGN_OR_RETURN(s.decl.target.alias, r.str());
      GEMS_ASSIGN_OR_RETURN(s.decl.assoc_tables, decode_strings(r));
      GEMS_ASSIGN_OR_RETURN(s.decl.where, decode_expr(r));
      return Statement(std::move(s));
    }
    case StmtTag::kIngest: {
      IngestStmt s;
      GEMS_ASSIGN_OR_RETURN(s.table, r.str());
      GEMS_ASSIGN_OR_RETURN(s.path, r.str());
      GEMS_ASSIGN_OR_RETURN(s.has_header, r.boolean());
      return Statement(std::move(s));
    }
    case StmtTag::kOutput: {
      OutputStmt s;
      GEMS_ASSIGN_OR_RETURN(s.table, r.str());
      GEMS_ASSIGN_OR_RETURN(s.path, r.str());
      return Statement(std::move(s));
    }
    case StmtTag::kGraphQuery: {
      GraphQueryStmt s;
      GEMS_ASSIGN_OR_RETURN(std::uint32_t nt, r.count("select targets"));
      for (std::uint32_t i = 0; i < nt; ++i) {
        SelectTarget t;
        GEMS_ASSIGN_OR_RETURN(t.span, decode_span(r));
        GEMS_ASSIGN_OR_RETURN(t.star, r.boolean());
        GEMS_ASSIGN_OR_RETURN(t.qualifier, r.str());
        GEMS_ASSIGN_OR_RETURN(t.column, r.str());
        GEMS_ASSIGN_OR_RETURN(t.alias, r.str());
        s.targets.push_back(std::move(t));
      }
      GEMS_ASSIGN_OR_RETURN(std::uint32_t ng, r.count("or-groups"));
      for (std::uint32_t g = 0; g < ng; ++g) {
        GEMS_ASSIGN_OR_RETURN(std::uint32_t np, r.count("paths"));
        std::vector<PathPattern> group;
        for (std::uint32_t p = 0; p < np; ++p) {
          GEMS_ASSIGN_OR_RETURN(std::uint32_t ne, r.count("path elements"));
          PathPattern path;
          for (std::uint32_t e = 0; e < ne; ++e) {
            GEMS_ASSIGN_OR_RETURN(PathElement el, decode_element(r, 0));
            path.elements.push_back(std::move(el));
          }
          group.push_back(std::move(path));
        }
        s.or_groups.push_back(std::move(group));
      }
      GEMS_ASSIGN_OR_RETURN(s.into,
                            r.enum8(IntoKind::kTable, "into kind"));
      GEMS_ASSIGN_OR_RETURN(s.into_name, r.str());
      return Statement(std::move(s));
    }
    case StmtTag::kTableQuery: {
      TableQueryStmt s;
      GEMS_ASSIGN_OR_RETURN(std::uint32_t ni, r.count("select items"));
      for (std::uint32_t i = 0; i < ni; ++i) {
        SelectItem item;
        GEMS_ASSIGN_OR_RETURN(item.span, decode_span(r));
        GEMS_ASSIGN_OR_RETURN(item.star, r.boolean());
        GEMS_ASSIGN_OR_RETURN(
            item.agg, r.enum8(AggFunc::kMax, "aggregate function"));
        GEMS_ASSIGN_OR_RETURN(item.expr, decode_expr(r));
        GEMS_ASSIGN_OR_RETURN(item.alias, r.str());
        s.items.push_back(std::move(item));
      }
      GEMS_ASSIGN_OR_RETURN(s.top_n, r.u64());
      GEMS_ASSIGN_OR_RETURN(s.distinct, r.boolean());
      GEMS_ASSIGN_OR_RETURN(s.from_table, r.str());
      GEMS_ASSIGN_OR_RETURN(s.where, decode_expr(r));
      GEMS_ASSIGN_OR_RETURN(s.group_by, decode_strings(r));
      GEMS_ASSIGN_OR_RETURN(std::uint32_t no, r.count("order-by list"));
      for (std::uint32_t i = 0; i < no; ++i) {
        OrderItem o;
        GEMS_ASSIGN_OR_RETURN(o.span, decode_span(r));
        GEMS_ASSIGN_OR_RETURN(o.column, r.str());
        GEMS_ASSIGN_OR_RETURN(o.descending, r.boolean());
        s.order_by.push_back(std::move(o));
      }
      GEMS_ASSIGN_OR_RETURN(s.into,
                            r.enum8(IntoKind::kTable, "into kind"));
      GEMS_ASSIGN_OR_RETURN(s.into_name, r.str());
      return Statement(std::move(s));
    }
    default:
      return r.error_at(at, "bad statement tag");
  }
}

}  // namespace

std::vector<std::uint8_t> encode_script(const Script& script) {
  std::vector<std::uint8_t> out;
  ByteWriter w(out);
  w.u32(kIrMagic);
  w.u16(kIrVersion);
  w.u32(static_cast<std::uint32_t>(script.statements.size()));
  for (const auto& stmt : script.statements) {
    // Statement spans ride in the script frame (IR v2) so each decoded
    // statement diagnoses at its original source location.
    encode_span(w, statement_span(stmt));
    encode_statement(w, stmt);
  }
  return out;
}

Result<Script> decode_script(std::span<const std::uint8_t> bytes) {
  ByteReader r = ir_reader(bytes);
  GEMS_ASSIGN_OR_RETURN(std::uint32_t magic, r.u32());
  if (magic != kIrMagic) return r.error_at(0, "not a GraQL IR blob");
  GEMS_ASSIGN_OR_RETURN(std::uint16_t version, r.u16());
  if (version != kIrVersion) {
    return r.error_at(4, "unsupported IR version " + std::to_string(version));
  }
  GEMS_ASSIGN_OR_RETURN(std::uint32_t n, r.count("statement list"));
  Script script;
  script.statements.reserve(std::min<std::uint32_t>(n, 1024));
  for (std::uint32_t i = 0; i < n; ++i) {
    GEMS_ASSIGN_OR_RETURN(SourceSpan sp, decode_span(r));
    GEMS_ASSIGN_OR_RETURN(Statement stmt, decode_statement(r));
    std::visit([&](auto& st) { st.span = sp; }, stmt);
    script.statements.push_back(std::move(stmt));
  }
  GEMS_RETURN_IF_ERROR(r.expect_end("IR script"));
  return script;
}

namespace {

// A cell's tag byte: 0 for NULL, else 1 + its kind (1 Bool, 2 Int64,
// 3 Double, 4 Varchar, 5 Date).
constexpr std::uint8_t kNullTag = 0;
constexpr std::uint8_t tag_of(TypeKind kind) {
  return static_cast<std::uint8_t>(1 + static_cast<std::uint8_t>(kind));
}
constexpr std::uint8_t kMaxTag = tag_of(TypeKind::kDate);

/// One column's share of a chunk-contiguous run of rows: its kind, its
/// chunk's validity words and its typed payload for those rows, read in
/// place or widened into the cell's own lanes. Varchar cells are resolved
/// to their strings a run at a time, under one string-pool lock.
struct ChunkCells {
  TypeKind kind;
  const std::uint64_t* valid = nullptr;
  const std::int64_t* ints = nullptr;  // Bool, Int64, Date
  const double* doubles = nullptr;
  std::vector<std::int64_t> int_lanes;
  std::vector<double> double_lanes;
  std::vector<StringId> ids;
  std::vector<std::string_view> strings;  // Varchar
};

}  // namespace

void encode_value(const storage::Value& v, ByteWriter& w) {
  if (v.is_null()) {
    w.u8(kNullTag);
    return;
  }
  w.u8(tag_of(v.kind()));
  switch (v.kind()) {
    case TypeKind::kBool:
      w.boolean(v.as_bool());
      return;
    case TypeKind::kInt64:
    case TypeKind::kDate:
      w.i64(v.as_int64());
      return;
    case TypeKind::kDouble:
      w.f64(v.as_double());
      return;
    case TypeKind::kVarchar:
      w.str(v.as_string());
      return;
  }
  GEMS_UNREACHABLE("bad value kind");
}

Result<storage::Value> decode_value(ByteReader& r) {
  const std::size_t at = r.pos();
  GEMS_ASSIGN_OR_RETURN(std::uint8_t tag, r.u8());
  switch (tag) {
    case kNullTag:
      return Value::null();
    case tag_of(TypeKind::kBool): {
      GEMS_ASSIGN_OR_RETURN(bool b, r.boolean());
      return Value::boolean(b);
    }
    case tag_of(TypeKind::kInt64): {
      GEMS_ASSIGN_OR_RETURN(std::int64_t v, r.i64());
      return Value::int64(v);
    }
    case tag_of(TypeKind::kDouble): {
      GEMS_ASSIGN_OR_RETURN(double v, r.f64());
      return Value::float64(v);
    }
    case tag_of(TypeKind::kVarchar): {
      GEMS_ASSIGN_OR_RETURN(std::string s, r.str());
      return Value::varchar(std::move(s));
    }
    case tag_of(TypeKind::kDate): {
      GEMS_ASSIGN_OR_RETURN(std::int64_t v, r.i64());
      return Value::date(v);
    }
    default:
      return r.error_at(at, "bad value tag " + std::to_string(tag));
  }
}

template <typename W>
void encode_rows(const storage::Table& table, storage::RowIndex first,
                 std::size_t n, W& w) {
  std::vector<ChunkCells> cols(table.num_columns());
  for (std::size_t at = first, end = first + n; at < end;) {
    const std::size_t chunk = at / kChunkRows;
    const std::size_t offset = at % kChunkRows;  // at's bit in the chunk
    const std::size_t k = std::min(kChunkRows - offset, end - at);
    for (std::size_t c = 0; c < cols.size(); ++c) {
      const storage::Column& column =
          table.column(static_cast<storage::ColumnIndex>(c));
      ChunkCells& cells = cols[c];
      cells.kind = column.type().kind;
      cells.valid = column.valid_words(chunk).data();
      switch (cells.kind) {
        case TypeKind::kDouble:
          cells.double_lanes.resize(kChunkRows);
          cells.doubles =
              column.double_chunks().lanes(at, k, cells.double_lanes.data());
          break;
        case TypeKind::kVarchar:
          cells.ids.resize(kChunkRows);
          cells.strings.resize(k);
          table.pool().view_batch(
              {column.string_chunks().lanes(at, k, cells.ids.data()), k},
              cells.strings.data());
          break;
        default:
          cells.int_lanes.resize(kChunkRows);
          cells.ints = column.int_chunks().lanes(at, k, cells.int_lanes.data());
          break;
      }
    }
    for (std::size_t i = 0; i < k; ++i) {
      const std::size_t bit = offset + i;
      for (const ChunkCells& cells : cols) {
        if (((cells.valid[bit / 64] >> (bit % 64)) & 1) == 0) {
          w.u8(kNullTag);
          continue;
        }
        w.u8(tag_of(cells.kind));
        switch (cells.kind) {
          case TypeKind::kBool:
            w.boolean(cells.ints[i] != 0);
            break;
          case TypeKind::kInt64:
          case TypeKind::kDate:
            w.i64(cells.ints[i]);
            break;
          case TypeKind::kDouble:
            w.f64(cells.doubles[i]);
            break;
          case TypeKind::kVarchar:
            w.str(cells.strings[i]);
            break;
        }
      }
    }
    at += k;
  }
}

template void encode_rows(const storage::Table&, storage::RowIndex,
                          std::size_t, ByteWriter&);
template void encode_rows(const storage::Table&, storage::RowIndex,
                          std::size_t, ByteCounter&);
template void encode_rows(const storage::Table&, storage::RowIndex,
                          std::size_t, StreamWriter&);

Status decode_rows(ByteReader& r, std::uint64_t nrows,
                   const storage::Table& table, storage::TableAppender& out) {
  const std::size_t ncols = table.num_columns();
  // A cell is at least its tag byte, and a table without columns has no
  // rows: check the row count before staging anything.
  if (nrows > (ncols == 0 ? 0 : r.remaining() / ncols)) {
    return r.error("row count " + std::to_string(nrows) +
                   " exceeds remaining " + std::to_string(r.remaining()) +
                   " bytes");
  }
  for (std::uint64_t row = 0; row < nrows; ++row) {
    const std::size_t row_at = r.pos();
    for (storage::ColumnIndex c = 0; c < ncols; ++c) {
      GEMS_ASSIGN_OR_RETURN(std::uint8_t tag, r.u8());
      if (tag == kNullTag) {
        out.put_null(c);
        continue;
      }
      if (tag > kMaxTag) {  // reported at the tag byte, as decode_value does
        return r.error_at(r.pos() - 1, "bad value tag " + std::to_string(tag));
      }
      const auto kind = static_cast<TypeKind>(tag - 1);
      std::string_view s;
      if (kind == TypeKind::kVarchar) {
        GEMS_ASSIGN_OR_RETURN(s, r.str_view());
      }
      const Status checked = table.check_cell(c, kind, s);
      if (!checked.is_ok()) return r.error_at(row_at, checked.message());
      switch (kind) {
        case TypeKind::kBool: {
          GEMS_ASSIGN_OR_RETURN(bool v, r.boolean());
          out.put_bool(c, v);
          break;
        }
        case TypeKind::kInt64:
        case TypeKind::kDate: {
          GEMS_ASSIGN_OR_RETURN(std::int64_t v, r.i64());
          // check_cell let an int64 into a double column: promote it.
          if (table.schema().column(c).type.kind == TypeKind::kDouble) {
            out.put_double(c, static_cast<double>(v));
          } else {
            out.put_int64(c, v);
          }
          break;
        }
        case TypeKind::kDouble: {
          GEMS_ASSIGN_OR_RETURN(double v, r.f64());
          out.put_double(c, v);
          break;
        }
        case TypeKind::kVarchar:
          out.put_string(c, s);
          break;
      }
    }
    out.end_row();
  }
  return Status::ok();
}

std::vector<std::uint8_t> encode_params(const relational::ParamMap& params) {
  std::vector<std::uint8_t> out;
  ByteWriter w(out);
  w.u32(static_cast<std::uint32_t>(params.size()));
  for (const auto& [name, value] : params) {
    w.str(name);
    encode_value(value, w);
  }
  return out;
}

Result<relational::ParamMap> decode_params(
    std::span<const std::uint8_t> bytes) {
  ByteReader r = ir_reader(bytes);
  // An entry is at least a 4-byte name length and a 1-byte value tag.
  GEMS_ASSIGN_OR_RETURN(std::uint32_t n, r.count("parameter map", 5));
  relational::ParamMap params;
  for (std::uint32_t i = 0; i < n; ++i) {
    GEMS_ASSIGN_OR_RETURN(std::string name, r.str());
    GEMS_ASSIGN_OR_RETURN(Value value, decode_value(r));
    params.insert_or_assign(std::move(name), std::move(value));
  }
  GEMS_RETURN_IF_ERROR(r.expect_end("parameter map"));
  return params;
}

}  // namespace gems::graql
