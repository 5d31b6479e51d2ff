#include "graql/parser.hpp"

#include <algorithm>
#include <optional>

#include "common/check.hpp"
#include "graql/lexer.hpp"
#include "storage/type.hpp"

namespace gems::graql {

namespace {

using relational::BinaryOp;
using relational::Expr;
using relational::ExprPtr;
using relational::UnaryOp;
using storage::Value;

class Parser {
 public:
  explicit Parser(std::vector<Token> tokens) : tokens_(std::move(tokens)) {}

  Result<Script> parse_script() {
    Script script;
    while (!at_eof()) {
      while (accept(TokenKind::kSemicolon)) {
      }
      if (at_eof()) break;
      GEMS_ASSIGN_OR_RETURN(Statement stmt, parse_statement());
      script.statements.push_back(std::move(stmt));
    }
    return script;
  }

  Result<Statement> parse_statement() {
    const Token& start = peek();
    Result<Statement> stmt = parse_statement_dispatch();
    if (stmt.is_ok()) {
      // Every statement carries the span from its first to its last token.
      std::visit([&](auto& s) { s.span = span_from(start); },
                 stmt.value());
    }
    return stmt;
  }

  /// Error-collecting variant: records each statement's parse error into
  /// `diags` and re-synchronizes at the next ';' (see parser.hpp).
  Script parse_script_collect(DiagnosticEngine& diags) {
    Script script;
    while (!at_eof()) {
      while (accept(TokenKind::kSemicolon)) {
      }
      if (at_eof()) break;
      Result<Statement> stmt = parse_statement();
      if (stmt.is_ok()) {
        script.statements.push_back(std::move(stmt).value());
        continue;
      }
      diags.error(DiagCode::kParseError, stmt.status().code(),
                  last_error_span_, stmt.status().message());
      while (!at_eof() && !check(TokenKind::kSemicolon)) advance();
    }
    return script;
  }

  bool at_eof() const { return peek().kind == TokenKind::kEof; }

 private:
  // ---- token plumbing -------------------------------------------------
  const Token& peek(std::size_t off = 0) const {
    const std::size_t i = std::min(pos_ + off, tokens_.size() - 1);
    return tokens_[i];
  }
  const Token& advance() { return tokens_[std::min(pos_++, tokens_.size() - 1)]; }
  bool check(TokenKind kind) const { return peek().kind == kind; }
  bool check_keyword(std::string_view kw) const { return peek().is_keyword(kw); }
  bool accept(TokenKind kind) {
    if (!check(kind)) return false;
    advance();
    return true;
  }
  bool accept_keyword(std::string_view kw) {
    if (!check_keyword(kw)) return false;
    advance();
    return true;
  }
  /// Last consumed token (the start token before anything was consumed).
  const Token& prev() const { return tokens_[pos_ > 0 ? pos_ - 1 : 0]; }
  /// Span from `start`'s first character to the end of the last consumed
  /// token.
  SourceSpan span_from(const Token& start) const {
    SourceSpan span = start.span();
    const Token& last = prev();
    span.end_line = static_cast<std::uint32_t>(last.end_line);
    span.end_column = static_cast<std::uint32_t>(last.end_column);
    return span;
  }
  Status error(std::string msg) const {
    const Token& t = peek();
    last_error_span_ = t.span();
    return parse_error(msg + " (found " +
                       std::string(token_kind_name(t.kind)) +
                       (t.text.empty() ? "" : " '" + t.text + "'") +
                       " at line " + std::to_string(t.line) + ":" +
                       std::to_string(t.column) + ")");
  }
  Status expect(TokenKind kind, std::string what) {
    if (accept(kind)) return Status::ok();
    return error("expected " + what);
  }
  Status expect_keyword(std::string_view kw) {
    if (accept_keyword(kw)) return Status::ok();
    return error("expected '" + std::string(kw) + "'");
  }
  Result<std::string> expect_ident(std::string what) {
    if (!check(TokenKind::kIdent)) return error("expected " + what);
    return advance().text;
  }

  Result<Statement> parse_statement_dispatch() {
    const Token& t = peek();
    if (t.is_keyword("create")) return parse_create();
    if (t.is_keyword("ingest")) return parse_ingest();
    if (t.is_keyword("output")) return parse_output();
    if (t.is_keyword("select")) return parse_select();
    return error("expected 'create', 'ingest', 'output' or 'select'");
  }

  // ---- DDL -------------------------------------------------------------
  Result<Statement> parse_create() {
    GEMS_RETURN_IF_ERROR(expect_keyword("create"));
    if (accept_keyword("table")) return parse_create_table();
    if (accept_keyword("vertex")) return parse_create_vertex();
    if (accept_keyword("edge")) return parse_create_edge();
    return error("expected 'table', 'vertex' or 'edge' after 'create'");
  }

  Result<Statement> parse_create_table() {
    CreateTableStmt stmt;
    GEMS_ASSIGN_OR_RETURN(stmt.name, expect_ident("table name"));
    GEMS_RETURN_IF_ERROR(expect(TokenKind::kLParen, "'('"));
    do {
      storage::ColumnDef def;
      GEMS_ASSIGN_OR_RETURN(def.name, expect_ident("column name"));
      GEMS_ASSIGN_OR_RETURN(def.type, parse_type());
      stmt.columns.push_back(std::move(def));
    } while (accept(TokenKind::kComma));
    GEMS_RETURN_IF_ERROR(expect(TokenKind::kRParen, "')'"));
    return Statement(std::move(stmt));
  }

  Result<storage::DataType> parse_type() {
    if (!check(TokenKind::kIdent)) return error("expected a type name");
    std::string name = advance().text;
    if (accept(TokenKind::kLParen)) {
      if (!check(TokenKind::kInt)) return error("expected a length");
      name += "(" + advance().text + ")";
      GEMS_RETURN_IF_ERROR(expect(TokenKind::kRParen, "')'"));
    }
    return storage::parse_data_type(name);
  }

  Result<Statement> parse_create_vertex() {
    CreateVertexStmt stmt;
    GEMS_ASSIGN_OR_RETURN(stmt.decl.name, expect_ident("vertex type name"));
    GEMS_RETURN_IF_ERROR(expect(TokenKind::kLParen, "'('"));
    do {
      GEMS_ASSIGN_OR_RETURN(std::string key, expect_ident("key column"));
      stmt.decl.key_columns.push_back(std::move(key));
    } while (accept(TokenKind::kComma));
    GEMS_RETURN_IF_ERROR(expect(TokenKind::kRParen, "')'"));
    GEMS_RETURN_IF_ERROR(expect_keyword("from"));
    GEMS_RETURN_IF_ERROR(expect_keyword("table"));
    GEMS_ASSIGN_OR_RETURN(stmt.decl.table, expect_ident("table name"));
    if (accept_keyword("where")) {
      GEMS_ASSIGN_OR_RETURN(stmt.decl.where, parse_expr());
    }
    return Statement(std::move(stmt));
  }

  Result<Statement> parse_create_edge() {
    CreateEdgeStmt stmt;
    GEMS_ASSIGN_OR_RETURN(stmt.decl.name, expect_ident("edge type name"));
    GEMS_RETURN_IF_ERROR(expect_keyword("with"));
    GEMS_RETURN_IF_ERROR(expect_keyword("vertices"));
    GEMS_RETURN_IF_ERROR(expect(TokenKind::kLParen, "'('"));
    auto parse_endpoint = [&]() -> Result<graph::EdgeEndpoint> {
      graph::EdgeEndpoint ep;
      GEMS_ASSIGN_OR_RETURN(ep.vertex_type, expect_ident("vertex type"));
      if (accept_keyword("as")) {
        GEMS_ASSIGN_OR_RETURN(ep.alias, expect_ident("alias"));
      }
      return ep;
    };
    GEMS_ASSIGN_OR_RETURN(stmt.decl.source, parse_endpoint());
    GEMS_RETURN_IF_ERROR(expect(TokenKind::kComma, "','"));
    GEMS_ASSIGN_OR_RETURN(stmt.decl.target, parse_endpoint());
    GEMS_RETURN_IF_ERROR(expect(TokenKind::kRParen, "')'"));
    if (accept_keyword("from")) {
      GEMS_RETURN_IF_ERROR(expect_keyword("table"));
      do {
        GEMS_ASSIGN_OR_RETURN(std::string name, expect_ident("table name"));
        stmt.decl.assoc_tables.push_back(std::move(name));
      } while (accept(TokenKind::kComma));
    }
    GEMS_RETURN_IF_ERROR(expect_keyword("where"));
    GEMS_ASSIGN_OR_RETURN(stmt.decl.where, parse_expr());
    return Statement(std::move(stmt));
  }

  Result<Statement> parse_ingest() {
    GEMS_RETURN_IF_ERROR(expect_keyword("ingest"));
    GEMS_RETURN_IF_ERROR(expect_keyword("table"));
    IngestStmt stmt;
    GEMS_ASSIGN_OR_RETURN(stmt.table, expect_ident("table name"));
    GEMS_ASSIGN_OR_RETURN(stmt.path, parse_file_path());
    if (accept_keyword("with")) {
      GEMS_ASSIGN_OR_RETURN(std::string opt, expect_ident("'header'"));
      if (opt != "header") return error("expected 'header' after 'with'");
      stmt.has_header = true;
    }
    return Statement(std::move(stmt));
  }

  Result<Statement> parse_output() {
    GEMS_RETURN_IF_ERROR(expect_keyword("output"));
    GEMS_RETURN_IF_ERROR(expect_keyword("table"));
    OutputStmt stmt;
    GEMS_ASSIGN_OR_RETURN(stmt.table, expect_ident("table name"));
    GEMS_ASSIGN_OR_RETURN(stmt.path, parse_file_path());
    return Statement(std::move(stmt));
  }

  /// A file path is either a quoted string or a bare word like
  /// products.csv (the paper's Sec. II-A2 example is unquoted).
  Result<std::string> parse_file_path() {
    if (check(TokenKind::kString)) return advance().text;
    if (!check(TokenKind::kIdent)) {
      return error("expected a file name (quote paths with '/')");
    }
    std::string path = advance().text;
    while (accept(TokenKind::kDot)) {
      if (!check(TokenKind::kIdent) && !check(TokenKind::kKeyword)) {
        return error("expected a file-name component after '.'");
      }
      path += "." + advance().text;
    }
    return path;
  }

  // ---- SELECT dispatch ---------------------------------------------------
  Result<Statement> parse_select() {
    GEMS_RETURN_IF_ERROR(expect_keyword("select"));

    std::uint64_t top_n = 0;
    bool distinct = false;
    if (accept_keyword("top")) {
      if (!check(TokenKind::kInt)) return error("expected a count after 'top'");
      // A top_n of 0 means "no top", so the count must be at least 1.
      if (peek().ival < 1) return error("'top' needs a count of at least 1");
      top_n = static_cast<std::uint64_t>(advance().ival);
    }
    if (accept_keyword("distinct")) distinct = true;

    std::vector<SelectItem> items;
    do {
      GEMS_ASSIGN_OR_RETURN(SelectItem item, parse_select_item());
      items.push_back(std::move(item));
    } while (accept(TokenKind::kComma));

    GEMS_RETURN_IF_ERROR(expect_keyword("from"));
    if (accept_keyword("graph")) {
      if (top_n != 0 || distinct) {
        return error(
            "'top'/'distinct' apply to table queries; post-process graph "
            "results via 'into table'");
      }
      return parse_graph_query(std::move(items));
    }
    if (accept_keyword("table")) {
      return parse_table_query(std::move(items), top_n, distinct);
    }
    return error("expected 'graph' or 'table' after 'from'");
  }

  Result<SelectItem> parse_select_item() {
    const Token& start = peek();
    SelectItem item;
    if (accept(TokenKind::kStar)) {
      item.star = true;
      item.span = span_from(start);
      return item;
    }
    if (check_keyword("count") || check_keyword("sum") ||
        check_keyword("avg") || check_keyword("min") || check_keyword("max")) {
      const std::string fn = advance().text;
      GEMS_RETURN_IF_ERROR(expect(TokenKind::kLParen, "'('"));
      if (fn == "count" && accept(TokenKind::kStar)) {
        item.agg = AggFunc::kCountStar;
      } else {
        GEMS_ASSIGN_OR_RETURN(item.expr, parse_expr());
        item.agg = fn == "count" ? AggFunc::kCount
                   : fn == "sum" ? AggFunc::kSum
                   : fn == "avg" ? AggFunc::kAvg
                   : fn == "min" ? AggFunc::kMin
                                 : AggFunc::kMax;
      }
      GEMS_RETURN_IF_ERROR(expect(TokenKind::kRParen, "')'"));
    } else {
      GEMS_ASSIGN_OR_RETURN(item.expr, parse_expr());
    }
    if (accept_keyword("as")) {
      GEMS_ASSIGN_OR_RETURN(item.alias, expect_ident("alias"));
    }
    item.span = span_from(start);
    return item;
  }

  // ---- Graph queries -------------------------------------------------------
  Result<Statement> parse_graph_query(std::vector<SelectItem> items) {
    GraphQueryStmt stmt;
    // Convert generic select items to graph targets: only `*`,
    // `qualifier`, `qualifier.column` are legal on graph queries.
    for (auto& item : items) {
      SelectTarget target;
      if (item.star) {
        target.star = true;
      } else if (item.agg != AggFunc::kNone) {
        return error(
            "aggregates are not allowed in graph queries; select into a "
            "table and aggregate there (paper Fig. 6)");
      } else if (item.expr->kind == Expr::Kind::kColumnRef) {
        if (item.expr->qualifier.empty()) {
          target.qualifier = item.expr->column;  // whole-step selection
        } else {
          target.qualifier = item.expr->qualifier;
          target.column = item.expr->column;
        }
      } else {
        return error("graph queries select steps or step attributes");
      }
      target.alias = std::move(item.alias);
      target.span = item.span;
      stmt.targets.push_back(std::move(target));
    }

    // or-composition of and-compositions of paths (Sec. II-B3).
    do {
      std::vector<PathPattern> and_group;
      do {
        GEMS_ASSIGN_OR_RETURN(PathPattern path, parse_path_pattern());
        and_group.push_back(std::move(path));
      } while (accept_keyword("and"));
      stmt.or_groups.push_back(std::move(and_group));
    } while (accept_keyword("or"));

    if (accept_keyword("into")) {
      if (accept_keyword("subgraph")) {
        stmt.into = IntoKind::kSubgraph;
      } else if (accept_keyword("table")) {
        stmt.into = IntoKind::kTable;
      } else {
        return error("expected 'subgraph' or 'table' after 'into'");
      }
      GEMS_ASSIGN_OR_RETURN(stmt.into_name, expect_ident("result name"));
    }
    return Statement(std::move(stmt));
  }

  Result<PathPattern> parse_path_pattern() {
    // A whole path may be parenthesized: `and (y --type--> TypeVtx)`.
    if (check(TokenKind::kLParen)) {
      advance();
      GEMS_ASSIGN_OR_RETURN(PathPattern inner, parse_path_pattern());
      GEMS_RETURN_IF_ERROR(expect(TokenKind::kRParen, "')' closing the path"));
      return inner;
    }
    PathPattern path;
    GEMS_ASSIGN_OR_RETURN(VertexStep first, parse_vertex_step());
    path.elements.emplace_back(std::move(first));
    for (;;) {
      if (check(TokenKind::kDashDash) || check(TokenKind::kArrowLeft)) {
        GEMS_ASSIGN_OR_RETURN(EdgeStep edge, parse_edge_step());
        path.elements.emplace_back(std::move(edge));
        GEMS_ASSIGN_OR_RETURN(VertexStep vertex, parse_vertex_step());
        path.elements.emplace_back(std::move(vertex));
        continue;
      }
      if (check(TokenKind::kLParen) &&
          (peek(1).kind == TokenKind::kDashDash ||
           peek(1).kind == TokenKind::kArrowLeft)) {
        GEMS_ASSIGN_OR_RETURN(PathGroup group, parse_path_group());
        path.elements.emplace_back(std::move(group));
        continue;
      }
      break;
    }
    return path;
  }

  Result<PathGroup> parse_path_group() {
    const Token& start = peek();
    GEMS_RETURN_IF_ERROR(expect(TokenKind::kLParen, "'('"));
    PathGroup group;
    // Body: (edge vertex)+ — starts with an edge so that repeating the
    // group after a vertex keeps the alternation valid (Fig. 10).
    do {
      GEMS_ASSIGN_OR_RETURN(EdgeStep edge, parse_edge_step());
      group.body.emplace_back(std::move(edge));
      GEMS_ASSIGN_OR_RETURN(VertexStep vertex, parse_vertex_step());
      group.body.emplace_back(std::move(vertex));
    } while (check(TokenKind::kDashDash) || check(TokenKind::kArrowLeft));
    GEMS_RETURN_IF_ERROR(expect(TokenKind::kRParen, "')'"));

    if (accept(TokenKind::kStar)) {
      group.quant = PathGroup::Quant::kStar;
    } else if (accept(TokenKind::kPlus)) {
      group.quant = PathGroup::Quant::kPlus;
    } else if (accept(TokenKind::kLBrace)) {
      if (!check(TokenKind::kInt)) return error("expected a repeat count");
      group.quant = PathGroup::Quant::kExact;
      group.count = static_cast<std::uint32_t>(advance().ival);
      GEMS_RETURN_IF_ERROR(expect(TokenKind::kRBrace, "'}'"));
    } else {
      return error("expected '*', '+' or '{n}' after a path group");
    }
    group.span = span_from(start);
    return group;
  }

  Result<std::pair<LabelKind, std::string>> parse_optional_label() {
    LabelKind kind = LabelKind::kNone;
    if (accept_keyword("def")) {
      kind = LabelKind::kSet;
    } else if (accept_keyword("foreach")) {
      kind = LabelKind::kForeach;
    } else {
      return std::make_pair(kind, std::string());
    }
    GEMS_ASSIGN_OR_RETURN(std::string label, expect_ident("label name"));
    GEMS_RETURN_IF_ERROR(expect(TokenKind::kColon, "':' after the label"));
    return std::make_pair(kind, std::move(label));
  }

  Result<VertexStep> parse_vertex_step() {
    const Token& start = peek();
    VertexStep step;
    GEMS_ASSIGN_OR_RETURN(auto label, parse_optional_label());
    step.label_kind = label.first;
    step.label = std::move(label.second);

    if (accept(TokenKind::kLBracket)) {
      GEMS_RETURN_IF_ERROR(expect(TokenKind::kRBracket, "']'"));
      step.variant = true;
    } else {
      GEMS_ASSIGN_OR_RETURN(std::string name,
                            expect_ident("a vertex type, label or '[ ]'"));
      if (accept(TokenKind::kDot)) {
        // resQ1.Vn — seed from a previous result (Fig. 12).
        step.seed_result = std::move(name);
        GEMS_ASSIGN_OR_RETURN(step.type_name, expect_ident("vertex type"));
      } else {
        step.type_name = std::move(name);
      }
    }
    GEMS_ASSIGN_OR_RETURN(step.condition, parse_optional_condition());
    if (step.variant && step.condition) {
      return error(
          "conditions are not allowed on variant '[ ]' steps (attributes "
          "are not common across matching types)");
    }
    step.span = span_from(start);
    return step;
  }

  Result<EdgeStep> parse_edge_step() {
    const Token& start = peek();
    EdgeStep step;
    if (accept(TokenKind::kArrowLeft)) {
      step.reversed = true;  // <--e--
    } else {
      GEMS_RETURN_IF_ERROR(expect(TokenKind::kDashDash, "'--' or '<--'"));
    }
    GEMS_ASSIGN_OR_RETURN(auto label, parse_optional_label());
    step.label_kind = label.first;
    step.label = std::move(label.second);

    if (accept(TokenKind::kLBracket)) {
      GEMS_RETURN_IF_ERROR(expect(TokenKind::kRBracket, "']'"));
      step.variant = true;
    } else {
      GEMS_ASSIGN_OR_RETURN(step.type_name, expect_ident("an edge type"));
    }
    GEMS_ASSIGN_OR_RETURN(step.condition, parse_optional_condition());
    if (step.variant && step.condition) {
      return error("conditions are not allowed on variant '[ ]' steps");
    }
    if (step.reversed) {
      GEMS_RETURN_IF_ERROR(expect(TokenKind::kDashDash, "'--' closing the edge"));
    } else {
      GEMS_RETURN_IF_ERROR(
          expect(TokenKind::kArrowRight, "'-->' closing the edge"));
    }
    step.span = span_from(start);
    return step;
  }

  /// `( expr )` or `( )` or nothing.
  Result<ExprPtr> parse_optional_condition() {
    if (!check(TokenKind::kLParen)) return ExprPtr(nullptr);
    // Do not swallow a following regex group: a '(' directly followed by
    // '--' or '<--' belongs to the path, not to this step.
    if (peek(1).kind == TokenKind::kDashDash ||
        peek(1).kind == TokenKind::kArrowLeft) {
      return ExprPtr(nullptr);
    }
    advance();
    if (accept(TokenKind::kRParen)) return ExprPtr(nullptr);  // "( )"
    GEMS_ASSIGN_OR_RETURN(ExprPtr cond, parse_expr());
    GEMS_RETURN_IF_ERROR(expect(TokenKind::kRParen, "')'"));
    return cond;
  }

  // ---- Table queries --------------------------------------------------------
  Result<Statement> parse_table_query(std::vector<SelectItem> items,
                                      std::uint64_t top_n, bool distinct) {
    TableQueryStmt stmt;
    stmt.items = std::move(items);
    stmt.top_n = top_n;
    stmt.distinct = distinct;
    GEMS_ASSIGN_OR_RETURN(stmt.from_table, expect_ident("table name"));
    if (accept_keyword("where")) {
      GEMS_ASSIGN_OR_RETURN(stmt.where, parse_expr());
    }
    if (accept_keyword("group")) {
      GEMS_RETURN_IF_ERROR(expect_keyword("by"));
      do {
        GEMS_ASSIGN_OR_RETURN(std::string col, expect_ident("column"));
        stmt.group_by.push_back(std::move(col));
      } while (accept(TokenKind::kComma));
    }
    if (accept_keyword("order")) {
      GEMS_RETURN_IF_ERROR(expect_keyword("by"));
      do {
        const Token& ostart = peek();
        OrderItem item;
        GEMS_ASSIGN_OR_RETURN(item.column, expect_ident("column"));
        if (accept_keyword("desc")) {
          item.descending = true;
        } else {
          accept_keyword("asc");
        }
        item.span = span_from(ostart);
        stmt.order_by.push_back(std::move(item));
      } while (accept(TokenKind::kComma));
    }
    if (accept_keyword("into")) {
      GEMS_RETURN_IF_ERROR(expect_keyword("table"));
      stmt.into = IntoKind::kTable;
      GEMS_ASSIGN_OR_RETURN(stmt.into_name, expect_ident("result name"));
    }
    return Statement(std::move(stmt));
  }

  // ---- Expressions ----------------------------------------------------------
  // Trees stay within relational::kMaxExprDepth: `not`, unary minus and
  // parentheses recurse through nested(), which bounds the recursion, and
  // every operator node is built through unary() or binary(), which bound
  // the tree (operator chains grow it in a loop, without recursing).
  Result<ExprPtr> parse_expr() { return parse_or(); }

  Status too_deep() const {
    return error("expression nested deeper than " +
                 std::to_string(relational::kMaxExprDepth) + " levels");
  }

  template <typename Parse>
  Result<ExprPtr> nested(Parse parse) {
    if (expr_nesting_ >= relational::kMaxExprDepth) return too_deep();
    ++expr_nesting_;
    Result<ExprPtr> operand = parse();
    --expr_nesting_;
    return operand;
  }

  Result<ExprPtr> unary(UnaryOp op, ExprPtr operand) {
    if (operand->depth >= relational::kMaxExprDepth) return too_deep();
    return Expr::make_unary(op, std::move(operand));
  }

  Result<ExprPtr> binary(BinaryOp op, ExprPtr lhs, ExprPtr rhs) {
    if (std::max(lhs->depth, rhs->depth) >= relational::kMaxExprDepth) {
      return too_deep();
    }
    return Expr::make_binary(op, std::move(lhs), std::move(rhs));
  }

  Result<ExprPtr> parse_or() {
    GEMS_ASSIGN_OR_RETURN(ExprPtr lhs, parse_and());
    while (accept_keyword("or")) {
      GEMS_ASSIGN_OR_RETURN(ExprPtr rhs, parse_and());
      GEMS_ASSIGN_OR_RETURN(
          lhs, binary(BinaryOp::kOr, std::move(lhs), std::move(rhs)));
    }
    return lhs;
  }

  Result<ExprPtr> parse_and() {
    GEMS_ASSIGN_OR_RETURN(ExprPtr lhs, parse_not());
    while (accept_keyword("and")) {
      GEMS_ASSIGN_OR_RETURN(ExprPtr rhs, parse_not());
      GEMS_ASSIGN_OR_RETURN(
          lhs, binary(BinaryOp::kAnd, std::move(lhs), std::move(rhs)));
    }
    return lhs;
  }

  Result<ExprPtr> parse_not() {
    if (accept_keyword("not")) {
      GEMS_ASSIGN_OR_RETURN(ExprPtr operand,
                            nested([this] { return parse_not(); }));
      return unary(UnaryOp::kNot, std::move(operand));
    }
    return parse_comparison();
  }

  Result<ExprPtr> parse_comparison() {
    GEMS_ASSIGN_OR_RETURN(ExprPtr lhs, parse_additive());
    std::optional<BinaryOp> op;
    switch (peek().kind) {
      case TokenKind::kEq:
        op = BinaryOp::kEq;
        break;
      case TokenKind::kNe:
        op = BinaryOp::kNe;
        break;
      case TokenKind::kLt:
        op = BinaryOp::kLt;
        break;
      case TokenKind::kLe:
        op = BinaryOp::kLe;
        break;
      case TokenKind::kGt:
        op = BinaryOp::kGt;
        break;
      case TokenKind::kGe:
        op = BinaryOp::kGe;
        break;
      default:
        break;
    }
    if (!op) return lhs;
    advance();
    GEMS_ASSIGN_OR_RETURN(ExprPtr rhs, parse_additive());
    return binary(*op, std::move(lhs), std::move(rhs));
  }

  Result<ExprPtr> parse_additive() {
    GEMS_ASSIGN_OR_RETURN(ExprPtr lhs, parse_multiplicative());
    for (;;) {
      if (accept(TokenKind::kPlus)) {
        GEMS_ASSIGN_OR_RETURN(ExprPtr rhs, parse_multiplicative());
        GEMS_ASSIGN_OR_RETURN(
            lhs, binary(BinaryOp::kAdd, std::move(lhs), std::move(rhs)));
      } else if (accept(TokenKind::kMinus)) {
        GEMS_ASSIGN_OR_RETURN(ExprPtr rhs, parse_multiplicative());
        GEMS_ASSIGN_OR_RETURN(
            lhs, binary(BinaryOp::kSub, std::move(lhs), std::move(rhs)));
      } else {
        return lhs;
      }
    }
  }

  Result<ExprPtr> parse_multiplicative() {
    GEMS_ASSIGN_OR_RETURN(ExprPtr lhs, parse_unary());
    for (;;) {
      if (accept(TokenKind::kStar)) {
        GEMS_ASSIGN_OR_RETURN(ExprPtr rhs, parse_unary());
        GEMS_ASSIGN_OR_RETURN(
            lhs, binary(BinaryOp::kMul, std::move(lhs), std::move(rhs)));
      } else if (accept(TokenKind::kSlash)) {
        GEMS_ASSIGN_OR_RETURN(ExprPtr rhs, parse_unary());
        GEMS_ASSIGN_OR_RETURN(
            lhs, binary(BinaryOp::kDiv, std::move(lhs), std::move(rhs)));
      } else {
        return lhs;
      }
    }
  }

  Result<ExprPtr> parse_unary() {
    if (accept(TokenKind::kMinus)) {
      GEMS_ASSIGN_OR_RETURN(ExprPtr operand,
                            nested([this] { return parse_unary(); }));
      return unary(UnaryOp::kNeg, std::move(operand));
    }
    return parse_primary();
  }

  Result<ExprPtr> parse_primary() {
    const Token& t = peek();
    switch (t.kind) {
      case TokenKind::kInt: {
        advance();
        return spanned_literal(Value::int64(t.ival), t);
      }
      case TokenKind::kFloat: {
        advance();
        return spanned_literal(Value::float64(t.fval), t);
      }
      case TokenKind::kString: {
        advance();
        return spanned_literal(Value::varchar(t.text), t);
      }
      case TokenKind::kParam: {
        advance();
        return Expr::make_parameter(
            t.text, static_cast<std::uint32_t>(t.line),
            static_cast<std::uint32_t>(t.column),
            static_cast<std::uint32_t>(t.end_line),
            static_cast<std::uint32_t>(t.end_column));
      }
      case TokenKind::kKeyword: {
        if (t.text == "null") {
          advance();
          return spanned_literal(Value::null(), t);
        }
        if (t.text == "true" || t.text == "false") {
          advance();
          return spanned_literal(Value::boolean(t.text == "true"), t);
        }
        return error("unexpected keyword in expression");
      }
      case TokenKind::kLParen: {
        advance();
        GEMS_ASSIGN_OR_RETURN(ExprPtr inner,
                              nested([this] { return parse_expr(); }));
        GEMS_RETURN_IF_ERROR(expect(TokenKind::kRParen, "')'"));
        return inner;
      }
      case TokenKind::kIdent: {
        // `date '2008-06-20'` — contextual date literal.
        if ((t.text == "date" || t.text == "DATE" || t.text == "Date") &&
            peek(1).kind == TokenKind::kString) {
          advance();
          const Token& s = advance();
          auto days = storage::parse_date(s.text);
          if (!days.is_ok()) return days.status();
          return Expr::make_literal(Value::date(days.value()),
                                    static_cast<std::uint32_t>(t.line),
                                    static_cast<std::uint32_t>(t.column),
                                    static_cast<std::uint32_t>(s.end_line),
                                    static_cast<std::uint32_t>(s.end_column));
        }
        advance();
        std::string first = t.text;
        if (accept(TokenKind::kDot)) {
          GEMS_ASSIGN_OR_RETURN(std::string col,
                                expect_ident("attribute name"));
          const Token& last = prev();
          return Expr::make_column(std::move(first), std::move(col),
                                   static_cast<std::uint32_t>(t.line),
                                   static_cast<std::uint32_t>(t.column),
                                   static_cast<std::uint32_t>(last.end_line),
                                   static_cast<std::uint32_t>(last.end_column));
        }
        return Expr::make_column("", std::move(first),
                                 static_cast<std::uint32_t>(t.line),
                                 static_cast<std::uint32_t>(t.column),
                                 static_cast<std::uint32_t>(t.end_line),
                                 static_cast<std::uint32_t>(t.end_column));
      }
      default:
        return error("expected an expression");
    }
  }

  static ExprPtr spanned_literal(Value v, const Token& t) {
    return Expr::make_literal(std::move(v), static_cast<std::uint32_t>(t.line),
                              static_cast<std::uint32_t>(t.column),
                              static_cast<std::uint32_t>(t.end_line),
                              static_cast<std::uint32_t>(t.end_column));
  }

  std::vector<Token> tokens_;
  std::size_t pos_ = 0;
  std::uint32_t expr_nesting_ = 0;
  mutable SourceSpan last_error_span_;
};

}  // namespace

Result<Script> parse_script(std::string_view source) {
  GEMS_ASSIGN_OR_RETURN(auto tokens, lex(source));
  Parser parser(std::move(tokens));
  return parser.parse_script();
}

Result<Statement> parse_statement(std::string_view source) {
  GEMS_ASSIGN_OR_RETURN(auto tokens, lex(source));
  Parser parser(std::move(tokens));
  GEMS_ASSIGN_OR_RETURN(Statement stmt, parser.parse_statement());
  if (!parser.at_eof()) {
    return parse_error("trailing input after statement");
  }
  return stmt;
}

Script parse_script_collect(std::string_view source, DiagnosticEngine& diags) {
  SourceSpan lex_span;
  auto tokens = lex(source, &lex_span);
  if (!tokens.is_ok()) {
    // Lexing is not recoverable: the character stream itself is broken.
    diags.error(DiagCode::kLexError, tokens.status().code(), lex_span,
                tokens.status().message());
    return {};
  }
  Parser parser(std::move(tokens).value());
  return parser.parse_script_collect(diags);
}

}  // namespace gems::graql
