// gems::diag — structured diagnostics for the GraQL front half (paper
// Sec. III-A: "queries are statically checked against the catalog before
// any binary IR is shipped").
//
// The pre-diag analyzer was fail-stop: the first problem produced a bare
// `Status` string with no source location and hid every later problem.
// This module is the shared vocabulary that replaces it:
//
//   - `SourceSpan` (graql/token.hpp): 1-based line:col ranges attached to
//     tokens, AST nodes and expressions, and preserved through the binary
//     IR (v2) so a decoded script diagnoses identically to its source.
//   - `Diagnostic`: severity + stable GQLxxxx code + span + message +
//     optional fix-it hint + the legacy StatusCode (for the fail-stop
//     compatibility wrappers).
//   - `DiagnosticEngine`: an append-only collector the lexer, parser and
//     the multi-pass analyzer all report into; one `check` call returns
//     every problem in the script.
//   - A byte codec (`encode_diagnostics`/`decode_diagnostics`) so the net
//     `check` verb ships the exact structured list, and a renderer for
//     the shell's `\lint` (`file:line:col: warning[GQL0042]: ...`).
//
// Code blocks (stable; new codes append within their block):
//   GQL00xx  lexical / syntactic
//   GQL01xx  name resolution and entity kinds
//   GQL02xx  typing
//   GQL004x  pass 1: statically-empty matches (type intersections)
//   GQL005x  pass 2: constant-folded predicates
//   GQL006x  pass 3: label / capture analysis
//   GQL007x  pass 4: regex-closure cost (needs catalog degree stats)
//   GQL008x  pass 5: cross-statement dependences (feeds plan::schedule)
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "common/status.hpp"
#include "graql/token.hpp"
#include "relational/bound_expr.hpp"

namespace gems::graql {

enum class Severity : std::uint8_t {
  kError = 0,
  kWarning = 1,
  kNote = 2,
};

std::string_view severity_name(Severity severity) noexcept;

/// Stable diagnostic codes. The numeric value is the wire value and the
/// printed `GQLxxxx` number — never renumber an existing entry.
enum class DiagCode : std::uint16_t {
  // Lexical / syntactic.
  kLexError = 1,            // GQL0001
  kParseError = 2,          // GQL0002

  // Name resolution and entity kinds.
  kUnknownName = 100,       // GQL0100 unknown table/vertex/edge/subgraph
  kWrongEntityKind = 101,   // GQL0101 e.g. a table used as a vertex type
  kNameInUse = 102,         // GQL0102 duplicate catalog definition
  kUnknownAttribute = 103,  // GQL0103 unknown column / attribute
  kBadStructure = 104,      // GQL0104 malformed statement shape
  kBadParameter = 105,      // GQL0105 missing/ill-typed %param%, or one
                            // in a vertex/edge declaration
  kIntoDeclaredTable = 106,  // GQL0106 `into table` replaces a table that
                             // a vertex/edge declaration reads

  // Typing.
  kTypeMismatch = 200,      // GQL0200 incomparable operand types
  kNotBoolean = 201,        // GQL0201 condition is not boolean
  kBadAggregate = 202,      // GQL0202 aggregate misuse

  // Pass 1: statically-empty matches.
  kNoEdgeBetween = 40,      // GQL0040 no edge type connects the endpoints
  kEndpointMismatch = 41,   // GQL0041 edge endpoints contradict step types
  kEmptyIntersection = 42,  // GQL0042 `[ ]` step pinched to the empty set
  kClosureCannotRepeat = 43,  // GQL0043 closure body cannot chain (warning)

  // Pass 2: constant folding.
  kAlwaysFalse = 50,        // GQL0050 predicate is constantly false
  kAlwaysTrue = 51,         // GQL0051 predicate is constantly true

  // Pass 3: labels and captures.
  kUnusedLabel = 60,        // GQL0060 `def`/`foreach` label never used
  kDuplicateLabel = 61,     // GQL0061 label defined twice
  kLabelShadowsType = 62,   // GQL0062 label shadows a catalog name

  // Pass 4: closure cost.
  kCostlyClosure = 70,      // GQL0070 unbounded closure over dense edges

  // Pass 5: cross-statement dependences.
  kUseBeforeIngest = 80,    // GQL0080 query reads a table never ingested
  kOverwrittenResult = 81,  // GQL0081 result rewritten before any read
};

/// "GQL0042"-style rendering of a code.
std::string diag_code_name(DiagCode code);

struct Diagnostic {
  Severity severity = Severity::kError;
  DiagCode code = DiagCode::kParseError;
  /// The Status category a fail-stop caller would have seen; keeps the
  /// legacy `Status`-returning entry points loss-free.
  StatusCode status_code = StatusCode::kInvalidArgument;
  SourceSpan span;
  std::string message;
  /// Optional "how to fix it" hint, rendered on its own line.
  std::string fixit;

  friend bool operator==(const Diagnostic&, const Diagnostic&) = default;
};

/// Collects diagnostics across a whole script. Append-only; insertion
/// order is source order for per-statement passes, with whole-script
/// passes (5) appended after.
class DiagnosticEngine {
 public:
  Diagnostic& report(Severity severity, DiagCode code, StatusCode status_code,
                     SourceSpan span, std::string message);
  Diagnostic& error(DiagCode code, StatusCode status_code, SourceSpan span,
                    std::string message);
  Diagnostic& warning(DiagCode code, SourceSpan span, std::string message);
  Diagnostic& note(DiagCode code, SourceSpan span, std::string message);

  bool has_errors() const { return error_count_ > 0; }
  std::size_t error_count() const { return error_count_; }
  bool empty() const { return diagnostics_.empty(); }
  std::size_t size() const { return diagnostics_.size(); }

  const std::vector<Diagnostic>& diagnostics() const { return diagnostics_; }
  std::vector<Diagnostic> take() { return std::move(diagnostics_); }

  /// First error as a fail-stop Status (OK when there are none). This is
  /// what the legacy `analyze_*`/`check_*` wrappers return, so their
  /// StatusCode and message text are exactly what pre-diag callers saw.
  Status to_status() const;

 private:
  std::vector<Diagnostic> diagnostics_;
  std::size_t error_count_ = 0;
};

/// First error in `diagnostics` as a Status (OK when none).
Status first_error_status(const std::vector<Diagnostic>& diagnostics);

/// `file:line:col: severity[GQL0042]: message` (+ indented fixit line).
/// `file` may be empty (omitted with its colon). `color` adds ANSI codes
/// the way clang does: severities colored, the rest plain.
std::string format_diagnostic(const Diagnostic& diag, std::string_view file,
                              bool color);

/// All diagnostics, one per line, plus a trailing
/// "N error(s), M warning(s)" summary when the list is non-empty.
std::string render_diagnostics(const std::vector<Diagnostic>& diagnostics,
                               std::string_view file, bool color);

// ---- Wire codec ---------------------------------------------------------
// Deterministic byte encoding used by the net `check` verb. Layout:
//   u32 magic 'GQLD', u32 count, then per diagnostic:
//   u8 severity, u16 code, u8 status_code, 4 x u32 span,
//   u32 message-length + bytes, u32 fixit-length + bytes.
// All integers little-endian. decode validates lengths against the
// remaining buffer before allocating (same hostile-input posture as the
// binary IR codec).

std::vector<std::uint8_t> encode_diagnostics(
    const std::vector<Diagnostic>& diagnostics);

Result<std::vector<Diagnostic>> decode_diagnostics(
    std::span<const std::uint8_t> bytes);

// ---- Analyzer options ---------------------------------------------------

/// Per-edge-type degree statistics, as pass 4 consumes them. The planner
/// layer (plan::stats) sits *above* graql in the dependency order, so the
/// analyzer receives stats through this callback instead of including it;
/// Database wires `plan::GraphStats` in (see Database::check).
struct EdgeDegreeInfo {
  std::size_t num_edges = 0;
  double avg_out = 0.0;
  double avg_in = 0.0;
  std::uint32_t max_out = 0;
  std::uint32_t max_in = 0;
};

/// Returns degree stats for an edge type, or nullopt when unknown.
using EdgeStatsFn =
    std::function<std::optional<EdgeDegreeInfo>(const std::string& edge_type)>;

struct AnalyzeOptions {
  /// %param% bindings, when known at check time.
  const relational::ParamMap* params = nullptr;
  /// Catalog degree statistics for pass 4 (empty = pass 4 skipped).
  EdgeStatsFn edge_stats;
  /// Pass 4 thresholds: warn on an unbounded closure whose edge type has
  /// avg degree > `closure_avg_degree_warn` or max degree >
  /// `closure_max_degree_warn` in the traversal direction.
  double closure_avg_degree_warn = 4.0;
  std::uint32_t closure_max_degree_warn = 64;
};

}  // namespace gems::graql
