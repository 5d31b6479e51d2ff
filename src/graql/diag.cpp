#include "graql/diag.hpp"

#include <cstdio>

#include "common/bytes.hpp"

namespace gems::graql {

namespace {

constexpr std::uint32_t kDiagMagic = 0x474C4451;  // "GQLD" little-endian

constexpr std::string_view kAnsiReset = "\x1b[0m";
constexpr std::string_view kAnsiBold = "\x1b[1m";

std::string_view severity_color(Severity severity) {
  switch (severity) {
    case Severity::kError:
      return "\x1b[1;31m";  // bold red
    case Severity::kWarning:
      return "\x1b[1;35m";  // bold magenta (clang's choice)
    case Severity::kNote:
      return "\x1b[1;36m";  // bold cyan
  }
  return "";
}

}  // namespace

std::string_view severity_name(Severity severity) noexcept {
  switch (severity) {
    case Severity::kError:
      return "error";
    case Severity::kWarning:
      return "warning";
    case Severity::kNote:
      return "note";
  }
  return "?";
}

std::string diag_code_name(DiagCode code) {
  const auto value = static_cast<std::uint16_t>(code);
  char buf[sizeof("GQL65535")];  // the widest uint16_t code
  std::snprintf(buf, sizeof(buf), "GQL%04u", static_cast<unsigned>(value));
  return buf;
}

Diagnostic& DiagnosticEngine::report(Severity severity, DiagCode code,
                                     StatusCode status_code, SourceSpan span,
                                     std::string message) {
  Diagnostic d;
  d.severity = severity;
  d.code = code;
  d.status_code = status_code;
  d.span = span;
  d.message = std::move(message);
  if (severity == Severity::kError) ++error_count_;
  diagnostics_.push_back(std::move(d));
  return diagnostics_.back();
}

Diagnostic& DiagnosticEngine::error(DiagCode code, StatusCode status_code,
                                    SourceSpan span, std::string message) {
  return report(Severity::kError, code, status_code, span, std::move(message));
}

Diagnostic& DiagnosticEngine::warning(DiagCode code, SourceSpan span,
                                      std::string message) {
  return report(Severity::kWarning, code, StatusCode::kOk, span,
                std::move(message));
}

Diagnostic& DiagnosticEngine::note(DiagCode code, SourceSpan span,
                                   std::string message) {
  return report(Severity::kNote, code, StatusCode::kOk, span,
                std::move(message));
}

Status DiagnosticEngine::to_status() const {
  return first_error_status(diagnostics_);
}

Status first_error_status(const std::vector<Diagnostic>& diagnostics) {
  for (const Diagnostic& d : diagnostics) {
    if (d.severity != Severity::kError) continue;
    StatusCode code = d.status_code;
    if (code == StatusCode::kOk) code = StatusCode::kInvalidArgument;
    return Status(code, d.message);
  }
  return Status::ok();
}

std::string format_diagnostic(const Diagnostic& diag, std::string_view file,
                              bool color) {
  std::string out;
  if (color) out += kAnsiBold;
  if (!file.empty()) {
    out += file;
    out += ':';
  }
  if (diag.span.known()) {
    out += std::to_string(diag.span.line);
    out += ':';
    out += std::to_string(diag.span.column);
    out += ':';
  }
  if (!out.empty() && out.back() == ':') out += ' ';
  if (color) {
    out += kAnsiReset;
    out += severity_color(diag.severity);
  }
  out += severity_name(diag.severity);
  out += '[';
  out += diag_code_name(diag.code);
  out += ']';
  if (color) out += kAnsiReset;
  out += ": ";
  if (color) out += kAnsiBold;
  out += diag.message;
  if (color) out += kAnsiReset;
  if (!diag.fixit.empty()) {
    out += "\n  fixit: ";
    out += diag.fixit;
  }
  return out;
}

std::string render_diagnostics(const std::vector<Diagnostic>& diagnostics,
                               std::string_view file, bool color) {
  std::string out;
  std::size_t errors = 0;
  std::size_t warnings = 0;
  for (const Diagnostic& d : diagnostics) {
    out += format_diagnostic(d, file, color);
    out += '\n';
    if (d.severity == Severity::kError) ++errors;
    if (d.severity == Severity::kWarning) ++warnings;
  }
  if (!diagnostics.empty()) {
    out += std::to_string(errors) + " error(s), " + std::to_string(warnings) +
           " warning(s)\n";
  }
  return out;
}

// ---- Wire codec ---------------------------------------------------------

std::vector<std::uint8_t> encode_diagnostics(
    const std::vector<Diagnostic>& diagnostics) {
  std::vector<std::uint8_t> out;
  ByteWriter w(out);
  w.u32(kDiagMagic);
  w.u32(static_cast<std::uint32_t>(diagnostics.size()));
  for (const Diagnostic& d : diagnostics) {
    w.u8(static_cast<std::uint8_t>(d.severity));
    w.u16(static_cast<std::uint16_t>(d.code));
    w.u8(static_cast<std::uint8_t>(d.status_code));
    w.u32(d.span.line);
    w.u32(d.span.column);
    w.u32(d.span.end_line);
    w.u32(d.span.end_column);
    w.str(d.message);
    w.str(d.fixit);
  }
  return out;
}

Result<std::vector<Diagnostic>> decode_diagnostics(
    std::span<const std::uint8_t> bytes) {
  ByteReader r(bytes, StatusCode::kParseError, "malformed diagnostics");
  GEMS_ASSIGN_OR_RETURN(std::uint32_t magic, r.u32());
  if (magic != kDiagMagic) return r.error_at(0, "bad magic");
  // Each diagnostic occupies at least 28 bytes; reject hostile counts
  // before allocating.
  GEMS_ASSIGN_OR_RETURN(std::uint32_t count, r.count("diagnostics", 28));
  std::vector<Diagnostic> out;
  out.reserve(count);
  for (std::uint32_t k = 0; k < count; ++k) {
    Diagnostic d;
    GEMS_ASSIGN_OR_RETURN(d.severity, r.enum8(Severity::kNote, "severity"));
    GEMS_ASSIGN_OR_RETURN(std::uint16_t code, r.u16());
    d.code = static_cast<DiagCode>(code);
    GEMS_ASSIGN_OR_RETURN(std::uint8_t status_code, r.u8());
    d.status_code = static_cast<StatusCode>(status_code);
    GEMS_ASSIGN_OR_RETURN(d.span.line, r.u32());
    GEMS_ASSIGN_OR_RETURN(d.span.column, r.u32());
    GEMS_ASSIGN_OR_RETURN(d.span.end_line, r.u32());
    GEMS_ASSIGN_OR_RETURN(d.span.end_column, r.u32());
    GEMS_ASSIGN_OR_RETURN(d.message, r.str());
    GEMS_ASSIGN_OR_RETURN(d.fixit, r.str());
    out.push_back(std::move(d));
  }
  GEMS_RETURN_IF_ERROR(r.expect_end("diagnostics blob"));
  return out;
}

}  // namespace gems::graql
