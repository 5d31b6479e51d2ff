#include "graql/diag.hpp"

#include <cstdio>

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
  if (severity == Severity::kWarning) ++warning_count_;
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

namespace {

void put_u8(std::vector<std::uint8_t>& out, std::uint8_t v) {
  out.push_back(v);
}

void put_u16(std::vector<std::uint8_t>& out, std::uint16_t v) {
  out.push_back(static_cast<std::uint8_t>(v & 0xff));
  out.push_back(static_cast<std::uint8_t>(v >> 8));
}

void put_u32(std::vector<std::uint8_t>& out, std::uint32_t v) {
  for (int shift = 0; shift < 32; shift += 8) {
    out.push_back(static_cast<std::uint8_t>((v >> shift) & 0xff));
  }
}

void put_str(std::vector<std::uint8_t>& out, const std::string& s) {
  put_u32(out, static_cast<std::uint32_t>(s.size()));
  out.insert(out.end(), s.begin(), s.end());
}

#define GEMS_RETURN_IF_SHORT(n)                                              \
  if (remaining() < static_cast<std::size_t>(n)) {                           \
    return parse_error("truncated diagnostics blob at byte " +               \
                       std::to_string(pos_));                                \
  }

class DiagReader {
 public:
  explicit DiagReader(std::span<const std::uint8_t> bytes) : bytes_(bytes) {}

  std::size_t remaining() const { return bytes_.size() - pos_; }
  std::size_t pos() const { return pos_; }

  Result<std::uint8_t> u8() {
    GEMS_RETURN_IF_SHORT(1);
    return bytes_[pos_++];
  }
  Result<std::uint16_t> u16() {
    GEMS_RETURN_IF_SHORT(2);
    std::uint16_t v = static_cast<std::uint16_t>(bytes_[pos_]) |
                      static_cast<std::uint16_t>(bytes_[pos_ + 1]) << 8;
    pos_ += 2;
    return v;
  }
  Result<std::uint32_t> u32() {
    GEMS_RETURN_IF_SHORT(4);
    std::uint32_t v = 0;
    for (int k = 3; k >= 0; --k) {
      v = (v << 8) | bytes_[pos_ + static_cast<std::size_t>(k)];
    }
    pos_ += 4;
    return v;
  }
  Result<std::string> str() {
    GEMS_ASSIGN_OR_RETURN(std::uint32_t len, u32());
    GEMS_RETURN_IF_SHORT(len);
    std::string s(reinterpret_cast<const char*>(bytes_.data() + pos_), len);
    pos_ += len;
    return s;
  }

 private:
  std::span<const std::uint8_t> bytes_;
  std::size_t pos_ = 0;
};

#undef GEMS_RETURN_IF_SHORT

}  // namespace

std::vector<std::uint8_t> encode_diagnostics(
    const std::vector<Diagnostic>& diagnostics) {
  std::vector<std::uint8_t> out;
  put_u32(out, kDiagMagic);
  put_u32(out, static_cast<std::uint32_t>(diagnostics.size()));
  for (const Diagnostic& d : diagnostics) {
    put_u8(out, static_cast<std::uint8_t>(d.severity));
    put_u16(out, static_cast<std::uint16_t>(d.code));
    put_u8(out, static_cast<std::uint8_t>(d.status_code));
    put_u32(out, d.span.line);
    put_u32(out, d.span.column);
    put_u32(out, d.span.end_line);
    put_u32(out, d.span.end_column);
    put_str(out, d.message);
    put_str(out, d.fixit);
  }
  return out;
}

Result<std::vector<Diagnostic>> decode_diagnostics(
    std::span<const std::uint8_t> bytes) {
  DiagReader r(bytes);
  GEMS_ASSIGN_OR_RETURN(std::uint32_t magic, r.u32());
  if (magic != kDiagMagic) {
    return parse_error("bad diagnostics magic");
  }
  GEMS_ASSIGN_OR_RETURN(std::uint32_t count, r.u32());
  // Each diagnostic occupies at least 21 bytes; reject hostile counts
  // before allocating.
  if (count > r.remaining() / 21) {
    return parse_error("diagnostics count " + std::to_string(count) +
                       " exceeds buffer");
  }
  std::vector<Diagnostic> out;
  out.reserve(count);
  for (std::uint32_t k = 0; k < count; ++k) {
    Diagnostic d;
    GEMS_ASSIGN_OR_RETURN(std::uint8_t sev, r.u8());
    if (sev > static_cast<std::uint8_t>(Severity::kNote)) {
      return parse_error("bad diagnostic severity " + std::to_string(sev));
    }
    d.severity = static_cast<Severity>(sev);
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
  if (r.remaining() != 0) {
    return parse_error("trailing bytes after diagnostics blob");
  }
  return out;
}

}  // namespace gems::graql
