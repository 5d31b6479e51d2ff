#include "storage/csv.hpp"

#include <charconv>
#include <fstream>
#include <ostream>
#include <sstream>

namespace gems::storage {

namespace {

struct RawRecord {
  std::vector<std::string> fields;
  std::vector<bool> quoted;
  std::size_t line;  // 1-based line where the record starts
};

/// Streaming RFC 4180 tokenizer over the full text. Handles quoted fields
/// spanning newlines and both \n and \r\n terminators.
Result<std::vector<RawRecord>> tokenize(std::string_view text, char sep) {
  std::vector<RawRecord> records;
  RawRecord current;
  std::string field;
  bool field_quoted = false;
  bool in_quotes = false;
  bool record_started = false;
  std::size_t line = 1;
  std::size_t record_line = 1;

  auto end_field = [&] {
    current.fields.push_back(std::move(field));
    current.quoted.push_back(field_quoted);
    field.clear();
    field_quoted = false;
  };
  auto end_record = [&] {
    end_field();
    current.line = record_line;
    records.push_back(std::move(current));
    current = RawRecord{};
    record_started = false;
  };

  for (std::size_t i = 0; i < text.size(); ++i) {
    const char c = text[i];
    if (in_quotes) {
      if (c == '"') {
        if (i + 1 < text.size() && text[i + 1] == '"') {
          field.push_back('"');
          ++i;
        } else {
          in_quotes = false;
        }
      } else {
        if (c == '\n') ++line;
        field.push_back(c);
      }
      continue;
    }
    if (c == '"' && field.empty() && !field_quoted) {
      in_quotes = true;
      field_quoted = true;
      if (!record_started) {
        record_started = true;
        record_line = line;
      }
      continue;
    }
    if (c == sep) {
      if (!record_started) {
        record_started = true;
        record_line = line;
      }
      end_field();
      continue;
    }
    if (c == '\r' && i + 1 < text.size() && text[i + 1] == '\n') continue;
    if (c == '\n') {
      ++line;
      if (record_started || !field.empty() || field_quoted) {
        end_record();
      }
      continue;
    }
    if (!record_started) {
      record_started = true;
      record_line = line;
    }
    field.push_back(c);
  }
  if (in_quotes) {
    return parse_error("unterminated quoted field starting near line " +
                       std::to_string(record_line));
  }
  if (record_started || !field.empty() || field_quoted) end_record();
  return records;
}

/// Converts one field to column `c`'s type and stages it in `out`.
Status stage_field(std::string_view field, bool quoted, ColumnIndex c,
                   const DataType& type, std::size_t line,
                   TableAppender& out) {
  if (field.empty() && !quoted) {
    out.put_null(c);
    return Status::ok();
  }
  auto fail = [&](std::string_view what) {
    return parse_error("line " + std::to_string(line) + ": cannot parse '" +
                       std::string(field) + "' as " + std::string(what));
  };
  switch (type.kind) {
    case TypeKind::kBool: {
      if (field == "true" || field == "1" || field == "TRUE") {
        out.put_bool(c, true);
        return Status::ok();
      }
      if (field == "false" || field == "0" || field == "FALSE") {
        out.put_bool(c, false);
        return Status::ok();
      }
      return fail("boolean");
    }
    case TypeKind::kInt64: {
      std::int64_t v = 0;
      auto [ptr, ec] =
          std::from_chars(field.data(), field.data() + field.size(), v);
      if (ec != std::errc() || ptr != field.data() + field.size()) {
        return fail("integer");
      }
      out.put_int64(c, v);
      return Status::ok();
    }
    case TypeKind::kDouble: {
      double v = 0;
      auto [ptr, ec] =
          std::from_chars(field.data(), field.data() + field.size(), v);
      if (ec != std::errc() || ptr != field.data() + field.size()) {
        return fail("float");
      }
      out.put_double(c, v);
      return Status::ok();
    }
    case TypeKind::kDate: {
      auto days = parse_date(field);
      if (!days.is_ok()) return fail("date (YYYY-MM-DD)");
      out.put_int64(c, days.value());
      return Status::ok();
    }
    case TypeKind::kVarchar: {
      if (field.size() > type.varchar_length) {
        return parse_error("line " + std::to_string(line) + ": value '" +
                           std::string(field) + "' exceeds " +
                           type.to_string());
      }
      out.put_string(c, field);
      return Status::ok();
    }
  }
  GEMS_UNREACHABLE("bad type kind");
}

}  // namespace

Result<std::vector<std::string>> split_csv_record(
    std::string_view record, char separator, std::vector<bool>* was_quoted) {
  GEMS_ASSIGN_OR_RETURN(auto records, tokenize(record, separator));
  if (records.empty()) return std::vector<std::string>{};
  if (records.size() != 1) {
    return parse_error("expected a single CSV record");
  }
  if (was_quoted) *was_quoted = records[0].quoted;
  return std::move(records[0].fields);
}

Result<CsvIngestStats> ingest_csv_text(Table& table, std::string_view text,
                                       const CsvOptions& options) {
  GEMS_ASSIGN_OR_RETURN(auto records, tokenize(text, options.separator));

  const Schema& schema = table.schema();
  const std::size_t arity = schema.num_columns();

  // Column order mapping: slot i of a record feeds table column order[i].
  std::vector<ColumnIndex> order(arity);
  std::size_t first_record = 0;
  if (options.has_header) {
    if (records.empty()) {
      return parse_error("header expected but file is empty");
    }
    const auto& header = records[0].fields;
    if (header.size() != arity) {
      return parse_error("header has " + std::to_string(header.size()) +
                         " columns, table '" + table.name() + "' has " +
                         std::to_string(arity));
    }
    std::vector<bool> seen(arity, false);
    for (std::size_t i = 0; i < header.size(); ++i) {
      auto col = schema.find(header[i]);
      if (!col) {
        return parse_error("header names unknown column '" + header[i] + "'");
      }
      if (seen[*col]) {
        return parse_error("header repeats column '" + header[i] + "'");
      }
      seen[*col] = true;
      order[i] = *col;
    }
    first_record = 1;
  } else {
    for (std::size_t i = 0; i < arity; ++i) {
      order[i] = static_cast<ColumnIndex>(i);
    }
  }

  // Stage every row before appending any, so that ingest is atomic (paper
  // Sec. II-A2): a failed ingest leaves the table and the string pool as
  // they were.
  TableAppender staged(table);
  for (std::size_t r = first_record; r < records.size(); ++r) {
    const RawRecord& rec = records[r];
    if (rec.fields.size() != arity) {
      return parse_error("line " + std::to_string(rec.line) + ": expected " +
                         std::to_string(arity) + " fields, found " +
                         std::to_string(rec.fields.size()));
    }
    for (std::size_t f = 0; f < arity; ++f) {
      GEMS_RETURN_IF_ERROR(stage_field(rec.fields[f], rec.quoted[f], order[f],
                                       schema.column(order[f]).type,
                                       rec.line, staged));
    }
    staged.end_row();
  }
  const std::size_t rows = staged.staged_rows();
  staged.commit();
  return CsvIngestStats{rows, text.size()};
}

Result<CsvIngestStats> ingest_csv_file(Table& table, const std::string& path,
                                       const CsvOptions& options) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return io_error("cannot open '" + path + "'");
  std::ostringstream buffer;
  buffer << in.rdbuf();
  if (in.bad()) return io_error("error reading '" + path + "'");
  auto result = ingest_csv_text(table, buffer.str(), options);
  if (!result.is_ok()) {
    return result.status().with_context("ingesting '" + path + "'");
  }
  return result;
}

namespace {

void write_csv_field(std::ostream& out, const std::string& s) {
  const bool needs_quotes =
      s.find_first_of(",\"\n\r") != std::string::npos || s.empty();
  if (!needs_quotes) {
    out << s;
    return;
  }
  out << '"';
  for (char c : s) {
    if (c == '"') out << '"';
    out << c;
  }
  out << '"';
}

}  // namespace

void write_csv(const Table& table, std::ostream& out) {
  const Schema& schema = table.schema();
  for (std::size_t c = 0; c < schema.num_columns(); ++c) {
    if (c > 0) out << ',';
    write_csv_field(out, schema.column(static_cast<ColumnIndex>(c)).name);
  }
  out << '\n';
  for (std::size_t r = 0; r < table.num_rows(); ++r) {
    for (std::size_t c = 0; c < schema.num_columns(); ++c) {
      if (c > 0) out << ',';
      const Value v = table.value_at(static_cast<RowIndex>(r),
                                     static_cast<ColumnIndex>(c));
      if (!v.is_null()) write_csv_field(out, v.to_string());
    }
    out << '\n';
  }
}

Status write_csv_file(const Table& table, const std::string& path) {
  std::ofstream out(path, std::ios::binary);
  if (!out) return io_error("cannot open '" + path + "' for writing");
  write_csv(table, out);
  out.flush();
  if (!out) return io_error("error writing '" + path + "'");
  return Status::ok();
}

}  // namespace gems::storage
