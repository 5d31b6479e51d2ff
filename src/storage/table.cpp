#include "storage/table.hpp"

#include <sstream>

#include "common/lane_codec.hpp"

namespace gems::storage {

Table::Table(std::string name, Schema schema, StringPool& pool)
    : name_(std::move(name)), schema_(std::move(schema)), pool_(&pool) {
  columns_.reserve(schema_.num_columns());
  for (const auto& def : schema_.columns()) columns_.emplace_back(def.type);
}

Status Table::append_row(std::span<const Value> values) {
  if (values.size() != columns_.size()) {
    return invalid_argument("row arity " + std::to_string(values.size()) +
                            " != table arity " +
                            std::to_string(columns_.size()) + " for table '" +
                            name_ + "'");
  }
  for (std::size_t i = 0; i < values.size(); ++i) {
    GEMS_RETURN_IF_ERROR(check_cell(static_cast<ColumnIndex>(i), values[i]));
  }
  append_row_unchecked(values);
  return Status::ok();
}

Status Table::check_cell(ColumnIndex c, const Value& v) const {
  if (v.is_null()) return Status::ok();
  const ColumnDef& def = schema_.column(c);
  const DataType& t = def.type;
  const bool kind_ok =
      v.kind() == t.kind ||
      (t.kind == TypeKind::kDouble && v.kind() == TypeKind::kInt64);
  if (!kind_ok) {
    return type_error("column '" + def.name + "' of table '" + name_ +
                      "' expects " + t.to_string() + ", got " +
                      std::string(type_kind_name(v.kind())));
  }
  if (t.kind == TypeKind::kVarchar &&
      v.as_string().size() > t.varchar_length) {
    return invalid_argument("value '" + v.as_string() + "' exceeds " +
                            t.to_string() + " for column '" + def.name +
                            "' of table '" + name_ + "'");
  }
  return Status::ok();
}

void Table::append_row_unchecked(std::span<const Value> values) {
  GEMS_DCHECK(values.size() == columns_.size());
  for (std::size_t i = 0; i < values.size(); ++i) {
    columns_[i].append_value(values[i], *pool_);
  }
  ++num_rows_;
}

std::vector<Value> Table::row(RowIndex r) const {
  std::vector<Value> out;
  out.reserve(columns_.size());
  for (std::size_t c = 0; c < columns_.size(); ++c) {
    out.push_back(value_at(r, static_cast<ColumnIndex>(c)));
  }
  return out;
}

Status Table::finish_restore() {
  const std::size_t rows = columns_.empty() ? 0 : columns_.front().size();
  for (const auto& col : columns_) {
    if (col.size() != rows) {
      return invalid_argument("table '" + name_ +
                              "' restore: ragged column sizes (" +
                              std::to_string(col.size()) + " vs " +
                              std::to_string(rows) + ")");
    }
  }
  num_rows_ = rows;
  return Status::ok();
}

std::size_t Table::byte_size() const noexcept {
  std::size_t bytes = 0;
  for (const auto& col : columns_) bytes += col.byte_size();
  return bytes;
}

std::string Table::to_string(std::size_t max_rows) const {
  std::ostringstream out;
  out << name_ << " ";
  for (std::size_t c = 0; c < schema_.num_columns(); ++c) {
    out << (c == 0 ? "| " : " | ")
        << schema_.column(static_cast<ColumnIndex>(c)).name;
  }
  out << " |  (" << num_rows_ << " rows)\n";
  const std::size_t limit = std::min(num_rows_, max_rows);
  for (std::size_t r = 0; r < limit; ++r) {
    for (std::size_t c = 0; c < schema_.num_columns(); ++c) {
      out << (c == 0 ? "| " : " | ")
          << value_at(static_cast<RowIndex>(r), static_cast<ColumnIndex>(c))
                 .to_string();
    }
    out << " |\n";
  }
  if (limit < num_rows_) out << "... (" << (num_rows_ - limit) << " more)\n";
  return out.str();
}

// ---- TableAppender ----------------------------------------------------------

TableAppender::TableAppender(Table& table) : table_(&table) {
  const Schema& schema = table.schema();
  lanes_.resize(schema.num_columns());
  for (std::size_t c = 0; c < lanes_.size(); ++c) {
    lanes_[c].kind = schema.column(static_cast<ColumnIndex>(c)).type.kind;
    if (lanes_[c].kind == TypeKind::kVarchar) {
      varchar_columns_.push_back(static_cast<ColumnIndex>(c));
    }
  }
  if (!varchar_columns_.empty()) {
    intern_batch_.reserve(kChunkRows);
    intern_targets_.reserve(kChunkRows);
    intern_ids_.resize(kChunkRows);
  }
}

TableAppender::Lane& TableAppender::next_cell(ColumnIndex c,
                                              [[maybe_unused]] TypeKind kind,
                                              bool valid) {
  Lane& lane = lanes_[c];
  GEMS_DCHECK(lane.cells == rows_);
  GEMS_DCHECK(kind == lane.kind ||
              (kind == TypeKind::kInt64 && lane.kind == TypeKind::kDate));
  const std::size_t bit = lane.cells % 64;
  if (bit == 0) {
    lane.valid.push_back(0);
    if (lane.kind == TypeKind::kBool) lane.bits.push_back(0);
  }
  lane.valid.back() |= static_cast<std::uint64_t>(valid) << bit;
  ++lane.cells;
  return lane;
}

void TableAppender::put_null(ColumnIndex c) {
  Lane& lane = next_cell(c, lanes_[c].kind, false);
  // The zero payloads Column::append_null writes; append_lanes_* masks
  // them again.
  switch (lane.kind) {
    case TypeKind::kInt64:
    case TypeKind::kDate:
      lane.ints.push_back(0);
      break;
    case TypeKind::kDouble:
      lane.doubles.push_back(0.0);
      break;
    case TypeKind::kVarchar:
      lane.slots.push_back(Slot{});
      break;
    case TypeKind::kBool:
      break;
  }
}

void TableAppender::put_int64(ColumnIndex c, std::int64_t v) {
  next_cell(c, TypeKind::kInt64, true).ints.push_back(v);
}

void TableAppender::put_double(ColumnIndex c, double v) {
  next_cell(c, TypeKind::kDouble, true).doubles.push_back(v);
}

void TableAppender::put_bool(ColumnIndex c, bool v) {
  const std::size_t bit = lanes_[c].cells % 64;
  next_cell(c, TypeKind::kBool, true).bits.back() |=
      static_cast<std::uint64_t>(v) << bit;
}

void TableAppender::put_string(ColumnIndex c, std::string_view s) {
  next_cell(c, TypeKind::kVarchar, true)
      .slots.push_back(Slot{bytes_.size(), s.size()});
  bytes_.append(s);
}

void TableAppender::put_value(ColumnIndex c, const Value& v) {
  if (v.is_null()) {
    put_null(c);
    return;
  }
  switch (lanes_[c].kind) {
    case TypeKind::kBool:
      put_bool(c, v.as_bool());
      break;
    case TypeKind::kInt64:
    case TypeKind::kDate:
      put_int64(c, v.as_int64());
      break;
    case TypeKind::kDouble:
      put_double(c, v.kind() == TypeKind::kInt64
                        ? static_cast<double>(v.as_int64())
                        : v.as_double());
      break;
    case TypeKind::kVarchar:
      put_string(c, v.as_string());
      break;
  }
}

void TableAppender::end_row() {
#ifndef NDEBUG
  for (const Lane& lane : lanes_) GEMS_DCHECK(lane.cells == rows_ + 1);
#endif
  ++rows_;
}

void TableAppender::commit() {
#ifndef NDEBUG
  for (const Lane& lane : lanes_) GEMS_DCHECK(lane.cells == rows_);
#endif
  // Intern in (row, column index) order, the order append_row_unchecked
  // interns in, so every new string gets the id it would get there.
  for (const ColumnIndex c : varchar_columns_) lanes_[c].ids.resize(rows_);
  std::vector<std::string_view>& batch = intern_batch_;
  std::vector<StringId*>& targets = intern_targets_;
  std::vector<StringId>& ids = intern_ids_;
  auto flush = [&] {
    if (batch.empty()) return;
    table_->pool().intern_batch(batch, ids.data());
    for (std::size_t i = 0; i < batch.size(); ++i) *targets[i] = ids[i];
    batch.clear();
    targets.clear();
  };
  for (std::size_t r = 0; r < rows_; ++r) {
    for (const ColumnIndex c : varchar_columns_) {
      Lane& lane = lanes_[c];
      if (((lane.valid[r / 64] >> (r % 64)) & 1u) == 0) continue;
      const Slot slot = lane.slots[r];
      batch.emplace_back(bytes_.data() + slot.offset, slot.size);
      targets.push_back(&lane.ids[r]);
      if (batch.size() == kChunkRows) flush();
    }
  }
  flush();

  for (std::size_t c = 0; c < lanes_.size(); ++c) {
    Lane& lane = lanes_[c];
    Column& column = table_->column_mut(static_cast<ColumnIndex>(c));
    switch (lane.kind) {
      case TypeKind::kInt64:
      case TypeKind::kDate:
        column.append_lanes_int64(lane.ints.data(), lane.valid.data(), rows_);
        break;
      case TypeKind::kDouble:
        column.append_lanes_double(lane.doubles.data(), lane.valid.data(),
                                   rows_);
        break;
      case TypeKind::kBool:
        column.append_bool_bits(lane.bits.data(), lane.valid.data(), rows_);
        break;
      case TypeKind::kVarchar:
        column.append_lanes_string(lane.ids.data(), lane.valid.data(), rows_);
        break;
    }
    // Keep the lanes' capacity for the next batch.
    lane.cells = 0;
    lane.valid.clear();
    lane.ints.clear();
    lane.doubles.clear();
    lane.bits.clear();
    lane.slots.clear();
    lane.ids.clear();
  }
  table_->bump_rows(rows_);
  bytes_.clear();
  rows_ = 0;
}

}  // namespace gems::storage
