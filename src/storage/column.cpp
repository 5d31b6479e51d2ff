#include "storage/column.hpp"

#include <string>
#include <type_traits>

namespace gems::storage {

Column::Column(DataType type) : type_(type) {
  switch (type.kind) {
    case TypeKind::kBool:
    case TypeKind::kInt64:
    case TypeKind::kDate:
      data_ = ColumnData<std::int64_t>();
      break;
    case TypeKind::kDouble:
      data_ = ColumnData<double>();
      break;
    case TypeKind::kVarchar:
      data_ = ColumnData<StringId>();
      break;
  }
}

void Column::append_null() {
  switch (type_.kind) {
    case TypeKind::kBool:
    case TypeKind::kInt64:
    case TypeKind::kDate:
      ints().push_back(0, false);
      break;
    case TypeKind::kDouble:
      doubles().push_back(0.0, false);
      break;
    case TypeKind::kVarchar:
      strs().push_back(kInvalidStringId, false);
      break;
  }
}

void Column::append_bool(bool v) {
  GEMS_DCHECK(type_.kind == TypeKind::kBool);
  ints().push_back(v ? 1 : 0, true);
}

void Column::append_int64(std::int64_t v) {
  GEMS_DCHECK(type_.kind == TypeKind::kInt64 || type_.kind == TypeKind::kDate ||
              type_.kind == TypeKind::kBool);
  ints().push_back(v, true);
}

void Column::append_double(double v) {
  GEMS_DCHECK(type_.kind == TypeKind::kDouble);
  doubles().push_back(v, true);
}

void Column::append_string(StringId v) {
  GEMS_DCHECK(type_.kind == TypeKind::kVarchar);
  strs().push_back(v, true);
}

void Column::append_value(const Value& v, StringPool& pool) {
  if (v.is_null()) {
    append_null();
    return;
  }
  switch (type_.kind) {
    case TypeKind::kBool:
      append_bool(v.as_bool());
      break;
    case TypeKind::kInt64:
    case TypeKind::kDate:
      append_int64(v.as_int64());
      break;
    case TypeKind::kDouble:
      // Accept int64 constants into double columns (numeric promotion).
      append_double(v.kind() == TypeKind::kInt64
                        ? static_cast<double>(v.as_int64())
                        : v.as_double());
      break;
    case TypeKind::kVarchar:
      append_string(pool.intern(v.as_string()));
      break;
  }
}

void Column::append_from(const Column& src, RowIndex row) {
  GEMS_DCHECK(src.type_.kind == type_.kind);
  if (src.is_null(row)) {
    append_null();
    return;
  }
  switch (type_.kind) {
    case TypeKind::kBool:
    case TypeKind::kInt64:
    case TypeKind::kDate:
      append_int64(src.int_chunks()[row]);
      break;
    case TypeKind::kDouble:
      append_double(src.double_chunks()[row]);
      break;
    case TypeKind::kVarchar:
      append_string(src.string_chunks()[row]);
      break;
  }
}

namespace {

/// Appends in[rows[i]] for i < n.
template <typename T>
void gather_into(ColumnData<T>& out, const ColumnData<T>& in,
                 const RowIndex* rows, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    out.push_back(in[rows[i]], in.valid(rows[i]));
  }
}

}  // namespace

void Column::append_gather(const Column& src, const RowIndex* rows,
                           std::size_t n) {
  GEMS_DCHECK(src.type_.kind == type_.kind);
  switch (type_.kind) {
    case TypeKind::kBool:
    case TypeKind::kInt64:
    case TypeKind::kDate:
      gather_into(ints(), src.int_chunks(), rows, n);
      break;
    case TypeKind::kDouble:
      gather_into(doubles(), src.double_chunks(), rows, n);
      break;
    case TypeKind::kVarchar:
      gather_into(strs(), src.string_chunks(), rows, n);
      break;
  }
}

namespace {

inline bool lane_valid(const std::uint64_t* valid, std::size_t i) noexcept {
  return (valid[i >> 6] >> (i & 63)) & 1u;
}

}  // namespace

void Column::append_lanes_int64(const std::int64_t* lanes,
                                const std::uint64_t* valid, std::size_t n) {
  GEMS_DCHECK(type_.kind == TypeKind::kInt64 || type_.kind == TypeKind::kDate);
  auto& out = ints();
  for (std::size_t i = 0; i < n; ++i) {
    out.push_back(lanes[i], lane_valid(valid, i));
  }
}

void Column::append_lanes_double(const double* lanes,
                                 const std::uint64_t* valid, std::size_t n) {
  GEMS_DCHECK(type_.kind == TypeKind::kDouble);
  auto& out = doubles();
  for (std::size_t i = 0; i < n; ++i) {
    out.push_back(lanes[i], lane_valid(valid, i));
  }
}

void Column::append_lanes_string(const StringId* lanes,
                                 const std::uint64_t* valid, std::size_t n) {
  GEMS_DCHECK(type_.kind == TypeKind::kVarchar);
  auto& out = strs();
  for (std::size_t i = 0; i < n; ++i) {
    out.push_back(lanes[i], lane_valid(valid, i));
  }
}

void Column::append_bool_bits(const std::uint64_t* bits,
                              const std::uint64_t* valid, std::size_t n) {
  GEMS_DCHECK(type_.kind == TypeKind::kBool);
  auto& out = ints();
  for (std::size_t i = 0; i < n; ++i) {
    out.push_back(lane_valid(bits, i) ? 1 : 0, lane_valid(valid, i));
  }
}

Value Column::value_at(RowIndex row, const StringPool& pool) const {
  if (is_null(row)) return Value::null();
  switch (type_.kind) {
    case TypeKind::kBool:
      return Value::boolean(bool_at(row));
    case TypeKind::kInt64:
      return Value::int64(int64_at(row));
    case TypeKind::kDate:
      return Value::date(int64_at(row));
    case TypeKind::kDouble:
      return Value::float64(double_at(row));
    case TypeKind::kVarchar:
      return Value::varchar(std::string(pool.view(string_at(row))));
  }
  GEMS_UNREACHABLE("bad column kind");
}

template <typename T>
Status Column::load(std::span<const T> data, const DynamicBitset& valid) {
  if (!std::holds_alternative<ColumnData<T>>(data_)) {
    const char* what = std::is_same_v<T, std::int64_t> ? "int"
                       : std::is_same_v<T, double>     ? "double"
                                                       : "string";
    return invalid_argument(std::string("column restore: ") + what +
                            " data for a " + type_.to_string() + " column");
  }
  if (data.size() != valid.size()) {
    return invalid_argument("column restore: data size " +
                            std::to_string(data.size()) +
                            " != validity size " +
                            std::to_string(valid.size()));
  }
  GEMS_CHECK(size() == 0);
  std::get<ColumnData<T>>(data_).append(data.data(), data.size(),
                                        valid.words().data());
  return Status::ok();
}

template Status Column::load(std::span<const std::int64_t>,
                             const DynamicBitset&);
template Status Column::load(std::span<const double>, const DynamicBitset&);
template Status Column::load(std::span<const StringId>, const DynamicBitset&);

std::size_t Column::byte_size() const noexcept {
  return std::visit([](const auto& d) { return d.byte_size(); }, data_);
}

}  // namespace gems::storage
