#include "storage/type.hpp"

#include <cctype>
#include <charconv>
#include <cinttypes>
#include <cstdio>

namespace gems::storage {

std::string_view type_kind_name(TypeKind kind) noexcept {
  switch (kind) {
    case TypeKind::kBool:
      return "boolean";
    case TypeKind::kInt64:
      return "integer";
    case TypeKind::kDouble:
      return "float";
    case TypeKind::kVarchar:
      return "varchar";
    case TypeKind::kDate:
      return "date";
  }
  return "?";
}

bool DataType::comparable_with(const DataType& other) const noexcept {
  if (is_numeric() && other.is_numeric()) return true;
  return kind == other.kind;
}

std::string DataType::to_string() const {
  if (kind == TypeKind::kVarchar) {
    return "varchar(" + std::to_string(varchar_length) + ")";
  }
  return std::string(type_kind_name(kind));
}

Result<DataType> parse_data_type(std::string_view text) {
  // Lowercase copy for case-insensitive matching (SQL convention).
  std::string lower;
  lower.reserve(text.size());
  for (char c : text) {
    lower.push_back(
        static_cast<char>(std::tolower(static_cast<unsigned char>(c))));
  }
  if (lower == "integer" || lower == "int" || lower == "bigint") {
    return DataType::int64();
  }
  if (lower == "float" || lower == "double" || lower == "real") {
    return DataType::float64();
  }
  if (lower == "date") return DataType::date();
  if (lower == "boolean" || lower == "bool") return DataType::boolean();
  if (lower.rfind("varchar", 0) == 0) {
    std::string_view rest = std::string_view(lower).substr(7);
    if (rest.empty()) return DataType::varchar(255);
    if (rest.front() != '(' || rest.back() != ')') {
      return parse_error("malformed varchar type: '" + std::string(text) +
                         "'");
    }
    rest = rest.substr(1, rest.size() - 2);
    std::uint32_t n = 0;
    auto [ptr, ec] = std::from_chars(rest.data(), rest.data() + rest.size(), n);
    if (ec != std::errc() || ptr != rest.data() + rest.size() || n == 0) {
      return parse_error("bad varchar length: '" + std::string(text) + "'");
    }
    return DataType::varchar(n);
  }
  return parse_error("unknown type name: '" + std::string(text) + "'");
}

// Howard Hinnant's algorithms (public domain, chrono paper).
std::int64_t civil_to_days(int y, unsigned m, unsigned d) noexcept {
  y -= m <= 2;
  const int era = (y >= 0 ? y : y - 399) / 400;
  const unsigned yoe = static_cast<unsigned>(y - era * 400);            // [0, 399]
  const unsigned doy = (153 * (m + (m > 2 ? -3 : 9)) + 2) / 5 + d - 1;  // [0, 365]
  const unsigned doe = yoe * 365 + yoe / 4 - yoe / 100 + doy;           // [0, 146096]
  return static_cast<std::int64_t>(era) * 146097 +
         static_cast<std::int64_t>(doe) - 719468;
}

void days_to_civil(std::int64_t z, std::int64_t& year, unsigned& month,
                   unsigned& day) noexcept {
  // The algorithm counts from 0000-03-01 (719468 days before the epoch) in
  // 146097-day eras. Splitting z into eras before adding that shift keeps
  // every step in range for any int64 day number.
  constexpr std::int64_t kEraDays = 146097;
  constexpr std::int64_t kShift = 719468;
  std::int64_t era = z / kEraDays;
  std::int64_t rem = z % kEraDays;
  if (rem < 0) {
    rem += kEraDays;
    --era;
  }
  rem += kShift % kEraDays;
  era += kShift / kEraDays + rem / kEraDays;
  const unsigned doe = static_cast<unsigned>(rem % kEraDays);  // [0, 146096]
  const unsigned yoe =
      (doe - doe / 1460 + doe / 36524 - doe / 146096) / 365;  // [0, 399]
  const std::int64_t y = static_cast<std::int64_t>(yoe) + era * 400;
  const unsigned doy = doe - (365 * yoe + yoe / 4 - yoe / 100);  // [0, 365]
  const unsigned mp = (5 * doy + 2) / 153;                       // [0, 11]
  day = doy - (153 * mp + 2) / 5 + 1;                            // [1, 31]
  month = mp + (mp < 10 ? 3 : -9);                               // [1, 12]
  year = y + (month <= 2);
}

namespace {

bool days_in_month_ok(int year, unsigned month, unsigned day) {
  static constexpr unsigned kDays[12] = {31, 28, 31, 30, 31, 30,
                                         31, 31, 30, 31, 30, 31};
  if (day == 0) return false;
  unsigned limit = kDays[month - 1];
  const bool leap = (year % 4 == 0 && year % 100 != 0) || year % 400 == 0;
  if (month == 2 && leap) limit = 29;
  return day <= limit;
}

}  // namespace

Result<std::int64_t> parse_date(std::string_view text) {
  // Strict "YYYY-MM-DD" (4-2-2 digits).
  auto fail = [&] {
    return parse_error("malformed date: '" + std::string(text) + "'");
  };
  if (text.size() != 10 || text[4] != '-' || text[7] != '-') return fail();
  int year = 0;
  unsigned month = 0, day = 0;
  auto parse_uint = [](std::string_view s, auto& out) {
    auto [ptr, ec] = std::from_chars(s.data(), s.data() + s.size(), out);
    return ec == std::errc() && ptr == s.data() + s.size();
  };
  if (!parse_uint(text.substr(0, 4), year) ||
      !parse_uint(text.substr(5, 2), month) ||
      !parse_uint(text.substr(8, 2), day)) {
    return fail();
  }
  if (month < 1 || month > 12 || !days_in_month_ok(year, month, day)) {
    return fail();
  }
  return civil_to_days(year, month, day);
}

std::string format_date(std::int64_t days) {
  std::int64_t year;
  unsigned month, day;
  days_to_civil(days, year, month, day);
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%04" PRId64 "-%02u-%02u", year, month,
                day);
  return buf;
}

}  // namespace gems::storage
