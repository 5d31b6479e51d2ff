#include "dist/dist_aggregate.hpp"

#include <algorithm>
#include <map>

#include "relational/row_key.hpp"

namespace gems::dist {

namespace {

using relational::AggKind;
using relational::AggSpec;
using storage::ColumnDef;
using storage::ColumnIndex;
using storage::DataType;
using storage::RowIndex;
using storage::Schema;
using storage::Table;
using storage::TablePtr;
using storage::TypeKind;
using storage::Value;

constexpr int kTagPartials = 11;

/// Mergeable partial aggregate state. Min/max carry a boxed value encoded
/// as (kind, raw bits); varchar payloads are interned ids, valid across
/// ranks because the pool is shared.
struct Partial {
  std::int64_t count = 0;
  std::int64_t isum = 0;
  double dsum = 0;
  bool has_value = false;
  Value min;
  Value max;
};

struct GroupState {
  RowIndex representative = 0;
  std::vector<Partial> partials;
};

void accumulate(const Table& src, RowIndex row,
                std::span<const AggSpec> aggs, GroupState& state) {
  for (std::size_t a = 0; a < aggs.size(); ++a) {
    const AggSpec& spec = aggs[a];
    Partial& p = state.partials[a];
    if (spec.kind == AggKind::kCountStar) {
      ++p.count;
      continue;
    }
    const storage::Column& col = src.column(spec.input);
    if (col.is_null(row)) continue;
    switch (spec.kind) {
      case AggKind::kCount:
        ++p.count;
        break;
      case AggKind::kSum:
      case AggKind::kAvg:
        ++p.count;
        if (col.type().kind == TypeKind::kDouble) {
          p.dsum += col.double_at(row);
        } else {
          p.isum += col.int64_at(row);
          p.dsum += static_cast<double>(col.int64_at(row));
        }
        break;
      case AggKind::kMin:
      case AggKind::kMax: {
        const Value v = src.value_at(row, spec.input);
        if (!p.has_value) {
          p.min = v;
          p.max = v;
          p.has_value = true;
        } else {
          if (v.compare(p.min) < 0) p.min = v;
          if (v.compare(p.max) > 0) p.max = v;
        }
        break;
      }
      default:
        GEMS_UNREACHABLE("handled above");
    }
  }
}

void merge(Partial& into, const Partial& from) {
  into.count += from.count;
  into.isum += from.isum;
  into.dsum += from.dsum;
  if (from.has_value) {
    if (!into.has_value) {
      into.min = from.min;
      into.max = from.max;
      into.has_value = true;
    } else {
      if (from.min.compare(into.min) < 0) into.min = from.min;
      if (from.max.compare(into.max) > 0) into.max = from.max;
    }
  }
}

// ---- Value wire format (kind byte + raw 64 bits) -------------------------

void put_value(ByteWriter& w, const Value& v, StringPool& pool) {
  if (v.is_null()) {
    w.u8(0);
    w.u64(0);
    return;
  }
  switch (v.kind()) {
    case TypeKind::kBool:
      w.u8(1);
      w.u64(v.as_bool() ? 1 : 0);
      return;
    case TypeKind::kInt64:
      w.u8(2);
      w.i64(v.as_int64());
      return;
    case TypeKind::kDate:
      w.u8(3);
      w.i64(v.as_int64());
      return;
    case TypeKind::kDouble:
      w.u8(4);
      w.f64(v.as_double());
      return;
    case TypeKind::kVarchar:
      w.u8(5);
      w.u64(pool.intern(v.as_string()));
      return;
  }
  GEMS_UNREACHABLE("bad value kind");
}

Result<Value> get_value(ByteReader& r, const StringPool& pool) {
  const std::size_t at = r.pos();
  GEMS_ASSIGN_OR_RETURN(std::uint8_t kind, r.u8());
  switch (kind) {
    case 0:
      GEMS_RETURN_IF_ERROR(r.u64().status());
      return Value::null();
    case 1: {
      GEMS_ASSIGN_OR_RETURN(std::uint64_t raw, r.u64());
      return Value::boolean(raw != 0);
    }
    case 2: {
      GEMS_ASSIGN_OR_RETURN(std::int64_t raw, r.i64());
      return Value::int64(raw);
    }
    case 3: {
      GEMS_ASSIGN_OR_RETURN(std::int64_t raw, r.i64());
      return Value::date(raw);
    }
    case 4: {
      GEMS_ASSIGN_OR_RETURN(double d, r.f64());
      return Value::float64(d);
    }
    case 5: {
      const std::size_t id_at = r.pos();
      GEMS_ASSIGN_OR_RETURN(std::uint64_t id, r.u64());
      if (id >= pool.size()) {
        return r.error_at(id_at, "string id " + std::to_string(id) +
                                     " outside the pool");
      }
      return Value::varchar(std::string(pool.view(static_cast<StringId>(id))));
    }
    default:
      return r.error_at(at, "bad value kind " + std::to_string(kind));
  }
}

/// Rank 0's merge of a peer's partials payload into `merged`.
Status merge_partials(std::span<const std::uint8_t> payload,
                      std::size_t num_aggs, const StringPool& pool,
                      std::map<std::string, GroupState>& merged) {
  ByteReader r = payload_reader(payload);
  GEMS_ASSIGN_OR_RETURN(std::uint32_t groups, r.count("group", 8));
  for (std::uint32_t g = 0; g < groups; ++g) {
    GEMS_ASSIGN_OR_RETURN(std::string key, r.str());
    GEMS_ASSIGN_OR_RETURN(RowIndex representative, r.u32());
    auto [it, inserted] = merged.emplace(std::move(key), GroupState{});
    if (inserted) {
      it->second.representative = representative;
      it->second.partials.resize(num_aggs);
    }
    for (std::size_t a = 0; a < num_aggs; ++a) {
      Partial p;
      GEMS_ASSIGN_OR_RETURN(p.count, r.i64());
      GEMS_ASSIGN_OR_RETURN(p.isum, r.i64());
      GEMS_ASSIGN_OR_RETURN(p.dsum, r.f64());
      GEMS_ASSIGN_OR_RETURN(p.has_value, r.boolean());
      GEMS_ASSIGN_OR_RETURN(p.min, get_value(r, pool));
      GEMS_ASSIGN_OR_RETURN(p.max, get_value(r, pool));
      merge(it->second.partials[a], p);
    }
  }
  return r.expect_end("partials");
}

Result<DataType> agg_output_type(const AggSpec& spec, const Table& src) {
  switch (spec.kind) {
    case AggKind::kCountStar:
    case AggKind::kCount:
      return DataType::int64();
    case AggKind::kSum: {
      const DataType& in = src.schema().column(spec.input).type;
      if (!in.is_numeric()) {
        return type_error("sum() requires a numeric column");
      }
      return in;
    }
    case AggKind::kAvg: {
      const DataType& in = src.schema().column(spec.input).type;
      if (!in.is_numeric()) {
        return type_error("avg() requires a numeric column");
      }
      return DataType::float64();
    }
    case AggKind::kMin:
    case AggKind::kMax:
      return src.schema().column(spec.input).type;
  }
  GEMS_UNREACHABLE("bad agg kind");
}

}  // namespace

Result<TablePtr> distributed_group_by(const Table& src,
                                      std::span<const ColumnIndex> keys,
                                      std::span<const AggSpec> aggs,
                                      std::string name,
                                      std::size_t num_ranks,
                                      DistStats* stats) {
  // Output schema (mirrors relational::group_by).
  std::vector<ColumnDef> defs;
  defs.reserve(keys.size() + aggs.size());
  for (const auto k : keys) defs.push_back(src.schema().column(k));
  for (const auto& a : aggs) {
    GEMS_ASSIGN_OR_RETURN(DataType type, agg_output_type(a, src));
    defs.push_back({a.output_name, type});
  }
  GEMS_ASSIGN_OR_RETURN(Schema schema, Schema::create(std::move(defs)));

  SimCluster cluster(num_ranks);
  // Rank 0's merged groups (ordered by key bytes for determinism).
  std::map<std::string, GroupState> merged;
  StringPool& pool = src.pool();

  cluster.run([&](RankCtx& ctx) {
    const int rank = ctx.rank();
    const int n = ctx.size();
    // Stripe of rows owned by this rank.
    const std::size_t rows = src.num_rows();
    const std::size_t begin = rows * rank / n;
    const std::size_t end = rows * (rank + 1) / n;

    std::map<std::string, GroupState> local;
    for (std::size_t r = begin; r < end; ++r) {
      const RowIndex row = static_cast<RowIndex>(r);
      std::string key = relational::encode_row_key(src, row, keys);
      auto [it, inserted] = local.emplace(std::move(key), GroupState{});
      if (inserted) {
        it->second.representative = row;
        it->second.partials.resize(aggs.size());
      }
      accumulate(src, row, aggs, it->second);
    }

    if (rank != 0) {
      // Ship partials to rank 0.
      std::vector<std::uint8_t> payload;
      ByteWriter w(payload);
      w.u32(static_cast<std::uint32_t>(local.size()));
      for (const auto& [key, state] : local) {
        w.str(key);
        w.u32(state.representative);
        for (const Partial& p : state.partials) {
          w.i64(p.count);
          w.i64(p.isum);
          w.f64(p.dsum);
          w.boolean(p.has_value);
          put_value(w, p.min, pool);
          put_value(w, p.max, pool);
        }
      }
      ctx.send(0, kTagPartials, payload);
      return;
    }

    merged = std::move(local);
    for (int i = 0; i < n - 1; ++i) {
      Message m = ctx.recv();
      GEMS_CHECK(m.tag == kTagPartials);
      check_payload(merge_partials(m.payload, aggs.size(), pool, merged),
                    "aggregate partials");
    }
  });

  // SQL scalar aggregation: one row even for empty input.
  if (keys.empty() && merged.empty()) {
    GroupState state;
    state.partials.resize(aggs.size());
    merged.emplace("", std::move(state));
  }

  auto out = std::make_shared<Table>(std::move(name), std::move(schema),
                                     pool);
  for (const auto& [key, state] : merged) {
    std::vector<Value> row;
    row.reserve(keys.size() + aggs.size());
    for (const auto k : keys) {
      row.push_back(src.value_at(state.representative, k));
    }
    for (std::size_t a = 0; a < aggs.size(); ++a) {
      const AggSpec& spec = aggs[a];
      const Partial& p = state.partials[a];
      switch (spec.kind) {
        case AggKind::kCountStar:
        case AggKind::kCount:
          row.push_back(Value::int64(p.count));
          break;
        case AggKind::kSum:
          if (p.count == 0) {
            row.push_back(Value::null());
          } else if (src.column(spec.input).type().kind ==
                     TypeKind::kDouble) {
            row.push_back(Value::float64(p.dsum));
          } else {
            row.push_back(Value::int64(p.isum));
          }
          break;
        case AggKind::kAvg:
          row.push_back(p.count == 0
                            ? Value::null()
                            : Value::float64(p.dsum /
                                             static_cast<double>(p.count)));
          break;
        case AggKind::kMin:
          row.push_back(p.has_value ? p.min : Value::null());
          break;
        case AggKind::kMax:
          row.push_back(p.has_value ? p.max : Value::null());
          break;
      }
    }
    out->append_row_unchecked(row);
  }

  if (stats != nullptr) {
    stats->ranks = num_ranks;
    stats->messages = cluster.total_messages();
    stats->bytes = cluster.total_bytes();
    stats->bytes_per_rank.clear();
    for (const auto& s : cluster.rank_stats()) {
      stats->bytes_per_rank.push_back(s.bytes);
    }
  }
  return out;
}

}  // namespace gems::dist
