#include "bsbm/generator.hpp"

#include <algorithm>
#include <optional>

#include "bsbm/schema.hpp"
#include "common/prng.hpp"
#include "storage/csv.hpp"

namespace gems::bsbm {

using storage::TableAppender;
using storage::TablePtr;

GeneratorConfig GeneratorConfig::derive(std::size_t num_products,
                                        std::uint64_t seed) {
  GeneratorConfig c;
  c.num_products = num_products;
  c.seed = seed;
  c.num_producers = std::max<std::size_t>(2, num_products / 25);
  c.num_features = std::max<std::size_t>(8, 10 + num_products / 5);
  c.num_types = std::max<std::size_t>(5, num_products / 20);
  c.num_vendors = std::max<std::size_t>(2, num_products / 20);
  c.num_persons = std::max<std::size_t>(3, num_products / 10);
  return c;
}

std::string product_id(std::size_t i) { return "p" + std::to_string(i); }
std::string producer_id(std::size_t i) { return "pr" + std::to_string(i); }
std::string feature_id(std::size_t i) { return "f" + std::to_string(i); }
std::string type_id(std::size_t i) { return "t" + std::to_string(i); }
std::string vendor_id(std::size_t i) { return "v" + std::to_string(i); }
std::string offer_id(std::size_t i) { return "o" + std::to_string(i); }
std::string person_id(std::size_t i) { return "u" + std::to_string(i); }
std::string review_id(std::size_t i) { return "r" + std::to_string(i); }

const std::vector<std::string>& countries() {
  static const std::vector<std::string> kCountries = {
      "US", "DE", "CN", "JP", "UK", "FR", "RU", "IT", "BR", "IN"};
  return kCountries;
}

namespace {

const std::int64_t kEpoch2008 = storage::civil_to_days(2008, 1, 1);

/// Skewed country pick: P(country i) ∝ 1/(i+1).
std::string pick_country(Xoshiro256& rng) {
  static const std::vector<double> cumulative = [] {
    std::vector<double> c;
    double sum = 0;
    for (std::size_t i = 0; i < countries().size(); ++i) {
      sum += 1.0 / static_cast<double>(i + 1);
      c.push_back(sum);
    }
    for (auto& v : c) v /= sum;
    return c;
  }();
  const double u = rng.uniform();
  for (std::size_t i = 0; i < cumulative.size(); ++i) {
    if (u <= cumulative[i]) return countries()[i];
  }
  return countries().back();
}

/// Skewed feature pick so that popular features are shared by many
/// products (drives the Fig. 6 similarity query): index ~ u^2 * n.
std::size_t pick_feature(Xoshiro256& rng, std::size_t n) {
  const double u = rng.uniform();
  return std::min<std::size_t>(n - 1, static_cast<std::size_t>(u * u * n));
}

std::int64_t date_in_2008(Xoshiro256& rng) {
  return kEpoch2008 + rng.range(0, 364);
}

/// Appends the staged rows once a chunk's worth has gathered, so staging
/// stays bounded at set-up.
void commit_if_full(TableAppender& out) {
  if (out.staged_rows() >= kChunkRows) out.commit();
}

}  // namespace

// Every table is written through a TableAppender. add_row evaluates its
// arguments in no fixed order, so a row that draws more than one value
// from `rng` first binds each to a local, in the order the data set has
// always drawn them.
Result<DatasetCounts> generate(server::Database& db,
                               const GeneratorConfig& config_in) {
  GeneratorConfig config = config_in;
  if (config.num_producers == 0) {
    config = GeneratorConfig::derive(config_in.num_products, config_in.seed);
    config.offers_per_product = config_in.offers_per_product;
    config.reviews_per_product = config_in.reviews_per_product;
    config.features_per_product = config_in.features_per_product;
  }
  Xoshiro256 rng(config.seed);
  DatasetCounts counts;

  auto table = [&](const char* name) -> Result<TablePtr> {
    return db.tables().find(name);
  };

  // ---- Types: a shallow tree with branching factor 4 -------------------
  {
    GEMS_ASSIGN_OR_RETURN(TablePtr t, table("Types"));
    TableAppender out(*t);
    for (std::size_t i = 0; i < config.num_types; ++i) {
      const std::optional<std::string> parent =
          i == 0 ? std::nullopt : std::optional(type_id((i - 1) / 4));
      out.add_row(type_id(i), "PType", "type " + type_id(i), parent, "gen",
                  date_in_2008(rng));
      commit_if_full(out);
    }
    out.commit();
    counts.types = config.num_types;
  }

  // ---- Features ----------------------------------------------------------
  {
    GEMS_ASSIGN_OR_RETURN(TablePtr t, table("Features"));
    TableAppender out(*t);
    for (std::size_t i = 0; i < config.num_features; ++i) {
      out.add_row(feature_id(i), "PFeature", "F" + std::to_string(i % 100),
                  "feature " + feature_id(i), "gen", date_in_2008(rng));
      commit_if_full(out);
    }
    out.commit();
    counts.features = config.num_features;
  }

  // ---- Producers ----------------------------------------------------------
  {
    GEMS_ASSIGN_OR_RETURN(TablePtr t, table("Producers"));
    TableAppender out(*t);
    for (std::size_t i = 0; i < config.num_producers; ++i) {
      const std::string country = pick_country(rng);
      const std::int64_t date = date_in_2008(rng);
      out.add_row(producer_id(i), "Producer", "P" + std::to_string(i % 100),
                  "producer", "hp", country, "gen", date);
      commit_if_full(out);
    }
    out.commit();
    counts.producers = config.num_producers;
  }

  // ---- Products + ProductTypes + ProductFeatures -------------------------
  // The three commit together, Products first: the other two name product
  // ids that a Products row interns first.
  {
    GEMS_ASSIGN_OR_RETURN(TablePtr products, table("Products"));
    GEMS_ASSIGN_OR_RETURN(TablePtr ptypes, table("ProductTypes"));
    GEMS_ASSIGN_OR_RETURN(TablePtr pfeatures, table("ProductFeatures"));
    TableAppender products_out(*products);
    TableAppender ptypes_out(*ptypes);
    TableAppender pfeatures_out(*pfeatures);
    auto commit_all = [&] {
      products_out.commit();
      ptypes_out.commit();
      pfeatures_out.commit();
    };
    for (std::size_t i = 0; i < config.num_products; ++i) {
      const std::string pid = product_id(i);
      const std::string producer = producer_id(rng.below(config.num_producers));
      std::int64_t numeric[5];
      for (std::int64_t& v : numeric) v = rng.range(1, 2000);
      std::string text[5];
      for (std::string& v : text) v = "tx" + std::to_string(rng.below(1000));
      const std::int64_t date = date_in_2008(rng);
      products_out.add_row(pid, "Product", "L" + std::to_string(i % 1000),
                           "product " + pid, producer, numeric[0], numeric[1],
                           numeric[2], numeric[3], numeric[4], text[0],
                           text[1], text[2], text[3], text[4], "gen", date);

      // 1-2 direct types (deeper semantics come from subclass edges).
      const std::size_t n_types = 1 + rng.below(2);
      std::size_t last_type = config.num_types;
      for (std::size_t k = 0; k < n_types; ++k) {
        const std::size_t ty = rng.below(config.num_types);
        if (ty == last_type) continue;
        last_type = ty;
        ptypes_out.add_row(pid, type_id(ty));
        ++counts.product_types;
      }

      // Distinct features per product, skew-shared.
      const std::size_t n_feat =
          1 + rng.below(2 * config.features_per_product);
      std::vector<std::size_t> chosen;
      for (std::size_t k = 0; k < n_feat; ++k) {
        const std::size_t f = pick_feature(rng, config.num_features);
        if (std::find(chosen.begin(), chosen.end(), f) != chosen.end()) {
          continue;
        }
        chosen.push_back(f);
        pfeatures_out.add_row(pid, feature_id(f));
        ++counts.product_features;
      }
      if (products_out.staged_rows() == kChunkRows) commit_all();
    }
    commit_all();
    counts.products = config.num_products;
  }

  // ---- Vendors -------------------------------------------------------------
  {
    GEMS_ASSIGN_OR_RETURN(TablePtr t, table("Vendors"));
    TableAppender out(*t);
    for (std::size_t i = 0; i < config.num_vendors; ++i) {
      const std::string country = pick_country(rng);
      const std::int64_t date = date_in_2008(rng);
      out.add_row(vendor_id(i), "Vendor", "V" + std::to_string(i % 100),
                  "vendor", "hp", country, "gen", date);
      commit_if_full(out);
    }
    out.commit();
    counts.vendors = config.num_vendors;
  }

  // ---- Offers ---------------------------------------------------------------
  {
    GEMS_ASSIGN_OR_RETURN(TablePtr t, table("Offers"));
    TableAppender out(*t);
    std::size_t next = 0;
    for (std::size_t p = 0; p < config.num_products; ++p) {
      const std::size_t n =
          rng.below(static_cast<std::uint64_t>(2 * config.offers_per_product) +
                    1);
      for (std::size_t k = 0; k < n; ++k) {
        const std::int64_t from = kEpoch2008 + rng.range(0, 300);
        const std::string vendor = vendor_id(rng.below(config.num_vendors));
        const double price = 5.0 + rng.uniform() * rng.uniform() * 10000.0;
        const std::int64_t to = from + rng.range(10, 90);
        const std::int64_t delivery_days = rng.range(1, 14);
        const std::int64_t date = date_in_2008(rng);
        out.add_row(offer_id(next), "Offer", product_id(p), vendor, price,
                    from, to, delivery_days, "web", "gen", date);
        commit_if_full(out);
        ++next;
      }
    }
    out.commit();
    counts.offers = next;
  }

  // ---- Persons ---------------------------------------------------------------
  {
    GEMS_ASSIGN_OR_RETURN(TablePtr t, table("Persons"));
    TableAppender out(*t);
    for (std::size_t i = 0; i < config.num_persons; ++i) {
      const std::string country = pick_country(rng);
      const std::int64_t date = date_in_2008(rng);
      out.add_row(person_id(i), "Person", "N" + std::to_string(i % 100), "mb",
                  country, "gen", date);
      commit_if_full(out);
    }
    out.commit();
    counts.persons = config.num_persons;
  }

  // ---- Reviews ---------------------------------------------------------------
  {
    GEMS_ASSIGN_OR_RETURN(TablePtr t, table("Reviews"));
    TableAppender out(*t);
    std::size_t next = 0;
    for (std::size_t p = 0; p < config.num_products; ++p) {
      const std::size_t n = rng.below(
          static_cast<std::uint64_t>(2 * config.reviews_per_product) + 1);
      for (std::size_t k = 0; k < n; ++k) {
        auto rating = [&]() -> std::optional<std::int64_t> {
          // BSBM: some ratings are missing.
          if (rng.chance(0.2)) return std::nullopt;
          return rng.range(1, 10);
        };
        const std::string person = person_id(rng.below(config.num_persons));
        const std::int64_t review_date = date_in_2008(rng);
        std::optional<std::int64_t> ratings[4];
        for (auto& r : ratings) r = rating();
        const std::int64_t date = date_in_2008(rng);
        out.add_row(review_id(next), "Review", product_id(p), person,
                    review_date, "T" + std::to_string(next % 100), "txt",
                    ratings[0], ratings[1], ratings[2], ratings[3], "gen",
                    date);
        commit_if_full(out);
        ++next;
      }
    }
    out.commit();
    counts.reviews = next;
  }

  // Paper Sec. II-A2: populating tables triggers regeneration of the
  // derived vertex/edge instances. The generator mutated the live context
  // directly, so re-publish it as a fresh epoch for the read paths.
  GEMS_RETURN_IF_ERROR(db.context().rebuild_graph());
  db.refresh_epoch();
  return counts;
}

Status write_csv_files(const server::Database& db, const std::string& dir) {
  for (const auto& name : db.tables().names()) {
    GEMS_ASSIGN_OR_RETURN(TablePtr t, db.tables().find(name));
    GEMS_RETURN_IF_ERROR(
        storage::write_csv_file(*t, dir + "/" + name + ".csv"));
  }
  return Status::ok();
}

Result<std::unique_ptr<server::Database>> make_populated_database(
    const GeneratorConfig& config, server::DatabaseOptions options) {
  auto db = std::make_unique<server::Database>(std::move(options));
  auto ddl = db->run_script(full_ddl());
  GEMS_RETURN_IF_ERROR(ddl.status());
  GEMS_ASSIGN_OR_RETURN(DatasetCounts counts, generate(*db, config));
  (void)counts;
  return db;
}

}  // namespace gems::bsbm
