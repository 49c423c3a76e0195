#include "rules/association.h"

#include <algorithm>
#include <cstdio>
#include <iterator>
#include <unordered_map>
#include <utility>

namespace tane {
namespace {

// A frequent itemset: sorted items (distinct attributes) plus the rows of
// its equivalence class (sorted ascending).
struct Itemset {
  std::vector<Item> items;
  std::vector<int32_t> rows;
};

// True when a and b share all but the last item and their last items are
// over different attributes (so the union has distinct attributes). Items
// are sorted, so the joined set stays sorted by appending b's last item.
bool Joinable(const Itemset& a, const Itemset& b) {
  const size_t k = a.items.size();
  for (size_t i = 0; i + 1 < k; ++i) {
    if (!(a.items[i] == b.items[i])) return false;
  }
  return a.items[k - 1].attribute < b.items[k - 1].attribute;
}

std::vector<int32_t> IntersectRows(const std::vector<int32_t>& a,
                                   const std::vector<int32_t>& b) {
  std::vector<int32_t> out;
  out.reserve(std::min(a.size(), b.size()));
  std::set_intersection(a.begin(), a.end(), b.begin(), b.end(),
                        std::back_inserter(out));
  return out;
}

}  // namespace

std::string AssociationRule::ToString(const Relation& relation) const {
  std::string out;
  for (size_t i = 0; i < antecedent.size(); ++i) {
    if (i > 0) out += ", ";
    const Item& item = antecedent[i];
    out += relation.schema().name(item.attribute) + "=" +
           relation.column(item.attribute).dictionary[item.code];
  }
  out += " => ";
  out += relation.schema().name(consequent.attribute) + "=" +
         relation.column(consequent.attribute).dictionary[consequent.code];
  char buf[64];
  std::snprintf(buf, sizeof(buf), "  (sup=%.3f conf=%.3f)", support,
                confidence);
  out += buf;
  return out;
}

StatusOr<std::vector<AssociationRule>> MineAssociationRules(
    const Relation& relation, const AssociationMiningOptions& options) {
  // Written so that NaN fails the range checks.
  if (!(options.min_support >= 0.0 && options.min_support <= 1.0)) {
    return Status::InvalidArgument("min_support must be in [0, 1]");
  }
  if (!(options.min_confidence >= 0.0 && options.min_confidence <= 1.0)) {
    return Status::InvalidArgument("min_confidence must be in [0, 1]");
  }
  if (options.max_itemset_size < 2) {
    return Status::InvalidArgument("max_itemset_size must be >= 2");
  }
  const int64_t rows = relation.num_rows();
  const double min_rows = options.min_support * static_cast<double>(rows);

  // Level 1: frequent items = large-enough equivalence classes of the
  // single-attribute partitions.
  std::vector<Itemset> level;
  for (int a = 0; a < relation.num_columns(); ++a) {
    const Column& column = relation.column(a);
    std::vector<std::vector<int32_t>> classes(column.cardinality());
    for (int64_t row = 0; row < rows; ++row) {
      classes[column.codes[row]].push_back(static_cast<int32_t>(row));
    }
    for (int32_t code = 0; code < column.cardinality(); ++code) {
      if (static_cast<double>(classes[code].size()) + 1e-9 >= min_rows &&
          !classes[code].empty()) {
        level.push_back({{{a, code}}, std::move(classes[code])});
      }
    }
  }

  // Support lookup for confidence computation, keyed by the item vector.
  struct ItemsHash {
    size_t operator()(const std::vector<Item>& items) const {
      uint64_t h = 0x9e3779b97f4a7c15ULL;
      for (const Item& item : items) {
        h ^= (static_cast<uint64_t>(item.attribute) << 32) ^
             static_cast<uint64_t>(static_cast<uint32_t>(item.code));
        h *= 0xbf58476d1ce4e5b9ULL;
      }
      return static_cast<size_t>(h ^ (h >> 29));
    }
  };
  std::unordered_map<std::vector<Item>, int64_t, ItemsHash> support_count;
  support_count.reserve(level.size() * 4);
  // The empty itemset supports every row.
  support_count[{}] = rows;
  for (const Itemset& itemset : level) {
    support_count[itemset.items] = static_cast<int64_t>(itemset.rows.size());
  }

  std::vector<AssociationRule> rules;
  int64_t total_itemsets = static_cast<int64_t>(level.size());

  for (int size = 2;
       size <= options.max_itemset_size && level.size() >= 2; ++size) {
    // Candidates via prefix join; the row set is the intersection of the
    // parents' equivalence classes. (The full Apriori subset check is
    // subsumed by the support test on the exact row set.)
    std::vector<Itemset> next;
    for (size_t i = 0; i < level.size(); ++i) {
      for (size_t j = i + 1; j < level.size(); ++j) {
        if (!Joinable(level[i], level[j])) {
          // `level` is sorted by items, so once prefixes diverge no later j
          // can match i — but attribute-equal last items may sit between,
          // so only break when the shared prefix itself changed.
          bool prefix_equal = true;
          for (size_t p = 0; p + 1 < level[i].items.size(); ++p) {
            if (!(level[i].items[p] == level[j].items[p])) {
              prefix_equal = false;
              break;
            }
          }
          if (!prefix_equal) break;
          continue;
        }
        std::vector<int32_t> shared =
            IntersectRows(level[i].rows, level[j].rows);
        if (static_cast<double>(shared.size()) + 1e-9 < min_rows ||
            shared.empty()) {
          continue;
        }
        Itemset joined;
        joined.items = level[i].items;
        joined.items.push_back(level[j].items.back());
        joined.rows = std::move(shared);
        support_count[joined.items] =
            static_cast<int64_t>(joined.rows.size());
        next.push_back(std::move(joined));
        if (++total_itemsets > options.max_itemsets) {
          return Status::ResourceExhausted(
              "frequent itemset cap exceeded; raise min_support");
        }
      }
    }

    // Emit rules Z\{i} => i from every new frequent itemset.
    for (const Itemset& itemset : next) {
      const int64_t z_support =
          static_cast<int64_t>(itemset.rows.size());
      for (size_t drop = 0; drop < itemset.items.size(); ++drop) {
        std::vector<Item> antecedent;
        antecedent.reserve(itemset.items.size() - 1);
        for (size_t k = 0; k < itemset.items.size(); ++k) {
          if (k != drop) antecedent.push_back(itemset.items[k]);
        }
        const auto it = support_count.find(antecedent);
        if (it == support_count.end() || it->second == 0) continue;
        const double confidence =
            static_cast<double>(z_support) / static_cast<double>(it->second);
        if (confidence + 1e-12 < options.min_confidence) continue;
        AssociationRule rule;
        rule.antecedent = std::move(antecedent);
        rule.consequent = itemset.items[drop];
        rule.support_count = z_support;
        rule.support = rows == 0 ? 0.0
                                 : static_cast<double>(z_support) /
                                       static_cast<double>(rows);
        rule.confidence = confidence;
        rules.push_back(std::move(rule));
      }
    }
    level = std::move(next);
  }

  std::sort(rules.begin(), rules.end(),
            [](const AssociationRule& a, const AssociationRule& b) {
              if (a.confidence != b.confidence) {
                return a.confidence > b.confidence;
              }
              if (a.support != b.support) return a.support > b.support;
              if (!(a.consequent == b.consequent)) {
                return a.consequent < b.consequent;
              }
              return a.antecedent < b.antecedent;
            });
  return rules;
}

}  // namespace tane
