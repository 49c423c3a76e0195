#include "oracle.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <vector>

#include "workload.h"

namespace perfbench {
namespace {

using Codes = std::vector<const std::vector<int32_t>*>;

Codes ColumnCodes(const tane::Relation& relation, const std::vector<int>& cols) {
  Codes codes;
  for (int c : cols) codes.push_back(&relation.column(c).codes);
  return codes;
}

// Row ids sorted on the codes of `cols`, lexicographically.
std::vector<int32_t> SortedRows(const tane::Relation& relation,
                                const Codes& codes) {
  std::vector<int32_t> rows(relation.num_rows());
  std::iota(rows.begin(), rows.end(), 0);
  std::sort(rows.begin(), rows.end(), [&](int32_t a, int32_t b) {
    for (const std::vector<int32_t>* column : codes) {
      if ((*column)[a] != (*column)[b]) return (*column)[a] < (*column)[b];
    }
    return false;
  });
  return rows;
}

bool SameOn(const Codes& codes, int32_t a, int32_t b) {
  for (const std::vector<int32_t>* column : codes) {
    if ((*column)[a] != (*column)[b]) return false;
  }
  return true;
}

// g3 removal count of lhs → rhs: rows sorted on (lhs, rhs) form one block
// per lhs value; each block keeps its longest run of one rhs value.
int64_t Removals(const tane::Relation& relation, std::vector<int> lhs,
                 int rhs) {
  const Codes lhs_codes = ColumnCodes(relation, lhs);
  lhs.push_back(rhs);
  const std::vector<int32_t> rows =
      SortedRows(relation, ColumnCodes(relation, lhs));
  const std::vector<int32_t>& rhs_codes = relation.column(rhs).codes;
  int64_t kept = 0;
  size_t i = 0;
  while (i < rows.size()) {
    int64_t best = 0;
    size_t j = i;
    while (j < rows.size() && SameOn(lhs_codes, rows[i], rows[j])) {
      size_t k = j;
      while (k < rows.size() && SameOn(lhs_codes, rows[j], rows[k]) &&
             rhs_codes[rows[k]] == rhs_codes[rows[j]]) {
        ++k;
      }
      best = std::max<int64_t>(best, static_cast<int64_t>(k - j));
      j = k;
    }
    kept += best;
    i = j;
  }
  return relation.num_rows() - kept;
}

bool HasDuplicateRows(const tane::Relation& relation,
                      const std::vector<int>& cols) {
  const Codes codes = ColumnCodes(relation, cols);
  const std::vector<int32_t> rows = SortedRows(relation, codes);
  for (size_t i = 1; i < rows.size(); ++i) {
    if (SameOn(codes, rows[i - 1], rows[i])) return true;
  }
  return false;
}

std::vector<int> Without(const std::vector<int>& cols, int drop) {
  std::vector<int> out;
  for (int c : cols) {
    if (c != drop) out.push_back(c);
  }
  return out;
}

// Up to `count` distinct indices of [0, n), seeded.
std::vector<size_t> Sample(size_t n, int count, Rng* rng) {
  std::vector<size_t> all(n);
  std::iota(all.begin(), all.end(), 0);
  const size_t take = std::min(n, static_cast<size_t>(count));
  for (size_t i = 0; i < take; ++i) {
    std::swap(all[i], all[i + rng->Below(n - i)]);
  }
  all.resize(take);
  return all;
}

}  // namespace

std::string VerifySample(const tane::Relation& relation,
                         const tane::DiscoveryResult& result, double epsilon,
                         uint64_t seed, int max_fds, int max_keys) {
  const int64_t n = relation.num_rows();
  const auto threshold = static_cast<int64_t>(
      std::floor(static_cast<long double>(epsilon) * n));
  Rng rng(seed ^ 0x6f7261636c65ULL);
  for (size_t i : Sample(result.fds.size(), max_fds, &rng)) {
    const tane::FunctionalDependency& fd = result.fds[i];
    const std::vector<int> lhs = fd.lhs.ToIndices();
    const std::string name = fd.lhs.ToString() + "->" + std::to_string(fd.rhs);
    const int64_t removals = Removals(relation, lhs, fd.rhs);
    if (removals > threshold) return "invalid dependency " + name;
    if (removals != std::llround(fd.error * static_cast<double>(n))) {
      return "wrong error on " + name;
    }
    for (int b : lhs) {
      if (Removals(relation, Without(lhs, b), fd.rhs) <= threshold) {
        return "non-minimal dependency " + name;
      }
    }
  }
  for (size_t i : Sample(result.keys.size(), max_keys, &rng)) {
    const std::vector<int> key = result.keys[i].ToIndices();
    const std::string name = result.keys[i].ToString();
    if (HasDuplicateRows(relation, key)) return "not a key " + name;
    for (int b : key) {
      if (!HasDuplicateRows(relation, Without(key, b))) {
        return "non-minimal key " + name;
      }
    }
  }
  return "";
}

}  // namespace perfbench
