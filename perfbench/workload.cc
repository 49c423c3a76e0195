#include "workload.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <numeric>
#include <utility>

#include "relation/schema.h"

namespace perfbench {
namespace {

// Full-size workloads, then their self-test shapes. See BENCHMARK.json for
// why each one is in the set.
const Workload kWorkloads[] = {
    {"adult", tane::PaperDataset::kAdult, 8000, 15, 0.0, 0},
    {"hep_approx", tane::PaperDataset::kHepatitis, 1000, 16, 0.05, 0},
    {"adult_spill", tane::PaperDataset::kAdult, 6000, 13, 0.0, 16},
};
const Workload kTinyWorkloads[] = {
    {"adult", tane::PaperDataset::kAdult, 2000, 9, 0.0, 0},
    {"hep_approx", tane::PaperDataset::kHepatitis, 300, 10, 0.05, 0},
    {"adult_spill", tane::PaperDataset::kAdult, 2000, 10, 0.0, 1},
};

// Fisher-Yates permutation of [0, n).
std::vector<int32_t> Permutation(int64_t n, Rng* rng) {
  std::vector<int32_t> perm(n);
  std::iota(perm.begin(), perm.end(), 0);
  for (int64_t i = n - 1; i > 0; --i) {
    std::swap(perm[i], perm[rng->Below(static_cast<uint64_t>(i) + 1)]);
  }
  return perm;
}

uint64_t Fnv(uint64_t hash, uint64_t word) {
  for (int byte = 0; byte < 8; ++byte) {
    hash ^= (word >> (8 * byte)) & 0xff;
    hash *= 1099511628211ULL;
  }
  return hash;
}

uint64_t BaseMask(tane::AttributeSet set, const std::vector<int>& base) {
  uint64_t mask = 0;
  for (int c : set.ToIndices()) mask |= uint64_t{1} << base[c];
  return mask;
}

}  // namespace

uint64_t Rng::Next() {
  uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

tane::StatusOr<Workload> FindWorkload(const std::string& name, bool tiny) {
  for (const Workload& w : tiny ? kTinyWorkloads : kWorkloads) {
    if (w.name == name) return w;
  }
  return tane::Status::NotFound("unknown workload: " + name);
}

tane::StatusOr<BenchInput> MakeInput(const Workload& workload, uint64_t seed) {
  TANE_ASSIGN_OR_RETURN(
      tane::Relation base,
      tane::MakePaperDataset(workload.dataset, workload.rows, /*seed=*/42));
  if (workload.columns > base.num_columns()) {
    return tane::Status::InvalidArgument("workload wants more columns");
  }
  Rng rng(seed);
  const int64_t n = base.num_rows();
  BenchInput input;
  input.base_column.resize(workload.columns);
  const std::vector<int32_t> column_order = Permutation(workload.columns, &rng);
  const std::vector<int32_t> row_order = Permutation(n, &rng);
  std::vector<std::string> names;
  std::vector<tane::Column> columns(workload.columns);
  for (int c = 0; c < workload.columns; ++c) {
    const int from = column_order[c];
    input.base_column[c] = from;
    names.push_back(base.schema().name(from));
    const tane::Column& source = base.column(from);
    const std::vector<int32_t> relabel =
        Permutation(source.cardinality(), &rng);
    tane::Column& column = columns[c];
    column.dictionary.resize(source.dictionary.size());
    for (size_t code = 0; code < source.dictionary.size(); ++code) {
      column.dictionary[relabel[code]] = source.dictionary[code];
    }
    column.codes.resize(n);
    for (int64_t row = 0; row < n; ++row) {
      column.codes[row] = relabel[source.codes[row_order[row]]];
    }
  }
  TANE_ASSIGN_OR_RETURN(tane::Schema schema,
                        tane::Schema::Create(std::move(names)));
  TANE_ASSIGN_OR_RETURN(
      input.relation,
      tane::Relation::Create(std::move(schema), std::move(columns), n));
  return input;
}

tane::TaneConfig MakeConfig(const Workload& workload, int threads,
                            tane::RunController* controller,
                            const std::string& spill_dir) {
  tane::TaneConfig config;
  config.epsilon = workload.epsilon;
  config.num_threads = threads;
  if (workload.budget_mb > 0) {
    controller->set_memory_budget_bytes(workload.budget_mb << 20);
    config.run_controller = controller;
    config.storage = tane::StorageMode::kAuto;
    config.spill_directory = spill_dir;
  }
  return config;
}

std::string Digest(const tane::DiscoveryResult& result,
                   const BenchInput& input) {
  const double n = static_cast<double>(input.relation.num_rows());
  std::vector<std::pair<uint64_t, uint64_t>> records;
  for (const tane::FunctionalDependency& fd : result.fds) {
    const uint64_t removals = static_cast<uint64_t>(std::llround(fd.error * n));
    records.emplace_back(BaseMask(fd.lhs, input.base_column),
                         (static_cast<uint64_t>(input.base_column[fd.rhs])
                          << 48) | removals);
  }
  for (tane::AttributeSet key : result.keys) {
    records.emplace_back(BaseMask(key, input.base_column), ~uint64_t{0});
  }
  std::sort(records.begin(), records.end());
  uint64_t hash = 14695981039346656037ULL;
  for (const auto& [a, b] : records) hash = Fnv(Fnv(hash, a), b);
  char text[64];
  std::snprintf(text, sizeof(text), "%zu/%zu/%016llx", result.fds.size(),
                result.keys.size(), static_cast<unsigned long long>(hash));
  return text;
}

}  // namespace perfbench
