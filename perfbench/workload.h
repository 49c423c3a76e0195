#ifndef TANE_PERFBENCH_WORKLOAD_H_
#define TANE_PERFBENCH_WORKLOAD_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/config.h"
#include "core/result.h"
#include "datasets/paper_datasets.h"
#include "relation/relation.h"
#include "util/status.h"

namespace perfbench {

/// One benchmark workload: a paper stand-in cut to `columns` columns and
/// `rows` rows, discovered at `epsilon`. `budget_mb` > 0 runs it under
/// StorageMode::kAuto with that RunController memory budget.
struct Workload {
  std::string name;
  tane::PaperDataset dataset;
  int64_t rows = 0;
  int columns = 0;
  double epsilon = 0.0;
  int64_t budget_mb = 0;
};

/// The named workload; `tiny` selects the self-test size of the same shape.
tane::StatusOr<Workload> FindWorkload(const std::string& name, bool tiny);

/// The relation a run sees, plus the map back to the stand-in's columns.
struct BenchInput {
  tane::Relation relation;
  /// base_column[c] = stand-in column that column c of `relation` holds.
  std::vector<int> base_column;
};

/// Generates the stand-in (generator seed 42) and applies the seed's
/// isomorphism: a column permutation, a row permutation, and a relabeling
/// of every column's codes. Every seed therefore has the same dependency
/// structure and the same lattice, but a different attribute order and
/// memory layout; the dependency digest is computed in stand-in columns, so
/// one reference digest holds for every seed.
tane::StatusOr<BenchInput> MakeInput(const Workload& workload, uint64_t seed);

/// The discovery configuration of `workload` at `threads` (defaults
/// otherwise). `controller` backs the spill budget; `spill_dir` must be a
/// directory inside the checkout that does not exist yet.
tane::TaneConfig MakeConfig(const Workload& workload, int threads,
                            tane::RunController* controller,
                            const std::string& spill_dir);

/// Order-independent FNV-1a digest of the (FDs, keys) output, in stand-in
/// column ids, with each dependency's error as an integer removal count.
std::string Digest(const tane::DiscoveryResult& result, const BenchInput& input);

/// splitmix64: the benchmark's only random source, identical on every
/// platform and standard library.
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {}
  uint64_t Next();
  /// Uniform in [0, bound).
  uint64_t Below(uint64_t bound) { return Next() % bound; }

 private:
  uint64_t state_;
};

}  // namespace perfbench

#endif  // TANE_PERFBENCH_WORKLOAD_H_
