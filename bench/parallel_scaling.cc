// Thread-scaling harness for the parallel level executor: runs the same
// discovery at 1, 2, 4, and 8 worker threads and reports wall time and
// speedup over the serial run, for a planted synthetic relation (exact and
// approximate) and for the Lymphography stand-in (148 x 19, exact), whose
// levels are many tiny products — the shape where per-candidate overhead on
// the commit path decides whether threads help at all. Each cell is the
// fastest of kRunsPerCell runs. The dependency count is printed for every
// thread count — the executor guarantees identical output, so a mismatch is
// a bug.
//
// Usage: parallel_scaling [--scale=quick|full] [--seed=N] [--json=PATH]

#include <algorithm>
#include <cstdio>
#include <thread>
#include <vector>

#include "bench/bench_common.h"
#include "datasets/generators.h"
#include "datasets/paper_datasets.h"
#include "obs/report.h"

namespace tane {
namespace bench {
namespace {

constexpr int kThreadCounts[] = {1, 2, 4, 8};

// Scheduling noise only ever adds time, so the fastest of a few runs is the
// least-contaminated estimate of a cell; the gate's floors compare these.
constexpr int kRunsPerCell = 3;

// A 15-attribute relation with planted structure: an id-like wide column,
// correlated categoricals, and derived columns that create exact and
// approximate dependencies across several lattice levels — enough nodes
// per level to keep every worker busy.
StatusOr<Relation> MakeScalingRelation(int64_t rows, uint64_t seed) {
  SyntheticSpec spec;
  spec.rows = rows;
  spec.seed = seed;
  spec.base = {
      {"c0", 64, 0.0},  {"c1", 16, 0.5}, {"c2", 16, 0.5}, {"c3", 8, 0.0},
      {"c4", 8, 1.0},   {"c5", 4, 0.0},  {"c6", 4, 0.5},  {"c7", 3, 0.0},
      {"c8", 3, 0.0},   {"c9", 2, 0.0},
  };
  spec.derived = {
      {"d0", {0, 1}, 32, 0.0, 0.0},
      {"d1", {2, 3}, 16, 0.0, 0.0},
      {"d2", {4, 5}, 8, 0.02, 0.0},
      {"d3", {1, 6}, 8, 0.05, 0.0},
      {"d4", {7}, 2, 0.0, 0.4},
  };
  return GenerateSynthetic(spec);
}

void RunSweep(const char* name, const Relation& relation, double epsilon,
              JsonWriter* json) {
  std::printf("%s (%lld rows x %d attributes), epsilon=%.2f\n", name,
              static_cast<long long>(relation.num_rows()),
              relation.num_columns(), epsilon);
  std::printf("  %-8s %10s %10s %8s\n", "threads", "N", "time(s)",
              "speedup");
  if (json != nullptr) {
    json->BeginObject();
    json->Key("relation").Value(name);
    json->Key("rows").Value(relation.num_rows());
    json->Key("columns").Value(relation.num_columns());
    json->Key("epsilon").Value(epsilon);
    json->Key("runs").BeginArray();
  }
  double serial_seconds = 0.0;
  int64_t serial_fds = -1;
  for (int threads : kThreadCounts) {
    TaneConfig config;
    config.epsilon = epsilon;
    config.num_threads = threads;
    // The first run's counters describe the cell (they are identical in
    // every run); its time is the fastest of the cell's runs.
    const Cell cell = RunTane(relation, config);
    double seconds = *cell.seconds;
    for (int run = 1; run < kRunsPerCell; ++run) {
      seconds = std::min(seconds, *RunTane(relation, config).seconds);
    }
    if (threads == 1) {
      serial_seconds = seconds;
      serial_fds = cell.num_fds;
    }
    std::printf("  %-8d %10lld %10.3f %7.2fx\n", threads,
                static_cast<long long>(cell.num_fds), seconds,
                seconds > 0.0 ? serial_seconds / seconds : 1.0);
    if (cell.num_fds != serial_fds) {
      std::printf("  ** MISMATCH: %lld dependencies at %d threads vs %lld "
                  "serial — determinism bug **\n",
                  static_cast<long long>(cell.num_fds), threads,
                  static_cast<long long>(serial_fds));
    }
    if (json != nullptr) {
      json->BeginObject();
      json->Key("threads").Value(threads);
      json->Key("seconds").Value(seconds);
      json->Key("speedup").Value(seconds > 0.0 ? serial_seconds / seconds
                                               : 1.0);
      json->Key("num_fds").Value(cell.num_fds);
      json->Key("partition_products").Value(cell.stats.partition_products);
      json->Key("products_per_sec")
          .Value(seconds > 0.0 ? static_cast<double>(
                                     cell.stats.partition_products) /
                                     seconds
                               : 0.0);
      json->Key("product_allocations").Value(cell.stats.product_allocations);
      json->Key("peak_partition_bytes").Value(cell.stats.peak_partition_bytes);
      json->Key("matches_serial_output").Value(cell.num_fds == serial_fds);
      json->Key("histograms");
      obs::WriteHistogramsObject(cell.metrics, json);
      json->EndObject();
    }
  }
  if (json != nullptr) {
    json->EndArray();
    json->EndObject();
  }
}

int Main(int argc, char** argv) {
  const BenchOptions options = ParseBenchOptions(argc, argv);
  PrintBanner("Parallel level execution: thread scaling sweep", options);

  StatusOr<Relation> synthetic = MakeScalingRelation(
      options.full_scale ? 200000 : 20000, options.seed);
  StatusOr<Relation> lymphography =
      MakePaperDataset(PaperDataset::kLymphography, /*rows=*/0, options.seed);
  for (const StatusOr<Relation>* relation : {&synthetic, &lymphography}) {
    if (!relation->ok()) {
      std::fprintf(stderr, "generator failed: %s\n",
                   relation->status().ToString().c_str());
      return 1;
    }
  }

  JsonWriter json;
  JsonWriter* json_out = options.json_path.empty() ? nullptr : &json;
  if (json_out != nullptr) {
    json.BeginObject();
    json.Key("benchmark").Value("parallel_scaling");
    json.Key("runs_per_cell").Value(kRunsPerCell);
    // Hardware context for the scaling gate: speedup floors only bind when
    // the machine actually has the cores a thread count asks for (0 means
    // the runtime could not tell).
    json.Key("hardware_concurrency")
        .Value(static_cast<int64_t>(std::thread::hardware_concurrency()));
    json.Key("sweeps").BeginArray();
  }
  RunSweep("synthetic", *synthetic, 0.0, json_out);
  std::printf("\n");
  RunSweep("synthetic", *synthetic, 0.1, json_out);
  std::printf("\n");
  RunSweep("lymphography", *lymphography, 0.0, json_out);
  if (json_out != nullptr) {
    json.EndArray();
    json.EndObject();
    if (!json.WriteFile(options.json_path)) return 1;
  }
  return 0;
}

}  // namespace
}  // namespace bench
}  // namespace tane

int main(int argc, char** argv) { return tane::bench::Main(argc, argv); }
