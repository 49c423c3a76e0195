#include "obs/report.h"

#include <algorithm>

#include "obs/trace.h"

namespace tane {
namespace obs {

namespace {

const char* MeasureName(ErrorMeasure measure) {
  switch (measure) {
    case ErrorMeasure::kG3: return "g3";
    case ErrorMeasure::kG2: return "g2";
    case ErrorMeasure::kG1: return "g1";
  }
  return "unknown";
}

const char* StorageName(StorageMode mode) {
  switch (mode) {
    case StorageMode::kMemory: return "memory";
    case StorageMode::kDisk:   return "disk";
    case StorageMode::kAuto:   return "auto";
  }
  return "unknown";
}

void WriteHistogramObject(const HistogramSnapshot& h, JsonWriter* json) {
  json->BeginObject();
  json->Key("count").Value(h.count);
  json->Key("sum").Value(h.sum);
  json->Key("mean").Value(h.mean());
  json->Key("p50").Value(h.Percentile(50.0));
  json->Key("p95").Value(h.Percentile(95.0));
  json->Key("max").Value(h.max);
  // Trailing all-zero buckets are elided; bucket b >= 1 covers
  // [2^(b-1), 2^b).
  int last = kHistogramBuckets - 1;
  while (last > 0 && h.buckets[last] == 0) --last;
  json->Key("buckets").BeginArray();
  for (int b = 0; b <= last; ++b) json->Value(h.buckets[b]);
  json->EndArray();
  json->EndObject();
}

}  // namespace

void WriteCountersObject(const MetricsSnapshot& snapshot, JsonWriter* json) {
  json->BeginObject();
  for (int id = 0; id < kCounterCount; ++id) {
    json->Key(CounterName(static_cast<CounterId>(id)))
        .Value(snapshot.counters[id]);
  }
  json->EndObject();
}

void WriteGaugesObject(const MetricsSnapshot& snapshot, JsonWriter* json) {
  json->BeginObject();
  for (int id = 0; id < kGaugeCount; ++id) {
    json->Key(GaugeName(static_cast<GaugeId>(id)))
        .Value(snapshot.gauges[id]);
  }
  json->EndObject();
}

void WriteHistogramsObject(const MetricsSnapshot& snapshot, JsonWriter* json) {
  json->BeginObject();
  for (int id = 0; id < kHistogramCount; ++id) {
    json->Key(HistogramName(static_cast<HistogramId>(id)));
    WriteHistogramObject(snapshot.histograms[id], json);
  }
  json->EndObject();
}

void WriteMetricsObject(const MetricsSnapshot& snapshot, JsonWriter* json) {
  json->BeginObject();
  json->Key("counters");
  WriteCountersObject(snapshot, json);
  json->Key("gauges");
  WriteGaugesObject(snapshot, json);
  json->EndObject();
}

void WriteHwObject(const MetricsSnapshot& snapshot, JsonWriter* json) {
  json->BeginObject();
  json->Key("backend").Value(snapshot.hw_backend);
  json->Key("phases").BeginArray();
  const HwPhaseSnapshot* run_phase = nullptr;
  const HwPhaseSnapshot* products_phase = nullptr;
  const HwPhaseSnapshot* validity_phase = nullptr;
  for (const HwPhaseSnapshot& phase : snapshot.hw_phases) {
    if (phase.phase == "run") run_phase = &phase;
    if (phase.phase == "products") products_phase = &phase;
    if (phase.phase == "validity") validity_phase = &phase;
    json->BeginObject();
    json->Key("phase").Value(phase.phase);
    json->Key("spans").Value(phase.spans);
    json->Key("cycles").Value(phase.hw.cycles);
    json->Key("instructions").Value(phase.hw.instructions);
    json->Key("cache_references").Value(phase.hw.cache_references);
    json->Key("cache_misses").Value(phase.hw.cache_misses);
    json->Key("branch_misses").Value(phase.hw.branch_misses);
    json->Key("ipc").Value(phase.hw.ipc());
    json->EndObject();
  }
  json->EndArray();
  // The ratios an optimization session starts from. Zero-valued under the
  // noop backend — present either way so consumers never branch on shape.
  const int64_t product_rows =
      snapshot.counter(kProductRowsScanned);
  const int64_t g3_rows = snapshot.counter(kG3RowsScanned);
  json->Key("derived").BeginObject();
  json->Key("run_ipc").Value(run_phase != nullptr ? run_phase->hw.ipc()
                                                  : 0.0);
  json->Key("products_cache_misses_per_row")
      .Value(products_phase != nullptr && product_rows > 0
                 ? static_cast<double>(products_phase->hw.cache_misses) /
                       static_cast<double>(product_rows)
                 : 0.0);
  json->Key("validity_cache_misses_per_row")
      .Value(validity_phase != nullptr && g3_rows > 0
                 ? static_cast<double>(validity_phase->hw.cache_misses) /
                       static_cast<double>(g3_rows)
                 : 0.0);
  json->EndObject();
  json->EndObject();
}

void WriteRunReport(const TaneConfig& config, const DiscoveryResult& result,
                    const RunReportOptions& options, JsonWriter* json) {
  const DiscoveryStats& stats = result.stats;

  json->BeginObject();
  // v2 added the "checkpoint" block and the "resumable" result field; v3
  // the "hw" hardware-counter block and the "trace" ring status; v4 drops
  // the partition-interning cache's config flag and metrics, and the
  // levels' "speedup" field; v5 drops the "pooled_bytes" gauge; v6 drops
  // "config.kernel" and "hw.kernel" with the kernel dispatch.
  json->Key("schema_version").Value(6);
  json->Key("tool").Value("tane");

  json->Key("config").BeginObject();
  json->Key("epsilon").Value(config.epsilon);
  json->Key("measure").Value(MeasureName(config.measure));
  json->Key("max_lhs_size").Value(config.max_lhs_size);
  json->Key("num_threads").Value(config.num_threads);
  json->Key("storage").Value(StorageName(config.storage));
  json->Key("use_rhs_plus_pruning").Value(config.use_rhs_plus_pruning);
  json->Key("use_key_pruning").Value(config.use_key_pruning);
  json->Key("use_covered_rhs_pruning").Value(config.use_covered_rhs_pruning);
  json->Key("use_g3_bounds").Value(config.use_g3_bounds);
  json->Key("use_stripped_partitions").Value(config.use_stripped_partitions);
  json->Key("use_partition_products").Value(config.use_partition_products);
  json->EndObject();

  json->Key("dataset").BeginObject();
  json->Key("path").Value(options.dataset_path);
  json->Key("fingerprint").Value(options.dataset_fingerprint);
  json->Key("rows").Value(options.dataset_rows);
  json->Key("columns").Value(options.dataset_columns);
  json->EndObject();

  json->Key("result").BeginObject();
  json->Key("num_fds").Value(result.num_fds());
  json->Key("num_keys").Value(static_cast<int64_t>(result.keys.size()));
  json->Key("completion").Value(CompletionToString(result.completion));
  json->Key("completed_levels").Value(result.completed_levels);
  json->Key("levels_processed").Value(stats.levels_processed);
  json->Key("degraded_to_disk").Value(stats.degraded_to_disk);
  json->Key("resumable").Value(result.resumable);
  json->EndObject();

  json->Key("checkpoint").BeginObject();
  json->Key("writes").Value(stats.checkpoint_writes);
  json->Key("bytes").Value(stats.checkpoint_bytes);
  json->Key("seconds").Value(stats.checkpoint_seconds);
  json->Key("resumed_from_level").Value(stats.resumed_from_level);
  json->EndObject();

  const double accounted =
      options.read_seconds + stats.wall_seconds + options.report_seconds;
  json->Key("timing").BeginObject();
  json->Key("read_seconds").Value(options.read_seconds);
  json->Key("discover_seconds").Value(stats.wall_seconds);
  json->Key("report_seconds").Value(options.report_seconds);
  if (options.total_seconds > 0.0) {
    json->Key("other_seconds")
        .Value(std::max(0.0, options.total_seconds - accounted));
    json->Key("total_seconds").Value(options.total_seconds);
  } else {
    json->Key("total_seconds").Value(accounted);
  }
  json->EndObject();

  json->Key("metrics");
  WriteMetricsObject(result.metrics, json);
  json->Key("histograms");
  WriteHistogramsObject(result.metrics, json);

  json->Key("hw");
  WriteHwObject(result.metrics, json);

  // Ring-buffer status of the tracer this run used (if any): a nonzero
  // dropped count means the trace file is a truncated window, and readers
  // must not treat it as the whole story.
  json->Key("trace").BeginObject();
  json->Key("enabled").Value(config.tracer != nullptr);
  json->Key("buffered_events")
      .Value(config.tracer != nullptr ? config.tracer->buffered()
                                      : int64_t{0});
  json->Key("dropped_events")
      .Value(config.tracer != nullptr ? config.tracer->dropped()
                                      : int64_t{0});
  json->EndObject();

  // Mirrors the CLI's "# level L: ..." lines value-for-value.
  json->Key("levels").BeginArray();
  for (const LevelParallelStats& level : stats.level_parallel) {
    json->BeginObject();
    json->Key("level").Value(level.level);
    json->Key("nodes").Value(level.nodes);
    json->Key("wall_seconds").Value(level.wall_seconds);
    json->Key("worker_seconds").Value(level.worker_seconds);
    json->EndObject();
  }
  json->EndArray();

  json->EndObject();
}

}  // namespace obs
}  // namespace tane
