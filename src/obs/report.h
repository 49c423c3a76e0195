#ifndef TANE_OBS_REPORT_H_
#define TANE_OBS_REPORT_H_

#include <cstdint>
#include <string>

#include "core/config.h"
#include "core/result.h"
#include "util/json_writer.h"

namespace tane {
namespace obs {

/// Driver-supplied context for a run report: where the data came from and
/// how long the non-discovery phases took. All fields optional; empty
/// strings / zeros are emitted as-is.
struct RunReportOptions {
  std::string dataset_path;
  /// Content fingerprint of the encoded relation ("crc32:xxxxxxxx").
  std::string dataset_fingerprint;
  int64_t dataset_rows = 0;
  int dataset_columns = 0;
  double read_seconds = 0.0;
  double report_seconds = 0.0;
  /// Total process time; when > 0 the timing object gains an "other"
  /// component so read + discover + report + other == total exactly.
  double total_seconds = 0.0;
};

/// Writers for the metric sub-objects, shared with the bench harness so
/// BENCH_*.json and run reports agree on shape.
void WriteCountersObject(const MetricsSnapshot& snapshot, JsonWriter* json);
void WriteGaugesObject(const MetricsSnapshot& snapshot, JsonWriter* json);
/// Per histogram: {count, sum, mean, p50, p95, max, buckets:[...]}.
void WriteHistogramsObject(const MetricsSnapshot& snapshot, JsonWriter* json);
/// {"counters":{...},"gauges":{...}} — histograms stay a sibling object.
void WriteMetricsObject(const MetricsSnapshot& snapshot, JsonWriter* json);
/// {"backend","phases":[...],"derived":{...}} — the per-phase
/// hardware-counter aggregates plus the derived IPC / miss-rate ratios.
void WriteHwObject(const MetricsSnapshot& snapshot, JsonWriter* json);

/// Serializes the machine-readable run report (schema_version 6): config,
/// dataset identity, result summary, timing breakdown, full metric dump,
/// histogram summaries, hardware-counter aggregates, trace-ring status,
/// and the per-level table. The per-level rows carry exactly the values
/// `tane discover --stats` prints, so the two outputs can be diffed
/// field-for-field.
void WriteRunReport(const TaneConfig& config, const DiscoveryResult& result,
                    const RunReportOptions& options, JsonWriter* json);

}  // namespace obs
}  // namespace tane

#endif  // TANE_OBS_REPORT_H_
