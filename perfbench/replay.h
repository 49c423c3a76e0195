#ifndef TANE_PERFBENCH_REPLAY_H_
#define TANE_PERFBENCH_REPLAY_H_

#include <cstdint>
#include <string>

#include "obs/trace.h"
#include "util/status.h"
#include "workload.h"

namespace perfbench {

/// Layer totals of one replayed run. Times are seconds, summed over levels
/// from the per-level "replay level N" spans on the caller's tracer.
struct ReplayTotals {
  double build_s = 0;     // PartitionBuilder::ForAttribute (level 1)
  double generate_s = 0;  // GenerateNextLevel
  double product_s = 0;   // PartitionProduct::Multiply
  double error_s = 0;     // validity tests: e(·) compares, g3 bounds, scans
  double put_s = 0;       // PartitionStore::Put (+ EndTaskWindow migration)
  double get_s = 0;       // PartitionStore::Peek / Get
  double release_s = 0;   // PartitionStore::Release
  int64_t candidates = 0;  // level-1 attributes + generated candidates
  int64_t products = 0;
  int64_t product_rows = 0;  // PartitionProduct::rows_scanned
  int64_t scans = 0;  // RemovalCount calls the g3 bound did not avoid
};

/// Replays every level window of `input`'s run on its exact operands. The
/// survivors of each level come from the public level-boundary snapshots
/// (stop_after_level + resume into `scratch_dir`, then LoadLatestSnapshot);
/// on them the replay calls GenerateNextLevel, PartitionProduct::Multiply,
/// the g3 bounds and G3Calculator::RemovalCount, and the workload's
/// PartitionStore itself, timing each call into per-level accumulators
/// that land as arguments of one span per level on `tracer`.
tane::StatusOr<ReplayTotals> Replay(const Workload& workload,
                                    const BenchInput& input,
                                    const std::string& scratch_dir,
                                    tane::obs::Tracer* tracer);

}  // namespace perfbench

#endif  // TANE_PERFBENCH_REPLAY_H_
