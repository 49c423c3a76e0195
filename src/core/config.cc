#include "core/config.h"

#include <cmath>

namespace tane {

Status TaneConfig::Validate() const {
  // Written so that NaN fails every range check.
  if (!(epsilon >= 0.0 && epsilon <= 1.0)) {
    return Status::InvalidArgument("epsilon must be in [0, 1], got " +
                                   std::to_string(epsilon));
  }
  if (max_lhs_size < 0) {
    return Status::InvalidArgument("max_lhs_size must be >= 0");
  }
  if (num_threads < 1 || num_threads > kMaxNumThreads) {
    return Status::InvalidArgument(
        "num_threads must be in [1, " + std::to_string(kMaxNumThreads) +
        "], got " + std::to_string(num_threads));
  }
  if (run_controller != nullptr && run_controller->memory_budget_bytes() < 0) {
    return Status::InvalidArgument("memory budget must be >= 0 bytes");
  }
  if (!std::isfinite(progress_period_seconds) ||
      progress_period_seconds < 0.0) {
    return Status::InvalidArgument(
        "progress_period_seconds must be finite and >= 0");
  }
  if (stop_after_level < 0) {
    return Status::InvalidArgument("stop_after_level must be >= 0");
  }
  if (checkpoint_directory.empty() && (checkpoint_every_level || resume)) {
    return Status::InvalidArgument(
        "checkpoint_every_level/resume require a checkpoint_directory");
  }
  return Status::OK();
}

}  // namespace tane
