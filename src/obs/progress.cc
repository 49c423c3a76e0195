#include "obs/progress.h"

#include <cmath>
#include <cstdio>

#include "util/logging.h"
#include "util/mutex.h"

namespace tane {
namespace obs {

namespace {

void AppendF(std::string* out, const char* fmt, double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), fmt, value);
  *out += buffer;
}

}  // namespace

ProgressMonitor::ProgressMonitor(const MetricsRegistry* registry,
                                 Options options)
    : registry_(registry),
      options_(options),
      start_(std::chrono::steady_clock::now()) {}

ProgressMonitor::~ProgressMonitor() {
  // Silent teardown: Stop() emits the "final" line, the destructor only
  // guarantees the thread is joined if the owner forgot.
  StopAndJoin();
}

void ProgressMonitor::Start() {
  MutexLock lock(&mu_);
  if (thread_.joinable()) return;
  stop_requested_ = false;
  thread_ = std::thread([this] { Loop(); });
}

void ProgressMonitor::StopAndJoin() {
  // Move the handle out under the lock and join outside it: the Loop
  // thread takes mu_ itself, and joining the moved-to local means two
  // concurrent stops can never both call join() on the same thread.
  std::thread to_join;
  {
    MutexLock lock(&mu_);
    stop_requested_ = true;
    to_join = std::move(thread_);
  }
  cv_.NotifyAll();
  if (to_join.joinable()) to_join.join();
}

void ProgressMonitor::Stop() {
  StopAndJoin();
  EmitNow("final");
}

void ProgressMonitor::EmitNow(std::string_view reason) {
  TANE_LOG(Info) << FormatLine(reason);
}

std::string ProgressMonitor::FormatLine(std::string_view reason) {
  const MetricsSnapshot snap = registry_->Snapshot();
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start_)
          .count();

  const int64_t nodes_total = snap.gauge(kLevelNodesTotal);
  const int64_t nodes_done =
      snap.counter(kNodesProcessed) - snap.gauge(kLevelNodesStart);

  // Smooth the node rate across heartbeats so the ETA does not whipsaw on
  // one fast or slow batch. The product rate is deliberately *not*
  // smoothed: it is the live-throughput readout, and an operator watching
  // a long run wants the last interval, stalls included.
  double eta_seconds = -1.0;
  double products_per_second = 0.0;
  {
    MutexLock lock(&rate_mu_);
    const double dt = elapsed - last_elapsed_;
    const int64_t dn = nodes_done - last_nodes_done_;
    const int64_t products = snap.counter(kPartitionProducts);
    const int64_t dp = products - last_products_;
    if (dt > 1e-6 && dn >= 0) {
      const double instant = static_cast<double>(dn) / dt;
      nodes_per_second_ = nodes_per_second_ <= 0.0
                              ? instant
                              : 0.5 * nodes_per_second_ + 0.5 * instant;
    }
    if (dt > 1e-6 && dp >= 0) {
      products_per_second_ = static_cast<double>(dp) / dt;
    }
    last_elapsed_ = elapsed;
    last_nodes_done_ = nodes_done;
    last_products_ = products;
    products_per_second = products_per_second_;
    if (nodes_per_second_ > 0.0 && nodes_total > nodes_done) {
      eta_seconds =
          static_cast<double>(nodes_total - nodes_done) / nodes_per_second_;
    }
  }

  std::string line = "progress";
  if (!reason.empty()) {
    line += " (";
    line += reason;
    line += ")";
  }
  AppendF(&line, " elapsed=%.1fs", elapsed);
  line += " level=" + std::to_string(snap.gauge(kCurrentLevel));
  line += " nodes=" + std::to_string(nodes_done) + "/" +
          std::to_string(nodes_total);
  line += " tests=" + std::to_string(snap.counter(kValidityTests));
  line += " products=" + std::to_string(snap.counter(kPartitionProducts));
  line += " fds=" + std::to_string(snap.counter(kFdsEmitted));
  AppendF(&line, " products_per_sec=%.0f", products_per_second);
  AppendF(&line, " resident_mb=%.1f",
          static_cast<double>(snap.gauge(kResidentBytes)) / (1024.0 * 1024.0));
  AppendF(&line, " peak_mb=%.1f",
          static_cast<double>(snap.gauge(kPeakResidentBytes)) /
              (1024.0 * 1024.0));
  line += " spilled=" +
          std::to_string(snap.gauge(kDegradedToDisk) != 0 ? 1 : 0);
  if (eta_seconds >= 0.0) AppendF(&line, " eta_level=%.1fs", eta_seconds);
  if (options_.controller != nullptr && options_.controller->has_deadline()) {
    AppendF(&line, " deadline_left=%.1fs",
            options_.controller->deadline_remaining_seconds());
  }
  return line;
}

void ProgressMonitor::Loop() {
  using Clock = std::chrono::steady_clock;
  const std::chrono::duration<double> seconds(
      options_.period_seconds > 0.0 ? options_.period_seconds : 1.0);
  // A period past the clock's range saturates, as in
  // RunController::SetDeadlineAfter: the monitor then logs only at Stop.
  const Clock::duration period =
      seconds < Clock::duration::max()
          ? std::chrono::duration_cast<Clock::duration>(seconds)
          : Clock::duration::max();
  for (;;) {
    {
      MutexLock lock(&mu_);
      // Sleep one period, re-arming against spurious wakeups, unless a
      // stop request arrives first.
      const Clock::time_point now = Clock::now();
      const Clock::time_point deadline =
          period < Clock::time_point::max() - now ? now + period
                                                  : Clock::time_point::max();
      while (!stop_requested_) {
        if (cv_.WaitUntil(&mu_, deadline)) break;
      }
      if (stop_requested_) return;
    }
    // The heartbeat line is built and logged outside mu_ so a slow write
    // never blocks Stop().
    EmitNow("");
  }
}

}  // namespace obs
}  // namespace tane
