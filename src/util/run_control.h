#ifndef TANE_UTIL_RUN_CONTROL_H_
#define TANE_UTIL_RUN_CONTROL_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <limits>
#include <string_view>

namespace tane {

/// Why a controlled run stopped before finishing.
enum class StopReason : int32_t {
  kNone = 0,       // still running / ran to completion
  kDeadline = 1,   // the wall-clock deadline passed
  kCancelled = 2,  // RequestCancel() was called
};

/// Returns "none", "deadline", or "cancelled".
std::string_view StopReasonToString(StopReason reason);

/// Cooperative resource-and-time governor for a discovery run. A controller
/// carries three independent limits:
///
///  * a wall-clock **deadline** (SetDeadline / SetDeadlineAfter);
///  * a **cancellation token** — RequestCancel() may be called from any
///    thread while the run polls ShouldStop(), itself callable from any
///    number of worker threads concurrently (the parallel level executor
///    polls it from every worker);
///  * a **memory budget** in bytes, consulted by the driver: under
///    StorageMode::kMemory a breach aborts with kResourceExhausted, under
///    StorageMode::kAuto it triggers transparent migration of the partition
///    store to disk (the run degrades instead of dying).
///
/// Deadline and cancellation end the run *gracefully*: Tane::Discover
/// returns a partial DiscoveryResult containing every dependency already
/// proven, with DiscoveryResult::completion describing why it is partial.
/// The first stop reason observed is latched and later polls keep
/// reporting it, so a run stops for exactly one reason.
///
/// Thread-safety: ShouldStop(), RequestCancel(), and stop_reason() are safe
/// to call concurrently. The setters (deadline, memory budget) must be
/// called before the run starts polling.
class RunController {
 public:
  RunController() = default;

  RunController(const RunController&) = delete;
  RunController& operator=(const RunController&) = delete;

  /// Sets the deadline to `budget` from now. A zero or negative budget
  /// expires immediately; one past the clock's range (about 292 years of
  /// nanoseconds) saturates at time_point::max() and never expires.
  void SetDeadlineAfter(std::chrono::milliseconds budget) {
    const Clock::time_point now = Clock::now();
    const auto headroom = std::chrono::duration_cast<std::chrono::milliseconds>(
        Clock::time_point::max() - now);
    if (budget <= std::chrono::milliseconds::zero()) {
      deadline_ = now;
    } else if (budget >= headroom) {
      deadline_ = Clock::time_point::max();
    } else {
      deadline_ = now + budget;
    }
    has_deadline_ = true;
  }

  /// Sets an absolute deadline.
  void SetDeadline(std::chrono::steady_clock::time_point deadline) {
    deadline_ = deadline;
    has_deadline_ = true;
  }

  void ClearDeadline() { has_deadline_ = false; }
  bool has_deadline() const { return has_deadline_; }

  /// Seconds until the deadline (negative once it passed); a large positive
  /// value when no deadline is set. Readable while the run polls.
  double deadline_remaining_seconds() const {
    if (!has_deadline_) return std::numeric_limits<double>::infinity();
    return std::chrono::duration<double>(deadline_ - Clock::now()).count();
  }

  /// Requests cooperative cancellation. Thread-safe; idempotent.
  void RequestCancel() { cancel_requested_.store(true, std::memory_order_release); }

  [[nodiscard]] bool cancel_requested() const {
    return cancel_requested_.load(std::memory_order_acquire);
  }

  /// Memory budget in bytes for the run's partition store; 0 = unlimited.
  void set_memory_budget_bytes(int64_t bytes) { memory_budget_bytes_ = bytes; }
  int64_t memory_budget_bytes() const { return memory_budget_bytes_; }

  /// Polls the deadline and the cancellation token. Returns true when the
  /// run should stop; the reason is latched and readable via stop_reason().
  /// Cancellation wins over the deadline when both trip in the same poll.
  /// Safe to call from multiple threads; the first reason latched wins.
  /// [[nodiscard]]: polling and ignoring the verdict would latch a stop
  /// reason while the caller keeps running.
  [[nodiscard]] bool ShouldStop();

  /// The latched reason from the first ShouldStop() that returned true.
  StopReason stop_reason() const {
    return stop_reason_.load(std::memory_order_acquire);
  }

 private:
  using Clock = std::chrono::steady_clock;

  // Deliberately unlocked: the setters run before the run starts polling
  // (class contract above), after which these are read-only from any
  // thread. The mutable cross-thread state (cancel_requested_,
  // stop_reason_) is atomic and needs no lock.
  bool has_deadline_ = false;
  Clock::time_point deadline_{};
  // A sticky cancel flag and a first-writer-wins reason latch —
  // independent cells whose explicit orders are the contract.
  // tane-lint: allow(naked-atomic)
  std::atomic<bool> cancel_requested_{false};
  int64_t memory_budget_bytes_ = 0;
  // tane-lint: allow(naked-atomic)
  std::atomic<StopReason> stop_reason_{StopReason::kNone};
};

}  // namespace tane

#endif  // TANE_UTIL_RUN_CONTROL_H_
