#ifndef TANE_UTIL_THREAD_POOL_H_
#define TANE_UTIL_THREAD_POOL_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <thread>
#include <vector>

#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace tane {

/// Timing of one ParallelFor call: the coordinator's wall-clock time and the
/// summed busy time of every participating worker. A worker's busy time runs
/// from its first drained index to its last — the idle tail spent waiting
/// for stragglers after a worker's final task is excluded, but stalls and
/// lock waits between its tasks are not. busy / wall is therefore no
/// speedup: it approaches the worker count whenever every worker stays
/// inside the call, however serialized their work was.
struct ParallelForStats {
  double wall_seconds = 0.0;
  double busy_seconds = 0.0;
};

/// One worker's participation in one ParallelFor call: when it drained, for
/// how long, and how many indices it processed. Reported through the slice
/// hook so a tracer can draw per-worker utilization under each phase span.
struct ParallelForSlice {
  int worker = 0;
  std::chrono::steady_clock::time_point start;
  std::chrono::steady_clock::time_point end;
  int64_t items = 0;
};

/// A fixed-size pool of worker threads for data-parallel loops. Built for
/// TANE's level execution: every participant of a ParallelFor claims the
/// next index from one shared counter until the indices run out, so
/// indices are claimed in ascending order, uneven index costs balance
/// themselves, and a slow index never holds back the others, which keep
/// claiming past it.
///
/// `num_threads` counts the calling thread: a pool of size N spawns N-1
/// background workers and the ParallelFor caller participates as worker 0.
/// With num_threads == 1 no threads are ever created and ParallelFor
/// degenerates to a plain serial loop — the zero-overhead default.
///
/// The pool itself imposes no ordering on `fn` invocations; callers that
/// need deterministic output must write results into per-index slots and
/// merge them in index order afterwards (see core/tane.cc, whose level
/// window merges its tasks' outcomes in candidate order).
class ThreadPool {
 public:
  explicit ThreadPool(int num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int num_threads() const { return num_threads_; }

  /// Invokes fn(worker, index) exactly once for every index in [0, count),
  /// sharded across the pool, and blocks until all invocations return. The
  /// worker argument is in [0, num_threads) and is stable for the duration
  /// of one invocation — use it to select per-worker scratch state.
  /// Indices are claimed in ascending order across the pool, so the indices
  /// one worker runs ascend too, and an index is only claimed once every
  /// lower index has been. `fn` may therefore block until lower indices
  /// finish; it must not throw and must not call ParallelFor reentrantly.
  /// Cooperative cancellation is the callback's job: a cancelled fn should
  /// return immediately, it cannot be interrupted.
  ParallelForStats ParallelFor(int64_t count,
                               const std::function<void(int, int64_t)>& fn)
      TANE_EXCLUDES(mu_);

  /// Installs a callback invoked once per participating worker per
  /// ParallelFor call (workers that drained zero indices are skipped). The
  /// hook runs on the worker's own thread, concurrently with its peers, so
  /// it must be thread-safe and cheap. Set/clear only while no ParallelFor
  /// is in flight. Empty function disables.
  void set_slice_hook(std::function<void(const ParallelForSlice&)> hook) {
    slice_hook_ = std::move(hook);
  }

 private:
  void WorkerLoop(int worker) TANE_EXCLUDES(mu_);
  // Claims indices of this job until one reaches `count`, invoking `fn`;
  // returns this participant's busy seconds (first drained index to last).
  // The job is passed by argument (captured from the guarded members under
  // mu_) so the drain loop itself touches no lock-protected state.
  double Drain(int worker, int64_t count,
               const std::function<void(int, int64_t)>& fn);

  const int num_threads_;
  std::vector<std::thread> workers_;
  // The next unclaimed index of the current job, reset under mu_ before the
  // epoch is published. A lone claim counter whose relaxed RMWs are the
  // whole contract: atomicity alone hands every index out exactly once.
  // tane-lint: allow(naked-atomic)
  std::atomic<int64_t> next_index_{0};
  // Set/cleared only while no ParallelFor is in flight (see setter docs),
  // so the pool reads it without synchronization.
  std::function<void(const ParallelForSlice&)> slice_hook_;

  Mutex mu_;
  CondVar work_cv_;   // signals workers: a new job epoch
  CondVar done_cv_;   // signals the caller: workers drained
  const std::function<void(int, int64_t)>* fn_ TANE_GUARDED_BY(mu_) =
      nullptr;  // current job
  int64_t count_ TANE_GUARDED_BY(mu_) = 0;  // current job's index count
  uint64_t epoch_ TANE_GUARDED_BY(mu_) =
      0;  // bumped per job so workers see exactly one wake
  int running_ TANE_GUARDED_BY(mu_) =
      0;  // background workers still draining this job
  double busy_seconds_ TANE_GUARDED_BY(mu_) =
      0.0;  // accumulated by background workers
  bool shutdown_ TANE_GUARDED_BY(mu_) = false;
};

}  // namespace tane

#endif  // TANE_UTIL_THREAD_POOL_H_
