#ifndef TANE_UTIL_THREAD_POOL_H_
#define TANE_UTIL_THREAD_POOL_H_

// tane-atomics: chase-lev(top_,bottom_,ring_,slots)

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
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

/// A lock-free work-stealing deque of int64_t items (Chase–Lev). The owner
/// pushes and pops at the bottom (LIFO); any other thread steals from the
/// top (FIFO), so items pushed first are stolen first. Used by ThreadPool
/// to schedule ParallelFor indices: the coordinator seeds each worker's
/// deque in descending index order, which makes the owner's pops ascend —
/// the property the task-graph executor's commit-window deadlock-freedom
/// argument relies on (see DESIGN.md §7).
///
/// Memory-model note: this is the sequentially-consistent-operations
/// variant of Chase–Lev. The classic formulation uses standalone
/// atomic_thread_fence calls, which ThreadSanitizer does not model and
/// would flag as false races; every synchronizing access here is a seq_cst
/// operation on an std::atomic object instead, which TSan verifies
/// natively. Ring buffers retired by growth are kept alive until Reset()
/// or destruction so a concurrent thief never reads freed memory.
///
/// Thread-safety contract: Push/Pop/Reset are owner-only (at most one
/// thread at a time, externally synchronized across ownership transfers);
/// Steal may run concurrently from any number of threads. Reset requires
/// quiescence (no concurrent Steal).
class WorkStealingDeque {
 public:
  explicit WorkStealingDeque(int64_t capacity_hint = 64);
  ~WorkStealingDeque();

  WorkStealingDeque(const WorkStealingDeque&) = delete;
  WorkStealingDeque& operator=(const WorkStealingDeque&) = delete;

  /// Empties the deque and frees retired ring buffers. Requires quiescence:
  /// no concurrent Push/Pop/Steal. Grows the live ring up front when
  /// `capacity_hint` exceeds it, so a seeding pass of known size never
  /// triggers a mid-run growth.
  void Reset(int64_t capacity_hint = 0);

  /// Owner-only: pushes an item at the bottom. Grows the ring when full.
  void Push(int64_t item);

  /// Owner-only: pops the most recently pushed item. Returns false when the
  /// deque is empty or the last item was lost to a concurrent Steal.
  bool Pop(int64_t* item);

  /// Any thread: steals the oldest item. Returns false when the deque looks
  /// empty or the steal lost a race (callers should treat false as "try
  /// elsewhere", not "permanently empty").
  bool Steal(int64_t* item);

  /// Approximate size; exact only under quiescence.
  int64_t size() const {
    const int64_t b = bottom_.load(std::memory_order_seq_cst);
    const int64_t t = top_.load(std::memory_order_seq_cst);
    return b > t ? b - t : 0;
  }

 private:
  struct Ring {
    explicit Ring(int64_t capacity);
    int64_t capacity;
    int64_t mask;
    std::unique_ptr<std::atomic<int64_t>[]> slots;
  };

  // Allocates a ring of at least double the capacity, copies the live
  // window [top, bottom), publishes it, and retires the old ring.
  Ring* Grow(Ring* ring, int64_t top, int64_t bottom);

  std::atomic<int64_t> top_{0};
  std::atomic<int64_t> bottom_{0};
  std::atomic<Ring*> ring_;
  // Rings replaced by growth; freed only at Reset/destruction (owner-only).
  std::vector<std::unique_ptr<Ring>> retired_;
};

/// A fixed-size pool of worker threads for data-parallel loops. Built for
/// TANE's level execution: ParallelFor seeds one work-stealing deque per
/// worker with the indices congruent to that worker mod num_threads (pushed
/// in descending order, so each owner pops its own indices in ascending
/// order), and a worker whose own deque runs dry steals from its peers.
/// Compared to the previous shared-counter sharding this keeps hot indices
/// in per-worker deques (no contended fetch_add per index) while still
/// balancing uneven per-index costs through stealing.
///
/// `num_threads` counts the calling thread: a pool of size N spawns N-1
/// background workers and the ParallelFor caller participates as worker 0.
/// With num_threads == 1 no threads are ever created and ParallelFor
/// degenerates to a plain serial loop — the zero-overhead default.
///
/// The pool itself imposes no ordering on `fn` invocations; callers that
/// need deterministic output must write results into per-index slots and
/// merge them in index order afterwards (see core/tane.cc, which commits
/// task results through an index-ordered frontier).
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
  /// of one invocation — use it to select per-worker scratch state. Worker
  /// w drains its own indices (w, w+T, w+2T, …) in ascending order before
  /// stealing from peers. `fn` must not throw and must not call ParallelFor
  /// reentrantly. Cooperative cancellation is the callback's job: a
  /// cancelled fn should return immediately, it cannot be interrupted.
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
  // Drains indices for this job — own deque first, then steal sweeps over
  // peers — until no deque holds one, invoking `fn`; returns this
  // participant's busy seconds (first drained index to last).
  // The job is passed by argument (captured from the guarded members under
  // mu_) so the drain loop itself touches no lock-protected state.
  double Drain(int worker, const std::function<void(int, int64_t)>& fn);

  const int num_threads_;
  std::vector<std::thread> workers_;
  // One deque per worker. Seeded by the coordinator before the epoch is
  // published (the mu_ handshake orders seeding before any worker drains),
  // then owner-popped / peer-stolen lock-free during the job.
  std::vector<std::unique_ptr<WorkStealingDeque>> deques_;
  // Set/cleared only while no ParallelFor is in flight (see setter docs),
  // so the pool reads it without synchronization.
  std::function<void(const ParallelForSlice&)> slice_hook_;

  Mutex mu_;
  CondVar work_cv_;   // signals workers: a new job epoch
  CondVar done_cv_;   // signals the caller: workers drained
  const std::function<void(int, int64_t)>* fn_ TANE_GUARDED_BY(mu_) =
      nullptr;  // current job
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
