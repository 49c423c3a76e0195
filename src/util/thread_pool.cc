#include "util/thread_pool.h"

// tane-atomics: chase-lev(top_,bottom_,ring_,slots)
// The deque runs the fully seq_cst Chase-Lev variant on purpose (see the
// class comment): TSan models seq_cst atomics natively, so the whole
// protocol is machine-checkable. Quiescent paths relax with waivers.

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <memory>

#include "util/logging.h"
#include "util/mutex.h"
#include "util/span_stack.h"
#include "util/timer.h"

namespace tane {
namespace {

int64_t RoundUpPow2(int64_t value) {
  int64_t result = 1;
  while (result < value) result <<= 1;
  return result;
}

}  // namespace

WorkStealingDeque::Ring::Ring(int64_t cap)
    : capacity(cap),
      mask(cap - 1),
      slots(std::make_unique<std::atomic<int64_t>[]>(
          static_cast<size_t>(cap))) {}

WorkStealingDeque::WorkStealingDeque(int64_t capacity_hint) {
  // The live ring is owned by ring_ (an atomic, so it cannot hold a
  // unique_ptr); freed by Reset/Grow-retirement/destructor. Relaxed is
  // fine pre-publication: no other thread can see the deque yet.
  // tane-lint: allow(naked-new) tane-analyzer: allow(atomics-contract)
  ring_.store(new Ring(RoundUpPow2(std::max<int64_t>(2, capacity_hint))),
              std::memory_order_relaxed);
}

WorkStealingDeque::~WorkStealingDeque() {
  // Destruction is quiescent by contract: the pool joined its workers.
  // tane-analyzer: allow(atomics-contract)
  delete ring_.load(std::memory_order_relaxed);
}

void WorkStealingDeque::Reset(int64_t capacity_hint) {
  // Quiescent by contract: no concurrent Push/Pop/Steal, so plain stores
  // and retired-ring reclamation are safe here.
  retired_.clear();
  // tane-analyzer: allow(atomics-contract)
  Ring* ring = ring_.load(std::memory_order_relaxed);
  if (capacity_hint > ring->capacity) {
    delete ring;
    // Ownership transfers to ring_ (see constructor note).
    // tane-lint: allow(naked-new) tane-analyzer: allow(atomics-contract)
    ring_.store(new Ring(RoundUpPow2(capacity_hint)),
                std::memory_order_relaxed);
  }
  top_.store(0, std::memory_order_seq_cst);
  bottom_.store(0, std::memory_order_seq_cst);
}

WorkStealingDeque::Ring* WorkStealingDeque::Grow(Ring* ring, int64_t top,
                                                 int64_t bottom) {
  // Published into ring_; the replaced ring moves to retired_ below.
  // tane-lint: allow(naked-new)
  Ring* bigger = new Ring(ring->capacity * 2);
  for (int64_t i = top; i < bottom; ++i) {
    bigger->slots[i & bigger->mask].store(
        ring->slots[i & ring->mask].load(std::memory_order_seq_cst),
        std::memory_order_seq_cst);
  }
  ring_.store(bigger, std::memory_order_seq_cst);
  // The old ring may still be read by an in-flight Steal that loaded ring_
  // before the publish above; keep it alive until the next quiesce point.
  retired_.emplace_back(ring);
  return bigger;
}

void WorkStealingDeque::Push(int64_t item) {
  const int64_t bottom = bottom_.load(std::memory_order_seq_cst);
  const int64_t top = top_.load(std::memory_order_seq_cst);
  Ring* ring = ring_.load(std::memory_order_seq_cst);
  if (bottom - top >= ring->capacity) ring = Grow(ring, top, bottom);
  ring->slots[bottom & ring->mask].store(item, std::memory_order_seq_cst);
  bottom_.store(bottom + 1, std::memory_order_seq_cst);
}

bool WorkStealingDeque::Pop(int64_t* item) {
  const int64_t bottom = bottom_.load(std::memory_order_seq_cst) - 1;
  Ring* ring = ring_.load(std::memory_order_seq_cst);
  bottom_.store(bottom, std::memory_order_seq_cst);
  int64_t top = top_.load(std::memory_order_seq_cst);
  if (top > bottom) {
    // Empty: restore bottom.
    bottom_.store(bottom + 1, std::memory_order_seq_cst);
    return false;
  }
  *item = ring->slots[bottom & ring->mask].load(std::memory_order_seq_cst);
  if (top == bottom) {
    // Last item: race the thieves for it via top.
    const bool won = top_.compare_exchange_strong(
        top, top + 1, std::memory_order_seq_cst, std::memory_order_seq_cst);
    bottom_.store(bottom + 1, std::memory_order_seq_cst);
    return won;
  }
  return true;
}

bool WorkStealingDeque::Steal(int64_t* item) {
  int64_t top = top_.load(std::memory_order_seq_cst);
  const int64_t bottom = bottom_.load(std::memory_order_seq_cst);
  if (top >= bottom) return false;
  // Read the slot before claiming it: the claim (CAS on top) only succeeds
  // if no other thief or the owner's last-item Pop got there first, and the
  // owner never overwrites slot `top & mask` while `top` is live (a Push
  // that would wrap onto it grows the ring instead).
  Ring* ring = ring_.load(std::memory_order_seq_cst);
  const int64_t value =
      ring->slots[top & ring->mask].load(std::memory_order_seq_cst);
  if (!top_.compare_exchange_strong(top, top + 1, std::memory_order_seq_cst,
                                    std::memory_order_seq_cst)) {
    return false;
  }
  *item = value;
  return true;
}

ThreadPool::ThreadPool(int num_threads)
    : num_threads_(std::max(1, num_threads)) {
  deques_.reserve(num_threads_);
  for (int worker = 0; worker < num_threads_; ++worker) {
    deques_.emplace_back(std::make_unique<WorkStealingDeque>());
  }
  workers_.reserve(num_threads_ - 1);
  for (int worker = 1; worker < num_threads_; ++worker) {
    workers_.emplace_back([this, worker] { WorkerLoop(worker); });
  }
}

ThreadPool::~ThreadPool() {
  {
    MutexLock lock(&mu_);
    shutdown_ = true;
  }
  work_cv_.NotifyAll();
  for (std::thread& worker : workers_) worker.join();
}

double ThreadPool::Drain(int worker,
                         const std::function<void(int, int64_t)>& fn) {
  // While the sampling profiler runs, this drain appears on the worker's
  // span stack under the collective label the coordinator set for the
  // region ("window level-3"), so worker samples attribute to the phase
  // that fanned them out. One push per drain — nothing per index.
  const bool profiled = SpanStack::recording();
  if (profiled) {
    SpanStack& stack = SpanStack::Local();
    if (worker != 0) {
      char label[kSpanFrameChars];
      std::snprintf(label, sizeof(label), "worker-%d", worker);
      stack.SetLabel(label);
    }
    char frame[kSpanFrameChars];
    SpanStack::GetCollectiveLabel(frame);
    stack.Push(frame[0] != '\0' ? frame : "parallel-for");
  }
  std::chrono::steady_clock::time_point start;
  std::chrono::steady_clock::time_point last_end;
  int64_t items = 0;
  WorkStealingDeque& own = *deques_[worker];
  int64_t index = 0;
  while (true) {
    bool found = own.Pop(&index);
    if (!found) {
      // Own deque dry: sweep the peers, starting just past this worker so
      // thieves fan out instead of all hammering deque 0.
      for (int step = 1; !found && step < num_threads_; ++step) {
        found = deques_[(worker + step) % num_threads_]->Steal(&index);
      }
    }
    if (!found) {
      // Every index was seeded before the job started, so once no deque
      // holds one the rest are running on other workers: leave instead of
      // spinning until they finish (ParallelFor waits for them on
      // done_cv_). A steal that only lost a race re-sweeps.
      bool all_empty = true;
      for (int peer = 0; all_empty && peer < num_threads_; ++peer) {
        all_empty = deques_[peer]->size() == 0;
      }
      if (all_empty) break;
      std::this_thread::yield();
      continue;
    }
    const auto begin = std::chrono::steady_clock::now();
    if (items == 0) start = begin;
    fn(worker, index);
    last_end = std::chrono::steady_clock::now();
    ++items;
  }
  if (profiled) SpanStack::Local().Pop();
  if (items == 0) return 0.0;
  if (slice_hook_) {
    slice_hook_(ParallelForSlice{worker, start, last_end, items});
  }
  return std::chrono::duration<double>(last_end - start).count();
}

void ThreadPool::WorkerLoop(int worker) {
  uint64_t seen_epoch = 0;
  while (true) {
    const std::function<void(int, int64_t)>* fn = nullptr;
    {
      MutexLock lock(&mu_);
      while (!shutdown_ && epoch_ == seen_epoch) work_cv_.Wait(&mu_);
      if (shutdown_) return;
      seen_epoch = epoch_;
      // Capture the job under the lock; Drain then runs lock-free. The
      // pointee stays valid because ParallelFor cannot return (and so the
      // job cannot be torn down) until running_ drops to zero below.
      fn = fn_;
    }
    const double busy = Drain(worker, *fn);
    {
      MutexLock lock(&mu_);
      busy_seconds_ += busy;
      if (--running_ == 0) done_cv_.NotifyOne();
    }
  }
}

ParallelForStats ThreadPool::ParallelFor(
    int64_t count, const std::function<void(int, int64_t)>& fn) {
  ParallelForStats stats;
  if (count <= 0) return stats;
  WallTimer wall;

  if (num_threads_ == 1) {
    // Serial fast path: no locks, no atomics visible to the caller.
    const auto start = std::chrono::steady_clock::now();
    for (int64_t index = 0; index < count; ++index) fn(0, index);
    const auto end = std::chrono::steady_clock::now();
    if (slice_hook_) slice_hook_(ParallelForSlice{0, start, end, count});
    stats.wall_seconds = std::chrono::duration<double>(end - start).count();
    stats.busy_seconds = stats.wall_seconds;
    return stats;
  }

  // Seed the deques before publishing the epoch: worker w owns the indices
  // congruent to w mod num_threads, pushed in descending order so the
  // owner's LIFO pops drain them ascending (thieves take from the other
  // end, i.e. the highest of a victim's remaining indices). The mu_
  // handshake below orders these pushes before any worker's first Pop.
  const int64_t per_worker = (count + num_threads_ - 1) / num_threads_;
  for (int worker = 0; worker < num_threads_; ++worker) {
    WorkStealingDeque& deque = *deques_[worker];
    deque.Reset(per_worker);
    int64_t index = worker + (per_worker - 1) * num_threads_;
    while (index >= count) index -= num_threads_;
    for (; index >= 0; index -= num_threads_) deque.Push(index);
  }

  {
    MutexLock lock(&mu_);
    // Invariant: ParallelFor is not reentrant from worker bodies.
    // tane-lint: allow(tane-check)
    TANE_CHECK(running_ == 0) << "reentrant ParallelFor";
    fn_ = &fn;
    busy_seconds_ = 0.0;
    running_ = num_threads_ - 1;
    ++epoch_;
  }
  work_cv_.NotifyAll();

  // The caller participates as worker 0, draining its own deque first.
  const double own_busy = Drain(0, fn);

  MutexLock lock(&mu_);
  while (running_ != 0) done_cv_.Wait(&mu_);
  fn_ = nullptr;
  stats.wall_seconds = wall.ElapsedSeconds();
  stats.busy_seconds = busy_seconds_ + own_busy;
  return stats;
}

}  // namespace tane
