#include "core/tane.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <functional>
#include <limits>
#include <list>
#include <memory>
#include <optional>
#include <thread>
#include <utility>
#include <vector>

#include "core/partition_store.h"
#include "core/run_snapshot.h"
#include "lattice/level.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/progress.h"
#include "obs/trace.h"
#include "partition/error.h"
#include "partition/partition_builder.h"
#include "partition/product.h"
#include "util/logging.h"
#include "util/mutex.h"
#include "util/span_stack.h"
#include "util/thread_annotations.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace tane {
namespace {

// For cleanup paths where an earlier error must keep precedence: the
// secondary failure is logged, never silently dropped (Status is
// [[nodiscard]]; this is the sanctioned way to sideline one).
// Flight-recorder event, if one is armed (the CLI arms it whenever a
// checkpoint directory is configured). One relaxed global load when idle.
void RecordFlight(int tid, obs::FlightEventType type, std::string_view label,
                  int64_t a = 0, int64_t b = 0) {
  obs::FlightRecorder* recorder = obs::FlightRecorder::active();
  if (recorder != nullptr) recorder->Record(tid, type, label, a, b);
}

// Budget breaches end the run with kResourceExhausted; the flight dump is
// the postmortem of what the run was doing when memory ran out.
void ReportBudgetBreach(int64_t resident, int64_t budget) {
  obs::FlightRecorder* recorder = obs::FlightRecorder::active();
  if (recorder == nullptr) return;
  recorder->Record(-1, obs::FlightEventType::kBudget, "memory_budget",
                   resident, budget);
  recorder->DumpGraceful("memory_budget");
}

void LogIgnoredStatus(const Status& status, const char* context) {
  if (!status.ok()) {
    TANE_LOG(Warning) << context << " failed during error unwind: "
                      << status.ToString();
  }
}

// One attribute set of the current level, with its rhs⁺ candidates C⁺(X),
// the partition error e(X), the member-row count ‖π_X‖ (bounds the next
// window's row work), and the handle of π_X in the partition store.
struct Node {
  AttributeSet set;
  AttributeSet cplus;
  int64_t error = 0;
  int64_t member_rows = 0;
  int64_t handle = -1;
  bool deleted = false;
};

// Serves partitions by handle, borrowing from the store when it is
// memory-backed and maintaining a small LRU of deserialized partitions when
// it is disk-backed. Pointers stay valid for at least the `capacity - 1`
// following Acquire calls, which suffices for the two-operand uses here.
// Borrowed pointers also survive concurrent Puts from the commit frontier
// (the stores guarantee reference stability within a task window); the
// driver never Releases a handle while a window is in flight. Not
// thread-safe itself; the parallel executor keeps one accessor per worker.
class PartitionAccessor {
 public:
  PartitionAccessor(PartitionStore* store, size_t capacity)
      : store_(store), capacity_(capacity) {}

  StatusOr<const StrippedPartition*> Acquire(int64_t handle) {
    if (const StrippedPartition* borrowed = store_->Peek(handle)) {
      return borrowed;
    }
    for (auto it = cache_.begin(); it != cache_.end(); ++it) {
      if (it->first == handle) {
        cache_.splice(cache_.begin(), cache_, it);
        return &cache_.front().second;
      }
    }
    TANE_ASSIGN_OR_RETURN(StrippedPartition partition, store_->Get(handle));
    cache_.emplace_front(handle, std::move(partition));
    while (cache_.size() > capacity_) cache_.pop_back();
    return &cache_.front().second;
  }

  // Drops cached copies (e.g. after their handles are released).
  void Clear() { cache_.clear(); }

  int64_t cache_bytes() const {
    int64_t total = 0;
    for (const auto& [handle, partition] : cache_) {
      total += partition.EstimatedBytes();
    }
    return total;
  }

 private:
  PartitionStore* store_;
  size_t capacity_;
  std::list<std::pair<int64_t, StrippedPartition>> cache_;
};

// Scratch state owned by one worker thread. The G3Calculator and
// PartitionProduct probe tables are O(|r|) and mutated on every call, so
// they can never be shared between workers; the accessor keeps per-worker
// LRU copies when the store is disk-backed. Work counters go straight to
// the run's MetricsRegistry on this worker's shard — single-writer relaxed
// stores, so the hot loops stay free of shared atomics while the progress
// monitor can still read exact totals at any moment.
struct WorkerState {
  WorkerState(PartitionStore* store, int64_t num_rows, int shard)
      : accessor(store, /*capacity=*/8),
        g3(num_rows),
        product(num_rows),
        shard(shard) {}

  PartitionAccessor accessor;
  G3Calculator g3;
  PartitionProduct product;

  // This worker's shard index in the run's MetricsRegistry.
  int shard = 0;
  int64_t stop_poll_tick = 0;
};

// A dependency discovered while testing one node: X\{attribute} → attribute
// with the given error. Recorded per node and merged in node order so the
// output is identical for every thread count.
struct Emission {
  int attribute = -1;
  double error = 0.0;
};

// Everything a worker produced for one node of the level.
struct NodeOutcome {
  Status status = Status::OK();
  AttributeSet cplus_after;
  std::vector<Emission> emissions;
  // False when a cooperative stop fired before the node was picked up; such
  // nodes contribute nothing to the (prefix-correct) partial result.
  bool processed = false;
};

// One candidate's slot in a fused level window. The owning worker fills the
// payload, then publishes it with a release store on `done`; the commit
// frontier reads it back after an acquire load. No other synchronization
// touches a slot, so the fields carry no lock annotations.
struct WindowSlot {
  std::optional<StatusOr<StrippedPartition>> partition;
  NodeOutcome outcome;
  // Per-slot completion latch, release-published / acquire-consumed by the
  // window executor; no multi-word protocol. tane-lint: allow(naked-atomic)
  std::atomic<int> done{0};
};

// Immutable inputs of one fused level window: the candidates (in node
// order) with their pre-seeded C⁺ sets, and the parent level backing the
// validity tests.
struct WindowInputs {
  // The level being built (its nodes' |X|).
  int level_number = 1;
  const std::vector<AttributeSet>* sets = nullptr;
  const std::vector<AttributeSet>* cplus = nullptr;
  // Parent level (survivors of level_number - 1) and its index; nullptr at
  // level 1, where the tests run against π_∅.
  const std::vector<Node>* parents = nullptr;
  const LevelIndex* parent_index = nullptr;
  // Fold mode at level 1: keep a resident copy of every singleton partition
  // next to the stored one.
  bool stash_singletons = false;
  // The serial-fallback estimate of the window's total row work: Σ over
  // candidates of the smaller parent's member rows (or a proxy at level 1).
  int64_t est_row_work = 0;
};

// Shared mutable state of one fused level window. Workers coordinate
// through the atomic commit `frontier`; everything whose order matters —
// store inserts, the committed node list, the first failure — happens under
// `mu`, strictly in candidate order. That frontier is the whole determinism
// argument: handle values and e(·) bookkeeping are issued exactly as a
// serial run would issue them, for every thread count.
struct WindowContext {
  int64_t count = 0;
  // How far past the frontier a task may start; bounds the partitions that
  // exist outside the store to O(threads), like the old batched generator.
  int64_t gate = 0;
  std::unique_ptr<WindowSlot[]> slots;
  const WindowInputs* in = nullptr;
  // Independent claim counter and sticky error flag; their explicit orders
  // are the contract. tane-lint: allow(naked-atomic)
  std::atomic<int64_t> frontier{0};
  // tane-lint: allow(naked-atomic)
  std::atomic<bool> failed{false};
  // Commit requests not yet served; the caller that raises it from zero
  // holds the commit duty (see CommitReadySlots). A lone counter whose
  // acq_rel RMWs are the whole contract. tane-lint: allow(naked-atomic)
  std::atomic<int64_t> commit_requests{0};
  Mutex mu;
  Status status TANE_GUARDED_BY(mu) = Status::OK();
  std::vector<Node> nodes TANE_GUARDED_BY(mu);
  // Workers past the gate sleep on gate_cv until the frontier reaches
  // wake_frontier, the smallest frontier any of them waits for.
  Mutex gate_mu;
  CondVar gate_cv;
  int64_t wake_frontier TANE_GUARDED_BY(gate_mu) =
      std::numeric_limits<int64_t>::max();
};

// How long a gated worker spins before it sleeps: most stalls are a few
// tasks long and end well within it, where a sleep would add a wake-up.
constexpr std::chrono::microseconds kGateSpin{50};

// How long a worker sleeps at the gate before it polls for a cooperative
// stop again; commits wake it sooner.
constexpr std::chrono::milliseconds kGateStopPoll{1};

// Sleeps until the frontier is a quarter gate short of letting task `i`
// start, the window fails, or kGateStopPoll passes; the caller re-checks.
// Returns true when a commit woke it that close to its start: the worker
// then spins out the last commits, so a slow wake-up does not hold its
// task back.
bool ParkAtGate(WindowContext* ctx, int64_t i) TANE_EXCLUDES(ctx->gate_mu) {
  const int64_t target = i - ctx->gate + 1;
  const int64_t wake_at = target - ctx->gate / 4;
  MutexLock lock(&ctx->gate_mu);
  if (ctx->frontier.load(std::memory_order_seq_cst) >= target ||
      ctx->failed.load(std::memory_order_relaxed)) {
    return false;
  }
  ctx->wake_frontier = std::min(ctx->wake_frontier, wake_at);
  const bool timed_out = ctx->gate_cv.WaitUntil(
      &ctx->gate_mu, std::chrono::steady_clock::now() + kGateStopPoll);
  return !timed_out &&
         ctx->frontier.load(std::memory_order_seq_cst) >= wake_at;
}

// Wakes the parked workers once `frontier` reaches the smallest frontier
// one of them waits for (or, with `failed`, unconditionally). The woken
// workers that are still gated park again and re-post their targets.
void WakeGate(WindowContext* ctx, int64_t frontier, bool failed)
    TANE_EXCLUDES(ctx->gate_mu) {
  MutexLock lock(&ctx->gate_mu);
  if (frontier < ctx->wake_frontier && !failed) return;
  ctx->wake_frontier = std::numeric_limits<int64_t>::max();
  ctx->gate_cv.NotifyAll();
}

class TaneRun {
 public:
  /// `resume_snapshot` (optional, not owned, pre-validated by Discover)
  /// restores the run to its checkpointed level boundary before the
  /// levelwise loop continues.
  TaneRun(const Relation& relation, const TaneConfig& config,
          std::unique_ptr<PartitionStore> store,
          const RunSnapshot* resume_snapshot)
      : relation_(relation),
        resume_snapshot_(resume_snapshot),
        config_(config),
        controller_(config.run_controller),
        store_(std::move(store)),
        num_rows_(relation.num_rows()),
        max_removals_(IntegerThreshold(
            config.epsilon, static_cast<double>(relation.num_rows()))),
        max_pairs_(IntegerThreshold(
            config.epsilon, static_cast<double>(relation.num_rows()) *
                                static_cast<double>(relation.num_rows()))),
        pool_(config.num_threads),
        metrics_(config.num_threads),
        tracer_(config.tracer) {
    store_->set_metrics(&metrics_);
    store_->set_tracer(tracer_);
    // Resolve the dispatch kernel once (config validation already vetted
    // the name) and hand the same immutable ops table to every worker's
    // product and error scratch.
    kernel_ = ResolveKernel(ParseKernelKind(config.kernel).value());
    metrics_.SetGauge(obs::kKernelKind, static_cast<int64_t>(kernel_->kind));
    workers_.reserve(config.num_threads);
    for (int worker = 0; worker < config.num_threads; ++worker) {
      workers_.push_back(
          std::make_unique<WorkerState>(store_.get(), num_rows_, worker));
      workers_.back()->product.set_metrics(&metrics_, worker);
      workers_.back()->product.set_kernel(kernel_);
      workers_.back()->g3.set_metrics(&metrics_, worker);
      workers_.back()->g3.set_kernel(kernel_);
    }
    if (tracer_ != nullptr) {
      // Per-worker drain slices nest under whichever phase span encloses
      // the parallel region (worker 0 is the coordinator thread, so its
      // slice shares tid 0 with the phase spans). Emit is thread-safe.
      pool_.set_slice_hook([this](const ParallelForSlice& slice) {
        obs::TraceEvent event;
        event.name = "slice";
        event.tid = slice.worker;
        event.start_us = tracer_->ToUs(slice.start);
        event.dur_us =
            std::chrono::duration<double, std::micro>(slice.end - slice.start)
                .count();
        event.args.emplace_back("items", slice.items);
        tracer_->Emit(std::move(event));
      });
    }
  }

  Status Run(DiscoveryResult* result);

 private:
  using BuildFn = std::function<StatusOr<StrippedPartition>(WorkerState*,
                                                            int64_t)>;

  // The in-order half of COMPUTE-DEPENDENCIES (paper §5): the level window
  // already ran every node's validity tests fused with its partition build;
  // here the buffered emissions and C⁺ updates land in node order, exactly
  // as the serial loop would have applied them, so pruning decisions
  // downstream are deterministic for every thread count.
  Status MergeOutcomes(std::vector<Node>* level, DiscoveryResult* result);

  // The per-node half of COMPUTE-DEPENDENCIES (lines 3-8): runs every
  // validity test of `node` against its freshly built partition `fine` and
  // collects emissions plus the final C⁺ into `out` without touching shared
  // state. Safe to call concurrently for distinct nodes. The C⁺ updates of
  // lines 7-8 commute (set differences and intersections), so applying them
  // against a snapshot here and merging later reproduces the serial result
  // exactly.
  Status ProcessNode(int level_number, const Node& node,
                     const StrippedPartition* fine,
                     const std::vector<Node>* prev,
                     const LevelIndex* prev_index, WorkerState* w,
                     NodeOutcome* out);

  // PRUNE(L_ℓ), paper §5. Marks nodes deleted and emits key dependencies.
  Status Prune(int level_number, std::vector<Node>* level,
               DiscoveryResult* result);

  // GENERATE-NEXT-LEVEL partition computation for one candidate.
  StatusOr<StrippedPartition> BuildCandidatePartition(
      WorkerState* w, const LevelCandidate& candidate,
      const std::vector<Node>& survivors);

  // Tests X\{A} → A given e(X\{A}), the handle of π_X\{A}, e(X), and the
  // node's own partition π_X (`fine`, owned by the window slot — level
  // partitions are tested before they are stored). Sets *valid and *error
  // (the error value to report when valid).
  Status TestValidity(WorkerState* w, int64_t prev_error, int64_t prev_handle,
                      int64_t node_error, const StrippedPartition* fine,
                      bool* valid, double* error, bool* exact_holds);

  // The fused task window that builds one level: every candidate is one
  // task (partition build + error + validity tests),
  // runnable as soon as its parents exist — the parents are the previous
  // level, fully live for the whole window, so all tasks are immediately
  // runnable and the pool's work-stealing deques schedule them with no
  // intra-level barrier. Results are committed through the index-ordered
  // frontier in WindowContext. On success *next holds the level's nodes and
  // pending_outcomes_ their validity outcomes; on stop/failure both hold
  // the committed prefix. Falls back to an inline serial loop when the
  // window cannot pay for its scheduling (UseParallelWindow).
  Status RunLevelWindow(const WindowInputs& in, const BuildFn& build,
                        std::vector<Node>* next, LevelParallelStats* lp);

  // Commits every consecutive ready slot at the frontier, or hands that job
  // to the caller already doing it. Call after publishing a slot's `done`.
  void CommitReadySlots(WindowContext* ctx)
      TANE_EXCLUDES(ctx->mu, ctx->gate_mu);

  // Commits slot `i`: stores the partition, appends the node, and runs the
  // strided resident-bytes budget check. Called only at the frontier, in
  // candidate order.
  Status CommitOneSlot(WindowContext* ctx, int64_t i)
      TANE_REQUIRES(ctx->mu);

  // Satellite of the scaling fix: decides between the parallel task window
  // and the inline serial path. See TaneConfig::parallel_min_window_rows.
  bool UseParallelWindow(int64_t count, int64_t est_row_work) const;

  // The boundary-to-boundary advance after PRUNE of `level_number`:
  // checkpointing, the suspend/stop decision, GENERATE-NEXT-LEVEL, and the
  // fused build+validate window for the next level. Returns true when the
  // run should continue with `current` holding the next level, false when
  // it wound down (all handles released; the caller exits the loop). Shared
  // by the level loop and the resume prologue, which is what lets a
  // restored run re-enter the lattice mid-flight through the exact same
  // code path. Survivor handles are released before returning in every
  // case: the window already consumed them for products and validity tests.
  StatusOr<bool> AdvanceLevel(int level_number, std::vector<Node>* survivors,
                              std::vector<Node>* current,
                              DiscoveryResult* result);

  // Serializes the current run state (survivors of `level_number`, post-
  // PRUNE) into a durable snapshot under config_.checkpoint_directory.
  Status WriteCheckpoint(int level_number, const std::vector<Node>& survivors,
                         DiscoveryResult* result);

  // WriteCheckpoint unless the latest durable snapshot already covers
  // `level_number` (per-level checkpointing got there first, or the run
  // resumed from it and made no progress).
  Status MaybeWindDownCheckpoint(int level_number,
                                 const std::vector<Node>& survivors,
                                 DiscoveryResult* result) {
    if (!checkpointing() || last_checkpoint_level_ >= level_number) {
      return Status::OK();
    }
    return WriteCheckpoint(level_number, survivors, result);
  }

  // Rehydrates the run from `snapshot`: dependencies and keys replayed in
  // emission order (rebuilding every pruning index), carried counters
  // restored, survivor partitions re-Put through the store chain.
  Status RestoreFromSnapshot(const RunSnapshot& snapshot,
                             DiscoveryResult* result,
                             std::vector<Node>* survivors);

  bool checkpointing() const { return !config_.checkpoint_directory.empty(); }

  Status ReleaseHandles(std::vector<Node>* nodes);
  void SamplePeakMemory();

  int64_t AccessorCacheBytes() const {
    int64_t total = 0;
    for (const auto& worker : workers_) total += worker->accessor.cache_bytes();
    return total;
  }

  // Bytes retained outside the store by every worker's product scratch,
  // staging arrays included. Counted toward the memory budget.
  int64_t ScratchBytes() const {
    int64_t total = 0;
    for (const auto& worker : workers_) {
      total += worker->product.ScratchBytes();
    }
    return total;
  }

  void ClearAccessors() {
    for (const auto& worker : workers_) worker->accessor.Clear();
  }

  bool stopped() const { return stop_flag_.load(std::memory_order_relaxed); }

  // Records why the run stopped, once, after the controller latched a
  // reason. A no-op while the controller has not tripped. Coordinator-only.
  void LatchCompletion() {
    if (completion_ != Completion::kComplete || controller_ == nullptr) return;
    const StopReason reason = controller_->stop_reason();
    if (reason == StopReason::kNone) return;
    completion_ = reason == StopReason::kCancelled
                      ? Completion::kCancelled
                      : Completion::kDeadlineExpired;
    // First transition only: the heartbeat announces why the run is winding
    // down, even if the next periodic tick is seconds away.
    if (monitor_ != nullptr) monitor_->EmitNow(StopReasonToString(reason));
    // Same transition arms the postmortem: the dump captures the ring as
    // it stood when the verdict landed, before wind-down noise overwrites
    // the interesting tail.
    obs::FlightRecorder* recorder = obs::FlightRecorder::active();
    if (recorder != nullptr) {
      const std::string_view verdict = StopReasonToString(reason);
      recorder->Record(0, obs::FlightEventType::kVerdict, verdict);
      recorder->DumpGraceful(verdict);
    }
  }

  // Consults the RunController; once it trips, the stop is latched and the
  // run winds down to a partial result. Coordinator-only (between parallel
  // regions and at level boundaries).
  bool PollStop() {
    if (stopped()) {
      LatchCompletion();
      return true;
    }
    if (controller_ != nullptr && controller_->ShouldStop()) {
      stop_flag_.store(true, std::memory_order_relaxed);
      LatchCompletion();
      return true;
    }
    return false;
  }

  // The workers' cooperative stop check: the shared flag is cheap to read
  // every node; the controller's clock is consulted every kStopPollStride
  // polls. Any worker observing the controller trip publishes the flag so
  // its peers wind down too.
  bool WorkerShouldStop(WorkerState* w) {
    if (stop_flag_.load(std::memory_order_relaxed)) return true;
    if (controller_ == nullptr) return false;
    if (++w->stop_poll_tick % kStopPollStride != 0) return false;
    if (!controller_->ShouldStop()) return false;
    stop_flag_.store(true, std::memory_order_relaxed);
    return true;
  }

  // Under StorageMode::kMemory a configured budget is a hard limit: the
  // run aborts rather than thrash. kAuto spills instead (in the store) and
  // kDisk is already O(1)-resident. This is the full quiesce-point
  // accounting; mid-window commits run the cheaper store-resident check in
  // CommitOneSlot (worker scratch is in flux while a window runs).
  Status CheckMemoryBudget() {
    if (config_.storage != StorageMode::kMemory || controller_ == nullptr) {
      return Status::OK();
    }
    const int64_t budget = controller_->memory_budget_bytes();
    if (budget <= 0) return Status::OK();
    const int64_t resident = store_->resident_bytes() + AccessorCacheBytes() +
                             ScratchBytes();
    if (resident <= budget) return Status::OK();
    ReportBudgetBreach(resident, budget);
    return Status::ResourceExhausted(
        "resident partitions (" + std::to_string(resident) +
        " bytes) exceed the memory budget (" + std::to_string(budget) +
        " bytes); use StorageMode::kAuto to degrade to disk instead");
  }

  const StrippedPartition& EmptySetPartition();

  // Records an emitted dependency for the definitional C⁺ fallback and the
  // covered-rhs pruning masks below. Coordinator-only: workers buffer
  // emissions in NodeOutcome and the merge loop calls this in node order.
  // The restore path passes count=false: its kFdsEmitted total is carried
  // wholesale from the snapshot, so per-dependency increments would double.
  void RecordFd(DiscoveryResult* result, AttributeSet lhs, int rhs,
                double error, bool count = true) {
    result->fds.push_back({lhs, rhs, error});
    if (count) metrics_.Add(0, obs::kFdsEmitted, 1);
    found_lhs_by_rhs_[rhs].push_back(lhs);
    if (lhs.empty()) {
      covered_by_empty_ = covered_by_empty_.With(rhs);
    } else if (lhs.size() == 1) {
      covered_by_singleton_[rhs] =
          covered_by_singleton_[rhs].Union(lhs);
    }
  }

  // True when `lhs` → `rhs` is (approximately) valid, answered from the
  // minimal dependencies discovered so far. Sound for dependencies whose
  // left-hand side is smaller than the current level, because the levelwise
  // sweep has already emitted every minimal dependency below that size.
  bool HoldsByKnownFds(AttributeSet lhs, int rhs) const {
    for (AttributeSet known : found_lhs_by_rhs_[rhs]) {
      if (lhs.ContainsAll(known)) return true;
    }
    return false;
  }

  // Definitional membership test A ∈ C⁺(Y) (paper §4):
  //   C⁺(Y) = {A ∈ R | for all B ∈ Y, Y\{A,B} → B does not hold}.
  // Used when PRUNE needs C⁺ of a set that was never generated because a
  // key beneath it was pruned away; the stored levels have no value for it,
  // but the discovered-FD index answers the defining validity queries.
  bool InDefinitionalCplus(AttributeSet y, int attribute) const {
    for (int b : Members(y)) {
      if (HoldsByKnownFds(y.Without(attribute).Without(b), b)) return false;
    }
    return true;
  }

  // Seeds C⁺ for one candidate of `level_number` (line 2 of
  // COMPUTE-DEPENDENCIES: ∩ of the parents' C⁺, full set at level 1) and
  // applies the covered-rhs pruning. Runs on the coordinator before the
  // level window, so every task starts from its final seeded value.
  AttributeSet SeedCplus(int level_number, AttributeSet set,
                         const std::vector<Node>* parents,
                         const LevelIndex* parent_index) {
    AttributeSet cplus = AttributeSet::FullSet(relation_.num_columns());
    if (level_number > 1) {
      for (int attribute : Members(set)) {
        const int pos = parent_index->Find(set.Without(attribute));
        // Invariant: candidate generation only emits sets whose subsets
        // survived the previous level.
        // tane-lint: allow(tane-check)
        TANE_CHECK(pos >= 0) << "level invariant broken: missing subset of "
                             << set.ToString();
        cplus = cplus.Intersect((*parents)[pos].cplus);
        if (cplus.empty()) break;
      }
    }
    // Covered-rhs pruning: a candidate A outside X is dead once some known
    // dependency lhs' → A has lhs' ⊆ X — every dependency that could still
    // use it would have a left-hand side ⊇ X ⊇ lhs' and thus not be
    // minimal. Checking the ∅- and singleton-lhs dependencies costs O(|R|)
    // per set and is what collapses the search at large ε.
    if (config_.use_covered_rhs_pruning) {
      for (int attribute : Members(cplus.Difference(set))) {
        if (covered_by_empty_.Contains(attribute) ||
            !covered_by_singleton_[attribute].Intersect(set).empty()) {
          cplus = cplus.Without(attribute);
        }
      }
    }
    return cplus;
  }

  // Stop polling cadence for the inner validity-test / product loops.
  static constexpr int64_t kStopPollStride = 64;

  // Auto threshold for UseParallelWindow: below this many total row
  // operations the fan-out/join of a window costs more than the level.
  static constexpr int64_t kAutoParallelMinRowWork = 1 << 15;

  const Relation& relation_;
  // Snapshot to restore before the loop, or nullptr for a fresh run.
  const RunSnapshot* const resume_snapshot_;
  const TaneConfig& config_;
  RunController* const controller_;
  std::unique_ptr<PartitionStore> store_;
  const int64_t num_rows_;
  // ⌊ε·|r|⌋: validity threshold for g3 removal and g2 row counts.
  const int64_t max_removals_;
  // ⌊ε·|r|²⌋: validity threshold for g1 ordered-pair counts.
  const int64_t max_pairs_;
  ThreadPool pool_;
  // Run-wide metric shards (one per worker) plus gauges; always on. The
  // DiscoveryStats counters become views over this registry at the end of
  // Run. Declared before workers_ so products can bind to it in the ctor
  // and after store_ so teardown order is safe.
  obs::MetricsRegistry metrics_;
  obs::Tracer* const tracer_;
  std::unique_ptr<obs::ProgressMonitor> monitor_;
  // The dispatch kernel every worker's product and g3 scratch uses;
  // resolved once from config.kernel in the ctor (process-lifetime table).
  const KernelOps* kernel_ = nullptr;
  std::vector<std::unique_ptr<WorkerState>> workers_;
  DiscoveryStats stats_;

  // Validity outcomes of the most recent level window, in node order,
  // waiting for the coordinator's MergeOutcomes at the top of the level
  // loop. Filled by RunLevelWindow after its workers quiesce.
  std::vector<NodeOutcome> pending_outcomes_;

  // Cooperative stop state: the flag is written by any worker or the
  // coordinator (mirroring the controller's latched reason); completion_ is
  // coordinator-only. A lone sticky flag needs no multi-word protocol.
  // tane-lint: allow(naked-atomic)
  std::atomic<bool> stop_flag_{false};
  Completion completion_ = Completion::kComplete;

  // Checkpoint bookkeeping (coordinator-only). last_checkpoint_level_ is
  // the deepest level a durable snapshot covers — 0 when none exists.
  int last_checkpoint_level_ = 0;
  int resumed_from_level_ = 0;
  double checkpoint_seconds_ = 0.0;

  // π_∅ and e(∅), needed when testing dependencies ∅ → A at level 1. Built
  // eagerly before the first parallel region (workers only read it).
  std::unique_ptr<StrippedPartition> empty_partition_;
  int64_t empty_error_ = 0;

  // found_lhs_by_rhs_[A] = left-hand sides of every dependency emitted so
  // far with right-hand side A; backs the definitional C⁺ fallback.
  std::vector<std::vector<AttributeSet>> found_lhs_by_rhs_;

  // covered_by_empty_ holds the attributes A with ∅ → A already emitted;
  // covered_by_singleton_[A] holds the B with {B} → A emitted. Both back
  // the covered-rhs pruning (TaneConfig::use_covered_rhs_pruning).
  AttributeSet covered_by_empty_;
  std::vector<AttributeSet> covered_by_singleton_;

  // Resident copies of the single-attribute partitions, kept only in the
  // Schlimmer-style recomputation mode (use_partition_products == false).
  // Written by the level-1 window's commit frontier (serialized under its
  // mutex, in attribute order); read-only once that window ends, so later
  // windows' workers share them without locking.
  std::vector<StrippedPartition> singleton_partitions_;
};

const StrippedPartition& TaneRun::EmptySetPartition() {
  if (empty_partition_ == nullptr) {
    empty_partition_ = std::make_unique<StrippedPartition>(
        PartitionBuilder::ForAttributeSet(relation_, AttributeSet(),
                                          config_.use_stripped_partitions));
  }
  return *empty_partition_;
}

void TaneRun::SamplePeakMemory() {
  // Coordinator-only, between parallel regions. The gauges feed the
  // heartbeat line; stats_.peak_partition_bytes is read back from the peak
  // gauge at the end of the run.
  const int64_t resident = store_->resident_bytes() + AccessorCacheBytes() +
                           ScratchBytes();
  metrics_.SetGauge(obs::kResidentBytes, resident);
  metrics_.MaxGauge(obs::kPeakResidentBytes, resident);
}

Status TaneRun::ReleaseHandles(std::vector<Node>* nodes) {
  for (Node& node : *nodes) {
    if (node.handle >= 0) {
      TANE_RETURN_IF_ERROR(store_->Release(node.handle));
      node.handle = -1;
    }
  }
  ClearAccessors();
  return Status::OK();
}

Status TaneRun::TestValidity(WorkerState* w, int64_t prev_error,
                             int64_t prev_handle, int64_t node_error,
                             const StrippedPartition* fine, bool* valid,
                             double* error, bool* exact_holds) {
  metrics_.Add(w->shard, obs::kValidityTests, 1);
  *exact_holds = (prev_error == node_error);
  *error = 0.0;

  if (config_.epsilon == 0.0) {
    // Lemma 2: X→A holds iff |π_X| = |π_X∪A| iff e(X) = e(X∪A).
    *valid = *exact_holds;
    return Status::OK();
  }

  // Approximate mode: decide error(X\{A} → A) ≤ ε with the violation count
  // compared against the precomputed integer threshold. For g3 the
  // e(·)-based bounds run first (O(1)); the exact partition scan (O(|r|))
  // only when necessary. g1/g2 have no such bounds and always scan.
  if (config_.measure == ErrorMeasure::kG3) {
    const int64_t lower = std::max<int64_t>(0, prev_error - node_error);
    const int64_t upper = prev_error;
    if (config_.use_g3_bounds && lower > max_removals_) {
      metrics_.Add(w->shard, obs::kG3ScansSkipped, 1);
      *valid = false;
      return Status::OK();
    }
    if (config_.use_g3_bounds && !config_.compute_exact_errors &&
        upper <= max_removals_) {
      metrics_.Add(w->shard, obs::kG3ScansSkipped, 1);
      *valid = true;
      *error = num_rows_ == 0 ? 0.0
                              : static_cast<double>(upper) /
                                    static_cast<double>(num_rows_);
      return Status::OK();
    }
  }

  const StrippedPartition* coarse = nullptr;
  if (prev_handle >= 0) {
    // Borrowed via the worker's accessor LRU; the level driver releases
    // every worker's borrows with ReleaseHandles at the level boundary.
    // tane-analyzer: allow(handle-discipline)
    TANE_ASSIGN_OR_RETURN(coarse, w->accessor.Acquire(prev_handle));
  } else {
    coarse = empty_partition_.get();
    // Invariant: the level driver prebuilds the empty-set partition.
    // tane-lint: allow(tane-check)
    TANE_CHECK(coarse != nullptr) << "empty-set partition not prebuilt";
  }
  // Invariant: scan-path callers pass the node's own partition.
  // tane-lint: allow(tane-check)
  TANE_CHECK(fine != nullptr) << "validity scan without the node partition";
  metrics_.Add(w->shard, obs::kG3Scans, 1);
  // The scan walks both operands' member rows; the histogram captures the
  // per-scan cost distribution for the run report.
  metrics_.Record(w->shard, obs::kG3ScanMemberRows,
                  coarse->num_member_rows() + fine->num_member_rows());
  switch (config_.measure) {
    case ErrorMeasure::kG3: {
      TANE_ASSIGN_OR_RETURN(const int64_t removals,
                            w->g3.RemovalCount(*coarse, *fine));
      *valid = removals <= max_removals_;
      *error = num_rows_ == 0 ? 0.0
                              : static_cast<double>(removals) /
                                    static_cast<double>(num_rows_);
      break;
    }
    case ErrorMeasure::kG2: {
      TANE_ASSIGN_OR_RETURN(const int64_t violating_rows,
                            w->g3.ViolatingRowCount(*coarse, *fine));
      *valid = violating_rows <= max_removals_;
      *error = num_rows_ == 0 ? 0.0
                              : static_cast<double>(violating_rows) /
                                    static_cast<double>(num_rows_);
      break;
    }
    case ErrorMeasure::kG1: {
      TANE_ASSIGN_OR_RETURN(const int64_t violating_pairs,
                            w->g3.ViolatingPairCount(*coarse, *fine));
      *valid = violating_pairs <= max_pairs_;
      *error = num_rows_ == 0 ? 0.0
                              : static_cast<double>(violating_pairs) /
                                    (static_cast<double>(num_rows_) *
                                     static_cast<double>(num_rows_));
      break;
    }
  }
  return Status::OK();
}

Status TaneRun::ProcessNode(int level_number, const Node& node,
                            const StrippedPartition* fine,
                            const std::vector<Node>* prev,
                            const LevelIndex* prev_index, WorkerState* w,
                            NodeOutcome* out) {
  // Lines 3-8 for one node: test X\{A} → A for A ∈ X ∩ C⁺(X). The
  // candidate set is snapshot before any test, exactly like the serial
  // loop, so C⁺ updates from this node's own emissions never affect which
  // tests run.
  AttributeSet cplus = node.cplus;
  const AttributeSet candidates = node.set.Intersect(node.cplus);
  for (int attribute : Members(candidates)) {
    const AttributeSet lhs = node.set.Without(attribute);
    int64_t prev_error = empty_error_;
    int64_t prev_handle = -1;
    if (level_number > 1) {
      const int prev_pos = prev_index->Find(lhs);
      // Invariant: candidate generation only emits sets whose
      // subsets survived the previous level.
      // tane-lint: allow(tane-check)
      TANE_CHECK(prev_pos >= 0);
      prev_error = (*prev)[prev_pos].error;
      prev_handle = (*prev)[prev_pos].handle;
    }

    bool valid = false;
    bool exact_holds = false;
    double error = 0.0;
    TANE_RETURN_IF_ERROR(TestValidity(w, prev_error, prev_handle, node.error,
                                      fine, &valid, &error, &exact_holds));
    if (!valid) continue;

    // Line 6: the minimal dependency, buffered for the in-order merge.
    out->emissions.push_back({attribute, error});
    // Line 7: A can no longer be a minimal rhs for any superset.
    cplus = cplus.Without(attribute);
    // Line 8 (exact) / 8' (approximate): Lemma 4.1 strengthening. In the
    // approximate algorithm it applies only when the dependency holds
    // exactly.
    if (config_.use_rhs_plus_pruning &&
        (config_.epsilon == 0.0 || exact_holds)) {
      cplus = cplus.Intersect(node.set);
    }
  }
  out->cplus_after = cplus;
  return Status::OK();
}

Status TaneRun::MergeOutcomes(std::vector<Node>* level,
                              DiscoveryResult* result) {
  // Invariant: the window that built `level` filled one outcome per node.
  // tane-lint: allow(tane-check)
  TANE_CHECK(pending_outcomes_.size() == level->size())
      << "window outcomes out of step with the level";
  // Merge in node order: the emissions and C⁺ updates land exactly as the
  // serial loop would have applied them. Aborting between nodes keeps the
  // result prefix-correct: each emitted dependency passed its own validity
  // test and its minimality rests only on fully completed lower levels, so
  // it also appears in the complete run's output.
  for (size_t i = 0; i < level->size(); ++i) {
    NodeOutcome& out = pending_outcomes_[i];
    if (!out.processed) continue;  // a stop fired before this node ran
    TANE_RETURN_IF_ERROR(out.status);
    Node& node = (*level)[i];
    for (const Emission& emission : out.emissions) {
      RecordFd(result, node.set.Without(emission.attribute),
               emission.attribute, emission.error);
    }
    node.cplus = out.cplus_after;
  }
  pending_outcomes_.clear();
  return Status::OK();
}

Status TaneRun::Prune(int level_number, std::vector<Node>* level,
                      DiscoveryResult* result) {
  LevelIndex index;
  {
    std::vector<AttributeSet> sets;
    sets.reserve(level->size());
    for (const Node& node : *level) sets.push_back(node.set);
    index = LevelIndex(sets);
  }

  for (Node& node : *level) {
    // Rule 1: empty C⁺ means no superset can yield a minimal dependency.
    if (node.cplus.empty()) {
      node.deleted = true;
      continue;
    }
    // Rule 2: key pruning (Lemma 4.2). A set reaching its level with
    // e(X) = 0 is a key: superkeys that are not keys have a key as a proper
    // subset and were therefore never generated.
    if (config_.use_key_pruning && node.error == 0 && num_rows_ > 0) {
      metrics_.Add(0, obs::kKeysFound, 1);
      result->keys.push_back(node.set);
      // Output X → A for rhs⁺ candidates outside X whose minimality is
      // certified by the C⁺ sets of this level (paper PRUNE, lines 5-7).
      if (level_number <= config_.max_lhs_size) {
        for (int attribute : Members(node.cplus.Difference(node.set))) {
          bool minimal = true;
          for (int inside : Members(node.set)) {
            const AttributeSet sibling =
                node.set.With(attribute).Without(inside);
            const int pos = index.Find(sibling);
            if (pos >= 0) {
              if (!(*level)[pos].cplus.Contains(attribute)) {
                minimal = false;
                break;
              }
            } else if (!InDefinitionalCplus(sibling, attribute)) {
              // The sibling was never generated (a key beneath it was
              // pruned); fall back to the definition of C⁺, answered from
              // the dependencies discovered so far.
              minimal = false;
              break;
            }
          }
          if (minimal) {
            RecordFd(result, node.set, attribute, 0.0);
          }
        }
      }
      node.deleted = true;
    }
  }

  // Partitions of deleted nodes are dead: nothing later reads them.
  for (Node& node : *level) {
    if (node.deleted && node.handle >= 0) {
      TANE_RETURN_IF_ERROR(store_->Release(node.handle));
      node.handle = -1;
    }
  }
  ClearAccessors();
  return Status::OK();
}

StatusOr<StrippedPartition> TaneRun::BuildCandidatePartition(
    WorkerState* w, const LevelCandidate& candidate,
    const std::vector<Node>& survivors) {
  if (config_.use_partition_products) {
    // Both parents are borrows through the worker's accessor LRU, released
    // in bulk by ReleaseHandles at the level boundary (see RunLevel).
    // tane-analyzer: allow(handle-discipline)
    TANE_ASSIGN_OR_RETURN(
        const StrippedPartition* a,
        w->accessor.Acquire(survivors[candidate.parent_a].handle));
    // tane-analyzer: allow(handle-discipline)
    TANE_ASSIGN_OR_RETURN(
        const StrippedPartition* b,
        w->accessor.Acquire(survivors[candidate.parent_b].handle));
    metrics_.Add(w->shard, obs::kPartitionProducts, 1);
    // Handles are allocated monotonically and never reused, so handle+1 is
    // a sound content token: consecutive candidates sharing their left
    // parent skip re-labeling. GenerateNextLevel emits each block row as
    // one run of candidates with the same left parent, so at one thread
    // about half of all products reuse the labels of the one before.
    return w->product.Multiply(
        *a, *b, static_cast<uint64_t>(survivors[candidate.parent_a].handle) + 1);
  }
  // Schlimmer-style recomputation: fold the candidate set's singleton
  // partitions, |X|−1 products instead of one.
  const std::vector<int> members = candidate.set.ToIndices();
  StrippedPartition product = singleton_partitions_[members[0]];
  for (size_t i = 1; i < members.size(); ++i) {
    TANE_ASSIGN_OR_RETURN(
        product, w->product.Multiply(product, singleton_partitions_[members[i]]));
    metrics_.Add(w->shard, obs::kPartitionProducts, 1);
  }
  return product;
}

bool TaneRun::UseParallelWindow(int64_t count, int64_t est_row_work) const {
  if (pool_.num_threads() <= 1) return false;
  if (count < 2) return false;
  const int64_t configured = config_.parallel_min_window_rows;
  if (configured == 0) return true;
  if (configured > 0) return est_row_work >= configured;
  // Auto: a lone hardware thread can never overlap the window's work (the
  // deques would only add scheduling overhead on top of a serial
  // execution), and a level whose total row work is tiny loses more to
  // fan-out/join than it can win back. hardware_concurrency() == 0 means
  // "unknown" and gets the benefit of the doubt.
  if (std::thread::hardware_concurrency() == 1) return false;
  return est_row_work >= kAutoParallelMinRowWork;
}

Status TaneRun::CommitOneSlot(WindowContext* ctx, int64_t i) {
  WindowSlot& slot = ctx->slots[i];
  // Invariant: the frontier only reaches published slots.
  // tane-lint: allow(tane-check)
  TANE_CHECK(slot.partition.has_value()) << "commit of an unpublished slot";
  if (!slot.partition->ok()) return slot.partition->status();
  TANE_RETURN_IF_ERROR(slot.outcome.status);
  StrippedPartition partition = std::move(*slot.partition).value();
  slot.partition.reset();

  Node node;
  node.set = (*ctx->in->sets)[i];
  node.cplus = (*ctx->in->cplus)[i];
  node.error = partition.Error();
  node.member_rows = partition.num_member_rows();
  if (ctx->in->stash_singletons) {
    // Fold mode keeps a resident copy next to the stored one; the store
    // gets the copy so the original can live in singleton_partitions_.
    TANE_ASSIGN_OR_RETURN(node.handle, store_->Put(partition));
    singleton_partitions_.push_back(std::move(partition));
  } else {
    TANE_ASSIGN_OR_RETURN(node.handle, store_->Put(std::move(partition)));
  }
  ctx->nodes.push_back(node);
  metrics_.AddShared(obs::kSetsGenerated, 1);

  if ((i & 15) == 0) {
    // Strided mid-window accounting: worker scratch and accessor caches are
    // in flux, so only the store's resident bytes are sampled here; the
    // full CheckMemoryBudget runs at the window's quiesce point.
    const int64_t resident = store_->resident_bytes();
    metrics_.MaxGauge(obs::kPeakResidentBytes, resident);
    if (config_.storage == StorageMode::kMemory && controller_ != nullptr) {
      const int64_t budget = controller_->memory_budget_bytes();
      if (budget > 0 && resident > budget) {
        ReportBudgetBreach(resident, budget);
        return Status::ResourceExhausted(
            "resident partitions (" + std::to_string(resident) +
            " bytes) exceed the memory budget (" + std::to_string(budget) +
            " bytes); use StorageMode::kAuto to degrade to disk instead");
      }
    }
  }
  return Status::OK();
}

void TaneRun::CommitReadySlots(WindowContext* ctx) {
  // The caller that raises the request count from zero takes the commit
  // duty; everyone else only registers a request and goes back to work. The
  // duty holder rescans until it has retired every request it observed, and
  // each acq_rel RMW carries the requester's `done` store with it, so a slot
  // published while another thread commits is never stranded and nobody has
  // to poll the frontier.
  int64_t requests =
      ctx->commit_requests.fetch_add(1, std::memory_order_acq_rel);
  if (requests != 0) return;
  requests = 1;
  do {
    int64_t first = 0;
    int64_t i = 0;
    bool failed = false;
    {
      MutexLock lock(&ctx->mu);
      first = i = ctx->frontier.load(std::memory_order_relaxed);
      while (i < ctx->count && !ctx->failed.load(std::memory_order_relaxed) &&
             ctx->slots[i].done.load(std::memory_order_acquire) != 0) {
        Status status = CommitOneSlot(ctx, i);
        if (!status.ok()) {
          ctx->status = std::move(status);
          ctx->failed.store(true, std::memory_order_relaxed);
          break;
        }
        ++i;
        ctx->frontier.store(i, std::memory_order_seq_cst);
      }
      failed = ctx->failed.load(std::memory_order_relaxed);
    }
    if (i != first || failed) WakeGate(ctx, i, failed);
    requests = ctx->commit_requests.fetch_sub(requests,
                                              std::memory_order_acq_rel) -
               requests;
  } while (requests != 0);
}

Status TaneRun::RunLevelWindow(const WindowInputs& in, const BuildFn& build,
                               std::vector<Node>* next,
                               LevelParallelStats* lp) {
  const int64_t count = static_cast<int64_t>(in.sets->size());
  pending_outcomes_.clear();
  next->clear();
  if (count == 0) return Status::OK();

  WindowContext ctx;
  ctx.count = count;
  ctx.gate = std::max<int64_t>(
      16, static_cast<int64_t>(pool_.num_threads()) * 8);
  ctx.slots = std::make_unique<WindowSlot[]>(count);
  ctx.in = &in;
  {
    MutexLock lock(&ctx.mu);
    ctx.nodes.reserve(count);
  }

  // The per-task body, shared by the parallel window and the serial
  // fallback: build the candidate's partition and fuse in the validity
  // tests against the parent level.
  auto run_task = [&](WorkerState* w, int64_t i) {
    WindowSlot& slot = ctx.slots[i];
    slot.partition.emplace(build(w, i));
    if (!slot.partition->ok()) return;
    const StrippedPartition& built = slot.partition->value();
    Node node;
    node.set = (*in.sets)[i];
    node.cplus = (*in.cplus)[i];
    node.error = built.Error();
    slot.outcome.status = ProcessNode(in.level_number, node, &built,
                                      in.parents, in.parent_index, w,
                                      &slot.outcome);
    slot.outcome.processed = true;
    metrics_.Add(w->shard, obs::kNodesProcessed, 1);
  };

  store_->BeginTaskWindow();
  if (UseParallelWindow(count, in.est_row_work)) {
    if (SpanStack::recording()) {
      // Names the parallel region for the sampling profiler: every worker
      // pushes this label as its root frame for the window's duration.
      char label[kSpanFrameChars];
      std::snprintf(label, sizeof(label), "window level-%d", in.level_number);
      SpanStack::SetCollectiveLabel(label);
    }
    const ParallelForStats region = pool_.ParallelFor(
        count, [&](int worker, int64_t i) {
          WorkerState* w = workers_[worker].get();
          if (ctx.failed.load(std::memory_order_relaxed) ||
              WorkerShouldStop(w)) {
            return;
          }
          // The commit-distance gate. A gated worker sleeps until the
          // frontier lets it start: the worker holding the minimum
          // uncommitted task is never gated (its gate condition needs the
          // frontier to pass that very task), and owners pop their deques
          // in ascending index order, so the minimum unfinished task is
          // always either running or next in line — the window cannot
          // deadlock and the frontier always advances. A short stall is
          // spun out; a long one (a slow task, a spill write) sleeps, so
          // the run's CPU time does not grow with how long it lasts.
          bool stall_recorded = false;
          std::chrono::steady_clock::time_point spin_start;
          while (i >= ctx.frontier.load(std::memory_order_seq_cst) +
                          ctx.gate) {
            if (!stall_recorded) {
              // One event per gate entry, not per spin: the ring holds the
              // *pattern* of stalls, and a spinning worker would otherwise
              // flood its ring in microseconds.
              stall_recorded = true;
              spin_start = std::chrono::steady_clock::now();
              RecordFlight(worker, obs::FlightEventType::kStall, "gate", i,
                           ctx.frontier.load(std::memory_order_relaxed));
            }
            if (ctx.failed.load(std::memory_order_relaxed) ||
                WorkerShouldStop(w)) {
              return;
            }
            if (std::chrono::steady_clock::now() - spin_start <
                kGateSpin) {
              std::this_thread::yield();
            } else if (ParkAtGate(&ctx, i)) {
              // Woken by a commit: spin again while the frontier closes in.
              spin_start = std::chrono::steady_clock::now();
            }
          }
          run_task(w, i);
          ctx.slots[i].done.store(1, std::memory_order_release);
          CommitReadySlots(&ctx);
        });
    lp->wall_seconds += region.wall_seconds;
    lp->worker_seconds += region.busy_seconds;
    // Workers have quiesced, and every request they made was served; this
    // pass only confirms the frontier stopped where the window did.
    CommitReadySlots(&ctx);
  } else {
    // Serial fallback: same task and commit code on the caller thread, no
    // deques, no gate — the frontier trivially follows the loop index.
    WallTimer serial_timer;
    WorkerState* w = workers_[0].get();
    for (int64_t i = 0;
         i < count && !ctx.failed.load(std::memory_order_relaxed); ++i) {
      if (WorkerShouldStop(w)) break;
      run_task(w, i);
      ctx.slots[i].done.store(1, std::memory_order_release);
      CommitReadySlots(&ctx);
    }
    const double elapsed = serial_timer.ElapsedSeconds();
    lp->wall_seconds += elapsed;
    lp->worker_seconds += elapsed;
  }
  const Status end_status = store_->EndTaskWindow();

  int64_t committed = 0;
  Status window_status = Status::OK();
  {
    MutexLock lock(&ctx.mu);
    committed = ctx.frontier.load(std::memory_order_relaxed);
    *next = std::move(ctx.nodes);
    window_status = ctx.status;
  }
  pending_outcomes_.reserve(committed);
  for (int64_t i = 0; i < committed; ++i) {
    pending_outcomes_.push_back(std::move(ctx.slots[i].outcome));
  }
  if (!window_status.ok()) {
    LogIgnoredStatus(end_status, "ending the task window");
    return window_status;
  }
  return end_status;
}

Status TaneRun::WriteCheckpoint(int level_number,
                                const std::vector<Node>& survivors,
                                DiscoveryResult* result) {
  WallTimer timer;
  obs::SpanGuard span(tracer_, "checkpoint", &metrics_);
  RunSnapshot snapshot;
  snapshot.config_fingerprint = ConfigFingerprint(config_);
  snapshot.dataset_fingerprint = DatasetFingerprint(relation_);
  snapshot.num_rows = num_rows_;
  snapshot.num_columns = relation_.num_columns();
  snapshot.completed_level = level_number;
  // Emission order, not canonical order: CanonicalizeFds only runs at the
  // end of Run, and the restore path replays these to rebuild the pruning
  // indexes exactly as the interrupted run had them.
  snapshot.fds = result->fds;
  snapshot.keys = result->keys;
  snapshot.counters.sets_generated = metrics_.CounterTotal(obs::kSetsGenerated);
  snapshot.counters.validity_tests = metrics_.CounterTotal(obs::kValidityTests);
  snapshot.counters.g3_scans = metrics_.CounterTotal(obs::kG3Scans);
  snapshot.counters.g3_scans_skipped =
      metrics_.CounterTotal(obs::kG3ScansSkipped);
  snapshot.counters.partition_products =
      metrics_.CounterTotal(obs::kPartitionProducts);
  snapshot.counters.keys_found = metrics_.CounterTotal(obs::kKeysFound);
  snapshot.counters.nodes_processed =
      metrics_.CounterTotal(obs::kNodesProcessed);
  snapshot.counters.fds_emitted = metrics_.CounterTotal(obs::kFdsEmitted);
  snapshot.counters.max_level_size = metrics_.gauge(obs::kMaxLevelSize);
  snapshot.level_parallel = stats_.level_parallel;
  snapshot.survivors.reserve(survivors.size());
  {
    obs::SpanGuard serialize_span(tracer_, "checkpoint-serialize", &metrics_);
    for (const Node& node : survivors) {
      SnapshotNode stored;
      stored.set = node.set;
      stored.cplus = node.cplus;
      stored.error = node.error;
      const StrippedPartition* partition = store_->Peek(node.handle);
      StrippedPartition owned;
      if (partition == nullptr) {
        TANE_ASSIGN_OR_RETURN(owned, store_->Get(node.handle));
        partition = &owned;
      }
      stored.partition_bytes = SerializePartition(*partition);
      snapshot.survivors.push_back(std::move(stored));
      metrics_.Add(0, obs::kCheckpointNodesWritten, 1);
    }
    serialize_span.AddArg("nodes",
                          static_cast<int64_t>(snapshot.survivors.size()));
  }
  int64_t bytes = 0;
  {
    // The serialize loop above is CPU (partition encode); this is the
    // durable write. Separating them in the trace tells fsync stalls
    // apart from encode cost.
    obs::SpanGuard write_span(tracer_, "checkpoint-write", &metrics_);
    TANE_ASSIGN_OR_RETURN(
        bytes, WriteSnapshot(config_.checkpoint_directory, snapshot));
    write_span.AddArg("bytes", bytes);
  }
  metrics_.Add(0, obs::kCheckpointWrites, 1);
  metrics_.Add(0, obs::kCheckpointBytesWritten, bytes);
  metrics_.SetGauge(obs::kCheckpointLastLevel, level_number);
  last_checkpoint_level_ = level_number;
  checkpoint_seconds_ += timer.ElapsedSeconds();
  span.AddArg("level", level_number);
  span.AddArg("nodes", static_cast<int64_t>(snapshot.survivors.size()));
  span.AddArg("bytes", bytes);
  RecordFlight(-1, obs::FlightEventType::kCheckpointWrite, "snapshot", bytes,
               static_cast<int64_t>(snapshot.survivors.size()));
  return Status::OK();
}

Status TaneRun::RestoreFromSnapshot(const RunSnapshot& snapshot,
                                    DiscoveryResult* result,
                                    std::vector<Node>* survivors) {
  obs::SpanGuard span(tracer_, "restore", &metrics_);
  metrics_.Add(0, obs::kCheckpointReads, 1);
  metrics_.Add(0, obs::kCheckpointBytesRead, snapshot.serialized_bytes);
  span.AddArg("level", snapshot.completed_level);
  span.AddArg("nodes", static_cast<int64_t>(snapshot.survivors.size()));
  span.AddArg("bytes", snapshot.serialized_bytes);
  RecordFlight(-1, obs::FlightEventType::kCheckpointRestore, "snapshot",
               snapshot.serialized_bytes,
               static_cast<int64_t>(snapshot.survivors.size()));
  // Replaying the dependencies in emission order rebuilds found_lhs_by_rhs_
  // and the covered-rhs masks byte-for-byte; the carried counters restore
  // the work totals those emissions represent.
  for (const FunctionalDependency& fd : snapshot.fds) {
    RecordFd(result, fd.lhs, fd.rhs, fd.error, /*count=*/false);
  }
  result->keys = snapshot.keys;
  result->completed_levels = snapshot.completed_level;
  stats_.levels_processed = snapshot.completed_level;
  stats_.level_parallel = snapshot.level_parallel;
  const SnapshotCounters& carried = snapshot.counters;
  metrics_.Add(0, obs::kSetsGenerated, carried.sets_generated);
  metrics_.Add(0, obs::kValidityTests, carried.validity_tests);
  metrics_.Add(0, obs::kG3Scans, carried.g3_scans);
  metrics_.Add(0, obs::kG3ScansSkipped, carried.g3_scans_skipped);
  metrics_.Add(0, obs::kPartitionProducts, carried.partition_products);
  metrics_.Add(0, obs::kKeysFound, carried.keys_found);
  metrics_.Add(0, obs::kNodesProcessed, carried.nodes_processed);
  metrics_.Add(0, obs::kFdsEmitted, carried.fds_emitted);
  metrics_.MaxGauge(obs::kMaxLevelSize, carried.max_level_size);
  metrics_.SetGauge(obs::kResumedFromLevel, snapshot.completed_level);
  metrics_.SetGauge(obs::kCheckpointLastLevel, snapshot.completed_level);
  resumed_from_level_ = snapshot.completed_level;
  // The loaded file still covers this level; don't rewrite it on wind-down.
  last_checkpoint_level_ = snapshot.completed_level;

  // Survivor partitions rehydrate through the regular Put path, so the
  // store (spill, budget accounting) treats them exactly like partitions
  // the run computed itself. member_rows is relation-derived state the
  // snapshot format deliberately omits.
  survivors->reserve(snapshot.survivors.size());
  for (const SnapshotNode& stored : snapshot.survivors) {
    TANE_ASSIGN_OR_RETURN(StrippedPartition partition,
                          DeserializePartition(stored.partition_bytes));
    Node node;
    node.set = stored.set;
    node.cplus = stored.cplus;
    node.error = stored.error;
    node.member_rows = partition.num_member_rows();
    TANE_ASSIGN_OR_RETURN(node.handle, store_->Put(std::move(partition)));
    survivors->push_back(node);
    metrics_.Add(0, obs::kCheckpointNodesRestored, 1);
  }
  SamplePeakMemory();
  TANE_RETURN_IF_ERROR(CheckMemoryBudget());
  // Relation-derived state the snapshot deliberately omits: the fold-mode
  // singleton partitions are rebuilt from the input, bit-identical to the
  // interrupted run's.
  if (!config_.use_partition_products) {
    singleton_partitions_.reserve(relation_.num_columns());
    for (int attribute = 0; attribute < relation_.num_columns(); ++attribute) {
      singleton_partitions_.push_back(PartitionBuilder::ForAttribute(
          relation_, attribute, config_.use_stripped_partitions));
    }
  }
  return Status::OK();
}

StatusOr<bool> TaneRun::AdvanceLevel(int level_number,
                                     std::vector<Node>* survivors,
                                     std::vector<Node>* current,
                                     DiscoveryResult* result) {
  if (checkpointing() && config_.checkpoint_every_level &&
      last_checkpoint_level_ < level_number) {
    TANE_RETURN_IF_ERROR(WriteCheckpoint(level_number, *survivors, result));
  }
  if (config_.stop_after_level > 0 &&
      level_number >= config_.stop_after_level) {
    completion_ = Completion::kSuspended;
    TANE_RETURN_IF_ERROR(
        MaybeWindDownCheckpoint(level_number, *survivors, result));
    TANE_RETURN_IF_ERROR(ReleaseHandles(survivors));
    return false;
  }
  // Level boundary: the controller is always consulted between a fully
  // processed level and the generation of the next one. Survivor handles
  // are still live here, which is what makes the wind-down snapshot
  // possible at all — this is the last moment the level's partitions exist.
  if (PollStop()) {
    TANE_RETURN_IF_ERROR(
        MaybeWindDownCheckpoint(level_number, *survivors, result));
    TANE_RETURN_IF_ERROR(ReleaseHandles(survivors));
    return false;
  }

  // GENERATE-NEXT-LEVEL with partitions as products of two parents
  // (Lemma 3), fused with the next level's validity tests: each candidate
  // becomes one task of a level window, runnable the moment its parent
  // partitions exist (they all do — the parents are the survivors), and
  // committed in candidate order so handles and e(·) values are
  // deterministic. The commit-distance gate bounds partitions resident
  // outside the store to O(threads), like the old batched generator.
  std::vector<AttributeSet> survivor_sets;
  survivor_sets.reserve(survivors->size());
  for (const Node& node : *survivors) survivor_sets.push_back(node.set);
  std::vector<LevelCandidate> candidates;
  {
    obs::SpanGuard span(tracer_, "generate", &metrics_);
    candidates = GenerateNextLevel(survivor_sets);
  }
  if (candidates.empty()) {
    // Nothing above this level: the loop exits without entering a new
    // level, so no timing row is pushed for one.
    TANE_RETURN_IF_ERROR(ReleaseHandles(survivors));
    current->clear();
    return true;
  }
  const LevelIndex survivor_index(survivor_sets);

  const int next_level = level_number + 1;
  std::vector<AttributeSet> sets(candidates.size());
  std::vector<AttributeSet> cplus(candidates.size());
  int64_t est_row_work = 0;
  for (size_t i = 0; i < candidates.size(); ++i) {
    sets[i] = candidates[i].set;
    cplus[i] = SeedCplus(next_level, sets[i], survivors, &survivor_index);
    est_row_work +=
        std::min((*survivors)[candidates[i].parent_a].member_rows,
                 (*survivors)[candidates[i].parent_b].member_rows);
  }

  // The next level's timing row is pushed before its window so the fused
  // build+validate time lands on the level it creates; a wind-down below
  // pops it again, keeping one row per entered level.
  {
    LevelParallelStats row;
    row.level = next_level;
    row.nodes = static_cast<int64_t>(candidates.size());
    stats_.level_parallel.push_back(row);
  }

  WindowInputs in;
  in.level_number = next_level;
  in.sets = &sets;
  in.cplus = &cplus;
  in.parents = survivors;
  in.parent_index = &survivor_index;
  in.est_row_work = est_row_work;
  std::vector<Node> next;
  Status window_status;
  {
    obs::SpanGuard span(tracer_, "products", &metrics_);
    // Kernel attribution is per-span, not per-dispatch: a counter read per
    // product would cost two syscalls on the hottest path. The dispatched
    // kernel is constant for the run, so the span arg loses nothing.
    span.AddArg("kernel_kind", static_cast<int64_t>(kernel_->kind));
    window_status = RunLevelWindow(
        in,
        [&](WorkerState* w, int64_t i) {
          return BuildCandidatePartition(w, candidates[i], *survivors);
        },
        &next, &stats_.level_parallel.back());
  }
  if (window_status.ok() && !stopped()) {
    // Quiesce point: full memory accounting now that worker scratch and
    // accessor caches are stable again.
    SamplePeakMemory();
    window_status = CheckMemoryBudget();
  }
  if (!window_status.ok()) {
    // Hard error (store I/O, budget breach): snapshot the level boundary
    // while the survivors are still live — a budget breach under
    // checkpointing becomes a resumable failure the caller can retry with
    // a different storage plan — then release everything before surfacing
    // it. The window error takes precedence over cleanup failures, but
    // those still get a log line each.
    stats_.level_parallel.pop_back();
    LogIgnoredStatus(
        MaybeWindDownCheckpoint(level_number, *survivors, result),
        "checkpoint during error wind-down");
    LogIgnoredStatus(ReleaseHandles(&next), "releasing next level");
    LogIgnoredStatus(ReleaseHandles(survivors), "releasing survivors");
    return window_status;
  }
  if (stopped()) {
    // Stopped while building the next level: its committed prefix was
    // validated but never merged or pruned, so it contributes nothing —
    // drop it. The survivor level is still a valid boundary, so it is
    // snapshot for resume.
    LatchCompletion();
    stats_.level_parallel.pop_back();
    pending_outcomes_.clear();
    TANE_RETURN_IF_ERROR(ReleaseHandles(&next));
    TANE_RETURN_IF_ERROR(
        MaybeWindDownCheckpoint(level_number, *survivors, result));
    TANE_RETURN_IF_ERROR(ReleaseHandles(survivors));
    return false;
  }

  // The window consumed the survivors completely — products and validity
  // scans both ran inside it — so their partitions are dead in every mode.
  TANE_RETURN_IF_ERROR(ReleaseHandles(survivors));
  *current = std::move(next);
  return true;
}

Status TaneRun::Run(DiscoveryResult* result) {
  WallTimer timer;
  // Held in an optional so the wind-down below can close it before the
  // final metrics snapshot — the "run" hw phase must be aggregated by the
  // time the snapshot that feeds the report is taken.
  std::optional<obs::SpanGuard> run_span;
  run_span.emplace(tracer_, "run", &metrics_);
  if (config_.progress_period_seconds > 0.0) {
    obs::ProgressMonitor::Options options;
    options.period_seconds = config_.progress_period_seconds;
    options.controller = controller_;
    monitor_ = std::make_unique<obs::ProgressMonitor>(&metrics_, options);
    monitor_->Start();
  }
  const int num_attributes = relation_.num_columns();
  empty_error_ = num_rows_ > 0 ? num_rows_ - 1 : 0;
  found_lhs_by_rhs_.assign(num_attributes, {});
  covered_by_singleton_.assign(num_attributes, AttributeSet());
  stats_.num_threads = config_.num_threads;
  if (config_.epsilon > 0.0) {
    // π_∅ backs the level-1 tests ∅ → A; build it before workers can race
    // to create it lazily.
    (void)EmptySetPartition();
  }

  std::vector<Node> current;
  int level_number = 1;

  if (resume_snapshot_ != nullptr) {
    // Resume: rebuild the boundary state of the checkpointed level and
    // re-enter the lattice through the same advance path the loop uses.
    std::vector<Node> survivors;
    TANE_RETURN_IF_ERROR(
        RestoreFromSnapshot(*resume_snapshot_, result, &survivors));
    level_number = resume_snapshot_->completed_level;
    if (stats_.level_parallel.empty()) {
      // Defensive: a well-formed snapshot always carries its level rows.
      LevelParallelStats row;
      row.level = level_number;
      row.nodes = static_cast<int64_t>(survivors.size());
      stats_.level_parallel.push_back(row);
    }
    TANE_ASSIGN_OR_RETURN(
        const bool advanced,
        AdvanceLevel(level_number, &survivors, &current, result));
    if (advanced) ++level_number;
    // !advanced leaves `current` empty, skipping the loop: the run wound
    // down again (suspend, stop, ...) before making progress.
  } else if (num_attributes > 0) {
    // L_1 := {{A} | A ∈ R}, with partitions computed from the database
    // through the same fused window as every later level: build + validity
    // tests in one task per attribute. Its timing row is pushed first so
    // the level-1 work lands on the level-1 row.
    {
      LevelParallelStats row;
      row.level = 1;
      row.nodes = num_attributes;
      stats_.level_parallel.push_back(row);
    }
    std::vector<AttributeSet> sets(num_attributes);
    std::vector<AttributeSet> cplus(num_attributes);
    for (int attribute = 0; attribute < num_attributes; ++attribute) {
      sets[attribute] = AttributeSet::Singleton(attribute);
      cplus[attribute] = SeedCplus(1, sets[attribute], nullptr, nullptr);
    }
    WindowInputs in;
    in.level_number = 1;
    in.sets = &sets;
    in.cplus = &cplus;
    in.stash_singletons = !config_.use_partition_products;
    in.est_row_work = static_cast<int64_t>(num_attributes) * num_rows_;
    if (in.stash_singletons) singleton_partitions_.reserve(num_attributes);
    Status seed_status;
    {
      obs::SpanGuard span(tracer_, "base-partitions", &metrics_);
      seed_status = RunLevelWindow(
          in,
          [&](WorkerState*, int64_t i) {
            return StatusOr<StrippedPartition>(PartitionBuilder::ForAttribute(
                relation_, static_cast<int>(i),
                config_.use_stripped_partitions));
          },
          &current, &stats_.level_parallel.back());
    }
    TANE_RETURN_IF_ERROR(seed_status);
    if (stopped()) {
      // Stopped during seeding: nothing was merged, so the partial level 1
      // contributes nothing; drop it — including its timing row, since the
      // level was never entered.
      LatchCompletion();
      stats_.level_parallel.pop_back();
      pending_outcomes_.clear();
      TANE_RETURN_IF_ERROR(ReleaseHandles(&current));
      current.clear();
    }
    SamplePeakMemory();
    TANE_RETURN_IF_ERROR(CheckMemoryBudget());
  }

  while (!current.empty()) {
    stats_.levels_processed = level_number;
    metrics_.SetGauge(obs::kCurrentLevel, level_number);
    metrics_.SetGauge(obs::kLevelNodesTotal,
                      static_cast<int64_t>(current.size()));
    metrics_.SetGauge(obs::kLevelNodesStart,
                      metrics_.CounterTotal(obs::kNodesProcessed));
    metrics_.MaxGauge(obs::kMaxLevelSize,
                      static_cast<int64_t>(current.size()));
    obs::SpanGuard level_span(
        tracer_, "level " + std::to_string(level_number), &metrics_);
    RecordFlight(0, obs::FlightEventType::kLevel, "level", level_number,
                 static_cast<int64_t>(current.size()));
    // The level's timing row was pushed by whichever window built it
    // (AdvanceLevel, the seeding window, or the resume prologue).
    // tane-lint: allow(tane-check)
    TANE_CHECK(!stats_.level_parallel.empty() &&
               stats_.level_parallel.back().level == level_number)
        << "level timing row out of step with the loop";

    {
      // The window already ran this level's validity tests; what remains is
      // the serial in-node-order merge of emissions and C⁺ updates.
      obs::SpanGuard span(tracer_, "validity", &metrics_);
      span.AddArg("kernel_kind", static_cast<int64_t>(kernel_->kind));
      TANE_RETURN_IF_ERROR(MergeOutcomes(&current, result));
    }
    {
      obs::SpanGuard span(tracer_, "prune", &metrics_);
      TANE_RETURN_IF_ERROR(Prune(level_number, &current, result));
    }
    result->completed_levels = level_number;

    std::vector<Node> survivors;
    survivors.reserve(current.size());
    for (Node& node : current) {
      if (!node.deleted) survivors.push_back(std::move(node));
    }
    current.clear();

    if (survivors.empty() || level_number >= config_.max_lhs_size + 1) {
      // The search is finished — nothing above this level can be generated.
      TANE_RETURN_IF_ERROR(ReleaseHandles(&survivors));
      break;
    }

    TANE_ASSIGN_OR_RETURN(
        const bool advanced,
        AdvanceLevel(level_number, &survivors, &current, result));
    if (!advanced) break;
    ++level_number;
  }

  CanonicalizeFds(&result->fds);
  std::sort(result->keys.begin(), result->keys.end());
  LatchCompletion();
  result->completion = completion_;
  if (checkpointing()) {
    if (completion_ == Completion::kComplete) {
      // The results are now the durable artifact; stale snapshots would
      // only let a later --resume replay a finished search.
      TANE_RETURN_IF_ERROR(RemoveSnapshots(config_.checkpoint_directory));
      metrics_.SetGauge(obs::kCheckpointLastLevel, 0);
      last_checkpoint_level_ = 0;
    }
    result->resumable =
        completion_ != Completion::kComplete && last_checkpoint_level_ > 0;
  }
  if (monitor_ != nullptr) {
    monitor_->Stop();  // emits the final heartbeat line
    monitor_.reset();
  }
  stats_.spill_bytes_written = store_->bytes_written();
  stats_.wall_seconds = timer.ElapsedSeconds();

  // The legacy counters are views over the registry: one snapshot fills
  // them all, and the same snapshot ships in the result for the run report
  // and the bench emitters — the two can never disagree. Close the run
  // span first so its hw delta is part of that snapshot.
  run_span.reset();
  const obs::MetricsSnapshot snapshot = metrics_.Snapshot();
  stats_.sets_generated = snapshot.counter(obs::kSetsGenerated);
  stats_.max_level_size = snapshot.gauge(obs::kMaxLevelSize);
  stats_.validity_tests = snapshot.counter(obs::kValidityTests);
  stats_.g3_scans = snapshot.counter(obs::kG3Scans);
  stats_.g3_scans_skipped = snapshot.counter(obs::kG3ScansSkipped);
  stats_.partition_products = snapshot.counter(obs::kPartitionProducts);
  stats_.product_allocations = snapshot.counter(obs::kProductAllocations);
  stats_.product_rows_scanned = snapshot.counter(obs::kProductRowsScanned);
  stats_.product_label_reuses = snapshot.counter(obs::kProductLabelReuses);
  stats_.g3_rows_scanned = snapshot.counter(obs::kG3RowsScanned);
  stats_.kernel = std::string(KernelKindName(kernel_->kind));
  stats_.keys_found = snapshot.counter(obs::kKeysFound);
  stats_.peak_partition_bytes = snapshot.gauge(obs::kPeakResidentBytes);
  stats_.checkpoint_writes = snapshot.counter(obs::kCheckpointWrites);
  stats_.checkpoint_bytes = snapshot.counter(obs::kCheckpointBytesWritten);
  stats_.checkpoint_seconds = checkpoint_seconds_;
  stats_.resumed_from_level = resumed_from_level_;
  result->stats = stats_;
  result->metrics = snapshot;
  return Status::OK();
}

}  // namespace

StatusOr<DiscoveryResult> Tane::Discover(const Relation& relation,
                                         const TaneConfig& config) {
  TANE_RETURN_IF_ERROR(config.Validate());
  if (relation.num_columns() > kMaxAttributes) {
    return Status::InvalidArgument("relation has too many attributes");
  }

  // Resume loads the latest snapshot up front so fingerprint mismatches are
  // rejected before any partition work starts. A missing snapshot falls
  // back to a fresh run (schedulers can pass resume unconditionally);
  // corruption and I/O failures surface as-is.
  std::unique_ptr<RunSnapshot> resume_snapshot;
  if (config.resume) {
    StatusOr<RunSnapshot> loaded =
        LoadLatestSnapshot(config.checkpoint_directory);
    if (loaded.ok()) {
      if (loaded->config_fingerprint != ConfigFingerprint(config)) {
        return Status::FailedPrecondition(
            "refusing to resume: the snapshot in '" +
            config.checkpoint_directory +
            "' was written under a different configuration");
      }
      if (loaded->dataset_fingerprint != DatasetFingerprint(relation) ||
          loaded->num_rows != relation.num_rows() ||
          loaded->num_columns != relation.num_columns()) {
        return Status::FailedPrecondition(
            "refusing to resume: the snapshot in '" +
            config.checkpoint_directory +
            "' was written for a different dataset");
      }
      resume_snapshot = std::make_unique<RunSnapshot>(std::move(*loaded));
    } else if (loaded.status().code() != StatusCode::kNotFound) {
      return loaded.status();
    }
  }

  std::unique_ptr<PartitionStore> store;
  AutoPartitionStore* auto_store = nullptr;
  if (config.storage == StorageMode::kDisk) {
    TANE_ASSIGN_OR_RETURN(auto disk_store,
                          DiskPartitionStore::Open(config.spill_directory));
    store = std::move(disk_store);
  } else if (config.storage == StorageMode::kAuto) {
    const int64_t budget = config.run_controller != nullptr
                               ? config.run_controller->memory_budget_bytes()
                               : 0;
    auto owned = std::make_unique<AutoPartitionStore>(budget,
                                                      config.spill_directory);
    auto_store = owned.get();
    store = std::move(owned);
  } else {
    store = std::make_unique<MemoryPartitionStore>();
  }

  DiscoveryResult result;
  TaneRun run(relation, config, std::move(store), resume_snapshot.get());
  TANE_RETURN_IF_ERROR(run.Run(&result));
  if (auto_store != nullptr) {
    result.stats.degraded_to_disk = auto_store->spilled();
  }
  return result;
}

}  // namespace tane
