#include "replay.h"

#include <chrono>
#include <memory>
#include <string_view>
#include <utility>
#include <vector>

#include "core/partition_store.h"
#include "core/run_snapshot.h"
#include "core/tane.h"
#include "lattice/level.h"
#include "partition/buffer_pool.h"
#include "partition/error.h"
#include "partition/partition_builder.h"
#include "partition/product.h"

namespace perfbench {
namespace {

using tane::AttributeSet;
using tane::Status;
using tane::StatusOr;
using tane::StrippedPartition;

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Per-call accumulators of one replayed level; they become the arguments
// of the level's span (per-call spans would overflow the trace ring).
struct LevelAcc {
  int64_t build_ns = 0;
  int64_t generate_ns = 0;
  int64_t product_ns = 0;
  int64_t error_ns = 0;
  int64_t put_ns = 0;
  int64_t get_ns = 0;
  int64_t release_ns = 0;
  int64_t candidates = 0;
  int64_t products = 0;
  int64_t product_rows = 0;
  int64_t scans = 0;

  void AddTo(tane::obs::SpanGuard* span) const {
    span->AddArg("build_ns", build_ns);
    span->AddArg("generate_ns", generate_ns);
    span->AddArg("product_ns", product_ns);
    span->AddArg("error_ns", error_ns);
    span->AddArg("put_ns", put_ns);
    span->AddArg("get_ns", get_ns);
    span->AddArg("release_ns", release_ns);
    span->AddArg("candidates", candidates);
    span->AddArg("products", products);
    span->AddArg("product_rows", product_rows);
    span->AddArg("scans", scans);
  }
};

// The previous level as the validity tests of the next one see it.
struct Parents {
  const tane::LevelIndex* index = nullptr;
  std::vector<int64_t> errors;
  std::vector<int64_t> handles;
};

class Replayer {
 public:
  Replayer(const Workload& workload, const tane::Relation& relation,
           const std::string& spill_dir)
      : relation_(relation),
        epsilon_(workload.epsilon),
        max_removals_(tane::IntegerThreshold(
            workload.epsilon, static_cast<double>(relation.num_rows()))),
        product_(relation.num_rows()),
        g3_(relation.num_rows()) {
    if (workload.budget_mb > 0) {
      store_ = std::make_unique<tane::AutoPartitionStore>(
          workload.budget_mb << 20, spill_dir);
    } else {
      store_ = std::make_unique<tane::MemoryPartitionStore>();
    }
    store_->set_buffer_pool(&pool_);
    product_.set_buffer_pool(&pool_, 0);
    if (epsilon_ > 0.0) {
      empty_ = tane::PartitionBuilder::ForAttributeSet(relation, AttributeSet());
    }
  }

  // Level 1: base partitions, the ∅ → A tests, and their commits.
  Status Level1(LevelAcc* acc) {
    const int columns = relation_.num_columns();
    std::vector<int64_t> made;
    store_->BeginTaskWindow();
    for (int attribute = 0; attribute < columns; ++attribute) {
      int64_t t = NowNs();
      StrippedPartition partition =
          tane::PartitionBuilder::ForAttribute(relation_, attribute);
      acc->build_ns += NowNs() - t;
      ++acc->candidates;
      TANE_RETURN_IF_ERROR(Validate(AttributeSet::Singleton(attribute),
                                    AttributeSet::FullSet(columns), partition,
                                    nullptr, acc));
      TANE_RETURN_IF_ERROR(Commit(std::move(partition), &made, acc));
    }
    return EndWindow(made, acc);
  }

  // Level ℓ+1 from the survivors of level ℓ, as GENERATE-NEXT-LEVEL plus the
  // fused product + validity + commit window builds it.
  Status Window(const tane::RunSnapshot& snapshot, LevelAcc* acc) {
    std::vector<AttributeSet> sets;
    Parents parents;
    for (const tane::SnapshotNode& node : snapshot.survivors) {
      // Re-homing the survivors is bench set-up: the replay of the previous
      // level already timed their commits.
      TANE_ASSIGN_OR_RETURN(StrippedPartition partition,
                            tane::DeserializePartition(node.partition_bytes));
      TANE_ASSIGN_OR_RETURN(const int64_t handle,
                            store_->Put(std::move(partition)));
      sets.push_back(node.set);
      parents.errors.push_back(node.error);
      parents.handles.push_back(handle);
    }
    const int columns = relation_.num_columns();
    AttributeSet covered_by_empty;
    std::vector<AttributeSet> covered_by_singleton(columns);
    for (const tane::FunctionalDependency& fd : snapshot.fds) {
      if (fd.lhs.empty()) {
        covered_by_empty = covered_by_empty.With(fd.rhs);
      } else if (fd.lhs.size() == 1) {
        covered_by_singleton[fd.rhs] = covered_by_singleton[fd.rhs].Union(fd.lhs);
      }
    }

    int64_t t = NowNs();
    const std::vector<tane::LevelCandidate> candidates =
        tane::GenerateNextLevel(sets);
    acc->generate_ns += NowNs() - t;
    const tane::LevelIndex index(sets);
    parents.index = &index;

    std::vector<int64_t> made;
    store_->BeginTaskWindow();
    for (const tane::LevelCandidate& candidate : candidates) {
      ++acc->candidates;
      ++acc->products;
      // C⁺ seeding as the driver does it: ∩ of the parents' C⁺, minus
      // attributes an ∅- or singleton-lhs dependency already covers.
      AttributeSet cplus = AttributeSet::FullSet(columns);
      for (int attribute : tane::Members(candidate.set)) {
        const int pos = index.Find(candidate.set.Without(attribute));
        if (pos < 0) return Status::Internal("candidate with a missing subset");
        cplus = cplus.Intersect(snapshot.survivors[pos].cplus);
      }
      for (int attribute : tane::Members(cplus.Difference(candidate.set))) {
        if (covered_by_empty.Contains(attribute) ||
            !covered_by_singleton[attribute].Intersect(candidate.set).empty()) {
          cplus = cplus.Without(attribute);
        }
      }

      const int64_t handle_a = parents.handles[candidate.parent_a];
      t = NowNs();
      StrippedPartition hold_a;
      StrippedPartition hold_b;
      TANE_ASSIGN_OR_RETURN(const StrippedPartition* a,
                            Acquire(handle_a, &hold_a));
      TANE_ASSIGN_OR_RETURN(
          const StrippedPartition* b,
          Acquire(parents.handles[candidate.parent_b], &hold_b));
      acc->get_ns += NowNs() - t;
      t = NowNs();
      TANE_ASSIGN_OR_RETURN(
          StrippedPartition partition,
          product_.Multiply(*a, *b, static_cast<uint64_t>(handle_a) + 1));
      acc->product_ns += NowNs() - t;
      TANE_RETURN_IF_ERROR(
          Validate(candidate.set, cplus, partition, &parents, acc));
      TANE_RETURN_IF_ERROR(Commit(std::move(partition), &made, acc));
    }
    acc->product_rows += product_.TakeRowsScanned();
    TANE_RETURN_IF_ERROR(EndWindow(made, acc));
    for (int64_t handle : parents.handles) {
      TANE_RETURN_IF_ERROR(store_->Release(handle));
    }
    return Status::OK();
  }

 private:
  StatusOr<const StrippedPartition*> Acquire(int64_t handle,
                                             StrippedPartition* hold) {
    if (const StrippedPartition* resident = store_->Peek(handle)) {
      return resident;
    }
    TANE_ASSIGN_OR_RETURN(*hold, store_->Get(handle));
    return static_cast<const StrippedPartition*>(hold);
  }

  // The tests X\{A} → A for A ∈ X ∩ C⁺(X), decided the way the driver
  // decides them: e(·) equality at ε = 0; otherwise the g3 lower bound
  // first and the exact RemovalCount scan only when the bound cannot
  // refute. `parents` is null at level 1, where every lhs is ∅.
  Status Validate(AttributeSet set, AttributeSet cplus,
                  const StrippedPartition& fine, const Parents* parents,
                  LevelAcc* acc) {
    const int64_t start = NowNs();
    int64_t get_ns = 0;
    const int64_t rows = relation_.num_rows();
    const int64_t node_error = fine.Error();
    for (int attribute : tane::Members(set.Intersect(cplus))) {
      int64_t prev_error = rows > 0 ? rows - 1 : 0;
      int64_t prev_handle = -1;
      if (parents != nullptr) {
        const int pos = parents->index->Find(set.Without(attribute));
        if (pos < 0) return Status::Internal("validity lhs not in the level");
        prev_error = parents->errors[pos];
        prev_handle = parents->handles[pos];
      }
      if (epsilon_ == 0.0) continue;  // Lemma 2: e(X\A) == e(X) decides it
      if (std::max<int64_t>(0, prev_error - node_error) > max_removals_) {
        continue;
      }
      const StrippedPartition* coarse = &empty_;
      StrippedPartition hold;
      if (prev_handle >= 0) {
        const int64_t t = NowNs();
        TANE_ASSIGN_OR_RETURN(coarse, Acquire(prev_handle, &hold));
        get_ns += NowNs() - t;
      }
      TANE_ASSIGN_OR_RETURN(const int64_t removals,
                            g3_.RemovalCount(*coarse, fine));
      (void)removals;
      ++acc->scans;
    }
    acc->get_ns += get_ns;
    acc->error_ns += NowNs() - start - get_ns;
    return Status::OK();
  }

  Status Commit(StrippedPartition partition, std::vector<int64_t>* made,
                LevelAcc* acc) {
    const int64_t t = NowNs();
    TANE_ASSIGN_OR_RETURN(const int64_t handle,
                          store_->Put(std::move(partition)));
    acc->put_ns += NowNs() - t;
    made->push_back(handle);
    return Status::OK();
  }

  // Ends the level's window (a kAuto store migrates to disk here if the
  // window breached its budget) and releases the level's partitions, each
  // once, as PRUNE and the next window do in the program.
  Status EndWindow(const std::vector<int64_t>& made, LevelAcc* acc) {
    int64_t t = NowNs();
    TANE_RETURN_IF_ERROR(store_->EndTaskWindow());
    acc->put_ns += NowNs() - t;
    t = NowNs();
    for (int64_t handle : made) TANE_RETURN_IF_ERROR(store_->Release(handle));
    acc->release_ns += NowNs() - t;
    return Status::OK();
  }

  const tane::Relation& relation_;
  const double epsilon_;
  const int64_t max_removals_;
  // Declared before store_: the store recycles into it until destroyed.
  tane::PartitionBufferPool pool_;
  std::unique_ptr<tane::PartitionStore> store_;
  tane::PartitionProduct product_;
  tane::G3Calculator g3_;
  StrippedPartition empty_;
};

int64_t Arg(const tane::obs::TraceEvent& event, std::string_view key) {
  for (const auto& [name, value] : event.args) {
    if (name == key) return value;
  }
  return 0;
}

}  // namespace

StatusOr<ReplayTotals> Replay(const Workload& workload,
                              const BenchInput& input,
                              const std::string& scratch_dir,
                              tane::obs::Tracer* tracer) {
  const std::string checkpoints = scratch_dir + "/checkpoints";
  ReplayTotals totals;
  Replayer replayer(workload, input.relation, scratch_dir + "/replay-spill");
  {
    tane::obs::SpanGuard span(tracer, "replay level 1");
    LevelAcc acc;
    TANE_RETURN_IF_ERROR(replayer.Level1(&acc));
    acc.AddTo(&span);
  }
  for (int level = 1;; ++level) {
    tane::RunController controller;
    tane::TaneConfig config = MakeConfig(workload, /*threads=*/1, &controller,
                                         scratch_dir + "/chain-spill");
    config.checkpoint_directory = checkpoints;
    config.resume = level > 1;
    config.stop_after_level = level;
    StatusOr<tane::DiscoveryResult> result =
        tane::Tane::Discover(input.relation, config);
    if (!result.ok()) return result.status();
    if (result->completion == tane::Completion::kComplete) break;
    if (result->completion != tane::Completion::kSuspended) {
      return Status::Internal("snapshot chain did not suspend");
    }
    TANE_ASSIGN_OR_RETURN(tane::RunSnapshot snapshot,
                          tane::LoadLatestSnapshot(checkpoints));
    if (snapshot.completed_level != level) {
      return Status::Internal("snapshot at the wrong level");
    }
    tane::obs::SpanGuard span(tracer, "replay level " + std::to_string(level + 1));
    LevelAcc acc;
    TANE_RETURN_IF_ERROR(replayer.Window(snapshot, &acc));
    acc.AddTo(&span);
  }

  for (const tane::obs::TraceEvent& event : tracer->Events()) {
    if (event.name.rfind("replay level ", 0) != 0) continue;
    totals.build_s += 1e-9 * static_cast<double>(Arg(event, "build_ns"));
    totals.generate_s += 1e-9 * static_cast<double>(Arg(event, "generate_ns"));
    totals.product_s += 1e-9 * static_cast<double>(Arg(event, "product_ns"));
    totals.error_s += 1e-9 * static_cast<double>(Arg(event, "error_ns"));
    totals.put_s += 1e-9 * static_cast<double>(Arg(event, "put_ns"));
    totals.get_s += 1e-9 * static_cast<double>(Arg(event, "get_ns"));
    totals.release_s += 1e-9 * static_cast<double>(Arg(event, "release_ns"));
    totals.candidates += Arg(event, "candidates");
    totals.products += Arg(event, "products");
    totals.product_rows += Arg(event, "product_rows");
    totals.scans += Arg(event, "scans");
  }
  return totals;
}

}  // namespace perfbench
