#ifndef TANE_LATTICE_LEVEL_H_
#define TANE_LATTICE_LEVEL_H_

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "lattice/attribute_set.h"

namespace tane {

/// A hash index over the attribute sets of one lattice level: the paper's
/// "random access with hashing". The level driver resolves subsets by the
/// positions GenerateNextLevel returns and needs no index there; it builds
/// one only in PRUNE, and only on levels that hold a key, where the
/// siblings of a key are looked up by set. Benchmarks that replay a level
/// use it too.
class LevelIndex {
 public:
  LevelIndex() = default;
  explicit LevelIndex(const std::vector<AttributeSet>& sets) {
    index_.reserve(sets.size());
    for (size_t i = 0; i < sets.size(); ++i) {
      index_.emplace(sets[i], static_cast<int>(i));
    }
  }

  /// Position of `set` in the originating vector, or -1 if absent.
  int Find(AttributeSet set) const {
    auto it = index_.find(set);
    return it == index_.end() ? -1 : it->second;
  }

  bool Contains(AttributeSet set) const { return Find(set) >= 0; }
  size_t size() const { return index_.size(); }

 private:
  std::unordered_map<AttributeSet, int, AttributeSetHash> index_;
};

/// A candidate produced by GENERATE-NEXT-LEVEL: the (ℓ+1)-set itself plus
/// the positions (within the previous level) of the two ℓ-subsets it was
/// joined from. TANE computes the candidate's partition as the product of
/// those two parents' partitions (Lemma 3).
struct LevelCandidate {
  AttributeSet set;
  int parent_a = -1;
  int parent_b = -1;
};

/// Implements the specification of GENERATE-NEXT-LEVEL (paper §5): the next
/// level contains exactly the (ℓ+1)-sets all of whose ℓ-subsets are in
/// `level`. Uses the classic prefix-block join: two ℓ-sets that differ only
/// in their largest attribute generate their union, which is then kept only
/// if every ℓ-subset is present. Membership is decided by searching the
/// sorted prefix blocks, not by hashing.
///
/// `level` must contain distinct sets of a single uniform size ℓ >= 1.
///
/// When `subset_positions` is non-null it receives, for every candidate,
/// the positions in `level` of all ℓ+1 of its ℓ-subsets: candidate k's
/// X\{c}, for the t-th smallest c ∈ X (t from 0), is at index
/// k·(ℓ+1)+t. The last two entries are therefore `parent_b` and
/// `parent_a`. The candidates are the same with or without it.
///
/// Candidates come block by block: blocks in ascending prefix-mask order;
/// within a block, members ordered by largest attribute and the pairs
/// (i, j), i < j, in row-major order, with member i as `parent_a`. Each
/// row is therefore one run of consecutive candidates sharing their left
/// parent, which lets a product relabel that parent once per run. The
/// order is a function of the *set* of input sets alone: any permutation of
/// `level` yields the same candidate sets, with the same parent sets, in
/// the same order.
std::vector<LevelCandidate> GenerateNextLevel(
    const std::vector<AttributeSet>& level,
    std::vector<int32_t>* subset_positions = nullptr);

}  // namespace tane

#endif  // TANE_LATTICE_LEVEL_H_
