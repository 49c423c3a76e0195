#include "lattice/level.h"

#include <algorithm>
#include <tuple>

#include "util/logging.h"

namespace tane {
namespace {

int HighestAttribute(AttributeSet set) {
  TANE_DCHECK(!set.empty());
  return 63 - std::countl_zero(set.mask());
}

// One set of the level, keyed by its prefix block and its largest attribute.
struct BlockMember {
  AttributeSet prefix;
  int highest = -1;
  int position = -1;
};

// Walks one prefix block of the sorted member array in ascending order of
// largest attribute, answering "which member has largest attribute a?" for
// ascending a. An absent block is an empty walk.
struct BlockCursor {
  AttributeSet prefix;
  size_t at = 0;

  // Position of the member with largest attribute `highest`, or -1.
  int Seek(const std::vector<BlockMember>& members, int highest) {
    while (at < members.size() && members[at].prefix == prefix &&
           members[at].highest < highest) {
      ++at;
    }
    return at < members.size() && members[at].prefix == prefix &&
                   members[at].highest == highest
               ? members[at].position
               : -1;
  }
};

}  // namespace

std::vector<LevelCandidate> GenerateNextLevel(
    const std::vector<AttributeSet>& level,
    std::vector<int32_t>* subset_positions) {
  if (subset_positions != nullptr) subset_positions->clear();
  std::vector<LevelCandidate> candidates;
  if (level.empty()) return candidates;
  const int set_size = level[0].size();

  // Prefix blocks: all sets sharing everything but their largest attribute.
  // Sorting on (prefix, largest attribute) lays the blocks out in ascending
  // prefix-mask order, each block's members by largest attribute. The sets
  // are distinct, so the key is too, and the order depends only on which
  // sets the level holds, not on the order `level` lists them in.
  std::vector<BlockMember> members;
  members.reserve(level.size());
  for (size_t i = 0; i < level.size(); ++i) {
    const int highest = HighestAttribute(level[i]);
    members.push_back(
        {level[i].Without(highest), highest, static_cast<int>(i)});
  }
  std::sort(members.begin(), members.end(),
            [](const BlockMember& a, const BlockMember& b) {
              return std::tie(a.prefix, a.highest) <
                     std::tie(b.prefix, b.highest);
            });
  const auto block_start = [&](AttributeSet prefix) {
    return static_cast<size_t>(
        std::lower_bound(members.begin(), members.end(), prefix,
                         [](const BlockMember& member, AttributeSet key) {
                           return member.prefix < key;
                         }) -
        members.begin());
  };

  // A candidate X = P ∪ {a_i, a_j} (a_i < a_j, both above every c ∈ P)
  // joins members i and j of block P: they are X\{a_j} and X\{a_i}. Every
  // other ℓ-subset X\{c}, c ∈ P, has largest attribute a_j and lies in
  // block (P\{c}) ∪ {a_i}, which is the same for the whole row i; one
  // cursor per c finds a_j there as j ascends. No set is hashed.
  std::vector<BlockCursor> cursors(set_size - 1);
  std::vector<int32_t> row_subsets(set_size + 1);
  for (size_t begin = 0; begin < members.size();) {
    const AttributeSet prefix = members[begin].prefix;
    size_t end = begin + 1;
    while (end < members.size() && members[end].prefix == prefix) ++end;
    // Pairs (i, j), i < j, in row-major order: row i is one run of
    // consecutive candidates that all join member i as their left parent.
    for (size_t i = begin; i + 1 < end; ++i) {
      int found = 0;
      for (int c : Members(prefix)) {
        const AttributeSet block = prefix.Without(c).With(members[i].highest);
        const size_t at = block_start(block);
        if (at == members.size() || members[at].prefix != block) break;
        cursors[found++] = {block, at};
      }
      // A missing block P\{c} ∪ {a_i} means every candidate of the row
      // lacks its subset X\{c}.
      if (found + 1 < set_size) continue;
      for (size_t j = i + 1; j < end; ++j) {
        bool all_subsets_present = true;
        for (int t = 0; t + 1 < set_size; ++t) {
          row_subsets[t] = cursors[t].Seek(members, members[j].highest);
          if (row_subsets[t] < 0) {
            all_subsets_present = false;
            break;
          }
        }
        if (!all_subsets_present) continue;
        candidates.push_back({level[members[i].position].With(
                                  members[j].highest),
                              members[i].position, members[j].position});
        if (subset_positions != nullptr) {
          row_subsets[set_size - 1] = members[j].position;
          row_subsets[set_size] = members[i].position;
          subset_positions->insert(subset_positions->end(),
                                   row_subsets.begin(), row_subsets.end());
        }
      }
    }
    begin = end;
  }
  return candidates;
}

}  // namespace tane
