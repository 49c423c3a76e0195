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

}  // namespace

std::vector<LevelCandidate> GenerateNextLevel(
    const std::vector<AttributeSet>& level) {
  LevelIndex index(level);

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

  std::vector<LevelCandidate> candidates;
  for (size_t begin = 0; begin < members.size();) {
    size_t end = begin + 1;
    while (end < members.size() &&
           members[end].prefix == members[begin].prefix) {
      ++end;
    }
    // Pairs (i, j), i < j, in row-major order: row i is one run of
    // consecutive candidates that all join member i as their left parent.
    for (size_t i = begin; i < end; ++i) {
      const AttributeSet left = level[members[i].position];
      for (size_t j = i + 1; j < end; ++j) {
        const AttributeSet joined = left.With(members[j].highest);
        // Keep only if every ℓ-subset survives in the previous level.
        bool all_subsets_present = true;
        for (int attribute : Members(joined)) {
          if (!index.Contains(joined.Without(attribute))) {
            all_subsets_present = false;
            break;
          }
        }
        if (all_subsets_present) {
          candidates.push_back(
              {joined, members[i].position, members[j].position});
        }
      }
    }
    begin = end;
  }
  return candidates;
}

}  // namespace tane
