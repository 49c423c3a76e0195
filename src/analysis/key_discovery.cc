#include "analysis/key_discovery.h"

#include <algorithm>
#include <utility>

#include "lattice/level.h"
#include "partition/error.h"
#include "partition/partition_builder.h"
#include "partition/product.h"

namespace tane {

StatusOr<std::vector<DiscoveredKey>> DiscoverKeys(
    const Relation& relation, const KeyDiscoveryOptions& options) {
  // Written so that NaN fails the range checks.
  if (!(options.epsilon >= 0.0 && options.epsilon <= 1.0)) {
    return Status::InvalidArgument("epsilon must be in [0, 1]");
  }
  if (options.max_key_size < 0) {
    return Status::InvalidArgument("max_key_size must be >= 0");
  }
  const int64_t rows = relation.num_rows();
  // Exact ⌊ε·|r|⌋ threshold; the old double comparison with 1e-9 slack
  // misclassified borderline keys once ε·|r| outgrew the slack.
  const int64_t max_error =
      IntegerThreshold(options.epsilon, static_cast<double>(rows));
  const auto is_key = [&](const StrippedPartition& partition) {
    return partition.Error() <= max_error;
  };

  std::vector<DiscoveredKey> keys;
  if (rows == 0) return keys;  // no key needed for the empty relation

  struct Node {
    AttributeSet set;
    StrippedPartition partition;
  };

  // Level 1: singleton attributes.
  std::vector<Node> level;
  for (int a = 0; a < relation.num_columns(); ++a) {
    StrippedPartition partition = PartitionBuilder::ForAttribute(relation, a);
    if (is_key(partition)) {
      keys.push_back({AttributeSet::Singleton(a),
                      static_cast<double>(partition.Error()) /
                          static_cast<double>(rows)});
    } else {
      level.push_back({AttributeSet::Singleton(a), std::move(partition)});
    }
  }

  PartitionProduct product(rows);
  int level_number = 1;
  while (!level.empty() && level_number < options.max_key_size) {
    std::vector<AttributeSet> sets;
    sets.reserve(level.size());
    for (const Node& node : level) sets.push_back(node.set);

    // Candidates have all subsets in `level`, i.e. no key below them —
    // exactly the minimality condition for a key found at this level.
    std::vector<Node> next;
    for (const LevelCandidate& candidate : GenerateNextLevel(sets)) {
      TANE_ASSIGN_OR_RETURN(StrippedPartition partition,
                            product.Multiply(level[candidate.parent_a].partition,
                                             level[candidate.parent_b].partition));
      if (is_key(partition)) {
        keys.push_back({candidate.set,
                        static_cast<double>(partition.Error()) /
                            static_cast<double>(rows)});
      } else {
        next.push_back({candidate.set, std::move(partition)});
      }
    }
    level = std::move(next);
    ++level_number;
  }

  std::sort(keys.begin(), keys.end());
  return keys;
}

}  // namespace tane
