#include "partition/stripped_partition.h"

#include <algorithm>
#include <numeric>
#include <string>

namespace tane {

StatusOr<StrippedPartition> StrippedPartition::Create(
    int64_t num_rows, std::vector<int32_t> row_ids,
    std::vector<int32_t> class_offsets, bool stripped) {
  if (class_offsets.empty() || class_offsets.front() != 0 ||
      class_offsets.back() != static_cast<int32_t>(row_ids.size())) {
    return Status::InvalidArgument("malformed class offsets");
  }
  std::vector<bool> seen(num_rows, false);
  for (size_t i = 1; i < class_offsets.size(); ++i) {
    const int32_t size = class_offsets[i] - class_offsets[i - 1];
    if (size < 1) return Status::InvalidArgument("empty or negative class");
    if (stripped && size < 2) {
      return Status::InvalidArgument(
          "stripped partition contains a singleton class");
    }
  }
  for (int32_t row : row_ids) {
    if (row < 0 || row >= num_rows) {
      return Status::OutOfRange("row id " + std::to_string(row) +
                                " out of range");
    }
    if (seen[row]) {
      return Status::InvalidArgument("row id " + std::to_string(row) +
                                     " appears in two classes");
    }
    seen[row] = true;
  }
  StrippedPartition partition(num_rows, stripped);
  partition.row_ids_ = std::move(row_ids);
  partition.class_offsets_ = std::move(class_offsets);
  return partition;
}

StrippedPartition StrippedPartition::Stripped() const {
  if (stripped_) return *this;
  StrippedPartition out(num_rows_, /*stripped=*/true);
  out.class_offsets_.clear();
  out.class_offsets_.push_back(0);
  for (int64_t cls = 0; cls < num_classes(); ++cls) {
    if (class_size(cls) < 2) continue;
    for (int32_t i = class_begin(cls); i < class_end(cls); ++i) {
      out.row_ids_.push_back(row_ids_[i]);
    }
    out.class_offsets_.push_back(static_cast<int32_t>(out.row_ids_.size()));
  }
  return out;
}

StrippedPartition StrippedPartition::Unstripped() const {
  if (!stripped_) return *this;
  StrippedPartition out(num_rows_, /*stripped=*/false);
  out.row_ids_ = row_ids_;
  out.class_offsets_ = class_offsets_;
  std::vector<bool> member(num_rows_, false);
  for (int32_t row : row_ids_) member[row] = true;
  for (int64_t row = 0; row < num_rows_; ++row) {
    if (member[row]) continue;
    out.row_ids_.push_back(static_cast<int32_t>(row));
    out.class_offsets_.push_back(static_cast<int32_t>(out.row_ids_.size()));
  }
  return out;
}

StrippedPartition StrippedPartition::Canonicalized() const {
  // Sort rows within each class, then reorder classes by their first row.
  std::vector<std::vector<int32_t>> classes(num_classes());
  for (int64_t cls = 0; cls < num_classes(); ++cls) {
    classes[cls].assign(row_ids_.begin() + class_begin(cls),
                        row_ids_.begin() + class_end(cls));
    std::sort(classes[cls].begin(), classes[cls].end());
  }
  std::sort(classes.begin(), classes.end(),
            [](const std::vector<int32_t>& a, const std::vector<int32_t>& b) {
              return a.front() < b.front();
            });
  StrippedPartition out(num_rows_, stripped_);
  out.row_ids_.reserve(row_ids_.size());
  out.class_offsets_.reserve(class_offsets_.size());
  for (const auto& cls : classes) {
    out.row_ids_.insert(out.row_ids_.end(), cls.begin(), cls.end());
    out.class_offsets_.push_back(static_cast<int32_t>(out.row_ids_.size()));
  }
  return out;
}

void StrippedPartition::MoveBuffersInto(std::vector<int32_t>* row_ids,
                                        std::vector<int32_t>* class_offsets) {
  *row_ids = std::move(row_ids_);
  *class_offsets = std::move(class_offsets_);
  row_ids_.clear();
  class_offsets_.assign(1, 0);  // restore the empty-partition invariant
}

bool StrippedPartition::Refines(const StrippedPartition& other) const {
  // Label every row with its class in `other`; rows in no stored class get
  // a unique label only if `other` is unstripped — for stripped partitions a
  // singleton class of `other` can only absorb singleton classes of *this*,
  // so the "-1" label must never be shared by two rows of one class here.
  std::vector<int32_t> label(num_rows_, -1);
  for (int64_t cls = 0; cls < other.num_classes(); ++cls) {
    for (int32_t i = other.class_begin(cls); i < other.class_end(cls); ++i) {
      label[other.row_ids_[i]] = static_cast<int32_t>(cls);
    }
  }
  for (int64_t cls = 0; cls < num_classes(); ++cls) {
    if (class_size(cls) < 2) continue;  // singletons always refine
    const int32_t first = label[row_ids_[class_begin(cls)]];
    if (first == -1) return false;  // >= 2 rows in a singleton class
    for (int32_t i = class_begin(cls) + 1; i < class_end(cls); ++i) {
      if (label[row_ids_[i]] != first) return false;
    }
  }
  return true;
}

void StrippedPartition::LabelRows(int32_t* probe, int32_t base) const {
  // The probe stores are the only irregular accesses; fetching the line
  // ~16 rows ahead hides most of an L2 hit without evicting anything the
  // next few iterations need.
  constexpr int64_t kPrefetchDistance = 16;
  const int32_t* const rows = row_ids_.data();
  const int32_t* const offsets = class_offsets_.data();
  const int64_t classes = num_classes();
  const int64_t member_rows = num_member_rows();
  for (int64_t cls = 0; cls < classes; ++cls) {
    const int32_t label = base + static_cast<int32_t>(cls);
    const int32_t end = offsets[cls + 1];
    for (int32_t i = offsets[cls]; i < end; ++i) {
      if (i + kPrefetchDistance < member_rows) {
        __builtin_prefetch(probe + rows[i + kPrefetchDistance], 1);
      }
      probe[rows[i]] = label;
    }
  }
}

}  // namespace tane
