// Ascending-id indexes over hash-keyed job history.
//
// Snapshots encode every container in a canonical order so two snapshots of
// equal state are byte-identical.  Two of those containers hold a whole
// run's history (every finished job, every job that ever became ready) and
// stay hash containers for O(1) lookups.  Sorting their keys at every
// snapshot made each compaction cost the history accumulated so far; these
// helpers keep the ascending order as ids arrive instead.  Jobs finish and
// become ready in roughly id order, so an insert lands at or near the back
// and moves few ids.
#pragma once

#include <algorithm>
#include <unordered_set>
#include <vector>

#include "util/error.h"
#include "util/types.h"

namespace cosched {

/// Inserts `id` into the ascending vector `ids` unless it is already there.
/// Returns true iff it was inserted.
inline bool insert_ascending(std::vector<JobId>& ids, JobId id) {
  if (ids.empty() || ids.back() < id) {
    ids.push_back(id);
    return true;
  }
  const auto it = std::lower_bound(ids.begin(), ids.end(), id);
  if (*it == id) return false;
  ids.insert(it, id);
  return true;
}

/// Throws InvariantError unless `ids` is `keys` sorted (test/debug hook for
/// the indexes; `what` names the index in the message).
inline void check_ascending_index(const std::vector<JobId>& ids,
                                  std::vector<JobId> keys, const char* what) {
  std::sort(keys.begin(), keys.end());
  COSCHED_CHECK_MSG(ids == keys, what << " index (" << ids.size()
                                      << " ids) is not its sorted keys ("
                                      << keys.size() << ")");
}

/// A set of job ids with hash lookups and an ascending walk.
class JobIdSet {
 public:
  /// Inserts `id`; true iff it was not already a member.
  bool insert(JobId id) {
    if (!members_.insert(id).second) return false;
    insert_ascending(ascending_, id);
    return true;
  }
  void clear() {
    members_.clear();
    ascending_.clear();
  }
  /// The members in ascending order.  insert() and clear() invalidate
  /// iterators into it.
  const std::vector<JobId>& ascending() const { return ascending_; }
  /// Throws InvariantError unless ascending() is the sorted members.
  void validate(const char* what) const {
    // cosched-lint: ordered(the keys are sorted before the comparison)
    check_ascending_index(ascending_, {members_.begin(), members_.end()},
                          what);
  }

 private:
  std::unordered_set<JobId> members_;
  std::vector<JobId> ascending_;
};

}  // namespace cosched
