// Ascending-id indexes over hash-keyed job history.
//
// Snapshots encode every container in a canonical order so two snapshots of
// equal state are byte-identical.  Two of those containers hold a whole
// run's history (every finished job, every job that ever became ready) and
// stay hash containers for O(1) lookups.  Sorting their keys at every
// snapshot made each compaction cost the history accumulated so far; these
// helpers keep the ascending order as ids arrive instead.  Jobs finish and
// become ready in roughly id order, so an insert lands at or near the back
// and moves few ids.  SortedDeque applies the same idea to timers keyed by
// (time, id): they are armed in time order and fire from the front.
#pragma once

#include <algorithm>
#include <deque>
#include <functional>
#include <unordered_set>
#include <vector>

#include "util/error.h"
#include "util/types.h"

namespace cosched {

/// Inserts `v` into the ascending, duplicate-free sequence `seq` (a vector
/// or a deque) unless it is already there.  Returns true iff it was
/// inserted.
template <class Seq>
bool insert_ascending(Seq& seq, const typename Seq::value_type& v) {
  if (seq.empty() || seq.back() < v) {
    seq.push_back(v);
    return true;
  }
  const auto it = std::lower_bound(seq.begin(), seq.end(), v);
  if (*it == v) return false;
  seq.insert(it, v);
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
  using value_type = JobId;

  /// Inserts `id`; true iff it was not already a member.
  bool insert(JobId id) {
    if (!members_.insert(id).second) return false;
    insert_ascending(ascending_, id);
    return true;
  }
  bool contains(JobId id) const { return members_.count(id) > 0; }
  void reserve(std::size_t n) {
    members_.reserve(n);
    ascending_.reserve(n);
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

/// An ascending, duplicate-free deque with std::set's order and its insert
/// and erase by value, for keys that almost always arrive at the back and
/// leave from the front.  insert() tries the back and erase() the front
/// before falling back to a binary search, so a key out of that order
/// behaves exactly as it would in a set.
template <class T>
class SortedDeque {
 public:
  using value_type = T;
  using const_iterator = typename std::deque<T>::const_iterator;

  /// Inserts `v`; true iff it was not already a member.
  bool insert(const T& v) { return insert_ascending(items_, v); }
  /// Erases `v`; returns the number of entries erased (0 or 1).
  std::size_t erase(const T& v) {
    if (!items_.empty() && items_.front() == v) {
      items_.pop_front();
      return 1;
    }
    const auto it = std::lower_bound(items_.begin(), items_.end(), v);
    if (it == items_.end() || *it != v) return 0;
    items_.erase(it);
    return 1;
  }
  const_iterator erase(const_iterator it) { return items_.erase(it); }
  void clear() { items_.clear(); }
  std::size_t size() const { return items_.size(); }
  const_iterator begin() const { return items_.begin(); }
  const_iterator end() const { return items_.end(); }
  /// Throws InvariantError unless the entries are strictly ascending
  /// (test/debug hook; `what` names the deque in the message).
  void validate(const char* what) const {
    const auto bad = std::adjacent_find(items_.begin(), items_.end(),
                                        std::greater_equal<>{});
    COSCHED_CHECK_MSG(bad == items_.end(), what << " is not ascending");
  }

 private:
  std::deque<T> items_;
};

}  // namespace cosched
