// Ascending-id indexes over hash-keyed job history.
//
// Snapshots encode every container in a canonical order so two snapshots of
// equal state are byte-identical.  Two of those containers hold a whole
// run's history (every finished job, every job that ever became ready) and
// stay hash containers for O(1) lookups.  Sorting their keys at every
// snapshot made each compaction cost the history accumulated so far; these
// helpers keep the ascending order as ids arrive instead.  Jobs finish and
// become ready in roughly id order, so an insert lands at or near the back
// and moves few ids.  RetryQueue keeps timers keyed by (time, id) in the
// order their events fire instead, and sorts only when it is written.
#pragma once

#include <algorithm>
#include <cstdint>
#include <deque>
#include <utility>
#include <vector>

#include "util/error.h"
#include "util/hashed.h"
#include "util/types.h"

namespace cosched {

/// Inserts `id` into the ascending, duplicate-free `ids` unless it is
/// already there.  Returns true iff it was inserted.
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

/// Throws InvariantError unless the index `ids` equals `keys`, its table's
/// sorted keys (test/debug hook; `what` names the index in the message).
inline void check_ascending_index(const std::vector<JobId>& ids,
                                  const std::vector<JobId>& keys,
                                  const char* what) {
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
    if (!members_.insert(id)) return false;
    insert_ascending(ascending_, id);
    return true;
  }
  bool contains(JobId id) const { return members_.contains(id); }
  std::size_t size() const { return ascending_.size(); }
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
    check_ascending_index(ascending_, members_.sorted_keys(), what);
  }

 private:
  HashSet<JobId> members_;
  std::vector<JobId> ascending_;
};

/// Timers keyed by (time, job id), one entry per armed event, held in the
/// order the events fire: times non-decreasing, and one time's entries in
/// the order they were added, which is the order of their events' sequence
/// numbers.  The owner arms every timer a constant period ahead, so an
/// insert appends and a firing event finds its entry at the front; a key out
/// of that order (the first period after a restore, whose entries are in
/// (time, id) order) is found by a scan of its time's entries.  A key armed
/// twice has two entries, and a snapshot writes each key once.  Each entry
/// also carries the handle of its event: process-local, so it is not
/// written, and the owner's validation can ask whether it is still pending.
class RetryQueue {
 public:
  struct Entry {
    Time at = 0;
    JobId id = kNoJob;
    std::uint64_t event = 0;  ///< the armed event's handle; 0 = none yet
  };
  using iterator = std::deque<Entry>::iterator;
  using const_iterator = std::deque<Entry>::const_iterator;

  /// Adds an entry for (at, id) behind every entry of its time.
  Entry& insert(Time at, JobId id) {
    if (items_.empty() || items_.back().at <= at)
      return items_.emplace_back(Entry{at, id});
    return *items_.insert(same_time(at).second, Entry{at, id});
  }
  /// Removes the first entry for (at, id); true iff there was one.
  bool erase(Time at, JobId id) {
    if (!items_.empty() && items_.front().at == at &&
        items_.front().id == id) {
      items_.pop_front();
      return true;
    }
    const auto [lo, hi] = same_time(at);
    const auto it =
        std::find_if(lo, hi, [id](const Entry& e) { return e.id == id; });
    if (it == hi) return false;
    items_.erase(it);
    return true;
  }
  iterator erase(iterator it) { return items_.erase(it); }
  void clear() { items_.clear(); }
  std::size_t size() const { return items_.size(); }
  iterator begin() { return items_.begin(); }
  iterator end() { return items_.end(); }
  const_iterator begin() const { return items_.begin(); }
  const_iterator end() const { return items_.end(); }

  /// Orders each time's entries by id: the order a restore re-arms them in.
  void sort_by_id() {
    std::stable_sort(items_.begin(), items_.end(),
                     [](const Entry& a, const Entry& b) {
                       return a.at != b.at ? a.at < b.at : a.id < b.id;
                     });
  }
  /// The distinct keys in ascending (time, id) order, as a snapshot writes
  /// them.
  std::vector<std::pair<Time, JobId>> sorted_keys() const {
    std::vector<std::pair<Time, JobId>> keys;
    keys.reserve(items_.size());
    for (const Entry& e : items_) keys.emplace_back(e.at, e.id);
    std::sort(keys.begin(), keys.end());
    keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
    return keys;
  }
  /// Throws InvariantError unless the times are non-decreasing (test/debug
  /// hook; `what` names the queue in the message).
  void validate(const char* what) const {
    const auto later = [](const Entry& a, const Entry& b) {
      return a.at > b.at;
    };
    COSCHED_CHECK_MSG(std::adjacent_find(items_.begin(), items_.end(),
                                         later) == items_.end(),
                      what << " is not in time order");
  }

 private:
  /// The entries whose time is `at`.
  std::pair<iterator, iterator> same_time(Time at) {
    const auto lo = std::partition_point(
        items_.begin(), items_.end(),
        [at](const Entry& e) { return e.at < at; });
    const auto hi = std::partition_point(
        lo, items_.end(), [at](const Entry& e) { return e.at == at; });
    return {lo, hi};
  }

  std::deque<Entry> items_;
};

}  // namespace cosched
