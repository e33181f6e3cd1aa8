// Hash tables whose order cannot leak.
//
// A std hash container walks its buckets, whose order follows the insertion
// history: a live run and its journal replay can reach the same state and
// walk it differently.  Every run must replay bit for bit (DeterminismGuard,
// ReplayEqualsLive), so no walk that feeds a snapshot, a report or the order
// events are armed in may see that order.  Hashed keeps a std hash
// container's lookups and updates and has no begin()/end(), so a range-for
// over it does not compile.  Its three walks are ascending: sorted_keys(),
// for_each_sorted() (the snapshot codec's) and, on a multimap,
// sorted_values(key).  No other file in src/ names a std hash container
// (tools/determinism_tokens.cmake).
#pragma once

#include <algorithm>
#include <cstddef>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

namespace cosched {

namespace hashed_detail {

template <class Table>
inline constexpr bool kMultiKey = false;
template <class... Args>
inline constexpr bool kMultiKey<std::unordered_multimap<Args...>> = true;

/// A map's mapped_type, by which the snapshot codec tells maps from sets.
template <class Table>
struct Mapped {};
template <class Table>
  requires requires { typename Table::mapped_type; }
struct Mapped<Table> {
  using mapped_type = typename Table::mapped_type;
};

}  // namespace hashed_detail

/// A std::unordered_{map,multimap,set} without begin()/end().
template <class Table>
class Hashed : public hashed_detail::Mapped<Table> {
  static constexpr bool kMap = requires { typename Table::mapped_type; };
  static constexpr bool kMulti = hashed_detail::kMultiKey<Table>;
  static constexpr bool kUniqueMap = kMap && !kMulti;

 public:
  using key_type = typename Table::key_type;
  using value_type = typename Table::value_type;
  using node_type = typename Table::node_type;

  /// The value mapped to `key`, or null when there is none.
  auto* find(const key_type& key)
    requires kUniqueMap
  {
    return find_in(table_, key);
  }
  const auto* find(const key_type& key) const
    requires kUniqueMap
  {
    return find_in(table_, key);
  }
  bool contains(const key_type& key) const { return table_.contains(key); }
  auto& at(const key_type& key)
    requires kUniqueMap
  {
    return table_.at(key);
  }
  const auto& at(const key_type& key) const
    requires kUniqueMap
  {
    return table_.at(key);
  }
  auto& operator[](const key_type& key)
    requires kUniqueMap
  {
    return table_[key];
  }

  /// The inserts return true iff they inserted; a multimap always does.
  template <class... Args>
  bool emplace(Args&&... args) {
    if constexpr (kMulti) {
      table_.emplace(std::forward<Args>(args)...);
      return true;
    } else {
      return table_.emplace(std::forward<Args>(args)...).second;
    }
  }
  template <class... Args>
  bool try_emplace(const key_type& key, Args&&... args)
    requires kUniqueMap
  {
    return table_.try_emplace(key, std::forward<Args>(args)...).second;
  }
  bool insert(value_type value) { return emplace(std::move(value)); }
  /// Moves in a node extract() took from a table of the same type; the
  /// element keeps its address.
  bool insert(node_type&& node)
    requires(!kMulti)
  {
    return table_.insert(std::move(node)).inserted;
  }
  node_type extract(const key_type& key) { return table_.extract(key); }
  std::size_t erase(const key_type& key) { return table_.erase(key); }

  std::size_t size() const { return table_.size(); }
  bool empty() const { return table_.empty(); }
  void reserve(std::size_t n) { table_.reserve(n); }
  void clear() { table_.clear(); }

  /// The keys in ascending order, each once.
  std::vector<key_type> sorted_keys() const {
    std::vector<key_type> keys;
    keys.reserve(table_.size());
    for (const value_type& e : table_) keys.push_back(key_of(e));
    std::sort(keys.begin(), keys.end());
    if constexpr (kMulti)
      keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
    return keys;
  }

  /// Calls `fn(entry)` on every entry in ascending order: by key, and a
  /// multimap's entries of one key by value.  `fn` must not change the
  /// table.
  template <class F>
  void for_each_sorted(F&& fn) const {
    // Sorted by a copy of each key, so a comparison reads no node.
    std::vector<std::pair<key_type, const value_type*>> sorted;
    sorted.reserve(table_.size());
    for (const value_type& e : table_) sorted.emplace_back(key_of(e), &e);
    std::sort(sorted.begin(), sorted.end(), [](const auto& a, const auto& b) {
      if constexpr (kMulti) {
        if (a.first == b.first) return a.second->second < b.second->second;
      }
      return a.first < b.first;
    });
    for (const auto& [key, entry] : sorted) fn(*entry);
  }

  /// A multimap key's values in ascending order.
  auto sorted_values(const key_type& key) const
    requires kMulti
  {
    std::vector<typename Table::mapped_type> values;
    const auto [lo, hi] = table_.equal_range(key);
    for (auto it = lo; it != hi; ++it) values.push_back(it->second);
    std::sort(values.begin(), values.end());
    return values;
  }

 private:
  static const key_type& key_of(const value_type& e) {
    if constexpr (kMap) {
      return e.first;
    } else {
      return e;
    }
  }
  template <class T>
  static auto* find_in(T& table, const key_type& key) {
    const auto it = table.find(key);
    return it == table.end() ? nullptr : &it->second;
  }

  Table table_;
};

template <class K, class V>
using HashMap = Hashed<std::unordered_map<K, V>>;
template <class K, class V>
using HashMultiMap = Hashed<std::unordered_multimap<K, V>>;
template <class K>
using HashSet = Hashed<std::unordered_set<K>>;

}  // namespace cosched
