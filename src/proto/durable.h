// The durable-state codec: put() and get() for snapshots and journal
// record payloads alike.
//
// Every byte follows from the C++ type of the field it encodes, so a type's
// writer and its reader cannot disagree:
//   - bool and enums take one byte and a double its IEEE-754 bits in a
//     varint; any other integer is a 64-bit varint, zig-zag if signed,
//     whatever its width;
//   - a type with a field list (util/fields.h) is its fields in order, and
//     a pair or tuple its elements; an optional is a presence bool and then
//     the value;
//   - a container is its size and then its elements in ascending order: a
//     hash table (util/hashed.h) walks them by key and then by value, and a
//     map whose values carry their own key (durable_key) writes the values
//     alone.  A RetryQueue, held in firing order, writes its (time, id)
//     keys sorted.
// get() throws ParseError on malformed bytes whatever the type: a truncated
// value, a count larger than the bytes left, an integer outside its field's
// range, a map or set that repeats a key, or a failed check_durable(v), a
// type's own check of a value it has just read.
#pragma once

#include <concepts>
#include <cstdint>
#include <optional>
#include <tuple>
#include <type_traits>
#include <utility>
#include <vector>

#include "proto/wire.h"
#include "util/error.h"
#include "util/fields.h"
#include "util/hashed.h"
#include "util/job_id_set.h"

namespace cosched {

namespace durable_detail {

template <class T>
concept HasFields = requires(T& v) { durable_fields(v); };
template <class T>
concept TupleLike = requires { std::tuple_size<T>::value; };
template <class T>
concept Optional = std::same_as<T, std::optional<typename T::value_type>>;
template <class T>
concept Map = requires { typename T::mapped_type; };
/// A multimap may hold a key more than once; a map (it has at()) or a set
/// may not.
template <class T>
concept MultiMap =
    Map<T> && !requires(T& v, const typename T::key_type& k) { v.at(k); };
template <class T>
inline constexpr bool kHashTable = false;
template <class Table>
inline constexpr bool kHashTable<Hashed<Table>> = true;
/// A value that names its own map key (JobSpec, HoldLease).
template <class T>
concept SelfKeyed = requires(const T& v) { durable_key(v); };
template <class T>
concept SelfKeyedMap = Map<T> && SelfKeyed<typename T::mapped_type>;

template <class T, class Wide>
T narrow(Wide v) {
  if (!std::in_range<T>(v)) throw ParseError("durable: integer overflow");
  return static_cast<T>(v);
}

/// A container's element count.  Every element takes at least one byte, so
/// a count past the bytes left is malformed.
inline std::uint64_t get_count(WireReader& r) {
  const std::uint64_t n = r.get_u64();
  if (n > r.remaining()) throw ParseError("durable: count exceeds the bytes");
  return n;
}

}  // namespace durable_detail

// put() and get() are declared inline so GCC inlines the calls for scalar
// fields: the per-field calls are the snapshot writer's hot loop.
template <class T>
inline void put(WireWriter& w, const T& v) {
  using namespace durable_detail;
  if constexpr (std::same_as<T, bool>) {
    w.put_bool(v);
  } else if constexpr (std::same_as<T, double>) {
    w.put_double(v);
  } else if constexpr (std::is_enum_v<T>) {
    w.put_u8(static_cast<std::uint8_t>(v));
  } else if constexpr (std::signed_integral<T>) {
    w.put_i64(v);
  } else if constexpr (std::unsigned_integral<T>) {
    w.put_u64(v);
  } else if constexpr (HasFields<T>) {
    put(w, durable_fields(v));
  } else if constexpr (TupleLike<T>) {
    std::apply([&w](const auto&... f) { (put(w, f), ...); }, v);
  } else if constexpr (Optional<T>) {
    w.put_bool(v.has_value());
    if (v) put(w, *v);
  } else if constexpr (std::same_as<T, JobIdSet>) {
    put(w, v.ascending());
  } else if constexpr (std::same_as<T, RetryQueue>) {
    put(w, v.sorted_keys());
  } else {
    const auto put_element = [&w](const auto& e) {
      if constexpr (SelfKeyedMap<T>) {
        put(w, e.second);
      } else {
        put(w, e);
      }
    };
    w.put_u64(v.size());
    if constexpr (kHashTable<T>) {
      v.for_each_sorted(put_element);
    } else {
      for (const auto& e : v) put_element(e);
    }
  }
}

template <class T>
inline void get(WireReader& r, T&& out) {
  using namespace durable_detail;
  using U = std::remove_cvref_t<T>;
  U& v = out;
  if constexpr (std::same_as<U, bool>) {
    v = r.get_bool();
  } else if constexpr (std::same_as<U, double>) {
    v = r.get_double();
  } else if constexpr (std::is_enum_v<U>) {
    v = static_cast<U>(r.get_u8());
  } else if constexpr (std::signed_integral<U>) {
    v = narrow<U>(r.get_i64());
  } else if constexpr (std::unsigned_integral<U>) {
    v = narrow<U>(r.get_u64());
  } else if constexpr (HasFields<U>) {
    get(r, durable_fields(v));
    if constexpr (requires { check_durable(v); }) check_durable(v);
  } else if constexpr (TupleLike<U>) {
    std::apply([&r](auto&... f) { (get(r, f), ...); }, v);
  } else if constexpr (Optional<U>) {
    v.reset();
    if (r.get_bool()) get(r, v.emplace());
  } else if constexpr (std::same_as<U, RetryQueue>) {
    std::vector<std::pair<Time, JobId>> keys;
    get(r, keys);
    v.clear();
    for (const auto& [at, id] : keys) v.insert(at, id);
  } else if constexpr (Map<U>) {
    using V = typename U::mapped_type;
    v.clear();
    const std::uint64_t count = get_count(r);
    if constexpr (requires { v.reserve(count); }) v.reserve(count);
    for (std::uint64_t n = count; n > 0; --n) {
      typename U::key_type key{};
      V value{};
      if constexpr (!SelfKeyed<V>) get(r, key);
      get(r, value);
      if constexpr (SelfKeyed<V>) key = durable_key(value);
      v.emplace(std::move(key), std::move(value));
    }
    if constexpr (!MultiMap<U>) {
      if (v.size() < count) throw ParseError("durable: repeated key");
    }
  } else if constexpr (requires { v.emplace_back(); }) {
    const std::uint64_t n = get_count(r);
    if constexpr (std::is_default_constructible_v<typename U::value_type>) {
      v.clear();
      if constexpr (requires { v.reserve(n); }) v.reserve(n);
      for (std::uint64_t i = 0; i < n; ++i) get(r, v.emplace_back());
    } else {
      // Elements that cannot be made from nothing are made by their owner
      // (the peer list by Cluster::add_peer): the bytes carry that many.
      if (n != v.size()) throw ParseError("durable: element count mismatch");
      for (auto& e : v) get(r, e);
    }
  } else {
    v.clear();
    const std::uint64_t count = get_count(r);
    if constexpr (requires { v.reserve(count); }) v.reserve(count);
    for (std::uint64_t n = count; n > 0; --n) {
      typename U::value_type value{};
      get(r, value);
      v.insert(std::move(value));
    }
    if (v.size() < count) throw ParseError("durable: repeated key");
  }
}

}  // namespace cosched
