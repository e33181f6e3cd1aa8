// A small append-only list with inline storage.
#pragma once

#include <cstddef>
#include <memory>
#include <new>
#include <span>
#include <type_traits>
#include <vector>

namespace cosched {

/// An append-only list that keeps its first N elements in uninitialized
/// inline storage and moves them all to the heap past that.  Algorithm 1's
/// mate lists hold one entry per peer: a yielding job re-runs the decision
/// on every retry, and with up to N peers it allocates nothing.
template <class T, std::size_t N>
class InlineList {
  static_assert(std::is_trivially_copyable_v<T> &&
                std::is_trivially_destructible_v<T>);

 public:
  InlineList() = default;
  InlineList(const InlineList&) = delete;
  InlineList& operator=(const InlineList&) = delete;

  void push_back(const T& v) {
    if (size_ < N) {
      std::construct_at(inline_data() + size_, v);
    } else {
      if (size_ == N) spill_.assign(begin(), end());
      spill_.push_back(v);
    }
    ++size_;
  }
  T* data() { return size_ <= N ? inline_data() : spill_.data(); }
  const T* data() const {
    return size_ <= N ? std::launder(reinterpret_cast<const T*>(inline_))
                      : spill_.data();
  }
  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  T* begin() { return data(); }
  T* end() { return data() + size_; }
  const T* begin() const { return data(); }
  const T* end() const { return data() + size_; }
  const T& front() const { return *data(); }
  operator std::span<const T>() const { return {data(), size_}; }

 private:
  T* inline_data() { return std::launder(reinterpret_cast<T*>(inline_)); }

  alignas(T) std::byte inline_[N * sizeof(T)];
  std::size_t size_ = 0;
  std::vector<T> spill_;  ///< every element once size_ > N
};

}  // namespace cosched
