// Wire primitives: LEB128 varints (zig-zag for signed) over a byte buffer.
//
// The paper's mechanism rests on "a lightweight protocol for coordination
// between policy domains".  We give that protocol a concrete, compact binary
// encoding so the same messages run over the in-process loopback used by the
// simulator and the socket channel used by the live daemons.
//
// The writer owns its growable buffer and a write position.  Each put checks
// the room it needs once, growing the buffer if short, then writes its bytes
// through a pointer.  bytes() is a view of what has been written so far; the
// next put, clear() or take() invalidates it.  clear() keeps the buffer, so a
// writer reused for every message stops allocating once it has grown to the
// largest one.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "util/error.h"

namespace cosched {

class WireWriter {
 public:
  void put_u8(std::uint8_t v) {
    *room(1) = v;
    ++pos_;
  }
  void put_u64(std::uint64_t v) {
    std::uint8_t* p = room(kMaxVarint);
    while (v >= 0x80) {
      *p++ = static_cast<std::uint8_t>(v) | 0x80;
      v >>= 7;
    }
    *p++ = static_cast<std::uint8_t>(v);
    pos_ = static_cast<std::size_t>(p - buf_.data());
  }
  void put_i64(std::int64_t v) { put_u64(zigzag(v)); }
  void put_bool(bool v) { put_u8(v ? 1 : 0); }
  /// Doubles travel as IEEE-754 bit patterns (exact round-trip; used by the
  /// snapshot codec, never by protocol messages).
  void put_double(double v) { put_u64(std::bit_cast<std::uint64_t>(v)); }
  void put_string(const std::string& s);

  /// The bytes written so far; invalidated by the next put, clear() or take().
  std::span<const std::uint8_t> bytes() const { return {buf_.data(), pos_}; }
  /// Moves the written bytes out and leaves the writer empty.
  std::vector<std::uint8_t> take();
  /// Empties the writer but keeps its buffer.
  void clear() { pos_ = 0; }

  static std::uint64_t zigzag(std::int64_t v) {
    return (static_cast<std::uint64_t>(v) << 1) ^
           static_cast<std::uint64_t>(v >> 63);
  }

 private:
  /// Longest varint: ceil(64 / 7) bytes for a full u64.
  static constexpr std::size_t kMaxVarint = 10;

  /// The write position, with at least `n` writable bytes after it.
  std::uint8_t* room(std::size_t n) {
    if (buf_.size() - pos_ < n) grow(n);
    return buf_.data() + pos_;
  }
  void grow(std::size_t n);

  std::vector<std::uint8_t> buf_;  ///< whole buffer; its size is the capacity
  std::size_t pos_ = 0;            ///< bytes written
};

class WireReader {
 public:
  explicit WireReader(std::span<const std::uint8_t> data) : data_(data) {}

  std::uint8_t get_u8() {
    if (pos_ >= data_.size()) fail(pos_, "wire: truncated u8");
    return data_[pos_++];
  }
  std::uint64_t get_u64() {
    const std::uint8_t* const data = data_.data();
    const std::size_t size = data_.size();
    std::size_t i = pos_;
    std::uint64_t v = 0;
    for (unsigned shift = 0;; shift += 7) {
      if (i >= size) fail(i, "wire: truncated varint");
      const std::uint64_t b = data[i++];
      // The tenth byte (shift 63) may carry bit 63 alone; no byte follows it.
      if (shift >= 63 && (shift > 63 || (b & 0x7e) != 0))
        fail(i, "wire: varint overflow");
      v |= (b & 0x7f) << shift;
      if (b < 0x80) {
        pos_ = i;
        return v;
      }
    }
  }
  std::int64_t get_i64() { return unzigzag(get_u64()); }
  bool get_bool() { return get_u8() != 0; }
  double get_double() { return std::bit_cast<double>(get_u64()); }
  std::string get_string();

  bool exhausted() const { return pos_ == data_.size(); }
  std::size_t remaining() const { return data_.size() - pos_; }

  static std::int64_t unzigzag(std::uint64_t v) {
    return static_cast<std::int64_t>((v >> 1) ^ (~(v & 1) + 1));
  }

 private:
  /// Leaves the read position at `pos` and throws ParseError(`what`).
  [[noreturn]] void fail(std::size_t pos, const char* what);

  std::span<const std::uint8_t> data_;
  std::size_t pos_ = 0;
};

}  // namespace cosched
