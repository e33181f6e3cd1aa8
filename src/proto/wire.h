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
//
// The reader is a cursor over a span it does not own.  Each get checks the
// bytes it reads against the end; an error leaves the cursor where the
// failing read stopped and throws ParseError.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>
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
  /// Doubles travel as IEEE-754 bit patterns (exact round-trip; the snapshot
  /// codec and the heartbeat's hold fraction use them).
  void put_double(double v) { put_u64(std::bit_cast<std::uint64_t>(v)); }
  void put_string(const std::string& s);
  /// Raw bytes, written as they are: no length prefix (the reader must know
  /// where they end).
  void put_bytes(std::span<const std::uint8_t> bytes);

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
  explicit WireReader(std::span<const std::uint8_t> data)
      : p_(data.data()), end_(data.data() + data.size()) {}

  std::uint8_t get_u8() {
    if (p_ == end_) fail(p_, "wire: truncated u8");
    return *p_++;
  }
  std::uint64_t get_u64() {
    // Counts and flags mostly fit one byte, and ids below 2^21 three: with
    // three bytes left, those return without the general loop.
    if (p_ != end_ && *p_ < 0x80) return *p_++;
    if (remaining() >= 3) {
      const std::uint64_t b0 = p_[0] & 0x7f;
      const std::uint64_t b1 = p_[1];
      if (b1 < 0x80) {
        p_ += 2;
        return b0 | (b1 << 7);
      }
      const std::uint64_t b2 = p_[2];
      if (b2 < 0x80) {
        p_ += 3;
        return b0 | ((b1 & 0x7f) << 7) | (b2 << 14);
      }
    }
    const std::uint8_t* p = p_;
    std::uint64_t v = 0;
    for (unsigned shift = 0;; shift += 7) {
      if (p == end_) fail(p, "wire: truncated varint");
      const std::uint64_t b = *p++;
      // The tenth byte (shift 63) may carry bit 63 alone; no byte follows it.
      if (shift >= 63 && (shift > 63 || (b & 0x7e) != 0))
        fail(p, "wire: varint overflow");
      v |= (b & 0x7f) << shift;
      if (b < 0x80) {
        p_ = p;
        return v;
      }
    }
  }
  std::int64_t get_i64() { return unzigzag(get_u64()); }
  bool get_bool() { return get_u8() != 0; }
  double get_double() { return std::bit_cast<double>(get_u64()); }
  /// A length-prefixed string, viewed in place (valid while the data is).
  std::string_view get_string_view() {
    const std::uint64_t n = get_u64();
    if (n > remaining()) error("wire: truncated string");
    const std::string_view s(reinterpret_cast<const char*>(p_), n);
    p_ += n;
    return s;
  }
  std::string get_string() { return std::string(get_string_view()); }

  bool exhausted() const { return p_ == end_; }
  std::size_t remaining() const { return static_cast<std::size_t>(end_ - p_); }

  static std::int64_t unzigzag(std::uint64_t v) {
    return static_cast<std::int64_t>((v >> 1) ^ (~(v & 1) + 1));
  }

 private:
  /// Leaves the read position at `at` and throws ParseError(`what`).
  [[noreturn]] void fail(const std::uint8_t* at, const char* what) {
    p_ = at;
    error(what);
  }
  /// Throws ParseError(`what`).  Out of line and static, so a reader a
  /// caller keeps on its stack can live in registers.
  [[noreturn]] static void error(const char* what);

  const std::uint8_t* p_;
  const std::uint8_t* end_;
};

}  // namespace cosched
