// Wire primitives: LEB128 varints (zig-zag for signed) over a byte buffer.
//
// The paper's mechanism rests on "a lightweight protocol for coordination
// between policy domains".  We give that protocol a concrete, compact binary
// encoding so the same messages run over the in-process loopback used by the
// simulator and the socket channel used by the live daemons.
#pragma once

#include <bit>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "util/error.h"

namespace cosched {

class WireWriter {
 public:
  void put_u8(std::uint8_t v) { buf_.push_back(v); }
  void put_u64(std::uint64_t v);
  void put_i64(std::int64_t v) { put_u64(zigzag(v)); }
  void put_bool(bool v) { put_u8(v ? 1 : 0); }
  /// Doubles travel as IEEE-754 bit patterns (exact round-trip; used by the
  /// snapshot codec, never by protocol messages).
  void put_double(double v) { put_u64(std::bit_cast<std::uint64_t>(v)); }
  void put_string(const std::string& s);

  const std::vector<std::uint8_t>& bytes() const { return buf_; }
  std::vector<std::uint8_t> take() { return std::move(buf_); }
  /// Empties the buffer but keeps its capacity, so a writer reused for
  /// every message stops allocating once it has grown to the largest one.
  void clear() { buf_.clear(); }

  static std::uint64_t zigzag(std::int64_t v) {
    return (static_cast<std::uint64_t>(v) << 1) ^
           static_cast<std::uint64_t>(v >> 63);
  }

 private:
  std::vector<std::uint8_t> buf_;
};

class WireReader {
 public:
  explicit WireReader(std::span<const std::uint8_t> data) : data_(data) {}

  std::uint8_t get_u8();
  std::uint64_t get_u64();
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
  std::span<const std::uint8_t> data_;
  std::size_t pos_ = 0;
};

}  // namespace cosched
