#include "proto/wire.h"

#include <algorithm>
#include <cstring>

namespace cosched {

namespace {
/// First allocation of a fresh writer: every protocol message and most
/// journal records fit without growing again.
constexpr std::size_t kInitialCapacity = 64;
}  // namespace

void WireWriter::grow(std::size_t n) {
  buf_.resize(std::max({2 * buf_.size(), pos_ + n, kInitialCapacity}));
}

void WireWriter::put_string(const std::string& s) {
  put_u64(s.size());
  std::memcpy(room(s.size()), s.data(), s.size());
  pos_ += s.size();
}

void WireWriter::put_bytes(std::span<const std::uint8_t> bytes) {
  if (bytes.empty()) return;  // memcpy's source must not be null
  std::memcpy(room(bytes.size()), bytes.data(), bytes.size());
  pos_ += bytes.size();
}

std::vector<std::uint8_t> WireWriter::take() {
  std::vector<std::uint8_t> out;
  out.swap(buf_);
  out.resize(pos_);
  pos_ = 0;
  return out;
}

void WireReader::error(const char* what) { throw ParseError(what); }

}  // namespace cosched
