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

std::vector<std::uint8_t> WireWriter::take() {
  std::vector<std::uint8_t> out;
  out.swap(buf_);
  out.resize(pos_);
  pos_ = 0;
  return out;
}

void WireReader::fail(std::size_t pos, const char* what) {
  pos_ = pos;
  throw ParseError(what);
}

std::string WireReader::get_string() {
  const std::uint64_t n = get_u64();
  if (n > remaining()) throw ParseError("wire: truncated string");
  std::string s(reinterpret_cast<const char*>(data_.data()) + pos_, n);
  pos_ += n;
  return s;
}

}  // namespace cosched
