#include "proto/wire.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <span>
#include <string>
#include <vector>

#include "util/rng.h"

namespace cosched {
namespace {

TEST(Wire, U64RoundTrip) {
  WireWriter w;
  const std::uint64_t values[] = {0, 1, 127, 128, 300, 16384,
                                  std::numeric_limits<std::uint64_t>::max()};
  for (auto v : values) w.put_u64(v);
  WireReader r(w.bytes());
  for (auto v : values) EXPECT_EQ(r.get_u64(), v);
  EXPECT_TRUE(r.exhausted());
}

TEST(Wire, VarintIsCompact) {
  WireWriter w;
  w.put_u64(5);
  EXPECT_EQ(w.bytes().size(), 1u);
  WireWriter w2;
  w2.put_u64(300);
  EXPECT_EQ(w2.bytes().size(), 2u);
}

TEST(Wire, I64ZigZagRoundTrip) {
  WireWriter w;
  const std::int64_t values[] = {0, -1, 1, -2, 63, -64,
                                 std::numeric_limits<std::int64_t>::min(),
                                 std::numeric_limits<std::int64_t>::max()};
  for (auto v : values) w.put_i64(v);
  WireReader r(w.bytes());
  for (auto v : values) EXPECT_EQ(r.get_i64(), v);
}

TEST(Wire, SmallNegativesAreCompact) {
  WireWriter w;
  w.put_i64(-1);
  EXPECT_EQ(w.bytes().size(), 1u);
}

TEST(Wire, BoolAndU8) {
  WireWriter w;
  w.put_bool(true);
  w.put_bool(false);
  w.put_u8(0xAB);
  WireReader r(w.bytes());
  EXPECT_TRUE(r.get_bool());
  EXPECT_FALSE(r.get_bool());
  EXPECT_EQ(r.get_u8(), 0xAB);
}

TEST(Wire, StringRoundTrip) {
  WireWriter w;
  w.put_string("");
  w.put_string("hello");
  w.put_string(std::string("\0binary\xff", 8));
  WireReader r(w.bytes());
  EXPECT_EQ(r.get_string(), "");
  EXPECT_EQ(r.get_string(), "hello");
  EXPECT_EQ(r.get_string(), std::string("\0binary\xff", 8));
}

TEST(Wire, TruncatedInputThrows) {
  WireWriter w;
  w.put_u64(1ULL << 40);
  auto bytes = w.take();
  bytes.pop_back();
  WireReader r(bytes);
  EXPECT_THROW(r.get_u64(), ParseError);
}

TEST(Wire, TruncatedStringThrows) {
  WireWriter w;
  w.put_u64(100);  // claims 100 bytes follow
  WireReader r(w.bytes());
  EXPECT_THROW(r.get_string(), ParseError);
}

TEST(Wire, OverlongVarintThrows) {
  // 11 continuation bytes cannot encode a u64.
  std::vector<std::uint8_t> bad(11, 0xFF);
  WireReader r(bad);
  EXPECT_THROW(r.get_u64(), ParseError);
}

TEST(Wire, EmptyReaderThrows) {
  WireReader r(std::span<const std::uint8_t>{});
  EXPECT_TRUE(r.exhausted());
  EXPECT_THROW(r.get_u8(), ParseError);
}

TEST(Wire, KnownAnswerBytes) {
  using Bytes = std::vector<std::uint8_t>;
  WireWriter w;
  w.put_u64(300);
  EXPECT_EQ(w.take(), (Bytes{0xAC, 0x02}));
  w.put_u64(std::numeric_limits<std::uint64_t>::max());
  EXPECT_EQ(w.take(), (Bytes{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF,
                             0xFF, 0x01}));
  w.put_i64(-1);
  EXPECT_EQ(w.take(), (Bytes{0x01}));
}

TEST(Wire, FuzzRoundTrip) {
  Rng rng(1234);
  for (int iter = 0; iter < 200; ++iter) {
    WireWriter w;
    std::vector<std::int64_t> vals;
    const int n = static_cast<int>(rng.uniform_int(1, 50));
    for (int i = 0; i < n; ++i) {
      vals.push_back(rng.uniform_int(std::numeric_limits<std::int64_t>::min(),
                                     std::numeric_limits<std::int64_t>::max()));
      w.put_i64(vals.back());
    }
    WireReader r(w.bytes());
    for (auto v : vals) EXPECT_EQ(r.get_i64(), v);
    EXPECT_TRUE(r.exhausted());
  }
}

// -- differential check against the byte-at-a-time codec -------------------
//
// RefWriter and ref_get_u64 are the original codec: one push_back per byte
// and one bounds check per byte read.  The buffered writer must produce the
// same bytes, and the reader must accept and reject the same inputs with the
// same value, error and read position.

struct RefWriter {
  std::vector<std::uint8_t> buf;

  void put_u8(std::uint8_t v) { buf.push_back(v); }
  void put_u64(std::uint64_t v) {
    while (v >= 0x80) {
      buf.push_back(static_cast<std::uint8_t>(v) | 0x80);
      v >>= 7;
    }
    buf.push_back(static_cast<std::uint8_t>(v));
  }
  void put_i64(std::int64_t v) { put_u64(WireWriter::zigzag(v)); }
  void put_string(const std::string& s) {
    put_u64(s.size());
    buf.insert(buf.end(), s.begin(), s.end());
  }
};

/// One get_u64: the value or the error message, and the bytes left after.
struct Decoded {
  std::uint64_t value = 0;
  std::string error;
  std::size_t remaining = 0;
  bool operator==(const Decoded&) const = default;
};

std::ostream& operator<<(std::ostream& os, const Decoded& d) {
  return os << "{value " << d.value << ", error '" << d.error
            << "', remaining " << d.remaining << "}";
}

Decoded ref_get_u64(std::span<const std::uint8_t> data, std::size_t& pos) {
  Decoded d;
  std::uint64_t v = 0;
  int shift = 0;
  for (;;) {
    if (pos >= data.size()) {
      d.error = "wire: truncated varint";
      break;
    }
    const std::uint8_t b = data[pos++];
    if (shift >= 64 || (shift == 63 && (b & 0x7e))) {
      d.error = "wire: varint overflow";
      break;
    }
    v |= static_cast<std::uint64_t>(b & 0x7f) << shift;
    if (!(b & 0x80)) {
      d.value = v;
      break;
    }
    shift += 7;
  }
  d.remaining = data.size() - pos;
  return d;
}

Decoded get_u64(WireReader& r) {
  Decoded d;
  try {
    d.value = r.get_u64();
  } catch (const ParseError& e) {
    d.error = e.what();
  }
  d.remaining = r.remaining();
  return d;
}

/// Both codecs decode `data` as a run of varints up to the first error.
void expect_same_decode(std::span<const std::uint8_t> data) {
  WireReader r(data);
  std::size_t ref_pos = 0;
  for (;;) {
    const Decoded want = ref_get_u64(data, ref_pos);
    ASSERT_EQ(get_u64(r), want);
    if (!want.error.empty() || want.remaining == 0) return;
  }
}

/// A value whose varint is `len` (1..10) bytes long.
std::uint64_t value_of_length(int len, Rng& rng) {
  if (len == 1) return rng.next() & 0x7f;
  const int bits = std::min(7 * len, 64);
  const std::uint64_t top = std::uint64_t{1} << (7 * (len - 1));
  const std::uint64_t mask =
      bits == 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << bits) - 1;
  return (rng.next() & mask) | top;
}

/// The writer's bytes, copied so gtest can print a mismatch.
std::vector<std::uint8_t> contents(const WireWriter& w) {
  return {w.bytes().begin(), w.bytes().end()};
}

TEST(WireDifferential, RandomValuesMatchReference) {
  Rng rng(15);
  for (int iter = 0; iter < 20000; ++iter) {
    // Uniform bit widths, so every varint length is common.
    const int bits = static_cast<int>(rng.uniform_int(0, 64));
    const std::uint64_t v =
        bits == 64 ? rng.next() : rng.next() & ((std::uint64_t{1} << bits) - 1);
    WireWriter w;
    RefWriter ref;
    w.put_u64(v);
    ref.put_u64(v);
    w.put_i64(static_cast<std::int64_t>(v));
    ref.put_i64(static_cast<std::int64_t>(v));
    ASSERT_EQ(contents(w), ref.buf) << v;
    expect_same_decode(w.bytes());
  }
}

TEST(WireDifferential, MixedStreamMatchesReference) {
  Rng rng(16);
  WireWriter w;
  RefWriter ref;
  for (int i = 0; i < 5000; ++i) {
    switch (rng.uniform_int(0, 3)) {
      case 0: {
        const auto v = static_cast<std::uint8_t>(rng.next());
        w.put_u8(v);
        ref.put_u8(v);
        break;
      }
      case 1: {
        const std::uint64_t v =
            value_of_length(static_cast<int>(rng.uniform_int(1, 10)), rng);
        w.put_u64(v);
        ref.put_u64(v);
        break;
      }
      case 2: {
        const auto v = static_cast<std::int64_t>(rng.next());
        w.put_i64(v);
        ref.put_i64(v);
        break;
      }
      default: {
        const std::string s(static_cast<std::size_t>(rng.uniform_int(0, 300)),
                            static_cast<char>(rng.next()));
        w.put_string(s);
        ref.put_string(s);
        break;
      }
    }
    ASSERT_EQ(w.bytes().size(), ref.buf.size()) << "put " << i;
  }
  EXPECT_EQ(contents(w), ref.buf);
  EXPECT_EQ(w.take(), ref.buf);
  EXPECT_TRUE(w.bytes().empty());
}

// Every varint length written at every offset below 1100 bytes, so each
// length straddles each buffer growth up to a 2 KiB buffer.  Runs on a fresh
// writer per case, on one writer cleared between cases (it grows again as
// the offsets pass its capacity) and on one writer emptied by take() (it
// grows from nothing every case).
TEST(WireDifferential, WritesAcrossBufferGrowthMatchReference) {
  enum class Mode { kFresh, kClear, kTake };
  for (const Mode mode : {Mode::kFresh, Mode::kClear, Mode::kTake}) {
    SCOPED_TRACE(static_cast<int>(mode));
    Rng rng(17);
    WireWriter reused;
    for (std::size_t prefix = 0; prefix < 1100; ++prefix) {
      for (int len = 1; len <= 10; ++len) {
        WireWriter fresh;
        WireWriter& w = mode == Mode::kFresh ? fresh : reused;
        if (mode == Mode::kClear) w.clear();
        RefWriter ref;
        for (std::size_t i = 0; i < prefix; ++i) {
          const auto b = static_cast<std::uint8_t>(i * 31 + len);
          w.put_u8(b);
          ref.put_u8(b);
        }
        const std::uint64_t v = value_of_length(len, rng);
        w.put_u64(v);
        ref.put_u64(v);
        w.put_u8(0x5a);
        ref.put_u8(0x5a);
        SCOPED_TRACE("prefix " + std::to_string(prefix) + " len " +
                     std::to_string(len));
        ASSERT_EQ(contents(w), ref.buf);
        if (mode != Mode::kClear) {
          ASSERT_EQ(w.take(), ref.buf);
          ASSERT_TRUE(w.bytes().empty());
        }
      }
    }
  }
}

TEST(WireDifferential, EveryTruncationFailsLikeReference) {
  Rng rng(18);
  RefWriter stream;
  for (int len = 1; len <= 10; ++len) {
    for (int k = 0; k < 3; ++k) stream.put_u64(value_of_length(len, rng));
    // Each encoding on its own, cut at every length.
    RefWriter one;
    one.put_u64(value_of_length(len, rng));
    for (std::size_t cut = 0; cut <= one.buf.size(); ++cut)
      expect_same_decode(std::span(one.buf).first(cut));
  }
  // The concatenation, cut at every length: the varints before the cut
  // decode, the one it splits fails.
  for (std::size_t cut = 0; cut <= stream.buf.size(); ++cut)
    expect_same_decode(std::span(stream.buf).first(cut));
}

TEST(WireDifferential, TenByteVarintsAcceptedExactlyAsReference) {
  Rng rng(19);
  int accepted = 0;
  for (int last = 0; last <= 0xFF; ++last) {
    for (int pattern = 0; pattern < 3; ++pattern) {
      std::vector<std::uint8_t> bytes;
      for (int i = 0; i < 9; ++i) {
        const std::uint8_t low = pattern == 0   ? 0x7F
                                 : pattern == 1 ? 0x00
                                                : rng.next() & 0x7F;
        bytes.push_back(0x80 | low);
      }
      bytes.push_back(static_cast<std::uint8_t>(last));
      std::size_t pos = 0;
      if (ref_get_u64(bytes, pos).error.empty()) ++accepted;
      expect_same_decode(bytes);
      // A continuation bit on the tenth byte reads on: truncated without an
      // eleventh byte, overflow with one.
      bytes.push_back(0x00);
      expect_same_decode(bytes);
    }
  }
  // Only 0x00 and 0x01 may end a ten-byte varint.
  EXPECT_EQ(accepted, 2 * 3);
}

}  // namespace
}  // namespace cosched
