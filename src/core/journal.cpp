#include "core/journal.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cerrno>
#include <cstring>

#include "util/error.h"

#if defined(__x86_64__)
#include <immintrin.h>
#endif

namespace cosched {

namespace {

/// Slice-by-8 tables for the reflected CRC-32 polynomial 0xEDB88320:
/// table[0] is the classic byte-at-a-time table, and table[k][b] is the CRC
/// contribution of byte b followed by k zero bytes, so eight table lookups
/// advance the CRC by eight bytes at once.
using CrcTables = std::array<std::array<std::uint32_t, 256>, 8>;

constexpr CrcTables make_crc_tables() {
  CrcTables t{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k)
      c = (c & 1) ? 0xedb88320u ^ (c >> 1) : c >> 1;
    t[0][i] = c;
  }
  for (std::size_t k = 1; k < t.size(); ++k)
    for (std::size_t i = 0; i < 256; ++i)
      t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xffu];
  return t;
}

constexpr CrcTables kCrcTables = make_crc_tables();

void store_le32(std::uint8_t* p, std::uint32_t v) {
  p[0] = static_cast<std::uint8_t>(v);
  p[1] = static_cast<std::uint8_t>(v >> 8);
  p[2] = static_cast<std::uint8_t>(v >> 16);
  p[3] = static_cast<std::uint8_t>(v >> 24);
}

std::uint32_t get_le32(const std::uint8_t* p) {
  return static_cast<std::uint32_t>(p[0]) |
         static_cast<std::uint32_t>(p[1]) << 8 |
         static_cast<std::uint32_t>(p[2]) << 16 |
         static_cast<std::uint32_t>(p[3]) << 24;
}

std::uint64_t get_le64(const std::uint8_t* p) {
  return static_cast<std::uint64_t>(get_le32(p)) |
         static_cast<std::uint64_t>(get_le32(p + 4)) << 32;
}

/// Bytes of the LEB128 varint WireWriter::put_u64 writes for `v`.
std::size_t varint_size(std::uint64_t v) {
  std::size_t n = 1;
  for (; v >= 0x80; v >>= 7) ++n;
  return n;
}

/// Bytes of the v2 frame encode_frame writes around a payload.
std::size_t frame_size(std::uint64_t seq, std::size_t payload_size) {
  return 16 + varint_size(seq) + 1 + payload_size;
}

/// Snapshot envelope header: [u64 generation][u32 crc32(state)].
constexpr std::size_t kSnapshotEnvelopeSize = 12;
using SnapshotEnvelope = std::array<std::uint8_t, kSnapshotEnvelopeSize>;

SnapshotEnvelope snapshot_envelope(std::uint64_t generation,
                                   std::span<const std::uint8_t> state) {
  SnapshotEnvelope e{};
  store_le32(e.data(), static_cast<std::uint32_t>(generation));
  store_le32(e.data() + 4, static_cast<std::uint32_t>(generation >> 32));
  store_le32(e.data() + 8, crc32(state));
  return e;
}

/// Appends one v2 frame whose payload is `head` followed by `tail`: the
/// header is reserved first and its length and CRCs are filled in over the
/// body in place, so no temporary body or frame is built.
void encode_frame(std::vector<std::uint8_t>& out, std::uint64_t seq,
                  JournalRecordKind kind, std::span<const std::uint8_t> head,
                  std::span<const std::uint8_t> tail) {
  const std::size_t start = out.size();
  out.resize(start + 16);
  std::uint64_t v = seq;  // LEB128 varint, as WireWriter::put_u64 writes it
  for (; v >= 0x80; v >>= 7) out.push_back(static_cast<std::uint8_t>(v) | 0x80);
  out.push_back(static_cast<std::uint8_t>(v));
  out.push_back(static_cast<std::uint8_t>(kind));
  out.insert(out.end(), head.begin(), head.end());
  out.insert(out.end(), tail.begin(), tail.end());
  std::uint8_t* header = out.data() + start;
  const auto body = std::span<const std::uint8_t>(out).subspan(start + 16);
  store_le32(header, kJournalMagicV2);
  store_le32(header + 4, static_cast<std::uint32_t>(body.size()));
  store_le32(header + 8, crc32(body));
  store_le32(header + 12, crc32(std::span<const std::uint8_t>(header, 12)));
}

/// Outcome of decoding one frame at a fixed offset.  kTruncated means the
/// frame runs past the end of the buffer (a crash artifact when nothing
/// intact follows); kBad means the bytes are there but wrong (rot).
enum class FrameStatus { kOk, kTruncated, kBad };

/// One intact frame, viewed in place: `payload` aliases the scanned image.
struct FrameView {
  std::size_t offset = 0;  ///< first byte of the frame in the image
  std::size_t size = 0;    ///< total frame bytes (header + body)
  std::uint64_t seq = 0;
  JournalRecordKind kind = JournalRecordKind::kSnapshot;
  std::uint8_t version = 2;
  std::span<const std::uint8_t> payload;
};

FrameStatus parse_frame_at(std::span<const std::uint8_t> bytes,
                           std::size_t pos, FrameView& out,
                           const char*& error) {
  const std::size_t n = bytes.size();
  if (n - pos < 4) {
    error = "truncated header";
    return FrameStatus::kTruncated;
  }
  const std::uint32_t first = get_le32(bytes.data() + pos);
  std::size_t header = 0;
  std::uint32_t len = 0;
  std::uint32_t body_crc = 0;
  std::uint8_t version = 1;
  if (first == kJournalMagicV2) {
    if (n - pos < 16) {
      error = "truncated v2 header";
      return FrameStatus::kTruncated;
    }
    len = get_le32(bytes.data() + pos + 4);
    body_crc = get_le32(bytes.data() + pos + 8);
    const std::uint32_t header_crc = get_le32(bytes.data() + pos + 12);
    if (crc32(bytes.subspan(pos, 12)) != header_crc) {
      error = "rotten v2 header";
      return FrameStatus::kBad;
    }
    header = 16;
    version = 2;
  } else {
    if (n - pos < 8) {
      error = "truncated header";
      return FrameStatus::kTruncated;
    }
    len = first;
    body_crc = get_le32(bytes.data() + pos + 4);
    header = 8;
    version = 1;
  }
  if (n - pos - header < len) {
    error = version == 2 ? "truncated v2 body" : "truncated body";
    return FrameStatus::kTruncated;
  }
  const std::span<const std::uint8_t> body = bytes.subspan(pos + header, len);
  if (crc32(body) != body_crc) {
    error = "body CRC mismatch";
    return FrameStatus::kBad;
  }
  try {
    WireReader r(body);
    out.seq = r.get_u64();
    const std::uint8_t k = r.get_u8();
    if (k > static_cast<std::uint8_t>(JournalRecordKind::kGangVictim))
      throw ParseError("journal: unknown record kind");
    out.kind = static_cast<JournalRecordKind>(k);
    out.payload = body.subspan(len - r.remaining());
  } catch (const ParseError&) {
    error = "unparseable record";
    return FrameStatus::kBad;
  }
  out.offset = pos;
  out.size = header + len;
  out.version = version;
  return FrameStatus::kOk;
}

JournalRecord to_record(const FrameView& f) {
  return JournalRecord{f.seq, f.kind, {f.payload.begin(), f.payload.end()},
                       f.version};
}

/// The salvage walk shared by salvage_scan and Journal::compact.  Calls
/// on_frame(const FrameView&) for every intact frame in stream order and
/// on_gap(offset, length, reason, torn) for every unreadable region.  A
/// region starts at a frame that fails to decode and ends where the next
/// v2 magic has an intact frame behind it (v1 frames carry no magic, so rot
/// inside a pure-v1 region cannot be resynced past); `reason` is why its
/// first frame failed.  A region that runs to the end of the image and
/// began with a frame cut short by the end is a torn tail (`torn`, the
/// normal crash artifact) rather than rot.  The walk starts at `from`,
/// which must be 0 or the end of an intact frame the caller has walked.
template <class OnFrame, class OnGap>
void walk_frames(std::span<const std::uint8_t> bytes, std::size_t from,
                 OnFrame&& on_frame, OnGap&& on_gap) {
  constexpr std::size_t kNone = static_cast<std::size_t>(-1);
  const std::size_t n = bytes.size();
  std::size_t bad = kNone;  // start of the unreadable region being skipped
  FrameStatus bad_status = FrameStatus::kOk;
  const char* bad_reason = "";
  std::size_t pos = from;
  while (pos < n) {
    if (bad != kNone) {
      // Resync: only a v2 magic with a whole header behind it can start
      // the next intact frame.
      if (n - pos < 16) break;
      if (get_le32(bytes.data() + pos) != kJournalMagicV2) {
        ++pos;
        continue;
      }
    }
    FrameView f;
    const char* reason = "";
    const FrameStatus st = parse_frame_at(bytes, pos, f, reason);
    if (st != FrameStatus::kOk) {
      if (bad == kNone) {
        bad = pos;
        bad_status = st;
        bad_reason = reason;
      }
      ++pos;
      continue;
    }
    if (bad != kNone) {
      on_gap(bad, pos - bad, bad_reason, false);
      bad = kNone;
    }
    on_frame(f);
    pos += f.size;
  }
  if (bad != kNone)
    on_gap(bad, n - bad, bad_reason, bad_status == FrameStatus::kTruncated);
}

/// Advances the (inverted) CRC register `c` over n bytes: eight at a time
/// through the slice-by-8 tables, then one four-byte step through t[3]..t[0]
/// when four or more remain, then byte by byte.  A 12-byte frame header
/// takes one eight- and one four-byte step.
std::uint32_t crc32_tables(std::uint32_t c, const std::uint8_t* p,
                           std::size_t n) {
  const CrcTables& t = kCrcTables;
  for (; n >= 8; p += 8, n -= 8) {
    const std::uint32_t lo = get_le32(p) ^ c;
    const std::uint32_t hi = get_le32(p + 4);
    c = t[7][lo & 0xffu] ^ t[6][(lo >> 8) & 0xffu] ^ t[5][(lo >> 16) & 0xffu] ^
        t[4][lo >> 24] ^ t[3][hi & 0xffu] ^ t[2][(hi >> 8) & 0xffu] ^
        t[1][(hi >> 16) & 0xffu] ^ t[0][hi >> 24];
  }
  if (n >= 4) {
    const std::uint32_t w = get_le32(p) ^ c;
    c = t[3][w & 0xffu] ^ t[2][(w >> 8) & 0xffu] ^ t[1][(w >> 16) & 0xffu] ^
        t[0][w >> 24];
    p += 4;
    n -= 4;
  }
  for (; n > 0; ++p, --n) c = t[0][(c ^ *p) & 0xffu] ^ (c >> 8);
  return c;
}

#if defined(__x86_64__)
/// Spans at least this long are worth folding; shorter ones never pay for
/// the CPU check.
constexpr std::size_t kFoldMinBytes = 64;

bool cpu_can_fold() {
  static const bool ok =
      __builtin_cpu_supports("pclmul") && __builtin_cpu_supports("sse4.1");
  return ok;
}

/// Folds the 128-bit lane x forward by the distance k encodes and xors it
/// into the next 16 bytes y.
__attribute__((target("pclmul,sse4.1"))) inline __m128i fold(__m128i x,
                                                             __m128i k,
                                                             __m128i y) {
  return _mm_xor_si128(_mm_xor_si128(_mm_clmulepi64_si128(x, k, 0x00),
                                     _mm_clmulepi64_si128(x, k, 0x11)),
                       y);
}

/// Advances the (inverted) CRC register `c` over n bytes, n a multiple of
/// 16 and at least 64, by carry-less multiplication: four 128-bit lanes
/// fold 64 bytes per step, then merge into one that folds the remaining
/// 16-byte blocks, and a Barrett reduction brings the 128-bit remainder
/// down to the 32-bit register.  Constants are those of the reflected
/// polynomial 0xEDB88320 from Gopal et al., "Fast CRC Computation for
/// Generic Polynomials Using PCLMULQDQ Instruction" (Intel, 2009).
__attribute__((target("pclmul,sse4.1"))) std::uint32_t crc32_fold(
    std::uint32_t c, const std::uint8_t* p, std::size_t n) {
  const __m128i k1k2 = _mm_set_epi64x(0x1c6e41596, 0x154442bd4);
  const __m128i k3k4 = _mm_set_epi64x(0x0ccaa009e, 0x1751997d0);
  const __m128i k5 = _mm_set_epi64x(0, 0x163cd6124);
  const __m128i poly = _mm_set_epi64x(0x1f7011641, 0x1db710641);  // mu, P'
  const __m128i low32 = _mm_setr_epi32(-1, 0, -1, 0);
  const auto load = [](const std::uint8_t* q) {
    return _mm_loadu_si128(reinterpret_cast<const __m128i*>(q));
  };
  __m128i x1 = _mm_xor_si128(load(p), _mm_cvtsi32_si128(static_cast<int>(c)));
  __m128i x2 = load(p + 16);
  __m128i x3 = load(p + 32);
  __m128i x4 = load(p + 48);
  for (p += 64, n -= 64; n >= 64; p += 64, n -= 64) {
    x1 = fold(x1, k1k2, load(p));
    x2 = fold(x2, k1k2, load(p + 16));
    x3 = fold(x3, k1k2, load(p + 32));
    x4 = fold(x4, k1k2, load(p + 48));
  }
  x1 = fold(x1, k3k4, x2);
  x1 = fold(x1, k3k4, x3);
  x1 = fold(x1, k3k4, x4);
  for (; n >= 16; p += 16, n -= 16) x1 = fold(x1, k3k4, load(p));
  // 128 bits to 64, then Barrett reduction to 32.
  x1 = _mm_xor_si128(_mm_srli_si128(x1, 8),
                     _mm_clmulepi64_si128(x1, k3k4, 0x10));
  x1 = _mm_xor_si128(
      _mm_clmulepi64_si128(_mm_and_si128(x1, low32), k5, 0x00),
      _mm_srli_si128(x1, 4));
  __m128i q = _mm_clmulepi64_si128(_mm_and_si128(x1, low32), poly, 0x10);
  q = _mm_clmulepi64_si128(_mm_and_si128(q, low32), poly, 0x00);
  return static_cast<std::uint32_t>(_mm_extract_epi32(_mm_xor_si128(x1, q), 1));
}
#endif

}  // namespace

std::uint32_t crc32(std::span<const std::uint8_t> data) {
  const std::uint8_t* p = data.data();
  std::size_t n = data.size();
  std::uint32_t c = 0xffffffffu;
#if defined(__x86_64__)
  if (n >= kFoldMinBytes && cpu_can_fold()) {
    const std::size_t folded = n & ~std::size_t{15};
    c = crc32_fold(c, p, folded);
    p += folded;
    n -= folded;
  }
#endif
  return crc32_tables(c, p, n) ^ 0xffffffffu;
}

std::uint32_t crc32_portable(std::span<const std::uint8_t> data) {
  return crc32_tables(0xffffffffu, data.data(), data.size()) ^ 0xffffffffu;
}

const char* to_string(JournalRecordKind k) {
  switch (k) {
    case JournalRecordKind::kSnapshot: return "snapshot";
    case JournalRecordKind::kIncarnation: return "incarnation";
    case JournalRecordKind::kExpected: return "expected";
    case JournalRecordKind::kSubmit: return "submit";
    case JournalRecordKind::kReady: return "ready";
    case JournalRecordKind::kStart: return "start";
    case JournalRecordKind::kHold: return "hold";
    case JournalRecordKind::kHoldRelease: return "hold-release";
    case JournalRecordKind::kYield: return "yield";
    case JournalRecordKind::kFinish: return "finish";
    case JournalRecordKind::kKill: return "kill";
    case JournalRecordKind::kIterate: return "iterate";
    case JournalRecordKind::kTickArmed: return "tick-armed";
    case JournalRecordKind::kTickFired: return "tick-fired";
    case JournalRecordKind::kIterArmed: return "iter-armed";
    case JournalRecordKind::kPeriodicArmed: return "periodic-armed";
    case JournalRecordKind::kDegraded: return "degraded";
    case JournalRecordKind::kDedup: return "dedup";
    case JournalRecordKind::kLeaseGrant: return "lease-grant";
    case JournalRecordKind::kLeaseRenew: return "lease-renew";
    case JournalRecordKind::kLeaseExpire: return "lease-expire";
    case JournalRecordKind::kLeaseFence: return "lease-fence";
    case JournalRecordKind::kHeartbeat: return "heartbeat";
    case JournalRecordKind::kLivenessArmed: return "liveness-armed";
    case JournalRecordKind::kGangPrepare: return "gang-prepare";
    case JournalRecordKind::kGangCommit: return "gang-commit";
    case JournalRecordKind::kGangAbort: return "gang-abort";
    case JournalRecordKind::kGangVictim: return "gang-victim";
  }
  return "?";
}

void encode_frame(std::vector<std::uint8_t>& out, std::uint64_t seq,
                  JournalRecordKind kind,
                  std::span<const std::uint8_t> payload) {
  encode_frame(out, seq, kind, {}, payload);
}

std::vector<std::uint8_t> encode_frame(std::uint64_t seq,
                                       JournalRecordKind kind,
                                       std::span<const std::uint8_t> payload) {
  std::vector<std::uint8_t> out;
  out.reserve(frame_size(seq, payload.size()));
  encode_frame(out, seq, kind, payload);
  return out;
}

std::vector<std::uint8_t> make_snapshot_payload(
    std::uint64_t generation, std::span<const std::uint8_t> state) {
  const SnapshotEnvelope envelope = snapshot_envelope(generation, state);
  std::vector<std::uint8_t> out(envelope.size() + state.size());
  std::ranges::copy(envelope, out.begin());
  std::ranges::copy(state, out.begin() + envelope.size());
  return out;
}

SnapshotView parse_snapshot_payload(const JournalRecord& rec) {
  SnapshotView v;
  if (rec.version < 2) {
    // v1 snapshots are the raw state — nothing to verify against.
    v.state = std::span<const std::uint8_t>(rec.payload);
    return v;
  }
  if (rec.payload.size() < kSnapshotEnvelopeSize) {
    v.checksum_ok = false;
    return v;
  }
  const std::span<const std::uint8_t> payload(rec.payload);
  v.generation = get_le64(payload.data());
  const std::uint32_t want = get_le32(payload.data() + 8);
  v.state = payload.subspan(kSnapshotEnvelopeSize);
  v.checksum_ok = crc32(v.state) == want;
  return v;
}

// -- FileJournalSink ---------------------------------------------------------

FileJournalSink::FileJournalSink(std::string path) : path_(std::move(path)) {
  fd_ = ::open(path_.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
  COSCHED_CHECK_MSG(fd_ >= 0, "journal open " << path_ << ": "
                                              << std::strerror(errno));
}

FileJournalSink::~FileJournalSink() {
  if (fd_ >= 0) ::close(fd_);
}

void FileJournalSink::append(std::span<const std::uint8_t> frame) {
  std::size_t off = 0;
  while (off < frame.size()) {
    const ssize_t n = ::write(fd_, frame.data() + off, frame.size() - off);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == ENOSPC)
        throw JournalNoSpace(std::string("journal write: ") +
                             std::strerror(errno));
      throw Error(std::string("journal write: ") + std::strerror(errno));
    }
    off += static_cast<std::size_t>(n);
  }
}

void FileJournalSink::commit() {
  if (::fsync(fd_) != 0)
    throw Error(std::string("journal fsync: ") + std::strerror(errno));
}

void FileJournalSink::reset(std::vector<std::uint8_t> contents) {
  const std::string tmp = path_ + ".compact";
  const int tfd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  COSCHED_CHECK_MSG(tfd >= 0, "journal compact open " << tmp << ": "
                                                      << std::strerror(errno));
  std::size_t off = 0;
  while (off < contents.size()) {
    const ssize_t n = ::write(tfd, contents.data() + off,
                              contents.size() - off);
    if (n < 0) {
      if (errno == EINTR) continue;
      const int e = errno;
      ::close(tfd);
      ::unlink(tmp.c_str());
      if (e == ENOSPC)
        throw JournalNoSpace(std::string("journal compact write: ") +
                             std::strerror(e));
      throw Error(std::string("journal compact write: ") + std::strerror(e));
    }
    off += static_cast<std::size_t>(n);
  }
  if (::fsync(tfd) != 0) {
    const int e = errno;
    ::close(tfd);
    ::unlink(tmp.c_str());
    throw Error(std::string("journal compact fsync: ") + std::strerror(e));
  }
  ::close(tfd);
  if (::rename(tmp.c_str(), path_.c_str()) != 0) {
    const int e = errno;
    ::unlink(tmp.c_str());
    throw Error(std::string("journal compact rename: ") + std::strerror(e));
  }
  // The rename is only durable once the parent directory's entry is on
  // disk: without this fsync a crash right here can resurrect the old image
  // or leave the name dangling, undoing a "completed" compaction.
  const auto slash = path_.find_last_of('/');
  const std::string dir =
      slash == std::string::npos
          ? "."
          : (slash == 0 ? "/" : path_.substr(0, slash));
  const int dfd = ::open(dir.c_str(), O_RDONLY);
  if (dfd < 0)
    throw Error(std::string("journal compact dir open ") + dir + ": " +
                std::strerror(errno));
  if (::fsync(dfd) != 0) {
    const int e = errno;
    ::close(dfd);
    throw Error(std::string("journal compact dir fsync: ") +
                std::strerror(e));
  }
  ::close(dfd);
  ::close(fd_);
  fd_ = ::open(path_.c_str(), O_WRONLY | O_APPEND, 0644);
  COSCHED_CHECK_MSG(fd_ >= 0, "journal reopen " << path_ << ": "
                                                << std::strerror(errno));
}

std::vector<std::uint8_t> FileJournalSink::contents() const {
  std::vector<std::uint8_t> out;
  const int rfd = ::open(path_.c_str(), O_RDONLY);
  if (rfd < 0)
    throw JournalIoError(std::string("journal read open ") + path_ + ": " +
                         std::strerror(errno));
  std::uint8_t buf[4096];
  for (;;) {
    const ssize_t n = ::read(rfd, buf, sizeof buf);
    if (n < 0) {
      if (errno == EINTR) continue;
      // A partial read must never masquerade as a clean short journal —
      // recovery would replay a silently truncated image.
      const int e = errno;
      ::close(rfd);
      throw JournalIoError(std::string("journal read ") + path_ + ": " +
                           std::strerror(e));
    }
    if (n == 0) break;
    out.insert(out.end(), buf, buf + n);
  }
  ::close(rfd);
  return out;
}

// -- Journal -----------------------------------------------------------------

Journal::Journal(std::unique_ptr<JournalSink> sink) : sink_(std::move(sink)) {
  COSCHED_CHECK(sink_ != nullptr);
}

std::uint64_t Journal::append(JournalRecordKind kind,
                              std::span<const std::uint8_t> payload) {
  const std::uint64_t seq = next_seq_++;
  frame_.clear();
  encode_frame(frame_, seq, kind, payload);
  try {
    sink_->append(frame_);
  } catch (const JournalNoSpace&) {
    // Swallow here, surface at the commit boundary: an append sits in the
    // middle of a mutation path, and tearing that apart would leave live
    // state half-changed.  The sequence number stays consumed, so the
    // dropped record is a detectable hole, never a silent splice.
    no_space_ = true;
  }
  last_appended_seq_ = seq;
  ++records_since_compaction_;
  dirty_ = true;
  return seq;
}

void Journal::commit() {
  if (!dirty_) return;
  sink_->commit();
  dirty_ = false;
  last_committed_seq_ = last_appended_seq_;
  // Call through a copy: the hook may clear/replace itself (the kill-anywhere
  // harness disarms its crash trigger from inside the callback).
  if (on_commit_) {
    const auto fn = on_commit_;
    fn(last_committed_seq_);
  }
}

void Journal::reopen() {
  // Whatever was appended but never committed is gone — model the crash by
  // resetting the sink to its durable image, then re-sync counters from it.
  // Salvage (not strict) scanning: even with rot mid-log the counters must
  // resume past the highest intact record, or post-recovery appends would
  // reuse sequence numbers and forge duplicates.
  sink_->reset(sink_->contents());
  const std::vector<std::uint8_t> bytes = sink_->contents();
  const SalvageReport rep = salvage_scan(bytes);
  std::uint64_t last = 0;
  std::uint64_t last_snap_seq = 0;
  for (const JournalRecord& rec : rep.records) {
    last = std::max(last, rec.seq);
    if (rec.kind == JournalRecordKind::kSnapshot) {
      last_snap_seq = std::max(last_snap_seq, rec.seq);
      const SnapshotView v = parse_snapshot_payload(rec);
      snapshot_generation_ = std::max(snapshot_generation_, v.generation);
    }
  }
  std::uint64_t after_snap = 0;
  for (const JournalRecord& rec : rep.records)
    if (rec.seq > last_snap_seq) ++after_snap;
  next_seq_ = last + 1;
  last_appended_seq_ = last;
  last_committed_seq_ = last;
  records_since_compaction_ = after_snap;
  dirty_ = false;
  no_space_ = false;
}

void Journal::compact(std::span<const std::uint8_t> snapshot_payload,
                      bool retain_previous) {
  // The image is rewritten from the sink's durable bytes: records appended
  // since the last commit would be spliced out of it.
  COSCHED_CHECK_MSG(!retain_previous || !dirty_,
                    "journal: compaction with uncommitted records");
  // What the new image keeps of the old one: the newest intact snapshot and
  // every intact frame after it (the fallback generation), with every
  // header and body CRC checked by the same walk salvage_scan makes.  An
  // intact v2 frame is copied byte for byte, so a run of back-to-back ones
  // is kept as one entry whose offset/size span the run.  A v1 frame is
  // kept on its own, to be re-framed as v2.
  std::vector<std::uint8_t> old;
  std::vector<FrameView> kept;
  std::size_t kept_bytes = 0;
  if (retain_previous) {
    old = sink_->contents();
    bool anchored = false;
    const auto keep = [&](const FrameView& f) {
      if (f.kind == JournalRecordKind::kSnapshot) {
        anchored = true;
        kept.clear();
        kept_bytes = 0;
      }
      if (!anchored) return;
      if (f.version == 1) {
        // Once its frame says v2, readers expect a snapshot's payload in
        // the generation envelope, so a v1 snapshot's raw state is wrapped
        // (generation 0 = pre-generation legacy).
        std::size_t payload = f.payload.size();
        if (f.kind == JournalRecordKind::kSnapshot)
          payload += kSnapshotEnvelopeSize;
        kept_bytes += frame_size(f.seq, payload);
        kept.push_back(f);
        return;
      }
      kept_bytes += f.size;
      FrameView* run = kept.empty() ? nullptr : &kept.back();
      if (run != nullptr && run->version == 2 &&
          run->offset + run->size == f.offset)
        run->size += f.size;
      else
        kept.push_back(f);
    };
    // Start at the snapshot frame the last compact() wrote when it is
    // still there, intact, with its seq.  A walk from byte 0 lands on that
    // frame too (only a frame across it that passed both its CRCs would
    // step over it) and anchors there, so the frames before it, the
    // generation this image drops, change nothing kept.  Otherwise the
    // image was damaged or replaced since, and the walk starts at 0.
    std::size_t from = 0;
    FrameView snap;
    const char* reason = "";
    if (last_snapshot_seq_ != 0 && last_snapshot_offset_ < old.size() &&
        parse_frame_at(old, last_snapshot_offset_, snap, reason) ==
            FrameStatus::kOk &&
        snap.version == 2 && snap.kind == JournalRecordKind::kSnapshot &&
        snap.seq == last_snapshot_seq_) {
      keep(snap);
      from = snap.offset + snap.size;
    }
    walk_frames(old, from, keep,
                [](std::size_t, std::size_t, const char*, bool) {});
  }

  const std::uint64_t seq = next_seq_++;
  const SnapshotEnvelope envelope =
      snapshot_envelope(++snapshot_generation_, snapshot_payload);
  std::vector<std::uint8_t> image;
  image.reserve(kept_bytes +
                frame_size(seq, envelope.size() + snapshot_payload.size()));
  for (const FrameView& k : kept) {
    if (k.version == 2) {
      const std::uint8_t* run = old.data() + k.offset;
      image.insert(image.end(), run, run + k.size);
    } else if (k.kind == JournalRecordKind::kSnapshot) {
      encode_frame(image, k.seq, k.kind, snapshot_envelope(0, k.payload),
                   k.payload);
    } else {
      encode_frame(image, k.seq, k.kind, k.payload);
    }
  }
  const std::size_t snapshot_offset = image.size();
  encode_frame(image, seq, JournalRecordKind::kSnapshot, envelope,
               snapshot_payload);
  sink_->reset(std::move(image));
  last_snapshot_offset_ = snapshot_offset;
  last_snapshot_seq_ = seq;
  last_appended_seq_ = seq;
  last_committed_seq_ = seq;
  records_since_compaction_ = 0;
  dirty_ = false;
  no_space_ = false;
}

void Journal::degrade_to_memory() {
  auto mem = std::make_unique<MemoryJournalSink>();
  try {
    mem->reset(sink_->contents());
  } catch (const Error&) {
    // Nothing readable to carry over — degrade to an empty in-memory
    // journal; the owner re-seeds it with a fresh snapshot.
  }
  sink_ = std::move(mem);
  degraded_ = true;
  no_space_ = false;
  dirty_ = false;
}

JournalReplay read_journal(std::span<const std::uint8_t> bytes) {
  JournalReplay out;
  std::size_t pos = 0;
  while (pos < bytes.size()) {
    FrameView f;
    const char* error = "";
    if (parse_frame_at(bytes, pos, f, error) != FrameStatus::kOk) {
      out.tail_torn = true;  // strict torn-tail rule: stop at the first flaw
      break;
    }
    out.records.push_back(to_record(f));
    pos += f.size;
    out.bytes_scanned = pos;
  }
  return out;
}

SalvageReport salvage_scan(std::span<const std::uint8_t> bytes) {
  SalvageReport out;
  out.bytes_scanned = bytes.size();
  walk_frames(
      bytes, 0,
      [&out](const FrameView& f) { out.records.push_back(to_record(f)); },
      [&out](std::size_t offset, std::size_t length, const char* reason,
             bool torn) {
        if (torn) {
          out.tail_torn = true;
          return;
        }
        out.corrupt_regions.push_back({offset, length, reason});
        out.bytes_skipped += length;
      });
  for (std::size_t i = 1; i < out.records.size(); ++i) {
    const std::uint64_t prev = out.records[i - 1].seq;
    const std::uint64_t cur = out.records[i].seq;
    if (cur <= prev) {
      ++out.duplicate_records;
    } else if (cur != prev + 1) {
      ++out.seq_holes;
      out.records_missing += cur - prev - 1;
    }
  }
  return out;
}

}  // namespace cosched
