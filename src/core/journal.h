// Write-ahead journal of state-mutating coscheduling decisions.
//
// The paper's fault story (§IV-C) only covers a *remote* domain dying: the
// mate becomes `unknown` and the local job starts normally.  It says nothing
// about the local daemon crashing while jobs hold nodes or a tryStartMate is
// in flight — in production that leaks held nodes or double-starts mates.
// This module closes that gap: every externally visible scheduler decision
// (submit, ready, start, hold, release, yield, finish, kill, demotion-clear,
// timer arms) is framed, CRC-checked, and appended to a journal *before* its
// effects become visible to peers; recovery replays snapshot + tail and
// reconstructs bit-identical scheduler state.
//
// Frame layout v2 (little-endian), written by every append since PR 10:
//   [u32 magic "JLF2"][u32 body_len][u32 crc32(body)][u32 crc32(header[0:12])]
//   [body]
//   body = varint seq ++ u8 kind ++ kind-specific payload (wire varints)
// The magic lets a salvage scan resync past a corrupt region (bit rot, torn
// write, lost sector) instead of discarding everything after it, and the
// header CRC distinguishes a rotten header from a genuinely torn tail.
//
// Frame layout v1 (still readable; detected per frame by the absence of the
// magic — a v1 length prefix of 0x32464c4a would be an 843 MB record, far
// beyond any real frame):
//   [u32 body_len][u32 crc32(body)][body]
//
// Torn-tail rule (read_journal): replay stops at the first frame whose
// length prefix is incomplete, overruns the buffer, or fails its CRC.
// Everything before it is applied; the torn frame and anything after are
// discarded (a frame is only semantically required once its commit()
// returned — see RECOVERY.md).  salvage_scan() relaxes this: it resyncs on
// the v2 magic after a bad region and reports corrupt regions, sequence
// holes, and duplicates so recovery can account for exactly what was lost.
//
// Snapshot generations: Journal::compact() wraps each snapshot payload in a
// generation-numbered, checksummed envelope and (by default) retains the
// previous snapshot plus the records between the two generations, so a
// recovery that finds the newest snapshot rotten can fall back one
// generation and replay a longer tail instead of losing everything.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "proto/wire.h"
#include "util/error.h"

namespace cosched {

/// CRC-32 (IEEE 802.3 polynomial, reflected) of a byte span.  The kernel
/// follows the CPU and the span length: on x86-64 CPUs that report
/// PCLMULQDQ and SSE4.1 (checked once), a span of 64 bytes or more is
/// folded by carry-less multiplication over its largest multiple of 16
/// bytes and the table kernel finishes the tail; shorter spans, other
/// architectures and older CPUs run crc32_portable alone.  Every span gets
/// the same value either way, so no frame or snapshot byte depends on the
/// host.
std::uint32_t crc32(std::span<const std::uint8_t> data);

/// The same CRC-32 by the portable slice-by-8 table kernel alone: the path
/// crc32 takes wherever it does not fold, and the reference the fold must
/// match (tests check both kernels on every host).
std::uint32_t crc32_portable(std::span<const std::uint8_t> data);

/// v2 frame magic ("JLF2" on disk, read as a little-endian u32).
inline constexpr std::uint32_t kJournalMagicV2 = 0x32464c4au;

/// The durable medium failed to persist bytes (disk full).  Journal::append
/// swallows this into a sticky no_space() flag so a mutation path is never
/// torn apart mid-flight; the owner reacts at the commit boundary
/// (emergency compaction, then degrade-to-memory).
class JournalNoSpace : public Error {
 public:
  using Error::Error;
};

/// The durable medium failed to *read* back (transient medium error).
/// Distinct from Error so recovery paths can retry reads without masking
/// hard failures.
class JournalIoError : public Error {
 public:
  using Error::Error;
};

/// Record kinds.  Values are wire format — append only, never renumber.
enum class JournalRecordKind : std::uint8_t {
  kSnapshot = 0,      ///< full Cluster+Scheduler state (compaction point)
  kIncarnation = 1,   ///< daemon incarnation number after (re)start
  kExpected = 2,      ///< register_expected() of a paired job
  kSubmit = 3,        ///< job entered the queue
  kReady = 4,         ///< scheduler first selected the job (first_ready set)
  kStart = 5,         ///< job started (queued or holding origin)
  kHold = 6,          ///< job holds its assigned nodes
  kHoldRelease = 7,   ///< forced release (deadlock breaker)
  kYield = 8,         ///< job yielded its turn
  kFinish = 9,        ///< job completed
  kKill = 10,         ///< job killed (fault injection)
  kIterate = 11,      ///< scheduling iteration ran (clears demotions)
  kTickArmed = 12,    ///< hold-release tick armed at absolute time
  kTickFired = 13,    ///< hold-release tick fired
  kIterArmed = 14,    ///< coalesced iteration request armed
  kPeriodicArmed = 15,///< periodic iteration timer armed at absolute time
  kDegraded = 16,     ///< decision path saw transport faults (§IV-C rule)
  kDedup = 17,        ///< RPC dedup verdict (exactly-once cache entry)
  kLeaseGrant = 18,   ///< hold lease granted {job, peer, expiry, token}
  kLeaseRenew = 19,   ///< lease renewed by peer-liveness evidence
  kLeaseExpire = 20,  ///< lease expired (detector confirmed / no renewal)
  kLeaseFence = 21,   ///< fencing epoch advanced (stale tokens invalidated)
  kHeartbeat = 22,    ///< heartbeat round ran; per-peer ack + payloads
  kLivenessArmed = 23,///< heartbeat/lease-expiry timer armed at absolute time
  kGangPrepare = 24,  ///< gang member prepared (fenced leased hold placed)
  kGangCommit = 25,   ///< gang costart committed (all members started)
  kGangAbort = 26,    ///< gang prepare round aborted (holds released)
  kGangVictim = 27,   ///< deadlock victim yielded; re-prepare backoff armed
};

const char* to_string(JournalRecordKind k);

struct JournalRecord {
  std::uint64_t seq = 0;
  JournalRecordKind kind = JournalRecordKind::kSnapshot;
  std::vector<std::uint8_t> payload;
  /// Frame format the record was read from (or will be written as): 1 or 2.
  std::uint8_t version = 2;
};

/// Appends one v2 frame (magic + header CRC) around seq/kind/payload to
/// `out`.  The length and both CRCs are filled in place, so appending into
/// a reused buffer allocates nothing once it has grown to the frame size.
void encode_frame(std::vector<std::uint8_t>& out, std::uint64_t seq,
                  JournalRecordKind kind,
                  std::span<const std::uint8_t> payload);

/// The same frame as a vector of its own.
std::vector<std::uint8_t> encode_frame(std::uint64_t seq,
                                       JournalRecordKind kind,
                                       std::span<const std::uint8_t> payload);

/// Snapshot envelope (v2 snapshot payloads): generation number + state CRC
/// so recovery can verify a snapshot *before* applying it and fall back a
/// generation when the newest one rotted.
std::vector<std::uint8_t> make_snapshot_payload(
    std::uint64_t generation, std::span<const std::uint8_t> state);

/// Decoded view of a snapshot record's payload.  v1 snapshot records carry
/// the raw state (generation 0, checksum trivially ok — nothing to verify).
struct SnapshotView {
  std::uint64_t generation = 0;
  bool checksum_ok = true;
  std::span<const std::uint8_t> state;
};

/// Parses a kSnapshot record's payload per its frame version.  The view's
/// `state` aliases `rec.payload` — the record must outlive the view.
SnapshotView parse_snapshot_payload(const JournalRecord& rec);

/// Durable byte store under a journal.  append() may buffer; commit() makes
/// everything appended so far durable (the group-commit fsync point).
class JournalSink {
 public:
  virtual ~JournalSink() = default;
  virtual void append(std::span<const std::uint8_t> frame) = 0;
  virtual void commit() = 0;
  /// Atomically replaces the durable contents (compaction rewrite).
  virtual void reset(std::vector<std::uint8_t> contents) = 0;
  /// The bytes that would survive a crash right now (committed only).
  /// Throws JournalIoError when the medium cannot be read back.
  virtual std::vector<std::uint8_t> contents() const = 0;
};

/// In-memory sink modeling an fsync boundary: one buffer holds every
/// appended byte, and a commit mark splits it into the durable prefix and
/// the uncommitted rest.  commit() moves the mark to the end, so it copies
/// nothing; contents() returns only the bytes before the mark.  This is
/// what the kill-anywhere harness "crashes": uncommitted bytes vanish,
/// exactly like a page cache on power loss.
class MemoryJournalSink final : public JournalSink {
 public:
  void append(std::span<const std::uint8_t> frame) override {
    bytes_.insert(bytes_.end(), frame.begin(), frame.end());
  }
  void commit() override { committed_ = bytes_.size(); }
  /// The new image is durable whole; whatever lay past the mark is gone.
  void reset(std::vector<std::uint8_t> contents) override {
    bytes_ = std::move(contents);
    committed_ = bytes_.size();
  }
  std::vector<std::uint8_t> contents() const override {
    return {bytes_.begin(),
            bytes_.begin() + static_cast<std::ptrdiff_t>(committed_)};
  }

  std::size_t durable_bytes() const { return committed_; }
  std::size_t buffered_bytes() const { return bytes_.size() - committed_; }

 private:
  std::vector<std::uint8_t> bytes_;
  std::size_t committed_ = 0;  ///< the commit mark: bytes_[0, committed_)
};

/// File-backed sink for the live daemons: append() writes to the file,
/// commit() flushes and fsyncs once per batch (group commit), reset()
/// rewrites via a temp file + rename (with the parent directory fsynced) so
/// compaction is crash-atomic.  ENOSPC surfaces as JournalNoSpace; read
/// failures surface as JournalIoError — never as a silently short image.
class FileJournalSink final : public JournalSink {
 public:
  /// Opens (creating if absent) `path` for appending.  Throws Error on
  /// failure.
  explicit FileJournalSink(std::string path);
  ~FileJournalSink() override;

  void append(std::span<const std::uint8_t> frame) override;
  void commit() override;
  void reset(std::vector<std::uint8_t> contents) override;
  std::vector<std::uint8_t> contents() const override;

  const std::string& path() const { return path_; }

 private:
  std::string path_;
  int fd_ = -1;
};

/// Write-ahead journal: frames records over a sink with group commit,
/// monotone sequence numbers, compaction, and storage-fault degradation.
class Journal {
 public:
  explicit Journal(std::unique_ptr<JournalSink> sink);

  /// Frames and appends one record (buffered until commit()).  Returns the
  /// record's sequence number.  A JournalNoSpace from the sink is absorbed
  /// into the sticky no_space() flag (the sequence number is still consumed,
  /// so the dropped record shows up as a detectable hole rather than a
  /// silent splice) — the owner reacts at its commit boundary.
  std::uint64_t append(JournalRecordKind kind,
                       std::span<const std::uint8_t> payload);

  /// Makes all appended records durable (one sink commit per batch) and
  /// fires the on_commit hook.  No-op if nothing was appended since the
  /// last commit.
  void commit();

  /// Hook invoked after each effective commit with the highest durable
  /// sequence number.  Used by the kill-anywhere harness as its crash
  /// trigger.
  void set_on_commit(std::function<void(std::uint64_t)> fn) {
    on_commit_ = std::move(fn);
  }

  /// Compaction: rewrites the journal around a fresh generation-numbered,
  /// checksummed snapshot.  With `retain_previous` (the default) the new
  /// image keeps the previous snapshot and every intact record after it —
  /// the fallback generation — followed by the new snapshot.  Every
  /// retained frame's header and body CRCs are verified first; intact v2
  /// frames are then copied verbatim and only v1 frames are re-framed (as
  /// v2), so rot that crept in between them is scrubbed either way.  An
  /// image with no intact snapshot keeps nothing.  The walk starts at the
  /// snapshot frame the previous compact() wrote when it is still intact
  /// there with its seq, and at byte 0 otherwise; either way the image is
  /// the same.  The kept frames are read back from the sink, so while
  /// appended records are uncommitted it refuses (InvariantError): commit()
  /// first.
  /// With retain_previous = false the image collapses to the single new
  /// snapshot frame (initial attach, emergency ENOSPC compaction), whose
  /// state covers any uncommitted record it drops.
  /// Durable on return.  Sequence numbers keep counting.
  void compact(std::span<const std::uint8_t> snapshot_payload,
               bool retain_previous = true);

  /// Crash-restart over the same sink: drops any uncommitted (buffered)
  /// bytes, salvage-scans the durable image, and re-syncs the sequence
  /// counters to the highest intact record so new appends continue the same
  /// journal (never reusing a sequence number, even past a corrupt region).
  void reopen();

  /// Swaps the sink for an in-memory one seeded with whatever durable bytes
  /// are still readable — the ENOSPC last resort: journaling continues (so
  /// in-process recovery still works) but durability is lost until an
  /// operator intervenes.  Clears no_space().
  void degrade_to_memory();
  bool degraded() const { return degraded_; }

  /// Sticky flag: some append was dropped by the sink for lack of space
  /// since the last compact()/degrade_to_memory()/reopen().
  bool no_space() const { return no_space_; }

  /// Generation number of the newest snapshot written by compact().
  std::uint64_t snapshot_generation() const { return snapshot_generation_; }

  /// Records appended since the last compact() (or construction).
  std::uint64_t records_since_compaction() const {
    return records_since_compaction_;
  }

  std::uint64_t next_seq() const { return next_seq_; }
  std::uint64_t last_committed_seq() const { return last_committed_seq_; }

  JournalSink& sink() { return *sink_; }
  const JournalSink& sink() const { return *sink_; }

 private:
  std::unique_ptr<JournalSink> sink_;
  /// append()'s frame buffer, reused so a warm append allocates nothing.
  std::vector<std::uint8_t> frame_;
  std::function<void(std::uint64_t)> on_commit_;
  std::uint64_t next_seq_ = 1;
  std::uint64_t last_appended_seq_ = 0;
  std::uint64_t last_committed_seq_ = 0;
  std::uint64_t records_since_compaction_ = 0;
  std::uint64_t snapshot_generation_ = 0;
  /// Where the snapshot frame the last compact() wrote starts in the image,
  /// and its seq (0: none written), so the next compact() walks from it.
  std::size_t last_snapshot_offset_ = 0;
  std::uint64_t last_snapshot_seq_ = 0;
  bool dirty_ = false;
  bool no_space_ = false;
  bool degraded_ = false;
};

/// Result of scanning a journal byte image (strict torn-tail semantics).
struct JournalReplay {
  std::vector<JournalRecord> records;
  /// True when the scan stopped at a torn/corrupt frame before the end of
  /// the buffer (the torn-tail rule fired).
  bool tail_torn = false;
  /// Bytes of intact frames consumed.
  std::size_t bytes_scanned = 0;
};

/// Decodes every intact frame from `bytes`, stopping (not throwing) at the
/// first torn or corrupt one.  v1 and v2 frames are detected per frame.
JournalReplay read_journal(std::span<const std::uint8_t> bytes);

/// One unreadable byte range found by salvage_scan.
struct CorruptRegion {
  std::size_t offset = 0;  ///< first bad byte
  std::size_t length = 0;  ///< bytes skipped to the next intact frame (or end)
  std::string reason;      ///< e.g. "body CRC mismatch", "rotten header"
};

/// Result of a salvage scan: every intact frame in stream order, plus an
/// exact account of what could not be read — the zero-silent-loss contract
/// is that records are either here or counted below, never quietly gone.
struct SalvageReport {
  std::vector<JournalRecord> records;
  std::vector<CorruptRegion> corrupt_regions;
  std::size_t bytes_scanned = 0;       ///< total input bytes examined
  std::size_t bytes_skipped = 0;       ///< bytes inside corrupt regions
  /// The image ends in an incomplete frame (normal crash artifact, distinct
  /// from mid-log rot: nothing intact follows it).
  bool tail_torn = false;
  std::uint64_t seq_holes = 0;         ///< discontinuities in the seq stream
  std::uint64_t records_missing = 0;   ///< sequence numbers lost inside holes
  std::uint64_t duplicate_records = 0; ///< repeated/backwards sequence numbers
  bool clean() const {
    return corrupt_regions.empty() && !tail_torn && seq_holes == 0 &&
           duplicate_records == 0;
  }
};

/// Decodes every intact frame from `bytes`, resyncing on the v2 magic after
/// a bad region instead of stopping (v1 regions cannot be resynced past —
/// they carry no magic — so rot inside a pure-v1 image still truncates).
/// Never throws; every unreadable byte is attributed to a corrupt region or
/// the torn tail.
SalvageReport salvage_scan(std::span<const std::uint8_t> bytes);

}  // namespace cosched
