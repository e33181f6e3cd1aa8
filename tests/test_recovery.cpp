// Crash consistency: journal framing, snapshot/restore, kill-anywhere
// recovery, and exactly-once RPC semantics (docs/RECOVERY.md).
#include "core/dedup_journal.h"
#include "core/journal.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <limits>
#include <memory>
#include <mutex>
#include <set>
#include <span>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "core_test_util.h"
#include "net/rpc.h"
#include "proto/durable.h"
#include "util/error.h"
#include "util/rng.h"
#include "workload/pairing.h"
#include "workload/synth.h"

namespace cosched {
namespace {

using testutil::find_job;
using testutil::job;
using testutil::two_domains;

// -- journal framing ------------------------------------------------------

std::vector<std::uint8_t> payload_of(std::initializer_list<int> bytes) {
  std::vector<std::uint8_t> p;
  for (int b : bytes) p.push_back(static_cast<std::uint8_t>(b));
  return p;
}

/// CRC-32 one bit at a time over the reflected polynomial 0xEDB88320: the
/// reference both crc32 kernels must agree with.
std::uint32_t bitwise_crc32(std::span<const std::uint8_t> data) {
  std::uint32_t c = 0xffffffffu;
  for (std::uint8_t b : data) {
    c ^= b;
    for (int k = 0; k < 8; ++k)
      c = (c & 1) ? 0xedb88320u ^ (c >> 1) : c >> 1;
  }
  return c ^ 0xffffffffu;
}

TEST(Journal, Crc32MatchesKnownAnswersAndABitwiseReference) {
  const auto* check = reinterpret_cast<const std::uint8_t*>("123456789");
  EXPECT_EQ(crc32({check, 9}), 0xcbf43926u);
  EXPECT_EQ(crc32_portable({check, 9}), 0xcbf43926u);
  EXPECT_EQ(crc32({}), 0u);
  EXPECT_EQ(crc32_portable({}), 0u);

  std::vector<std::uint8_t> buf((1u << 20) + 13 + 15);
  std::uint32_t x = 12345;
  for (std::uint8_t& b : buf) {
    x = x * 1664525u + 1013904223u;
    b = static_cast<std::uint8_t>(x >> 24);
  }
  const auto expect_both = [&](std::size_t offset, std::size_t length) {
    const auto s = std::span<const std::uint8_t>(buf).subspan(offset, length);
    const std::uint32_t want = bitwise_crc32(s);
    EXPECT_EQ(crc32(s), want) << "offset " << offset << " length " << length;
    EXPECT_EQ(crc32_portable(s), want)
        << "offset " << offset << " length " << length;
  };
  // Lengths 0-320 at offsets 0-15 give every alignment, every count of
  // 64-byte fold blocks up to five, every remainder of 16-byte blocks and
  // every tail of the table kernel: its eight-byte loop, then its four-byte
  // step taken or not, then zero to three single bytes.
  for (std::size_t offset = 0; offset < 16; ++offset)
    for (std::size_t length = 0; length <= 320; ++length)
      expect_both(offset, length);
  expect_both(3, 4095);
  expect_both(0, 4096);
  expect_both(5, (1u << 20) + 13);
}

TEST(Journal, AppendCommitReadRoundTrip) {
  Journal j(std::make_unique<MemoryJournalSink>());
  const auto p1 = payload_of({1, 2, 3});
  const auto p2 = payload_of({});
  const auto p3 = payload_of({0xff, 0x00, 0x7f});
  EXPECT_EQ(j.append(JournalRecordKind::kSubmit, p1), 1u);
  EXPECT_EQ(j.append(JournalRecordKind::kStart, p2), 2u);
  EXPECT_EQ(j.append(JournalRecordKind::kFinish, p3), 3u);
  j.commit();
  EXPECT_EQ(j.last_committed_seq(), 3u);

  const JournalReplay rep = read_journal(j.sink().contents());
  EXPECT_FALSE(rep.tail_torn);
  ASSERT_EQ(rep.records.size(), 3u);
  EXPECT_EQ(rep.records[0].seq, 1u);
  EXPECT_EQ(rep.records[0].kind, JournalRecordKind::kSubmit);
  EXPECT_EQ(rep.records[0].payload, p1);
  EXPECT_EQ(rep.records[1].payload, p2);
  EXPECT_EQ(rep.records[2].seq, 3u);
  EXPECT_EQ(rep.records[2].kind, JournalRecordKind::kFinish);
  EXPECT_EQ(rep.records[2].payload, p3);
  EXPECT_EQ(rep.bytes_scanned, j.sink().contents().size());
}

TEST(Journal, UncommittedAppendsAreNotDurable) {
  auto sink = std::make_unique<MemoryJournalSink>();
  MemoryJournalSink* raw = sink.get();
  Journal j(std::move(sink));
  j.append(JournalRecordKind::kSubmit, payload_of({1}));
  // A crash here loses the record: nothing reached the durable image.
  EXPECT_EQ(raw->durable_bytes(), 0u);
  EXPECT_GT(raw->buffered_bytes(), 0u);
  EXPECT_TRUE(read_journal(j.sink().contents()).records.empty());

  j.commit();
  EXPECT_EQ(raw->buffered_bytes(), 0u);
  EXPECT_EQ(read_journal(j.sink().contents()).records.size(), 1u);
}

TEST(Journal, TornTailDiscardsOnlyTheIncompleteFrame) {
  Journal j(std::make_unique<MemoryJournalSink>());
  j.append(JournalRecordKind::kSubmit, payload_of({1, 2}));
  j.append(JournalRecordKind::kStart, payload_of({3, 4}));
  j.append(JournalRecordKind::kFinish, payload_of({5, 6}));
  j.commit();

  std::vector<std::uint8_t> bytes = j.sink().contents();
  for (std::size_t cut = 1; cut <= 9; ++cut) {
    std::vector<std::uint8_t> torn(bytes.begin(), bytes.end() - cut);
    const JournalReplay rep = read_journal(torn);
    EXPECT_TRUE(rep.tail_torn) << "cut=" << cut;
    ASSERT_EQ(rep.records.size(), 2u) << "cut=" << cut;
    EXPECT_EQ(rep.records[1].seq, 2u);
  }
}

TEST(Journal, CorruptFrameStopsReplayAtTheCrc) {
  Journal j(std::make_unique<MemoryJournalSink>());
  j.append(JournalRecordKind::kSubmit, payload_of({1, 2, 3}));
  j.append(JournalRecordKind::kStart, payload_of({4, 5, 6}));
  j.commit();

  std::vector<std::uint8_t> bytes = j.sink().contents();
  // Locate frame 2 via frame 1's v2 body-length field (header byte 4) and
  // flip one of its body bytes.
  const std::uint32_t len1 = static_cast<std::uint32_t>(bytes[4]) |
                             (static_cast<std::uint32_t>(bytes[5]) << 8) |
                             (static_cast<std::uint32_t>(bytes[6]) << 16) |
                             (static_cast<std::uint32_t>(bytes[7]) << 24);
  const std::size_t frame2 = 16 + len1;
  ASSERT_LT(frame2 + 16, bytes.size());
  bytes[frame2 + 16] ^= 0x40;

  const JournalReplay rep = read_journal(bytes);
  EXPECT_TRUE(rep.tail_torn);
  ASSERT_EQ(rep.records.size(), 1u);
  EXPECT_EQ(rep.records[0].seq, 1u);
}

TEST(Journal, CompactionKeepsOneSnapshotAndSequenceContinuity) {
  Journal j(std::make_unique<MemoryJournalSink>());
  for (int i = 0; i < 5; ++i)
    j.append(JournalRecordKind::kIterate, payload_of({i}));
  j.commit();
  EXPECT_EQ(j.records_since_compaction(), 5u);

  const auto snap = payload_of({9, 9, 9});
  j.compact(snap);
  EXPECT_EQ(j.records_since_compaction(), 0u);

  const JournalReplay rep = read_journal(j.sink().contents());
  EXPECT_FALSE(rep.tail_torn);
  ASSERT_EQ(rep.records.size(), 1u);
  EXPECT_EQ(rep.records[0].kind, JournalRecordKind::kSnapshot);
  EXPECT_GT(rep.records[0].seq, 5u);
  // The payload travels in a generation-numbered, checksummed envelope.
  const SnapshotView view = parse_snapshot_payload(rep.records[0]);
  EXPECT_EQ(view.generation, 1u);
  EXPECT_TRUE(view.checksum_ok);
  EXPECT_EQ(std::vector<std::uint8_t>(view.state.begin(), view.state.end()),
            snap);

  // Sequence numbers keep counting across the rewrite.
  const std::uint64_t next = j.append(JournalRecordKind::kFinish, snap);
  EXPECT_GT(next, rep.records[0].seq);
}

TEST(Journal, RetainingCompactionRefusesUncommittedRecords) {
  // A retaining compaction rebuilds the image from the sink's durable
  // bytes, so it would splice out records appended but not committed.
  Journal j(std::make_unique<MemoryJournalSink>());
  const auto snap = payload_of({9});
  j.append(JournalRecordKind::kIterate, payload_of({1}));
  const std::uint64_t next = j.next_seq();
  EXPECT_THROW(j.compact(snap), InvariantError);
  EXPECT_EQ(j.next_seq(), next);  // refused before any change
  // Collapsing to the one new snapshot (initial attach, the ENOSPC ladder)
  // keeps nothing of the old image, so it may drop the uncommitted tail.
  EXPECT_NO_THROW(j.compact(snap, /*retain_previous=*/false));

  j.append(JournalRecordKind::kIterate, payload_of({2}));
  EXPECT_THROW(j.compact(snap), InvariantError);
  j.commit();
  EXPECT_NO_THROW(j.compact(snap));
  EXPECT_EQ(read_journal(j.sink().contents()).records.size(), 3u);
}

TEST(Journal, ReopenDropsBufferedBytesAndResyncsCounters) {
  Journal j(std::make_unique<MemoryJournalSink>());
  j.append(JournalRecordKind::kSubmit, payload_of({1}));
  j.append(JournalRecordKind::kStart, payload_of({2}));
  j.commit();
  j.append(JournalRecordKind::kFinish, payload_of({3}));  // never committed

  j.reopen();  // crash-restart: the buffered finish record vanishes
  EXPECT_EQ(j.last_committed_seq(), 2u);
  EXPECT_EQ(j.next_seq(), 3u);

  EXPECT_EQ(j.append(JournalRecordKind::kKill, payload_of({4})), 3u);
  j.commit();
  const JournalReplay rep = read_journal(j.sink().contents());
  ASSERT_EQ(rep.records.size(), 3u);
  EXPECT_EQ(rep.records[2].kind, JournalRecordKind::kKill);
  EXPECT_EQ(rep.records[2].seq, 3u);
}

TEST(Journal, FileSinkSurvivesReopenFromDisk) {
  const std::string path = ::testing::TempDir() + "cosched_journal_test.wal";
  std::remove(path.c_str());

  {
    Journal j(std::make_unique<FileJournalSink>(path));
    j.append(JournalRecordKind::kSubmit, payload_of({1, 2}));
    j.append(JournalRecordKind::kStart, payload_of({3}));
    j.commit();
  }
  {
    // A different process reopening the same file sees both records.
    FileJournalSink sink(path);
    const JournalReplay rep = read_journal(sink.contents());
    EXPECT_FALSE(rep.tail_torn);
    ASSERT_EQ(rep.records.size(), 2u);
    EXPECT_EQ(rep.records[1].kind, JournalRecordKind::kStart);
  }
  {
    // Compaction rewrites crash-atomically (temp file + rename).
    Journal j(std::make_unique<FileJournalSink>(path));
    j.reopen();
    j.compact(payload_of({7}));
    const JournalReplay rep = read_journal(j.sink().contents());
    ASSERT_EQ(rep.records.size(), 1u);
    EXPECT_EQ(rep.records[0].kind, JournalRecordKind::kSnapshot);
  }
  std::remove(path.c_str());
}

TEST(Journal, FileSinkRenameFailureRemovesTheTempFile) {
  namespace fs = std::filesystem;
  const fs::path path =
      fs::path(::testing::TempDir()) / "cosched_journal_rename_test.wal";
  const fs::path tmp = path.string() + ".compact";
  fs::remove_all(path);
  fs::remove(tmp);

  FileJournalSink sink(path.string());
  // Put a non-empty directory where the journal file was: the compaction's
  // rename of the temp file onto it fails (EISDIR).
  fs::remove(path);
  fs::create_directory(path);
  std::ofstream(path / "occupant") << "x";

  EXPECT_THROW(sink.reset(payload_of({1, 2, 3})), Error);
  EXPECT_FALSE(fs::exists(tmp)) << "failed compaction left " << tmp;
  fs::remove_all(path);
  fs::remove(tmp);
}

// -- kill-anywhere recovery ----------------------------------------------

struct Workload {
  std::vector<DomainSpec> specs;
  std::vector<Trace> traces;
};

/// Small deterministic two-domain workload that exercises holds, forced
/// releases (15-minute budget), yields, and plain FCFS backfill pressure.
Workload crash_workload(SchemeCombo combo) {
  Workload w;
  w.specs = two_domains(combo, /*release=*/15 * kMinute);
  Trace a, b;
  // Fillers stagger the domains so each paired job becomes ready while its
  // mate is still blocked: the early side holds or yields.
  a.add(job(1, 0, 30 * kMinute, 80));
  b.add(job(10, 0, 50 * kMinute, 90));
  a.add(job(2, 10 * kMinute, kHour, 50, 7));
  b.add(job(20, 5 * kMinute, kHour, 60, 7));
  a.add(job(3, 20 * kMinute, 40 * kMinute, 30));
  b.add(job(30, 25 * kMinute, 30 * kMinute, 50, 8));
  a.add(job(4, 30 * kMinute, 30 * kMinute, 40, 8));
  b.add(job(40, 40 * kMinute, 20 * kMinute, 20));
  w.traces = {a, b};
  return w;
}

struct Baseline {
  std::uint64_t fp = 0;
  Time end_time = 0;
  std::uint64_t last_seq[2] = {0, 0};
};

Baseline run_baseline(SchemeCombo combo, std::uint64_t compact_every = 0) {
  Workload w = crash_workload(combo);
  CoupledSim sim(w.specs, w.traces);
  sim.enable_journaling(compact_every);
  const SimResult r = sim.run(10 * kDay);
  EXPECT_TRUE(r.completed) << combo.label;
  EXPECT_TRUE(r.invariants.ok()) << combo.label;
  Baseline base;
  base.fp = determinism_fingerprint(sim);
  base.end_time = r.end_time;
  base.last_seq[0] = sim.journal(0).last_committed_seq();
  base.last_seq[1] = sim.journal(1).last_committed_seq();
  return base;
}

TEST(KillAnywhere, JournalingItselfIsTransparent) {
  for (const SchemeCombo combo : {kHH, kHY, kYH, kYY}) {
    Workload w = crash_workload(combo);
    CoupledSim plain(w.specs, w.traces);
    const SimResult rp = plain.run(10 * kDay);
    ASSERT_TRUE(rp.completed) << combo.label;

    CoupledSim journaled(w.specs, w.traces);
    journaled.enable_journaling();
    const SimResult rj = journaled.run(10 * kDay);
    ASSERT_TRUE(rj.completed) << combo.label;

    EXPECT_EQ(determinism_fingerprint(plain),
              determinism_fingerprint(journaled))
        << combo.label;
    EXPECT_EQ(rp.end_time, rj.end_time) << combo.label;
    EXPECT_GT(journaled.journal(0).last_committed_seq(), 2u) << combo.label;
  }
}

TEST(KillAnywhere, CrashAtSeededPointsReplaysToIdenticalResults) {
  // The core robustness claim: crash either daemon at any committed journal
  // point, recover from the journal alone, and the completed simulation is
  // bit-identical to the uncrashed run.  6 points x 4 combos = 24 crashes.
  const double fractions[] = {0.10, 0.25, 0.45, 0.60, 0.80, 0.95};
  for (const SchemeCombo combo : {kHH, kHY, kYH, kYY}) {
    const Baseline base = run_baseline(combo);
    int which = 0;
    for (const double f : fractions) {
      const std::size_t domain = which++ % 2;
      const std::uint64_t at_seq = std::max<std::uint64_t>(
          2, static_cast<std::uint64_t>(
                 static_cast<double>(base.last_seq[domain]) * f));
      SCOPED_TRACE(std::string(combo.label) + " domain " +
                   std::to_string(domain) + " seq " + std::to_string(at_seq));

      Workload w = crash_workload(combo);
      CoupledSim sim(w.specs, w.traces);
      sim.enable_journaling();
      sim.schedule_crash_recovery(domain, at_seq);
      const SimResult r = sim.run(10 * kDay);

      ASSERT_TRUE(sim.last_recovery(domain).has_value());
      const Cluster::RecoveryStats& stats = *sim.last_recovery(domain);
      EXPECT_GE(stats.records_replayed, 1u);
      EXPECT_GT(stats.bytes_scanned, 0u);
      EXPECT_EQ(stats.incarnation, 2u);
      EXPECT_EQ(sim.cluster(domain).incarnation(), 2u);

      ASSERT_TRUE(r.completed);
      EXPECT_TRUE(r.invariants.ok())
          << (r.invariants.violations.empty()
                  ? ""
                  : r.invariants.violations.front());
      EXPECT_EQ(determinism_fingerprint(sim), base.fp);
      EXPECT_EQ(r.end_time, base.end_time);
      for (std::size_t i = 0; i < 2; ++i)
        EXPECT_NO_THROW(sim.cluster(i).validate_indices()) << "domain " << i;
    }
  }
}

TEST(KillAnywhere, CrashAfterCompactionReplaysSnapshotPlusTail) {
  // With aggressive compaction the journal a crash recovers from is a
  // mid-run snapshot plus a short tail, not the full history.
  const Baseline base = run_baseline(kHH, /*compact_every=*/12);
  for (const std::uint64_t at_seq :
       {base.last_seq[0] / 3, 2 * base.last_seq[0] / 3}) {
    SCOPED_TRACE("seq " + std::to_string(at_seq));
    Workload w = crash_workload(kHH);
    CoupledSim sim(w.specs, w.traces);
    sim.enable_journaling(/*compact_every=*/12);
    sim.schedule_crash_recovery(0, std::max<std::uint64_t>(2, at_seq));
    const SimResult r = sim.run(10 * kDay);
    ASSERT_TRUE(sim.last_recovery(0).has_value());
    ASSERT_TRUE(r.completed);
    EXPECT_TRUE(r.invariants.ok());
    EXPECT_EQ(determinism_fingerprint(sim), base.fp);
    EXPECT_EQ(r.end_time, base.end_time);
  }
}

TEST(KillAnywhere, BothDomainsCanCrashInOneRun) {
  const Baseline base = run_baseline(kHY);
  Workload w = crash_workload(kHY);
  CoupledSim sim(w.specs, w.traces);
  sim.enable_journaling();
  sim.schedule_crash_recovery(0, base.last_seq[0] / 4);
  sim.schedule_crash_recovery(1, 3 * base.last_seq[1] / 4);
  const SimResult r = sim.run(10 * kDay);
  ASSERT_TRUE(sim.last_recovery(0).has_value());
  ASSERT_TRUE(sim.last_recovery(1).has_value());
  ASSERT_TRUE(r.completed);
  EXPECT_TRUE(r.invariants.ok());
  EXPECT_EQ(determinism_fingerprint(sim), base.fp);
  EXPECT_EQ(r.end_time, base.end_time);
}

// -- gang costart recovery -------------------------------------------------

/// Three-domain gang workload whose journal records the whole gang
/// lifecycle: a filler on the third machine forces abort + backoff rounds
/// for the first gang before it commits, and a second gang commits clean.
Workload gang_workload() {
  Workload w;
  w.specs.resize(3);
  for (int i = 0; i < 3; ++i) {
    std::string name = "g";
    name += std::to_string(i);
    w.specs[i].name = std::move(name);
    w.specs[i].capacity = 100;
    w.specs[i].policy = "fcfs";
    w.specs[i].cosched.scheme = Scheme::kYield;
    w.specs[i].cosched.hold_release_period = 20 * kMinute;
    w.specs[i].cosched.gang.two_phase = true;
  }
  Trace a, b, c;
  a.add(job(1, 0, kHour, 40, 7));
  b.add(job(10, 100, kHour, 40, 7));
  c.add(job(90, 0, 30 * kMinute, 80));  // blocks member 20's prepare
  c.add(job(20, 200, kHour, 40, 7));
  a.add(job(2, 40 * kMinute, kHour, 50, 8));
  b.add(job(21, 45 * kMinute, kHour, 50, 8));
  c.add(job(22, 50 * kMinute, kHour, 50, 8));
  w.traces = {a, b, c};
  return w;
}

TEST(GangRecovery, CrashAnywhereThroughGangLifecycleReplaysIdentically) {
  // Crash any of the three daemons at seeded points spanning the
  // prepare/abort/backoff/commit sequence; the journal replay must land on
  // the byte-identical outcome every time.
  Workload w = gang_workload();
  CoupledSim base_sim(w.specs, w.traces);
  base_sim.enable_journaling();
  const SimResult base = base_sim.run(10 * kDay);
  ASSERT_TRUE(base.completed);
  ASSERT_GE(base.gangs_aborted, 1u);
  ASSERT_GE(base.gangs_committed, 2u);
  ASSERT_EQ(base.invariants.gang_atomicity_violations, 0u);
  const std::uint64_t base_fp = determinism_fingerprint(base_sim);

  for (std::size_t domain = 0; domain < 3; ++domain) {
    const std::uint64_t last = base_sim.journal(domain).last_committed_seq();
    for (const double f : {0.2, 0.45, 0.7, 0.9}) {
      const std::uint64_t at_seq = std::max<std::uint64_t>(
          2, static_cast<std::uint64_t>(static_cast<double>(last) * f));
      SCOPED_TRACE("domain " + std::to_string(domain) + " seq " +
                   std::to_string(at_seq));
      Workload w2 = gang_workload();
      CoupledSim sim(w2.specs, w2.traces);
      sim.enable_journaling();
      sim.schedule_crash_recovery(domain, at_seq);
      const SimResult r = sim.run(10 * kDay);
      ASSERT_TRUE(sim.last_recovery(domain).has_value());
      ASSERT_TRUE(r.completed);
      EXPECT_TRUE(r.invariants.ok())
          << (r.invariants.violations.empty()
                  ? ""
                  : r.invariants.violations.front());
      EXPECT_EQ(r.invariants.gang_atomicity_violations, 0u);
      EXPECT_EQ(determinism_fingerprint(sim), base_fp);
      EXPECT_EQ(r.end_time, base.end_time);
      for (std::size_t i = 0; i < 3; ++i)
        EXPECT_NO_THROW(sim.cluster(i).validate_indices()) << "domain " << i;
    }
  }
}

// -- snapshot / restore ---------------------------------------------------

TEST(SnapshotRestore, RestoredStateReserializesByteIdentically) {
  Workload w = crash_workload(kHH);
  CoupledSim a(w.specs, w.traces);
  a.engine().run_until(35 * kMinute);
  WireWriter w1;
  a.snapshot(w1);

  CoupledSim b(w.specs, w.traces);
  WireReader r1(w1.bytes());
  b.restore(r1);
  WireWriter w2;
  b.snapshot(w2);
  EXPECT_EQ(w1.take(), w2.take());
}

TEST(SnapshotRestore, FreshSimResumesToIdenticalCompletion) {
  for (const SchemeCombo combo : {kHH, kYY}) {
    SCOPED_TRACE(combo.label);
    Workload w = crash_workload(combo);
    CoupledSim uninterrupted(w.specs, w.traces);
    const SimResult ru = uninterrupted.run(10 * kDay);
    ASSERT_TRUE(ru.completed);

    CoupledSim first(w.specs, w.traces);
    first.engine().run_until(35 * kMinute);
    WireWriter snap;
    first.snapshot(snap);

    // "Migrate" the simulation: a brand-new process image resumes from the
    // serialized state and must land on the same schedule.
    CoupledSim second(w.specs, w.traces);
    WireReader r(snap.bytes());
    second.restore(r);
    const SimResult rs = second.run(10 * kDay);
    ASSERT_TRUE(rs.completed);
    EXPECT_TRUE(rs.invariants.ok());
    EXPECT_EQ(determinism_fingerprint(second),
              determinism_fingerprint(uninterrupted));
    EXPECT_EQ(rs.end_time, ru.end_time);
  }
}

// -- lease recovery -------------------------------------------------------

/// Liveness-enabled variant: alpha's paired job holds (under a lease) for
/// ~11 minutes until its mate arrives, with heartbeat rounds renewing the
/// lease the whole time.
Workload lease_workload(SchemeCombo combo) {
  Workload w;
  w.specs = two_domains(combo);
  for (auto& s : w.specs) s.cosched.liveness.enabled = true;
  Trace a, b;
  a.add(job(1, 0, 30 * kMinute, 40));
  a.add(job(2, kMinute, kHour, 50, 7));  // ready at once; holds for its mate
  b.add(job(20, 12 * kMinute, kHour, 60, 7));
  a.add(job(3, 20 * kMinute, 40 * kMinute, 30));
  b.add(job(40, 25 * kMinute, 20 * kMinute, 20));
  w.traces = {a, b};
  return w;
}

TEST(LeaseRecovery, CrashBetweenLeaseGrantAndStartReplaysIdentically) {
  // The liveness acceptance scenario: crash the holding domain after the
  // lease-grant record committed but before the held job started; recovery
  // must replay the active lease (and the detector state feeding it) and
  // complete bit-identically to the uncrashed run.
  Workload w = lease_workload(kHH);
  CoupledSim base_sim(w.specs, w.traces);
  base_sim.enable_journaling();
  const SimResult rb = base_sim.run(10 * kDay);
  ASSERT_TRUE(rb.completed);
  ASSERT_GE(base_sim.cluster(0).lease_grants(), 1u);
  EXPECT_GT(base_sim.cluster(0).lease_renewals(), 0u);
  const std::uint64_t base_fp = determinism_fingerprint(base_sim);

  // Locate the first lease-grant record in alpha's journal; crashing at its
  // sequence number lands exactly in the grant-to-start window.
  const JournalReplay rep =
      read_journal(base_sim.journal(0).sink().contents());
  std::uint64_t grant_seq = 0;
  bool renew_journaled = false, heartbeat_journaled = false;
  for (const JournalRecord& rec : rep.records) {
    if (rec.kind == JournalRecordKind::kLeaseGrant && grant_seq == 0)
      grant_seq = rec.seq;
    renew_journaled |= rec.kind == JournalRecordKind::kLeaseRenew;
    heartbeat_journaled |= rec.kind == JournalRecordKind::kHeartbeat;
  }
  ASSERT_GT(grant_seq, 0u);
  EXPECT_TRUE(renew_journaled);
  EXPECT_TRUE(heartbeat_journaled);

  for (const std::uint64_t at_seq : {grant_seq, grant_seq + 2}) {
    SCOPED_TRACE("crash at seq " + std::to_string(at_seq));
    Workload w2 = lease_workload(kHH);
    CoupledSim sim(w2.specs, w2.traces);
    sim.enable_journaling();
    sim.schedule_crash_recovery(0, at_seq);
    const SimResult r = sim.run(10 * kDay);

    ASSERT_TRUE(sim.last_recovery(0).has_value());
    EXPECT_EQ(sim.cluster(0).incarnation(), 2u);
    ASSERT_TRUE(r.completed);
    EXPECT_TRUE(r.invariants.ok())
        << (r.invariants.violations.empty() ? ""
                                            : r.invariants.violations.front());
    EXPECT_EQ(determinism_fingerprint(sim), base_fp);
    EXPECT_EQ(r.end_time, rb.end_time);
    EXPECT_TRUE(sim.cluster(0).leases().empty());
  }
}

TEST(SnapshotRestore, SeededMidRunLivenessStatesReserializeByteIdentically) {
  // Property: snapshot() -> restore() -> snapshot() is byte-identical for
  // seeded mid-run states with the liveness layer active and a partition in
  // flight — detector windows, leases, fencing counters, and armed timers
  // all survive the codec exactly.
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    SynthParams p;
    p.span = 6 * kHour;
    p.offered_load = 0.7;
    p.seed = 100 + seed;
    Trace a = generate_trace(eureka_model(), p);
    p.seed = 200 + seed;
    Trace b = generate_trace(eureka_model(), p);
    for (auto& j : b.jobs()) j.id += 1000000;
    pair_by_proportion(a, b, 0.25, 7 + seed);

    auto specs = two_domains(kHH);
    for (auto& s : specs) s.cosched.liveness.enabled = true;
    auto build = [&] {
      auto sim = std::make_unique<CoupledSim>(specs,
                                              std::vector<Trace>{a, b});
      sim->add_one_way_partition(0, 1, kHour, 3 * kHour);
      return sim;
    };

    auto first = build();
    first->engine().run_until(kHour + static_cast<Time>(seed) * 20 * kMinute);
    WireWriter w1;
    first->snapshot(w1);

    auto second = build();
    WireReader r1(w1.bytes());
    second->restore(r1);
    WireWriter w2;
    second->snapshot(w2);
    EXPECT_EQ(w1.take(), w2.take());
  }
}

// -- journal format guard ---------------------------------------------------

std::uint64_t fnv1a(std::span<const std::uint8_t> bytes) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const std::uint8_t b : bytes) {
    h ^= b;
    h *= 0x100000001b3ULL;
  }
  return h;
}

/// A hold-hold day of synthetic jobs on two domains, a fifth of them
/// paired, with the liveness layer on.
Workload liveness_day() {
  SynthParams p;
  p.span = 1 * kDay;
  p.offered_load = 0.7;
  p.seed = 7;
  Trace a = generate_trace(eureka_model(), p);
  p.seed = 8;
  Trace b = generate_trace(eureka_model(), p);
  for (auto& j : b.jobs()) j.id += 1000000;
  pair_by_proportion(a, b, 0.2, 11);
  Workload w;
  w.specs = two_domains(kHH);
  for (auto& s : w.specs) s.cosched.liveness.enabled = true;
  w.traces = {a, b};
  return w;
}

TEST(JournalFormatGuard, FinalImagesMatchPinnedHashes) {
  // Pins every byte the journal writes, the way DeterminismGuard pins
  // outcomes: a change to the codec, the snapshot encoder or the framing
  // that claims to keep the on-disk format must leave both images as they
  // were.  A hold-hold day with liveness, request drops and a compaction
  // every 256 records writes snapshots of a growing history, the fallback
  // generation and the tail records between them.
  const Workload w = liveness_day();
  CoupledSim sim(w.specs, w.traces);
  FaultPlan plan;
  plan.seed = 21;
  plan.drop_probability = 0.02;
  sim.set_fault_plan_all(plan);
  sim.enable_journaling(/*compact_every=*/256);
  const SimResult r = sim.run(30 * kDay);
  ASSERT_TRUE(r.completed);
  EXPECT_TRUE(r.invariants.ok());

  // Recorded before the buffered codec and the snapshot id indexes.
  const std::uint64_t pinned[2] = {0xc36196b3f38fe223ULL,
                                   0x0fb4b233bfa27bd4ULL};
  for (std::size_t i = 0; i < 2; ++i) {
    const std::vector<std::uint8_t> image = sim.journal(i).sink().contents();
    EXPECT_GE(sim.journal(i).snapshot_generation(), 3u) << "domain " << i;
    EXPECT_EQ(fnv1a(image), pinned[i])
        << "domain " << i << " journal image (" << image.size()
        << " bytes) changed: 0x" << std::hex << fnv1a(image);
  }
}

/// The three-domain hold ring of test_gang.cpp: d0 holds g1 waiting on d1,
/// d1 holds g2 waiting on d2, d2 holds g3 waiting on d0.
Workload hold_ring() {
  Workload w;
  w.specs.resize(3);
  for (int i = 0; i < 3; ++i) {
    std::string name = "d";
    name += std::to_string(i);  // not "d" + ...: GCC 12's false -Wrestrict
    w.specs[i].name = std::move(name);
    w.specs[i].capacity = 6;
    w.specs[i].policy = "fcfs";
    w.specs[i].cosched.scheme = Scheme::kHold;
    w.specs[i].cosched.hold_release_period = 0;
    w.specs[i].cosched.gang.two_phase = true;
  }
  w.traces.resize(3);
  w.traces[0].add(job(1, 0, 600, 6, 1));
  w.traces[0].add(job(3, 10, 600, 6, 3));
  w.traces[1].add(job(2, 0, 600, 6, 2));
  w.traces[1].add(job(10, 10, 600, 6, 1));
  w.traces[2].add(job(30, 0, 600, 6, 3));
  w.traces[2].add(job(20, 10, 600, 6, 2));
  return w;
}

TEST(JournalFormatGuard, EveryRecordKindMatchesPinnedHashes) {
  // FinalImagesMatchPinnedHashes leaves eleven of the kinds the Cluster
  // writes out of every pinned byte.  These five runs journal the whole
  // history (no compaction) and between them write every kind but kDedup,
  // which the RPC layer's dedup journal writes.
  std::vector<std::uint64_t> hashes;
  std::set<JournalRecordKind> written;
  const auto pin = [&](CoupledSim& sim) {
    for (std::size_t i = 0; i < sim.size(); ++i) {
      const std::vector<std::uint8_t> image = sim.journal(i).sink().contents();
      hashes.push_back(fnv1a(image));
      for (const JournalRecord& rec : read_journal(image).records)
        written.insert(rec.kind);
    }
  };

  {  // gang rounds, a killed member and a recovered domain
    const Workload w = gang_workload();
    CoupledSim sim(w.specs, w.traces);
    sim.enable_journaling();
    sim.engine().schedule_at(10 * kMinute, EventPriority::kMessage,
                             [&sim] { sim.cluster(1).kill_job(10); });
    sim.schedule_crash_recovery(2, 20);
    ASSERT_TRUE(sim.run(10 * kDay).completed);
    pin(sim);
  }
  {  // a hold ring broken by victim orders
    const Workload w = hold_ring();
    CoupledSim sim(w.specs, w.traces);
    sim.enable_gang_resolution(5 * kMinute);
    sim.enable_journaling();
    ASSERT_TRUE(sim.run(30 * kDay).completed);
    pin(sim);
  }
  {  // periodic iterations, heartbeats and leases across a partition
    Workload w = liveness_day();
    for (DomainSpec& s : w.specs) s.sched.iteration_period = 10 * kMinute;
    CoupledSim sim(w.specs, w.traces);
    sim.add_partition(0, 1, kHour, 8 * kHour);
    sim.enable_journaling();
    const auto paired = std::ranges::find_if(
        w.traces[0].jobs(), [](const JobSpec& s) { return s.is_paired(); });
    ASSERT_NE(paired, w.traces[0].jobs().end());
    sim.cluster(0).register_expected(*paired);
    ASSERT_TRUE(sim.run(30 * kDay).completed);
    pin(sim);
  }
  {  // a lease expiry advancing the fencing epoch
    Workload w;
    w.specs = two_domains(kHH);
    for (DomainSpec& s : w.specs) {
      s.cosched.liveness.enabled = true;
      s.cosched.liveness.lease_duration = 2 * kMinute;
    }
    w.traces.resize(2);
    w.traces[0].add(job(1, 20 * kDay, 600, 10, 7));
    w.traces[1].add(job(1001, 60, 600, 10, 7));
    CoupledSim sim(w.specs, w.traces);
    sim.add_one_way_partition(1, 0, 90, 100 * kDay);
    sim.enable_journaling();
    sim.engine().run_until(20 * kMinute);
    ASSERT_GE(sim.cluster(1).lease_expiries(), 1u);
    pin(sim);
  }
  {  // yields and their retries
    const Workload w = crash_workload(kYY);
    CoupledSim sim(w.specs, w.traces);
    sim.enable_journaling();
    ASSERT_TRUE(sim.run(10 * kDay).completed);
    pin(sim);
  }

  // Every kind to_string names, which -Werror=switch makes every kind
  // apply_record replays.
  for (int k = 0; k <= 255; ++k) {
    const auto kind = static_cast<JournalRecordKind>(k);
    if (std::string_view(to_string(kind)) == "?") continue;
    if (kind == JournalRecordKind::kDedup) continue;
    EXPECT_TRUE(written.count(kind)) << to_string(kind) << " is never written";
  }
  // Recorded before every record kind got one apply.
  const std::vector<std::uint64_t> pinned = {
      0x3d9389133416a5c9ULL, 0x5d0bed3664a08b84ULL, 0x8105c1afd17d5740ULL,
      0xebbe6b77e8093919ULL, 0x3cd13d41ebf449f2ULL, 0x75eb2d2c1555666dULL,
      0x615e2ec62a51471cULL, 0x9bbdfcd5c24a1977ULL, 0xec19d1002eababbdULL,
      0xbcae406011bc5dfbULL, 0xda4b4f10700fb200ULL, 0x12f77ba98598560eULL};
  ASSERT_EQ(hashes.size(), pinned.size());
  for (std::size_t i = 0; i < hashes.size(); ++i)
    EXPECT_EQ(hashes[i], pinned[i])
        << "image " << i << " changed: 0x" << std::hex << hashes[i];
}

/// crash_workload(kYY) plus one think-time dependent per domain, submitted
/// while the job it waits for still runs.
Workload dependency_workload() {
  Workload w = crash_workload(kYY);
  JobSpec a = job(5, 5 * kMinute, 20 * kMinute, 10);
  a.after = 1;
  a.after_delay = 10 * kMinute;
  w.traces[0].add(a);
  JobSpec b = job(50, 2 * kMinute, 20 * kMinute, 10);
  b.after = 10;
  b.after_delay = 15 * kMinute;
  w.traces[1].add(b);
  return w;
}

TEST(JournalFormatGuard, SnapshotContainersMatchPinnedHashes) {
  // The snapshots in the images above leave several containers empty at
  // every point they are written, so those containers' encodings are
  // pinned nowhere else.  These instants hold them filled: think-time
  // dependents (both domains at 601 s), yield retries (alpha at 1801 s),
  // and, in a gang run whose coordinator is killed while replies are lost,
  // degraded-mode marks, a prepared member, a backoff deadline with its
  // attempt count (all at 301 s) and started gang members (1801 s).
  std::vector<std::uint64_t> hashes;
  const auto pin = [&hashes](CoupledSim& sim, Time t) {
    sim.engine().run_until(t);
    WireWriter w;
    sim.snapshot(w);
    hashes.push_back(fnv1a(w.bytes()));
  };
  {
    const Workload w = dependency_workload();
    CoupledSim sim(w.specs, w.traces);
    pin(sim, 601);
    pin(sim, 1801);
  }
  {
    const Workload w = gang_workload();
    CoupledSim sim(w.specs, w.traces);
    sim.engine().schedule_at(10 * kMinute, EventPriority::kMessage,
                             [&sim] { sim.cluster(0).kill_job(1); });
    FaultPlan plan;
    plan.seed = 11;
    plan.reply_drop_probability = 0.3;
    sim.set_fault_plan_all(plan);
    pin(sim, 301);
    EXPECT_FALSE(sim.cluster(0).gang_prepared_jobs().empty());
    pin(sim, 1801);
    EXPECT_FALSE(sim.cluster(2).gang_started_jobs().empty());
  }
  // Recorded before the snapshot fields were grouped by owner.
  const std::vector<std::uint64_t> pinned = {
      0x358453579095c205ULL, 0x1e6c8a5282daaf72ULL, 0x8511ba2d2a475eb8ULL,
      0xfffed9ee24b790b6ULL};
  ASSERT_EQ(hashes.size(), pinned.size());
  for (std::size_t i = 0; i < hashes.size(); ++i)
    EXPECT_EQ(hashes[i], pinned[i])
        << "snapshot " << i << " changed: 0x" << std::hex << hashes[i];
}

// -- replay equals live -----------------------------------------------------

/// A domain's snapshot split around the two fields a recovery does not
/// reproduce: the incarnation (bumped by design) and try_start_requests
/// (not journaled; see docs/RECOVERY.md).
struct ComparableSnapshot {
  std::uint64_t iterations_run = 0;
  std::vector<std::uint8_t> rest;
};

ComparableSnapshot comparable_snapshot(const Cluster& c) {
  WireWriter w;
  c.write_snapshot(w);
  const std::span<const std::uint8_t> bytes = w.bytes();
  WireReader r(bytes);
  r.get_u64();  // incarnation
  ComparableSnapshot s;
  s.iterations_run = r.get_u64();
  r.get_u64();  // try_start_requests
  s.rest.assign(bytes.end() - static_cast<std::ptrdiff_t>(r.remaining()),
                bytes.end());
  return s;
}

TEST(ReplayEqualsLive, RecoveredSnapshotMatchesTheLiveDomain) {
  // The live run is the reference: at sampled instants, every domain
  // recovered in process from its own journal must hold the state the live
  // domain holds.  Odd-second samples fall between events.  Compaction 0
  // replays the whole history; compaction 8 a snapshot plus a short tail.
  struct Case {
    std::string label;
    std::function<std::unique_ptr<CoupledSim>()> build;
    Time horizon;
    Duration step;
  };
  std::vector<Case> cases;
  for (const SchemeCombo combo : {kHH, kHY, kYH, kYY})
    cases.push_back({combo.label,
                     [combo] {
                       const Workload w = crash_workload(combo);
                       return std::make_unique<CoupledSim>(w.specs, w.traces);
                     },
                     4 * kHour, 182});
  cases.push_back({"gang kill",
                   [] {
                     const Workload w = gang_workload();
                     auto sim = std::make_unique<CoupledSim>(w.specs, w.traces);
                     CoupledSim* s = sim.get();
                     s->engine().schedule_at(
                         10 * kMinute, EventPriority::kMessage,
                         [s] { s->cluster(0).kill_job(1); });
                     return sim;
                   },
                   4 * kHour, 182});
  cases.push_back({"liveness day with drops",
                   [] {
                     const Workload w = liveness_day();
                     auto sim = std::make_unique<CoupledSim>(w.specs, w.traces);
                     FaultPlan plan;
                     plan.seed = 21;
                     plan.drop_probability = 0.02;
                     sim->set_fault_plan_all(plan);
                     return sim;
                   },
                   kDay, 2000});

  std::size_t compared = 0;
  std::vector<std::string> mismatches;
  for (const Case& c : cases) {
    for (const std::uint64_t compact_every : {0u, 8u}) {
      for (Time t = 1; t < c.horizon; t += c.step) {
        std::unique_ptr<CoupledSim> sim = c.build();
        sim->enable_journaling(compact_every);
        sim->engine().run_until(t);
        for (std::size_t d = 0; d < sim->size(); ++d) {
          Cluster& cluster = sim->cluster(d);
          const ComparableSnapshot live = comparable_snapshot(cluster);
          cluster.recover_from_journal(sim->journal(d));
          const ComparableSnapshot replayed = comparable_snapshot(cluster);
          ++compared;
          if (live.iterations_run == replayed.iterations_run &&
              live.rest == replayed.rest)
            continue;
          mismatches.push_back(
              c.label + ", compaction " + std::to_string(compact_every) +
              ", t=" + std::to_string(t) + ", domain " + std::to_string(d) +
              ": " + std::to_string(live.rest.size()) + " live bytes, " +
              std::to_string(replayed.rest.size()) + " replayed");
        }
      }
    }
  }
  EXPECT_EQ(compared, 1936u);
  EXPECT_TRUE(mismatches.empty())
      << mismatches.size() << " of " << compared
      << " recovered snapshots differ from the live domain; first: "
      << mismatches.front();
}

// -- replayed record bounds ---------------------------------------------------

TEST(ReplayBounds, AStartNearTheTimeLimitThrowsParseError) {
  // A CRC-valid kStart for a queued job whose time is near INT64_MAX, on
  // nodes that are free: its running-end key (t + walltime) would overflow
  // during replay, so the decoder rejects it first.
  Workload w = crash_workload(kYY);
  CoupledSim sim(w.specs, w.traces);
  sim.enable_journaling();
  sim.engine().run_until(10 * kMinute);
  const std::vector<JobId> queued = sim.cluster(0).scheduler().queued_ids();
  ASSERT_FALSE(queued.empty());
  WireWriter payload;
  put(payload, queued.front());
  put(payload, Time{std::numeric_limits<Time>::max() - 1});  // t
  put(payload, Time{10 * kMinute});                          // first_ready
  put(payload, sim.cluster(0).scheduler().pool().free());    // allocated
  put(payload, false);                                       // from_hold
  put(payload, false);                                       // was_unsync
  Journal& journal = sim.journal(0);
  journal.append(JournalRecordKind::kStart, payload.bytes());
  journal.commit();
  EXPECT_THROW(sim.cluster(0).recover_from_journal(journal), ParseError);
}

// -- yield retries in firing order -------------------------------------------

/// Jobs 5, 4 and 3 on alpha become ready together at t=1000, when job 1
/// frees the machine, and yield in FCFS order (not id order): their mates
/// reach beta at t=2000.  A second iteration at t=1000 makes each yield
/// again, so every retry at t=1300 is armed twice.
std::unique_ptr<CoupledSim> same_instant_yields() {
  Workload w;
  w.specs = two_domains(kYY);
  Trace a, b;
  a.add(job(1, 0, 1000, 100));
  for (const JobId id : {5, 4, 3}) {
    a.add(job(id, 6 - id, 600, 30, id));
    b.add(job(10 + id, 2000, 600, 10, id));
  }
  w.traces = {a, b};
  auto sim = std::make_unique<CoupledSim>(w.specs, w.traces);
  CoupledSim* s = sim.get();
  s->engine().schedule_at(1000, EventPriority::kStats,
                          [s] { s->cluster(0).request_iteration(); });
  s->enable_journaling();
  return sim;
}

TEST(YieldRetries, SameInstantRetriesSurviveACrashAtTheirInstant) {
  auto reference = same_instant_yields();
  ASSERT_TRUE(reference->run(10 * kDay).completed);
  const std::uint64_t fp = determinism_fingerprint(*reference);
  const Time at = 1000 + reference->cluster(0).config().yield_retry_period;
  ASSERT_EQ(at, 1300);

  // The snapshot holds each (time, id) once, in (time, id) order, although
  // the queue holds six entries in the order 5, 4, 3, 5, 4, 3.
  {
    auto sim = same_instant_yields();
    sim->engine().run_until(1000);
    sim->cluster(0).validate_indices();
    WireWriter expect;
    expect.put_u64(3);
    for (const JobId id : {3, 4, 5}) {
      expect.put_i64(at);
      expect.put_i64(id);
    }
    const std::vector<std::uint8_t> section = expect.take();
    WireWriter snap;
    sim->cluster(0).write_snapshot(snap);
    const std::vector<std::uint8_t> bytes = snap.take();
    const auto found = std::ranges::search(bytes, section);
    ASSERT_FALSE(found.empty());
    EXPECT_TRUE(std::ranges::search(std::ranges::subrange(found.end(),
                                                          bytes.end()),
                                    section)
                    .empty());
  }

  // Recovered after the yield instant and after the retry instant: the
  // recovered domain equals the live one, every retry left has an armed
  // event, and the run ends as the uncrashed one.
  for (const Time t : {Time{1000}, at}) {
    SCOPED_TRACE("t=" + std::to_string(t));
    auto sim = same_instant_yields();
    sim->engine().run_until(t);
    Cluster& alpha = sim->cluster(0);
    const ComparableSnapshot live = comparable_snapshot(alpha);
    alpha.recover_from_journal(sim->journal(0));
    const ComparableSnapshot replayed = comparable_snapshot(alpha);
    EXPECT_EQ(live.iterations_run, replayed.iterations_run);
    EXPECT_EQ(live.rest, replayed.rest);
    alpha.validate_indices();
    ASSERT_TRUE(sim->run(10 * kDay).completed);
    EXPECT_EQ(determinism_fingerprint(*sim), fp);
  }

  // A crash between any two of the retry instant's events: the pre-crash
  // events still fire, the recovered entries are in (time, id) order with
  // re-armed twins, and the run still ends as the uncrashed one.
  int crash_points = 0;
  for (int k = 0;; ++k) {
    auto sim = same_instant_yields();
    sim->engine().run_until(at - 1);
    for (int i = 0; i < k; ++i) sim->engine().step();
    if (sim->engine().now() > at) break;  // every event at `at` ran
    SCOPED_TRACE("after " + std::to_string(k) + " events at t=1300");
    sim->cluster(0).recover_from_journal(sim->journal(0));
    sim->cluster(0).validate_indices();
    ASSERT_TRUE(sim->run(10 * kDay).completed);
    EXPECT_EQ(determinism_fingerprint(*sim), fp);
    ++crash_points;
  }
  EXPECT_GE(crash_points, 8);  // six retries and an iteration at t=1300
}

TEST(SnapshotIndexes, StaySortedThroughKillsRecoveryAndRestore) {
  // The ready index (every job that became ready) and the archive index
  // (every finished job) take ids out of order: jobs become ready in
  // priority order and end when they end, and the hourly kills below take
  // the highest live id.  A crash recovers domain 0 from a compacted journal
  // (kReady replayed over a snapshot), then a mid-run snapshot is restored
  // into a fresh sim.  Every index must equal its sorted keys throughout,
  // and both sims must finish alike.
  const Workload w = liveness_day();
  CoupledSim sim(w.specs, w.traces);
  sim.enable_journaling(/*compact_every=*/64);
  for (Time h = 1; h <= 10; ++h)
    sim.engine().schedule_at(h * kHour, EventPriority::kMessage, [&sim] {
      const std::vector<JobId> live =
          sim.cluster(0).scheduler().jobs().sorted_keys();
      if (!live.empty()) sim.cluster(0).kill_job(live.back());
    });
  sim.schedule_crash_recovery(0, 300);
  sim.engine().run_until(12 * kHour);
  ASSERT_TRUE(sim.last_recovery(0).has_value());
  for (std::size_t i = 0; i < 2; ++i)
    ASSERT_NO_THROW(sim.cluster(i).validate_indices()) << "domain " << i;

  WireWriter snap;
  sim.snapshot(snap);
  CoupledSim fresh(w.specs, w.traces);
  WireReader r(snap.bytes());
  fresh.restore(r);
  for (std::size_t i = 0; i < 2; ++i)
    ASSERT_NO_THROW(fresh.cluster(i).validate_indices()) << "domain " << i;

  ASSERT_TRUE(sim.run(30 * kDay).completed);
  ASSERT_TRUE(fresh.run(30 * kDay).completed);
  for (std::size_t i = 0; i < 2; ++i) {
    EXPECT_NO_THROW(sim.cluster(i).validate_indices()) << "domain " << i;
    EXPECT_NO_THROW(fresh.cluster(i).validate_indices()) << "domain " << i;
  }
  EXPECT_EQ(determinism_fingerprint(fresh), determinism_fingerprint(sim));
}

/// Scheduler::snapshot() encoded the way it was before the archive kept its
/// bytes: the live ids sorted, then archived().at(id) over the ascending
/// archive index.  The running-end index goes by walltime end, which is its
/// order when no two running jobs share an end.
std::vector<std::uint8_t> fresh_encoding(const Scheduler& s) {
  WireWriter w;
  put(w, s.pool().accounting());
  const std::vector<JobId> live = s.jobs().sorted_keys();
  std::vector<std::pair<Time, JobId>> ends;
  for (JobId id : live) {
    const RuntimeJob& job = s.jobs().at(id);
    if (job.state == JobState::kRunning)
      ends.emplace_back(job.start + job.spec.walltime, id);
  }
  w.put_u64(live.size());
  for (JobId id : live) put(w, s.jobs().at(id));
  std::vector<JobId> archived;
  s.for_each_job([&archived](JobId id, const RuntimeJob& job) {
    if (job.state == JobState::kFinished) archived.push_back(id);
  });
  w.put_u64(archived.size());
  for (JobId id : archived) put(w, s.archived().at(id));
  std::sort(ends.begin(), ends.end());
  w.put_u64(ends.size());
  for (const auto& [end, id] : ends) w.put_i64(id);
  return w.take();
}

TEST(EncodedArchive, EverySnapshotMatchesAFreshEncoding) {
  // A finished job is encoded once, on a scheduler's first snapshot or when
  // it finishes after that, and spliced in at its id's place.  Seeded
  // submits, starts, holds, finishes and kills end jobs out of id order.
  // Each scheduler takes its first snapshot at its own point (before any
  // finish, right after the first, or at random), more at random after
  // that, and restores one of them part way, then ends more jobs.  Every
  // snapshot must equal the fresh encoding.
  enum class First { kBeforeAnyFinish, kAfterTheFirstFinish, kAtRandom };
  int snapshots = 0, out_of_order = 0;
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    for (const First first : {First::kBeforeAnyFinish,
                              First::kAfterTheFirstFinish, First::kAtRandom}) {
      SCOPED_TRACE("seed " + std::to_string(seed) + " first snapshot " +
                   std::to_string(static_cast<int>(first)));
      Rng rng(seed);
      Scheduler s(64, make_policy("fcfs"));
      const RunJobHook hold_fourths = [](RuntimeJob& job) {
        return job.spec.id % 4 == 0 ? RunDecision::kHold : RunDecision::kStart;
      };
      const auto pick = [&rng, &s](JobState state) {
        std::vector<JobId> ids;
        for (JobId id : s.jobs().sorted_keys())
          if (s.jobs().at(id).state == state) ids.push_back(id);
        if (ids.empty()) return kNoJob;
        const auto last = static_cast<std::int64_t>(ids.size()) - 1;
        return ids[static_cast<std::size_t>(rng.uniform_int(0, last))];
      };
      bool snapped = false;
      std::vector<std::uint8_t> saved;
      const auto snapshot = [&] {
        WireWriter w;
        s.snapshot(w);
        std::vector<std::uint8_t> bytes = w.take();
        EXPECT_EQ(bytes, fresh_encoding(s));
        EXPECT_NO_THROW(s.validate_indices());
        snapped = true;
        ++snapshots;
        if (saved.empty() || rng.uniform() < 0.2) saved = bytes;
      };
      if (first == First::kBeforeAnyFinish) snapshot();
      JobId next_id = 1, last_ended = kNoJob;
      Time now = 0;
      for (int step = 0; step < 300; ++step) {
        if (step == 200) {
          ASSERT_FALSE(saved.empty());
          WireReader r(saved);
          s.restore(r);
          ASSERT_TRUE(r.exhausted());
        }
        now += rng.uniform_int(1, 5);
        const std::size_t finished = s.finished_count();
        JobId ended = kNoJob;
        switch (rng.uniform_int(0, 9)) {
          case 0:
          case 1:
          case 2: {
            // Walltimes far apart keep every running job's end distinct.
            JobSpec spec = testutil::job(next_id, now, 1'000'000 * next_id,
                                         rng.uniform_int(1, 16));
            ++next_id;
            s.submit(spec, now);
            break;
          }
          case 3:
          case 4: s.iterate(now, hold_fourths); break;
          case 5:
          case 6:
          case 7:
            if ((ended = pick(JobState::kRunning)) != kNoJob)
              s.finish(ended, now);
            break;
          case 8: {
            const JobState states[] = {JobState::kQueued, JobState::kHolding,
                                       JobState::kRunning};
            ended = pick(states[rng.uniform_int(0, 2)]);
            if (ended != kNoJob) s.kill(ended, now);
            break;
          }
          default:
            if (const JobId id = pick(JobState::kHolding); id != kNoJob)
              s.start_holding(id, now);
        }
        if (ended != kNoJob) {
          if (last_ended != kNoJob && ended < last_ended) ++out_of_order;
          last_ended = ended;
        }
        const bool first_finish = finished == 0 && s.finished_count() > 0;
        if ((!snapped && first == First::kAfterTheFirstFinish &&
             first_finish) ||
            ((snapped || first == First::kAtRandom) && rng.uniform() < 0.1))
          snapshot();
      }
      snapshot();
    }
  }
  EXPECT_GT(snapshots, 36 * 2);
  EXPECT_GT(out_of_order, 36);
}

TEST(AbortInvariants, ExceptionDuringRunStillReportsInvariants) {
  Workload w = crash_workload(kHH);
  CoupledSim sim(w.specs, w.traces);
  sim.engine().schedule_at(20 * kMinute, EventPriority::kMessage,
                           [] { throw Error("injected failure"); });
  EXPECT_THROW(sim.run(10 * kDay), Error);
  ASSERT_TRUE(sim.abort_invariants().has_value());
  EXPECT_TRUE(sim.abort_invariants()->ok())
      << (sim.abort_invariants()->violations.empty()
              ? ""
              : sim.abort_invariants()->violations.front());
  // A normal run clears the abort report again.
  CoupledSim clean(w.specs, w.traces);
  EXPECT_TRUE(clean.run(10 * kDay).completed);
  EXPECT_FALSE(clean.abort_invariants().has_value());
}

// -- exactly-once RPC -----------------------------------------------------

/// Logs every side-effecting call by its request type; each answers
/// `result`.
class CountingService : public CoschedService {
 public:
  std::vector<MsgType> ran;
  bool result = true;

  int calls(MsgType op) const {
    return static_cast<int>(std::count(ran.begin(), ran.end(), op));
  }

  std::optional<JobId> get_mate_job(GroupId, JobId) override {
    return std::nullopt;
  }
  MateStatus get_mate_status(JobId) override { return MateStatus::kQueuing; }
  bool try_start_mate(JobId) override {
    return run(MsgType::kTryStartMateReq);
  }
  bool start_job(JobId) override { return run(MsgType::kStartJobReq); }
  bool gang_prepare(JobId, GroupId) override {
    return run(MsgType::kGangPrepareReq);
  }
  bool gang_commit(JobId, GroupId) override {
    return run(MsgType::kGangCommitReq);
  }
  bool gang_abort(JobId, GroupId) override {
    return run(MsgType::kGangAbortReq);
  }
  bool gang_victim(JobId, GroupId) override {
    return run(MsgType::kGangVictimReq);
  }

 private:
  bool run(MsgType op) {
    ran.push_back(op);
    return result;
  }
};

constexpr std::uint64_t kClientInc = (1ull << 32) | 1;

TEST(ExactlyOnce, RetriedTryStartMateNeverDoubleStarts) {
  CountingService service;
  RpcDedup dedup;
  ServiceDispatcher d(service, DispatcherConfig{/*incarnation=*/2, &dedup});

  Message req = make_try_start_mate_req(/*rid=*/5, /*mate=*/30);
  req.incarnation = kClientInc;
  const auto bytes = req.encode();

  const Message first = Message::decode(d.dispatch(bytes));
  EXPECT_EQ(first.type, MsgType::kTryStartMateResp);
  EXPECT_TRUE(first.ok);
  EXPECT_EQ(first.incarnation, 2u);
  EXPECT_EQ(service.calls(MsgType::kTryStartMateReq), 1);

  // The retry must replay the recorded verdict, not re-run the scheduling
  // iteration — even though the service would now answer differently.
  service.result = false;
  const Message retry = Message::decode(d.dispatch(bytes));
  EXPECT_EQ(retry.type, MsgType::kTryStartMateResp);
  EXPECT_TRUE(retry.ok);
  EXPECT_EQ(service.calls(MsgType::kTryStartMateReq), 1);
  EXPECT_EQ(dedup.size(), 1u);

  // A *different* rid is a different logical call and does execute.
  Message other = make_try_start_mate_req(/*rid=*/6, /*mate=*/30);
  other.incarnation = kClientInc;
  EXPECT_FALSE(Message::decode(d.dispatch(other.encode())).ok);
  EXPECT_EQ(service.calls(MsgType::kTryStartMateReq), 2);
}

TEST(ExactlyOnce, RetriedStartJobReplaysVerdict) {
  CountingService service;
  RpcDedup dedup;
  ServiceDispatcher d(service, DispatcherConfig{7, &dedup});
  Message req = make_start_job_req(9, 40);
  req.incarnation = kClientInc;
  const auto bytes = req.encode();
  EXPECT_TRUE(Message::decode(d.dispatch(bytes)).ok);
  EXPECT_TRUE(Message::decode(d.dispatch(bytes)).ok);
  EXPECT_EQ(service.calls(MsgType::kStartJobReq), 1);
}

TEST(ExactlyOnce, LoopbackClientsWithoutIncarnationAreNotDeduped) {
  CountingService service;
  RpcDedup dedup;
  ServiceDispatcher d(service, DispatcherConfig{2, &dedup});
  const auto bytes = make_try_start_mate_req(5, 30).encode();  // incarnation 0
  (void)d.dispatch(bytes);
  (void)d.dispatch(bytes);
  EXPECT_EQ(service.calls(MsgType::kTryStartMateReq), 2);
  EXPECT_EQ(dedup.size(), 0u);
}

TEST(ExactlyOnce, DedupVerdictsPersistThroughJournalRestart) {
  // durable-before-reply: the persist hook journals each verdict; a
  // restarted daemon restores the cache and still answers retries from it.
  Journal journal(std::make_unique<MemoryJournalSink>());
  CountingService service;
  RpcDedup dedup;
  bind_dedup_journal(dedup, journal);
  ServiceDispatcher d(service, DispatcherConfig{2, &dedup});
  Message req = make_try_start_mate_req(11, 30);
  req.incarnation = kClientInc;
  EXPECT_TRUE(Message::decode(d.dispatch(req.encode())).ok);

  // "Restart": rebuild the cache from the journal alone.
  RpcDedup restored;
  for (const JournalRecord& rec : read_journal(journal.sink().contents())
                                      .records) {
    ASSERT_EQ(rec.kind, JournalRecordKind::kDedup);
    apply_dedup_record(restored, rec);
  }
  CountingService fresh_service;
  ServiceDispatcher d2(fresh_service, DispatcherConfig{3, &restored});
  EXPECT_TRUE(Message::decode(d2.dispatch(req.encode())).ok);
  // Answered from the cache.
  EXPECT_EQ(fresh_service.calls(MsgType::kTryStartMateReq), 0);
}

// Every side-effecting request goes through the dispatcher's one
// exactly-once path: the call runs once, its verdict reaches the persist
// hook (which journals it) before the reply, and a retry is answered from
// the cache.
struct SideEffectingRequest {
  const char* name;
  Message req;  // request id 5
};

void PrintTo(const SideEffectingRequest& r, std::ostream* os) {
  *os << r.name;
}

const SideEffectingRequest kSideEffecting[] = {
    {"TryStartMate", make_try_start_mate_req(/*rid=*/5, /*mate=*/30)},
    {"StartJob", make_start_job_req(5, 30)},
    {"GangPrepare", make_gang_prepare_req(5, 30, /*group=*/7)},
    {"GangCommit", make_gang_commit_req(5, 30, 7)},
    {"GangAbort", make_gang_abort_req(5, 30, 7)},
    {"GangVictim", make_gang_victim_req(5, 30, 7)},
};

class ExactlyOnceRequest
    : public ::testing::TestWithParam<SideEffectingRequest> {};

TEST_P(ExactlyOnceRequest, RunsOnceAndRetriesAreAnsweredFromTheCache) {
  CountingService service;
  RpcDedup dedup;
  std::vector<MsgType> persisted;
  dedup.set_persist(
      [&](std::uint64_t inc, std::uint64_t rid, MsgType op, bool verdict) {
        EXPECT_EQ(inc, kClientInc);
        EXPECT_EQ(rid, 5u);
        EXPECT_TRUE(verdict);
        persisted.push_back(op);
      });
  ServiceDispatcher d(service, DispatcherConfig{/*incarnation=*/2, &dedup});
  Message req = GetParam().req;
  req.incarnation = kClientInc;
  const auto bytes = req.encode();

  const Message first = Message::decode(d.dispatch(bytes));
  EXPECT_EQ(first.type, make_verdict_resp(req.type, 5, true).type);
  EXPECT_EQ(first.request_id, 5u);
  EXPECT_TRUE(first.ok);
  EXPECT_EQ(service.ran, std::vector<MsgType>{req.type});
  EXPECT_EQ(persisted, std::vector<MsgType>{req.type});

  // The retry replays the recorded verdict without running the service,
  // though the service would now answer differently.
  service.result = false;
  const Message retry = Message::decode(d.dispatch(bytes));
  EXPECT_EQ(retry.type, first.type);
  EXPECT_TRUE(retry.ok);
  EXPECT_EQ(service.ran.size(), 1u);
  EXPECT_EQ(persisted.size(), 1u);
}

INSTANTIATE_TEST_SUITE_P(
    SideEffecting, ExactlyOnceRequest, ::testing::ValuesIn(kSideEffecting),
    [](const ::testing::TestParamInfo<SideEffectingRequest>& info) {
      return std::string(info.param.name);
    });

TEST(JournalFormatGuard, DedupImageMatchesPinnedHash) {
  // kDedup is the one kind the Cluster does not write: pin its payload
  // through the dedup journal's own wiring, with every side-effecting op,
  // both verdicts and multi-byte incarnations and request ids.
  Journal journal(std::make_unique<MemoryJournalSink>());
  RpcDedup dedup;
  bind_dedup_journal(dedup, journal);
  const MsgType ops[] = {MsgType::kTryStartMateReq, MsgType::kStartJobReq,
                         MsgType::kGangPrepareReq,  MsgType::kGangCommitReq,
                         MsgType::kGangAbortReq,    MsgType::kGangVictimReq};
  std::uint64_t rid = 1;
  for (const MsgType op : ops) {
    dedup.record(kClientInc, rid, op, rid % 2 == 0);
    dedup.record((3ull << 32) | 2, rid * 300, op, rid % 3 == 0);
    ++rid;
  }
  const std::vector<std::uint8_t> image = journal.sink().contents();

  RpcDedup restored;
  const std::vector<JournalRecord> records = read_journal(image).records;
  ASSERT_FALSE(records.empty());  // the image writes kDedup
  for (const JournalRecord& rec : records) {
    ASSERT_EQ(rec.kind, JournalRecordKind::kDedup);
    apply_dedup_record(restored, rec);
  }
  ASSERT_EQ(restored.size(), 12u);
  const auto entry = restored.lookup((3ull << 32) | 2, 1800);
  ASSERT_TRUE(entry.has_value());
  EXPECT_EQ(entry->op, MsgType::kGangVictimReq);
  EXPECT_TRUE(entry->verdict);
  // Recorded before the dedup record's fields became one list.
  EXPECT_EQ(fnv1a(image), 0x6108f914f44bd52fULL)
      << "dedup image (" << image.size() << " bytes) changed: 0x" << std::hex
      << fnv1a(image);
}

TEST(ExactlyOnce, HelloEvictsOnlyOlderIncarnationsOfTheSameClient) {
  CountingService service;
  RpcDedup dedup;
  dedup.insert_restored((7ull << 32) | 1, 1, MsgType::kTryStartMateReq, true);
  dedup.insert_restored((7ull << 32) | 2, 1, MsgType::kTryStartMateReq, true);
  dedup.insert_restored((8ull << 32) | 1, 1, MsgType::kTryStartMateReq, true);

  ServiceDispatcher d(service, DispatcherConfig{2, &dedup});
  Message hello = make_hello_req(1, (7ull << 32) | 2);
  hello.incarnation = (7ull << 32) | 2;
  const Message resp = Message::decode(d.dispatch(hello.encode()));
  EXPECT_EQ(resp.type, MsgType::kHelloResp);
  EXPECT_EQ(resp.incarnation, 2u);

  EXPECT_EQ(dedup.size(), 2u);
  EXPECT_FALSE(dedup.lookup((7ull << 32) | 1, 1).has_value());
  EXPECT_TRUE(dedup.lookup((7ull << 32) | 2, 1).has_value());
  EXPECT_TRUE(dedup.lookup((8ull << 32) | 1, 1).has_value());
}

// -- wire-level incarnation semantics -------------------------------------

TEST(ExactlyOnce, RequestIdsNeverReusedAcrossReconnects) {
  // Regression: rids are scoped to the client incarnation, not the TCP
  // connection.  A peer that reconnects must keep counting, or a fresh
  // logical call would alias an old dedup verdict.
  std::mutex mu;
  std::vector<std::uint64_t> rids;

  TcpListener listener(0);
  const std::uint16_t port = listener.port();
  auto serve_one_connection = [&](int n_requests) {
    Socket s = listener.accept();
    FramedChannel ch(std::move(s));
    int served = 0;
    while (served < n_requests) {
      auto f = ch.read_frame();
      if (!f) return;
      const Message req = Message::decode(*f);
      if (req.type == MsgType::kHelloReq) {
        ch.write_frame(make_hello_resp(req.request_id, 1).encode());
        continue;
      }
      {
        std::lock_guard<std::mutex> lock(mu);
        rids.push_back(req.request_id);
      }
      Message resp = make_get_mate_status_resp(req.request_id,
                                               MateStatus::kQueuing);
      resp.incarnation = 1;
      ch.write_frame(resp.encode());
      ++served;
    }
    // Channel closes here: the connection "crashes" under the client.
  };
  std::thread server([&] {
    serve_one_connection(2);
    serve_one_connection(3);
  });

  WirePeerConfig cfg;
  cfg.call_deadline_ms = 2000;
  cfg.retry.max_attempts = 3;
  cfg.retry.base_backoff_ms = 1;
  cfg.breaker.failure_threshold = 3;
  cfg.breaker.open_cooldown_ms = 10;
  WirePeer peer(
      [port]() -> std::optional<FramedChannel> {
        try {
          return FramedChannel(tcp_connect(port));
        } catch (const std::exception&) {
          return std::nullopt;
        }
      },
      cfg);

  for (int i = 0; i < 5; ++i)
    ASSERT_EQ(peer.get_mate_status(7), MateStatus::kQueuing) << "call " << i;
  server.join();

  ASSERT_EQ(rids.size(), 5u);
  for (std::size_t i = 1; i < rids.size(); ++i)
    EXPECT_GT(rids[i], rids[i - 1])
        << "rid reused or reset across the reconnect";
  EXPECT_GE(peer.stats().reconnects, 2u);
  EXPECT_GE(peer.stats().hellos, 2u);
}

TEST(ExactlyOnce, StaleServerIncarnationIsRejected) {
  // The server handshakes incarnation 1 but answers with incarnation 2 (it
  // "restarted" mid-call): the reply must be dropped, not trusted.
  auto [client_sock, server_sock] = Socket::pair();
  std::thread server(
      [s = std::make_shared<Socket>(std::move(server_sock))]() mutable {
        FramedChannel ch(std::move(*s));
        while (auto f = ch.read_frame()) {
          const Message req = Message::decode(*f);
          if (req.type == MsgType::kHelloReq) {
            ch.write_frame(make_hello_resp(req.request_id, 1).encode());
            continue;
          }
          Message resp =
              make_get_mate_status_resp(req.request_id, MateStatus::kHolding);
          resp.incarnation = 2;  // wrong: not the handshaken value
          ch.write_frame(resp.encode());
        }
      });

  WirePeerConfig cfg;
  cfg.call_deadline_ms = 2000;
  cfg.retry.max_attempts = 1;
  WirePeer peer(FramedChannel(std::move(client_sock)), cfg);
  EXPECT_EQ(peer.get_mate_status(9), std::nullopt);
  EXPECT_GE(peer.stats().stale_rejected, 1u);
  EXPECT_EQ(peer.server_incarnation(), 1u);
  server.join();
}

}  // namespace
}  // namespace cosched
