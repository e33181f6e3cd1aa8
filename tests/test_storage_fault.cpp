// Storage fault plane: FaultyJournalSink injection semantics, snapshot
// generation fallback, the ENOSPC degradation ladder, v1-format replay
// compatibility, and the corrupt-anywhere harness — seeded corruption at
// every offset class x every scheme combo with the zero-silent-loss gate
// (recovery either reproduces the uncrashed fingerprint exactly, or the
// loss is itemized in RecoveryStats / fails loudly).
#include "core/storage_fault.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "core/dedup_journal.h"
#include "core/journal.h"
#include "core_test_util.h"
#include "proto/durable.h"
#include "util/error.h"

namespace cosched {
namespace {

using testutil::job;
using testutil::two_domains;

std::vector<std::uint8_t> payload_of(std::initializer_list<int> bytes) {
  std::vector<std::uint8_t> p;
  for (int b : bytes) p.push_back(static_cast<std::uint8_t>(b));
  return p;
}

// -- FaultyJournalSink units ----------------------------------------------

TEST(FaultySink, EmptyPlanIsATransparentPassThrough) {
  Journal plain(std::make_unique<MemoryJournalSink>());
  Journal faulty(std::make_unique<FaultyJournalSink>(
      std::make_unique<MemoryJournalSink>()));
  for (Journal* j : {&plain, &faulty}) {
    j->append(JournalRecordKind::kSubmit, payload_of({1, 2}));
    j->append(JournalRecordKind::kIterate, payload_of({3}));
    j->commit();
  }
  EXPECT_EQ(plain.sink().contents(), faulty.sink().contents());
  const auto& sink = static_cast<const FaultyJournalSink&>(faulty.sink());
  EXPECT_EQ(sink.stats().injected(), 0u);
  EXPECT_EQ(sink.stats().appends, 2u);
  EXPECT_EQ(sink.stats().commits, 1u);
}

/// Runs the same append sequence through a sink with `plan`; returns the
/// durable image and accumulated stats.
std::pair<std::vector<std::uint8_t>, StorageFaultStats> run_plan(
    const StorageFaultPlan& plan, int frames) {
  FaultyJournalSink sink(std::make_unique<MemoryJournalSink>(), plan);
  for (int i = 0; i < frames; ++i) {
    const auto f = encode_frame(static_cast<std::uint64_t>(i + 1),
                                JournalRecordKind::kIterate,
                                payload_of({i, i, i}));
    try {
      sink.append(f);
    } catch (const JournalNoSpace&) {
    }
  }
  sink.commit();
  return {sink.inner().contents(), sink.stats()};
}

TEST(FaultySink, IdenticalPlansCorruptIdentically) {
  StorageFaultPlan plan;
  plan.seed = 42;
  plan.bit_flip_probability = 0.3;
  plan.torn_write_probability = 0.2;
  plan.lost_write_probability = 0.1;
  plan.reorder_probability = 0.2;
  const auto [image_a, stats_a] = run_plan(plan, 64);
  const auto [image_b, stats_b] = run_plan(plan, 64);
  EXPECT_EQ(image_a, image_b);
  EXPECT_EQ(stats_a.injected(), stats_b.injected());
  EXPECT_GT(stats_a.injected(), 0u);

  // A different seed draws a different corruption sequence.
  plan.seed = 43;
  const auto [image_c, stats_c] = run_plan(plan, 64);
  EXPECT_NE(image_a, image_c);
}

TEST(FaultySink, DecorrelatedSeedsKeepLaterOpsStableWhenOneOpIsAdded) {
  // The per-operation substream means corrupting decision for op i depends
  // only on (seed, i) — prepending one extra append shifts every ordinal by
  // one but each ordinal's decision stays what it was.  We verify the
  // weaker, directly observable form: two runs differing only in frame
  // *content* fault the same ordinals.
  StorageFaultPlan plan;
  plan.seed = 7;
  plan.lost_write_probability = 0.5;
  StorageFaultStats s1, s2;
  for (int variant = 0; variant < 2; ++variant) {
    FaultyJournalSink sink(std::make_unique<MemoryJournalSink>(), plan);
    for (int i = 0; i < 32; ++i)
      sink.append(encode_frame(static_cast<std::uint64_t>(i + 1),
                               JournalRecordKind::kIterate,
                               payload_of({variant, i})));
    sink.commit();
    (variant == 0 ? s1 : s2) = sink.stats();
  }
  EXPECT_EQ(s1.lost_writes, s2.lost_writes);
  EXPECT_GT(s1.lost_writes, 0u);
}

TEST(FaultySink, BitFlipsAreCaughtByTheSalvageScan) {
  StorageFaultPlan plan;
  plan.bit_flip_probability = 1.0;
  const auto [image, stats] = run_plan(plan, 4);
  EXPECT_EQ(stats.bits_flipped, 4u);
  const SalvageReport s = salvage_scan(image);
  // Every frame had one bit flipped; nothing silently parses as intact.
  EXPECT_TRUE(s.records.empty());
  EXPECT_TRUE(!s.corrupt_regions.empty() || s.tail_torn);
}

TEST(FaultySink, TornWritesShortenFramesDetectably) {
  StorageFaultPlan plan;
  plan.torn_write_probability = 1.0;
  const auto [image, stats] = run_plan(plan, 6);
  EXPECT_EQ(stats.torn_writes, 6u);
  EXPECT_GT(stats.bytes_dropped, 0u);
  const SalvageReport s = salvage_scan(image);
  EXPECT_LT(s.records.size(), 6u);  // at least the last frame is ruined
}

TEST(FaultySink, LostWritesNeverReachTheMedium) {
  StorageFaultPlan plan;
  plan.lost_write_probability = 1.0;
  const auto [image, stats] = run_plan(plan, 5);
  EXPECT_EQ(stats.lost_writes, 5u);
  EXPECT_TRUE(image.empty());
}

TEST(FaultySink, ReorderingSwapsFramesButNeverCrossesACommit) {
  StorageFaultPlan plan;
  plan.reorder_probability = 1.0;
  FaultyJournalSink sink(std::make_unique<MemoryJournalSink>(), plan);
  std::size_t total = 0;
  for (std::uint64_t seq = 1; seq <= 3; ++seq) {
    const auto f =
        encode_frame(seq, JournalRecordKind::kIterate, payload_of({9}));
    total += f.size();
    sink.append(f);
  }
  sink.commit();  // the fsync barrier flushes any held frame
  const auto image = sink.inner().contents();
  EXPECT_EQ(image.size(), total);  // every byte eventually landed
  EXPECT_GT(sink.stats().reorders, 0u);
  const SalvageReport s = salvage_scan(image);
  ASSERT_EQ(s.records.size(), 3u);
  // Scan order is shuffled (a backwards seq shows as a duplicate + a hole)
  // but a seq-sorted replay heals it completely.
  EXPECT_GT(s.duplicate_records + s.seq_holes, 0u);
  std::vector<std::uint64_t> seqs;
  for (const JournalRecord& rec : s.records) seqs.push_back(rec.seq);
  std::sort(seqs.begin(), seqs.end());
  EXPECT_EQ(seqs, (std::vector<std::uint64_t>{1, 2, 3}));
}

TEST(FaultySink, CapacityQuotaThrowsNoSpaceAndCompactionFreesIt) {
  StorageFaultPlan plan;
  plan.capacity_bytes = 64;
  FaultyJournalSink sink(std::make_unique<MemoryJournalSink>(), plan);
  const auto frame =
      encode_frame(1, JournalRecordKind::kIterate, payload_of({1, 2, 3, 4}));
  bool threw = false;
  for (int i = 0; i < 8; ++i) {
    try {
      sink.append(frame);
    } catch (const JournalNoSpace&) {
      threw = true;
    }
  }
  EXPECT_TRUE(threw);
  EXPECT_GT(sink.stats().enospc_errors, 0u);
  // A reset to a smaller image (compaction) frees quota; appends resume.
  sink.reset({});
  EXPECT_NO_THROW(sink.append(frame));
  // A reset *larger* than the quota is itself refused.
  EXPECT_THROW(sink.reset(std::vector<std::uint8_t>(65, 0)), JournalNoSpace);
}

TEST(FaultySink, ReadErrorsAreTransientAndRetryable) {
  StorageFaultPlan plan;
  plan.seed = 11;
  plan.read_error_probability = 0.5;
  FaultyJournalSink sink(std::make_unique<MemoryJournalSink>(), plan);
  sink.append(encode_frame(1, JournalRecordKind::kIterate, payload_of({1})));
  sink.commit();
  // Each read draws from the next op substream, so with p = 0.5 a bounded
  // retry loop succeeds and the image it returns is exact.
  std::vector<std::uint8_t> got;
  bool ok = false;
  for (int attempt = 0; attempt < 64 && !ok; ++attempt) {
    try {
      got = sink.contents();
      ok = true;
    } catch (const JournalIoError&) {
    }
  }
  ASSERT_TRUE(ok);
  EXPECT_GT(sink.stats().read_errors, 0u);
  EXPECT_EQ(got, sink.inner().contents());
}

// -- v1-format compatibility ----------------------------------------------

/// Hand-encodes a legacy v1 frame: [u32 len][u32 crc32(body)][body].
std::vector<std::uint8_t> v1_frame(std::uint64_t seq, JournalRecordKind kind,
                                   std::span<const std::uint8_t> payload) {
  WireWriter bw;
  bw.put_u64(seq);
  bw.put_u8(static_cast<std::uint8_t>(kind));
  std::vector<std::uint8_t> body = bw.take();
  body.insert(body.end(), payload.begin(), payload.end());
  std::vector<std::uint8_t> out;
  const auto le32 = [&out](std::uint32_t v) {
    for (int i = 0; i < 4; ++i)
      out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  };
  le32(static_cast<std::uint32_t>(body.size()));
  le32(crc32(body));
  out.insert(out.end(), body.begin(), body.end());
  return out;
}

TEST(V1Compat, LegacyFramesReadBackAndReopenContinuesTheSequence) {
  std::vector<std::uint8_t> image;
  for (const auto& f :
       {v1_frame(1, JournalRecordKind::kSnapshot, payload_of({4, 2})),
        v1_frame(2, JournalRecordKind::kSubmit, payload_of({1})),
        v1_frame(3, JournalRecordKind::kIterate, payload_of({2}))})
    image.insert(image.end(), f.begin(), f.end());

  const JournalReplay rep = read_journal(image);
  EXPECT_FALSE(rep.tail_torn);
  ASSERT_EQ(rep.records.size(), 3u);
  EXPECT_EQ(rep.records[0].version, 1);
  EXPECT_EQ(rep.records[2].seq, 3u);
  // A v1 snapshot parses as generation 0 with the raw state, trivially ok.
  const SnapshotView view = parse_snapshot_payload(rep.records[0]);
  EXPECT_EQ(view.generation, 0u);
  EXPECT_TRUE(view.checksum_ok);
  EXPECT_EQ(std::vector<std::uint8_t>(view.state.begin(), view.state.end()),
            payload_of({4, 2}));

  // Reopening over the v1 image resyncs the counters; the next append is a
  // v2 frame and a mixed-version image still reads end to end.
  auto sink = std::make_unique<MemoryJournalSink>();
  sink->reset(image);
  Journal j(std::move(sink));
  j.reopen();
  EXPECT_EQ(j.append(JournalRecordKind::kFinish, payload_of({5})), 4u);
  j.commit();
  const JournalReplay mixed = read_journal(j.sink().contents());
  ASSERT_EQ(mixed.records.size(), 4u);
  EXPECT_EQ(mixed.records[3].version, 2);
  EXPECT_EQ(mixed.records[3].seq, 4u);
}

// -- compaction against the re-framing reference ---------------------------

/// Compaction as it was before intact v2 frames were copied verbatim, kept
/// as the reference: salvage-scan the image, re-frame every intact record
/// from the newest intact snapshot on (a v1 snapshot's raw state wrapped as
/// generation 0), then append the new snapshot.  With no intact snapshot
/// nothing is kept.
std::vector<std::uint8_t> reference_compact(
    std::span<const std::uint8_t> image, std::uint64_t seq,
    std::uint64_t generation, std::span<const std::uint8_t> state) {
  const SalvageReport rep = salvage_scan(image);
  std::size_t snap_idx = rep.records.size();
  for (std::size_t i = 0; i < rep.records.size(); ++i)
    if (rep.records[i].kind == JournalRecordKind::kSnapshot) snap_idx = i;
  std::vector<std::uint8_t> out;
  for (std::size_t i = snap_idx; i < rep.records.size(); ++i) {
    const JournalRecord& rec = rep.records[i];
    const auto f =
        rec.version < 2 && rec.kind == JournalRecordKind::kSnapshot
            ? encode_frame(rec.seq, rec.kind,
                           make_snapshot_payload(0, rec.payload))
            : encode_frame(rec.seq, rec.kind, rec.payload);
    out.insert(out.end(), f.begin(), f.end());
  }
  const auto f = encode_frame(seq, JournalRecordKind::kSnapshot,
                              make_snapshot_payload(generation, state));
  out.insert(out.end(), f.begin(), f.end());
  return out;
}

TEST(CompactionDiff, EveryImageShapeMatchesTheReframingReference) {
  // Sequence numbers start at 125 so the varint seq grows to two bytes.
  const auto record_payload = [](std::uint64_t seq) {
    return std::vector<std::uint8_t>(seq % 7 + 1,
                                     static_cast<std::uint8_t>(seq));
  };
  const auto state_of = [](std::uint64_t seq) {
    return std::vector<std::uint8_t>(40, static_cast<std::uint8_t>(seq));
  };
  const auto rec2 = [&](std::uint64_t seq) {
    return encode_frame(seq, JournalRecordKind::kIterate, record_payload(seq));
  };
  const auto rec1 = [&](std::uint64_t seq) {
    return v1_frame(seq, JournalRecordKind::kIterate, record_payload(seq));
  };
  const auto snap2 = [&](std::uint64_t seq, std::uint64_t generation) {
    return encode_frame(seq, JournalRecordKind::kSnapshot,
                        make_snapshot_payload(generation, state_of(seq)));
  };
  const auto snap1 = [&](std::uint64_t seq) {
    return v1_frame(seq, JournalRecordKind::kSnapshot, state_of(seq));
  };
  const auto flip = [](std::vector<std::uint8_t> frame, std::size_t at) {
    frame.at(at) ^= 0x10;
    return frame;
  };
  using Frames = std::vector<std::vector<std::uint8_t>>;
  const Frames clean = {snap2(125, 1), rec2(126), rec2(127), snap2(128, 2),
                        rec2(129),     rec2(130), rec2(131)};
  const auto with = [&clean](std::size_t i, std::vector<std::uint8_t> f) {
    Frames frames = clean;
    frames.at(i) = std::move(f);
    return frames;
  };
  // The newest snapshot's frame is intact but its envelope's state is not.
  auto rotten_state = make_snapshot_payload(2, state_of(128));
  rotten_state.back() ^= 0x20;
  Frames duplicated = clean;
  duplicated.insert(duplicated.begin() + 5, rec2(130));

  struct Shape {
    const char* name;
    Frames frames;
    std::size_t cut = 0;  ///< bytes torn off the end of the image
  };
  const std::vector<Shape> shapes = {
      {"clean v2", clean},
      {"all v1",
       {snap1(125), rec1(126), rec1(127), snap1(128), rec1(129), rec1(130)}},
      {"mixed v1/v2",
       {snap2(125, 1), rec1(126), snap1(127), rec2(128), rec1(129),
        rec2(130), rec2(131)}},
      {"no snapshot", {rec2(125), rec2(126), rec2(127)}},
      {"rot in the dropped generation", with(1, flip(rec2(126), 17))},
      {"rotten header inside the retained tail", with(5, flip(rec2(130), 5))},
      {"rotten body inside the retained tail", with(5, flip(rec2(130), 18))},
      {"rot inside a v1 tail",
       {snap1(125), rec1(126), flip(rec1(127), 9), rec1(128)}},
      {"rotten newest-snapshot body", with(3, flip(snap2(128, 2), 30))},
      {"rotten newest-snapshot state",
       with(3, encode_frame(128, JournalRecordKind::kSnapshot, rotten_state))},
      {"torn tail", clean, 3},
      {"duplicated frame", duplicated},
  };

  for (const Shape& shape : shapes) {
    SCOPED_TRACE(shape.name);
    std::vector<std::uint8_t> image;
    for (const auto& f : shape.frames)
      image.insert(image.end(), f.begin(), f.end());
    image.resize(image.size() - shape.cut);

    auto sink = std::make_unique<MemoryJournalSink>();
    sink->reset(image);
    Journal j(std::move(sink));
    j.reopen();
    const auto state = payload_of({7, 7, 7});
    j.compact(state);
    const std::vector<std::uint8_t> compacted = j.sink().contents();
    EXPECT_EQ(compacted, reference_compact(image, j.last_committed_seq(),
                                           j.snapshot_generation(), state));

    // Compacting the rewritten image again keeps it as the fallback.
    j.append(JournalRecordKind::kFinish, payload_of({1}));
    j.commit();
    const std::vector<std::uint8_t> grown = j.sink().contents();
    j.compact(state);
    EXPECT_EQ(j.sink().contents(),
              reference_compact(grown, j.last_committed_seq(),
                                j.snapshot_generation(), state));
    EXPECT_TRUE(salvage_scan(j.sink().contents()).corrupt_regions.empty());
  }

  // Changes that land between two compactions of one journal.  The second
  // compact() may start its walk at the snapshot frame the first wrote (at
  // `snap`, `size` bytes long), and must keep what a walk of the whole
  // image keeps.
  std::vector<std::uint8_t> clean_image;
  for (const auto& f : clean)
    clean_image.insert(clean_image.end(), f.begin(), f.end());
  using Change = std::function<void(Journal&, std::size_t snap,
                                    std::size_t size)>;
  const auto rewrite = [](auto edit) -> Change {
    return [edit](Journal& j, std::size_t snap, std::size_t size) {
      std::vector<std::uint8_t> bytes = j.sink().contents();
      edit(bytes, snap, size);
      j.sink().reset(std::move(bytes));
    };
  };
  // at(snap) is the byte to flip, or the length to cut the image to.
  const auto flip_at = [&rewrite](auto at) {
    return rewrite([at](std::vector<std::uint8_t>& bytes, std::size_t snap,
                        std::size_t) { bytes.at(at(snap)) ^= 0x10; });
  };
  const auto cut_to = [&rewrite](auto at) {
    return rewrite([at](std::vector<std::uint8_t>& bytes, std::size_t snap,
                        std::size_t) { bytes.resize(at(snap)); });
  };
  const struct {
    const char* name;
    Change change;
  } between[] = {
      {"nothing", [](Journal&, std::size_t, std::size_t) {}},
      {"rot in the remembered snapshot's header",
       flip_at([](std::size_t snap) { return snap + 5; })},
      {"rot in the remembered snapshot's body",
       flip_at([](std::size_t snap) { return snap + 30; })},
      {"rot in the remembered snapshot's envelope state",
       rewrite([](std::vector<std::uint8_t>& bytes, std::size_t snap,
                  std::size_t size) {
         // The frame stays intact: its CRCs cover the rotten state.
         const JournalReplay rep = read_journal(
             std::span<const std::uint8_t>(bytes).subspan(snap, size));
         ASSERT_EQ(rep.records.size(), 1u);
         std::vector<std::uint8_t> payload = rep.records[0].payload;
         payload.back() ^= 0x20;
         const auto frame = encode_frame(rep.records[0].seq,
                                         JournalRecordKind::kSnapshot, payload);
         ASSERT_EQ(frame.size(), size);
         std::ranges::copy(frame,
                           bytes.begin() + static_cast<std::ptrdiff_t>(snap));
       })},
      {"rot in the dropped generation's snapshot",
       flip_at([](std::size_t) { return std::size_t{30}; })},
      {"rot in the dropped generation's tail",
       flip_at([](std::size_t snap) { return snap - 3; })},
      {"a cut before the remembered snapshot",
       cut_to([](std::size_t snap) { return snap - 3; })},
      {"a cut inside the remembered snapshot",
       cut_to([](std::size_t snap) { return snap + 20; })},
      {"the image replaced",
       rewrite([&clean_image](std::vector<std::uint8_t>& bytes, std::size_t,
                              std::size_t) { bytes = clean_image; })},
      {"a reopen()", [](Journal& j, std::size_t, std::size_t) { j.reopen(); }},
      {"a degrade_to_memory()",
       [](Journal& j, std::size_t, std::size_t) { j.degrade_to_memory(); }},
  };
  for (const auto& shape : between) {
    SCOPED_TRACE(std::string("between two compactions: ") + shape.name);
    auto sink = std::make_unique<MemoryJournalSink>();
    sink->reset(clean_image);
    Journal j(std::move(sink));
    j.reopen();
    const auto state = payload_of({7, 7, 7});
    j.compact(state);
    const std::size_t size =
        encode_frame(j.last_committed_seq(), JournalRecordKind::kSnapshot,
                     make_snapshot_payload(j.snapshot_generation(), state))
            .size();
    const std::size_t snap = j.sink().contents().size() - size;
    j.append(JournalRecordKind::kFinish, payload_of({1}));
    j.append(JournalRecordKind::kIterate, payload_of({2, 2}));
    j.commit();
    shape.change(j, snap, size);
    const std::vector<std::uint8_t> image = j.sink().contents();
    const auto next_state = payload_of({8, 8});
    j.compact(next_state);
    EXPECT_EQ(j.sink().contents(),
              reference_compact(image, j.last_committed_seq(),
                                j.snapshot_generation(), next_state));
  }
}

// -- kill-anywhere with at-rest corruption --------------------------------

struct Workload {
  std::vector<DomainSpec> specs;
  std::vector<Trace> traces;
};

/// The recovery suite's deterministic two-domain workload: holds, forced
/// releases, yields, and backfill pressure in every scheme combo.
Workload crash_workload(SchemeCombo combo) {
  Workload w;
  w.specs = two_domains(combo, /*release=*/15 * kMinute);
  Trace a, b;
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
  Baseline base;
  base.fp = determinism_fingerprint(sim);
  base.end_time = r.end_time;
  base.last_seq[0] = sim.journal(0).last_committed_seq();
  base.last_seq[1] = sim.journal(1).last_committed_seq();
  return base;
}

/// One at-rest corruption class for the corrupt-anywhere sweep.  The mutate
/// hook runs on the durable image between crash and recovery.
struct CorruptionClass {
  const char* name;
  void (*mutate)(std::vector<std::uint8_t>&);
};

const CorruptionClass kCorruptionClasses[] = {
    {"flip-head", [](std::vector<std::uint8_t>& b) { b.at(6) ^= 0x40; }},
    {"flip-quarter",
     [](std::vector<std::uint8_t>& b) { b.at(b.size() / 4) ^= 0x01; }},
    {"flip-mid",
     [](std::vector<std::uint8_t>& b) { b.at(b.size() / 2) ^= 0x80; }},
    {"flip-late",
     [](std::vector<std::uint8_t>& b) { b.at(7 * b.size() / 8) ^= 0x10; }},
    {"zero-run",
     [](std::vector<std::uint8_t>& b) {
       const std::size_t at = b.size() / 3;
       std::fill(b.begin() + static_cast<std::ptrdiff_t>(at),
                 b.begin() + static_cast<std::ptrdiff_t>(
                                 std::min(b.size(), at + 24)),
                 std::uint8_t{0});
     }},
    {"excise-mid",
     [](std::vector<std::uint8_t>& b) {
       const auto at = static_cast<std::ptrdiff_t>(b.size() / 2);
       b.erase(b.begin() + at, b.begin() + at + 10);
     }},
    {"torn-tail",
     [](std::vector<std::uint8_t>& b) { b.resize(3 * b.size() / 4); }},
};

TEST(CorruptAnywhere, EveryOffsetClassEitherReplaysExactlyOrReportsTheLoss) {
  // The acceptance gate: corrupt the durable image anywhere, in any scheme
  // combo, and recovery must either reproduce the uncrashed run bit for bit
  // or itemize the loss — silent divergence is the one forbidden outcome.
  for (const SchemeCombo combo : {kHH, kHY, kYH, kYY}) {
    const Baseline base = run_baseline(combo);
    int which = 0;
    for (const CorruptionClass& cls : kCorruptionClasses) {
      const std::size_t domain = which++ % 2;
      const std::uint64_t at_seq =
          std::max<std::uint64_t>(2, base.last_seq[domain] / 2);
      SCOPED_TRACE(std::string(combo.label) + " " + cls.name + " domain " +
                   std::to_string(domain));

      Workload w = crash_workload(combo);
      CoupledSim sim(w.specs, w.traces);
      sim.enable_journaling();
      sim.schedule_crash_recovery(domain, at_seq, cls.mutate);

      bool failed_loudly = false;
      SimResult r;
      try {
        r = sim.run(10 * kDay);
      } catch (const Error&) {
        // Recovery refused to proceed (e.g. the only snapshot was
        // destroyed).  Loud refusal is an acceptable outcome; silent
        // divergence is not.
        failed_loudly = true;
      }
      if (failed_loudly) continue;

      ASSERT_TRUE(sim.last_recovery(domain).has_value());
      const Cluster::RecoveryStats& stats = *sim.last_recovery(domain);
      const bool loss_reported =
          stats.data_loss_reported() || stats.tail_torn;
      const bool exact = r.completed &&
                         determinism_fingerprint(sim) == base.fp &&
                         r.end_time == base.end_time;
      EXPECT_TRUE(exact || loss_reported)
          << "silent loss: recovery diverged from the baseline without "
             "reporting any damage";
    }
  }
}

TEST(CorruptAnywhere, BitFlipRecoveryStatsItemizeTheDamage) {
  // Pin down the *shape* of the report for one deterministic case: a flip
  // in the middle of the committed image costs a corrupt region plus the
  // records whose frames it ruined.
  const Baseline base = run_baseline(kHH);
  Workload w = crash_workload(kHH);
  CoupledSim sim(w.specs, w.traces);
  sim.enable_journaling();
  sim.schedule_crash_recovery(
      0, std::max<std::uint64_t>(2, base.last_seq[0] / 2),
      [](std::vector<std::uint8_t>& b) { b.at(b.size() / 2) ^= 0x01; });
  SimResult r;
  bool failed_loudly = false;
  try {
    r = sim.run(10 * kDay);
  } catch (const Error&) {
    failed_loudly = true;
  }
  if (failed_loudly) GTEST_SKIP() << "flip landed in the only snapshot";
  ASSERT_TRUE(sim.last_recovery(0).has_value());
  const Cluster::RecoveryStats& stats = *sim.last_recovery(0);
  if (determinism_fingerprint(sim) != base.fp || !r.completed) {
    EXPECT_TRUE(stats.data_loss_reported() || stats.tail_torn);
    EXPECT_GT(stats.corrupt_regions + (stats.tail_torn ? 1u : 0u), 0u);
  }
}

TEST(CorruptAnywhere, LostAndReorderedWritesEitherReplayExactlyOrReport) {
  // Write-time faults instead of at-rest damage: a few percent of frames
  // never reach the medium (pre-fsync loss) and some are reordered behind
  // their successor.  Reordering alone heals (the salvaged replay is
  // seq-sorted); a lost frame is a hole the recovery must report.
  for (const SchemeCombo combo : {kHY, kYH}) {
    const Baseline base = run_baseline(combo);
    SCOPED_TRACE(combo.label);
    Workload w = crash_workload(combo);
    CoupledSim sim(w.specs, w.traces);
    StorageFaultPlan plan;
    plan.seed = 99;
    plan.lost_write_probability = 0.03;
    plan.reorder_probability = 0.10;
    sim.enable_faulty_journaling(plan);
    sim.schedule_crash_recovery(
        0, std::max<std::uint64_t>(2, base.last_seq[0] / 2));
    bool failed_loudly = false;
    SimResult r;
    try {
      r = sim.run(10 * kDay);
    } catch (const Error&) {
      failed_loudly = true;
    }
    if (failed_loudly) continue;
    ASSERT_TRUE(sim.last_recovery(0).has_value());
    const Cluster::RecoveryStats& stats = *sim.last_recovery(0);
    const bool loss_reported = stats.data_loss_reported() || stats.tail_torn;
    const bool exact = r.completed &&
                       determinism_fingerprint(sim) == base.fp &&
                       r.end_time == base.end_time;
    EXPECT_TRUE(exact || loss_reported)
        << "silent loss under write-time faults";
    EXPECT_GT(sim.faulty_sink(0)->stats().injected(), 0u)
        << "plan injected nothing — the case is vacuous";
  }
}

TEST(CorruptAnywhere, DowngradedV1ImageStillReplaysBitForBit) {
  // Rewrite the whole durable image in the legacy v1 framing between crash
  // and recovery: recovery must treat it exactly like a journal written by
  // the pre-v2 code and reproduce the baseline with no loss reported.
  for (const SchemeCombo combo : {kHH, kYY}) {
    const Baseline base = run_baseline(combo);
    SCOPED_TRACE(combo.label);
    Workload w = crash_workload(combo);
    CoupledSim sim(w.specs, w.traces);
    sim.enable_journaling();
    sim.schedule_crash_recovery(
        0, std::max<std::uint64_t>(2, base.last_seq[0] / 2),
        [](std::vector<std::uint8_t>& bytes) {
          const SalvageReport s = salvage_scan(bytes);
          ASSERT_TRUE(s.clean());
          std::vector<std::uint8_t> v1;
          for (const JournalRecord& rec : s.records) {
            std::vector<std::uint8_t> payload = rec.payload;
            if (rec.kind == JournalRecordKind::kSnapshot) {
              const SnapshotView view = parse_snapshot_payload(rec);
              payload.assign(view.state.begin(), view.state.end());
            }
            const auto f = v1_frame(rec.seq, rec.kind, payload);
            v1.insert(v1.end(), f.begin(), f.end());
          }
          bytes = std::move(v1);
        });
    const SimResult r = sim.run(10 * kDay);
    ASSERT_TRUE(sim.last_recovery(0).has_value());
    const Cluster::RecoveryStats& stats = *sim.last_recovery(0);
    EXPECT_FALSE(stats.data_loss_reported());
    ASSERT_TRUE(r.completed);
    EXPECT_EQ(determinism_fingerprint(sim), base.fp);
    EXPECT_EQ(r.end_time, base.end_time);
  }
}

// -- snapshot generation fallback -----------------------------------------

TEST(GenerationFallback, RottenNewestSnapshotFallsBackAndStillReplaysExactly) {
  // With periodic compaction the image carries two generations.  Rot the
  // *state* inside the newest envelope (frame CRC recomputed, so only the
  // envelope checksum can catch it): recovery must fall back to the older
  // generation, replay the longer tail, report the fallback — and still
  // land on the exact baseline state, because the retained tail spans the
  // gap between the generations.
  const std::uint64_t kCompactEvery = 12;
  const Baseline base = run_baseline(kHH, kCompactEvery);
  Workload w = crash_workload(kHH);
  CoupledSim sim(w.specs, w.traces);
  sim.enable_journaling(kCompactEvery);
  sim.schedule_crash_recovery(
      0, std::max<std::uint64_t>(2, 3 * base.last_seq[0] / 4),
      [](std::vector<std::uint8_t>& bytes) {
        const SalvageReport s = salvage_scan(bytes);
        ASSERT_TRUE(s.clean());
        std::uint64_t newest = 0;
        for (const JournalRecord& rec : s.records)
          if (rec.kind == JournalRecordKind::kSnapshot)
            newest = std::max(newest, parse_snapshot_payload(rec).generation);
        ASSERT_GE(newest, 2u) << "workload never compacted twice";
        std::vector<std::uint8_t> image;
        for (const JournalRecord& rec : s.records) {
          std::vector<std::uint8_t> payload = rec.payload;
          if (rec.kind == JournalRecordKind::kSnapshot &&
              parse_snapshot_payload(rec).generation == newest)
            payload.back() ^= 0x20;  // rot one state byte in the envelope
          const auto f = encode_frame(rec.seq, rec.kind, payload);
          image.insert(image.end(), f.begin(), f.end());
        }
        bytes = std::move(image);
      });
  const SimResult r = sim.run(10 * kDay);
  ASSERT_TRUE(sim.last_recovery(0).has_value());
  const Cluster::RecoveryStats& stats = *sim.last_recovery(0);
  EXPECT_TRUE(stats.snapshot_fallback);
  EXPECT_TRUE(stats.data_loss_reported());
  ASSERT_TRUE(r.completed);
  EXPECT_EQ(determinism_fingerprint(sim), base.fp);
  EXPECT_EQ(r.end_time, base.end_time);
}

// -- malformed snapshot state ---------------------------------------------

TEST(SnapshotBitFlips, EveryFlipParsesOrThrowsParseErrorAndRecoveryFallsBack) {
  // Flip each bit of one domain's mid-run snapshot state.  A restore of an
  // image another process wrote must parse or throw ParseError, the one
  // error a caller can treat as "corrupt input".  A recovery whose newest
  // snapshot carries the flip must apply it or fall back to the older
  // generation, never throw: the fallback only catches ParseError.  v1
  // frames carry the state without an envelope checksum, so every flip
  // reaches the decoder.
  Workload w = crash_workload(kHH);
  for (DomainSpec& s : w.specs) s.cosched.liveness.enabled = true;
  CoupledSim live(w.specs, w.traces);
  live.engine().run_until(30 * kMinute);
  WireWriter older;
  live.cluster(0).write_snapshot(older);
  const std::vector<std::uint8_t> older_frame =
      v1_frame(1, JournalRecordKind::kSnapshot, older.bytes());
  live.engine().run_until(35 * kMinute);
  WireWriter state_writer;
  live.cluster(0).write_snapshot(state_writer);
  const std::vector<std::uint8_t> state = state_writer.take();
  WireWriter image_writer;
  live.snapshot(image_writer);
  const std::vector<std::uint8_t> image = image_writer.take();
  // The image is the engine time, then each domain's state in order.
  WireWriter time_writer;
  time_writer.put_i64(live.engine().now());
  const auto at = static_cast<std::ptrdiff_t>(time_writer.bytes().size());
  ASSERT_TRUE(std::equal(state.begin(), state.end(), image.begin() + at));

  std::size_t parse_errors = 0, fallbacks = 0;
  for (std::size_t bit = 0; bit < 8 * state.size(); ++bit) {
    SCOPED_TRACE("bit " + std::to_string(bit));
    std::vector<std::uint8_t> flipped = state;
    flipped[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));

    std::vector<std::uint8_t> bytes = image;
    std::copy(flipped.begin(), flipped.end(), bytes.begin() + at);
    CoupledSim fresh(w.specs, w.traces);
    WireReader r(bytes);
    try {
      fresh.restore(r);
    } catch (const ParseError&) {
      ++parse_errors;
    }

    std::vector<std::uint8_t> journal_image = older_frame;
    const std::vector<std::uint8_t> newer =
        v1_frame(2, JournalRecordKind::kSnapshot, flipped);
    journal_image.insert(journal_image.end(), newer.begin(), newer.end());
    auto sink = std::make_unique<MemoryJournalSink>();
    sink->reset(std::move(journal_image));
    Journal journal(std::move(sink));
    journal.reopen();
    Cluster::RecoveryStats stats;
    EXPECT_NO_THROW(stats = fresh.cluster(0).recover_from_journal(journal));
    if (stats.snapshot_fallback) ++fallbacks;
  }
  // Not vacuous: some flips must have failed to parse and fallen back.
  EXPECT_GT(parse_errors, 0u);
  EXPECT_GT(fallbacks, 0u);
}

TEST(SnapshotBounds, ALeaseExpiringBeforeTimeBeganFallsBackAGeneration) {
  // The lease-expiry checks subtract a lease's expiry from the clock, so a
  // decoded lease time must lie in the durable range like a job's.
  Workload w = crash_workload(kHH);
  for (DomainSpec& s : w.specs) s.cosched.liveness.enabled = true;
  CoupledSim live(w.specs, w.traces);
  live.engine().run_until(30 * kMinute);
  WireWriter older;
  live.cluster(0).write_snapshot(older);
  const std::vector<std::uint8_t> older_frame =
      v1_frame(1, JournalRecordKind::kSnapshot, older.bytes());
  live.engine().run_until(35 * kMinute);
  ASSERT_FALSE(live.cluster(0).leases().empty());
  HoldLease lease = live.cluster(0).leases().begin()->second;
  WireWriter state_writer;
  live.cluster(0).write_snapshot(state_writer);
  std::vector<std::uint8_t> state = state_writer.take();

  // Splice a copy of the lease whose expiry is INT64_MIN into the state.
  WireWriter was, now;
  put(was, lease);
  lease.expires_at = std::numeric_limits<Time>::min();
  put(now, lease);
  const std::vector<std::uint8_t> old_bytes = was.take();
  const std::vector<std::uint8_t> new_bytes = now.take();
  const auto at = std::ranges::search(state, old_bytes).begin();
  ASSERT_NE(at, state.end());
  const auto offset = at - state.begin();
  state.erase(at, at + static_cast<std::ptrdiff_t>(old_bytes.size()));
  state.insert(state.begin() + offset, new_bytes.begin(), new_bytes.end());

  std::vector<std::uint8_t> image = older_frame;
  const std::vector<std::uint8_t> newer =
      v1_frame(2, JournalRecordKind::kSnapshot, state);
  image.insert(image.end(), newer.begin(), newer.end());
  auto sink = std::make_unique<MemoryJournalSink>();
  sink->reset(std::move(image));
  Journal journal(std::move(sink));
  journal.reopen();
  CoupledSim fresh(w.specs, w.traces);
  Cluster::RecoveryStats stats;
  ASSERT_NO_THROW(stats = fresh.cluster(0).recover_from_journal(journal));
  EXPECT_TRUE(stats.snapshot_fallback);
}

TEST(SnapshotBounds, AnUnfinishedJobInTheArchiveFallsBackAGeneration) {
  // A remote tryStartMate finds a job live or archived and refuses it by its
  // state, so a restored archive must hold finished jobs only.
  Workload w = crash_workload(kHH);
  CoupledSim live(w.specs, w.traces);
  live.engine().run_until(30 * kMinute);
  WireWriter older;
  live.cluster(0).write_snapshot(older);
  const std::vector<std::uint8_t> older_frame =
      v1_frame(1, JournalRecordKind::kSnapshot, older.bytes());
  live.engine().run_until(35 * kMinute);
  const Scheduler& sched = live.cluster(0).scheduler();
  ASSERT_FALSE(sched.archived().empty());
  RuntimeJob job = sched.archived().at(sched.archived().sorted_keys().front());
  WireWriter state_writer;
  live.cluster(0).write_snapshot(state_writer);
  std::vector<std::uint8_t> state = state_writer.take();

  // Splice a copy of the archived job marked queued into the state.
  WireWriter was, now;
  put(was, job);
  job.state = JobState::kQueued;
  put(now, job);
  const std::vector<std::uint8_t> old_bytes = was.take();
  const std::vector<std::uint8_t> new_bytes = now.take();
  const auto at = std::ranges::search(state, old_bytes).begin();
  ASSERT_NE(at, state.end());
  const auto offset = at - state.begin();
  state.erase(at, at + static_cast<std::ptrdiff_t>(old_bytes.size()));
  state.insert(state.begin() + offset, new_bytes.begin(), new_bytes.end());

  std::vector<std::uint8_t> image = older_frame;
  const std::vector<std::uint8_t> newer =
      v1_frame(2, JournalRecordKind::kSnapshot, state);
  image.insert(image.end(), newer.begin(), newer.end());
  auto sink = std::make_unique<MemoryJournalSink>();
  sink->reset(std::move(image));
  Journal journal(std::move(sink));
  journal.reopen();
  CoupledSim fresh(w.specs, w.traces);
  Cluster::RecoveryStats stats;
  ASSERT_NO_THROW(stats = fresh.cluster(0).recover_from_journal(journal));
  EXPECT_TRUE(stats.snapshot_fallback);
}

TEST(SnapshotBounds, ADuplicateJobIdFallsBackAGeneration) {
  // A snapshot writes the archive from bytes it encoded once per finished
  // job, so a restored state must hold each job once: never twice in one
  // table, never both live and finished.
  Workload w = crash_workload(kHH);
  CoupledSim live(w.specs, w.traces);
  live.engine().run_until(30 * kMinute);
  WireWriter older;
  live.cluster(0).write_snapshot(older);
  const std::vector<std::uint8_t> older_frame =
      v1_frame(1, JournalRecordKind::kSnapshot, older.bytes());
  live.engine().run_until(35 * kMinute);
  WireWriter state_writer;
  live.cluster(0).write_snapshot(state_writer);
  const std::vector<std::uint8_t> state = state_writer.take();

  // The domain's state ends with the scheduler's: its pool accounting, its
  // live and archived jobs, then the running-end index, kept here as is.
  WireWriter sched_writer;
  live.cluster(0).scheduler().snapshot(sched_writer);
  const std::vector<std::uint8_t> sched = sched_writer.take();
  ASSERT_TRUE(std::equal(sched.rbegin(), sched.rend(), state.rbegin()));
  const std::size_t head = state.size() - sched.size();
  WireReader r(sched);
  NodePool::Accounting accounting;
  std::vector<RuntimeJob> live_jobs, archived;
  get(r, accounting);
  get(r, live_jobs);
  get(r, archived);
  ASSERT_FALSE(live_jobs.empty());
  ASSERT_FALSE(archived.empty());
  const std::span<const std::uint8_t> ends(sched.end() - r.remaining(),
                                           sched.end());
  const auto state_with = [&](const std::vector<RuntimeJob>& live_table,
                              const std::vector<RuntimeJob>& archive) {
    WireWriter out;
    out.put_bytes({state.data(), head});
    put(out, accounting);
    put(out, live_table);
    put(out, archive);
    out.put_bytes(ends);
    return out.take();
  };
  ASSERT_EQ(state_with(live_jobs, archived), state);

  std::vector<RuntimeJob> live_twice = live_jobs;
  live_twice.push_back(live_jobs.front());
  std::vector<RuntimeJob> archived_twice = archived;
  archived_twice.insert(archived_twice.begin() + 1, archived.front());
  std::vector<RuntimeJob> live_and_finished = live_jobs;
  live_and_finished.push_back(archived.front());
  live_and_finished.back().state = JobState::kQueued;
  const struct {
    const char* name;
    std::vector<std::uint8_t> state;
  } shapes[] = {
      {"twice in the live table", state_with(live_twice, archived)},
      {"twice in the archive", state_with(live_jobs, archived_twice)},
      {"queued and archived", state_with(live_and_finished, archived)},
  };
  for (const auto& shape : shapes) {
    SCOPED_TRACE(shape.name);
    std::vector<std::uint8_t> image = older_frame;
    const std::vector<std::uint8_t> newer =
        v1_frame(2, JournalRecordKind::kSnapshot, shape.state);
    image.insert(image.end(), newer.begin(), newer.end());
    auto sink = std::make_unique<MemoryJournalSink>();
    sink->reset(std::move(image));
    Journal journal(std::move(sink));
    journal.reopen();
    CoupledSim fresh(w.specs, w.traces);
    Cluster::RecoveryStats stats;
    ASSERT_NO_THROW(stats = fresh.cluster(0).recover_from_journal(journal));
    EXPECT_TRUE(stats.snapshot_fallback);
  }
}

// -- ENOSPC degradation ladder --------------------------------------------

TEST(Enospc, LadderKeepsTheSimulationAliveAndCountsEveryRung) {
  // A byte quota small enough to fill mid-run: the cluster must climb the
  // ladder (emergency compaction, then memory degradation if even the
  // snapshot no longer fits) instead of crashing, and the run's scheduling
  // results stay identical to the unfaulted baseline.
  const Baseline base = run_baseline(kHY);
  Workload w = crash_workload(kHY);
  CoupledSim sim(w.specs, w.traces);
  StorageFaultPlan plan;
  plan.capacity_bytes = 512;  // fits the attach snapshot, not the full run
  sim.enable_faulty_journaling(plan);
  const SimResult r = sim.run(10 * kDay);
  ASSERT_TRUE(r.completed);
  EXPECT_TRUE(r.invariants.ok())
      << (r.invariants.violations.empty() ? ""
                                          : r.invariants.violations.front());
  EXPECT_GT(r.invariants.storage_enospc_events, 0u);
  EXPECT_GT(r.invariants.storage_emergency_compactions +
                r.invariants.storage_degraded_domains,
            0u);
  EXPECT_EQ(determinism_fingerprint(sim), base.fp);
  EXPECT_EQ(r.end_time, base.end_time);

  // Whatever rung the ladder reached, both journals must still anchor a
  // clean recovery of the final state.
  for (std::size_t d = 0; d < sim.size(); ++d) {
    const SalvageReport s = salvage_scan(sim.journal(d).sink().contents());
    bool verifiable = false;
    for (const JournalRecord& rec : s.records)
      if (rec.kind == JournalRecordKind::kSnapshot &&
          parse_snapshot_payload(rec).checksum_ok)
        verifiable = true;
    EXPECT_TRUE(verifiable) << "domain " << d;
  }
}

TEST(Enospc, NoCommitEverMakesADroppedRecordADurableHole) {
  // Every commit barrier climbs rung 1 first, the one right after an armed
  // iteration's record included: a record the sink dropped earlier in the
  // same event must be folded into an emergency snapshot before anything
  // appended after it becomes durable.  Each commit's durable image is
  // salvage-scanned across quotas that hit the ladder at every stage of the
  // run.
  for (const SchemeCombo combo : kAllCombos) {
    SCOPED_TRACE(combo.label);
    for (std::uint64_t capacity = 128; capacity <= 8192; capacity += 32) {
      Workload w = crash_workload(combo);
      CoupledSim sim(w.specs, w.traces);
      StorageFaultPlan plan;
      plan.capacity_bytes = capacity;
      sim.enable_faulty_journaling(plan);
      int holed_commits = 0;
      for (std::size_t d = 0; d < sim.size(); ++d)
        sim.journal(d).set_on_commit([&sim, &holed_commits, d](std::uint64_t) {
          if (salvage_scan(sim.journal(d).sink().contents()).seq_holes > 0)
            ++holed_commits;
        });
      const SimResult r = sim.run(10 * kDay);
      EXPECT_TRUE(r.completed) << "capacity " << capacity;
      EXPECT_EQ(holed_commits, 0) << "capacity " << capacity;
    }
  }
}

TEST(Enospc, DegradedDomainHasNoFaultySink) {
  // Degrading to memory destroys the injector with the sink it replaces,
  // so faulty_sink() must stop handing it out.
  Workload w = crash_workload(kHY);
  CoupledSim sim(w.specs, w.traces);
  StorageFaultPlan plan;
  plan.capacity_bytes = 128;  // not even the attach snapshot fits
  sim.enable_faulty_journaling(plan);
  const SimResult r = sim.run(10 * kDay);
  ASSERT_TRUE(r.completed);
  ASSERT_TRUE(sim.journal(0).degraded());
  EXPECT_EQ(sim.faulty_sink(0), nullptr);
  for (std::size_t d = 0; d < sim.size(); ++d) {
    if (sim.journal(d).degraded()) continue;
    ASSERT_NE(sim.faulty_sink(d), nullptr) << "domain " << d;
    EXPECT_GT(sim.faulty_sink(d)->stats().appends, 0u) << "domain " << d;
  }
}

TEST(Enospc, AmpleCapacityNeverTriggersTheLadder) {
  Workload w = crash_workload(kHH);
  CoupledSim sim(w.specs, w.traces);
  StorageFaultPlan plan;
  plan.capacity_bytes = 1 << 20;
  sim.enable_faulty_journaling(plan);
  const SimResult r = sim.run(10 * kDay);
  ASSERT_TRUE(r.completed);
  EXPECT_EQ(r.invariants.storage_enospc_events, 0u);
  EXPECT_EQ(r.invariants.storage_degraded_domains, 0u);
  EXPECT_EQ(sim.faulty_sink(0)->stats().enospc_errors, 0u);
}

// -- dedup journal: uncommitted tail --------------------------------------

TEST(DedupTail, UncommittedVerdictVanishesOnReopenCommittedOneSurvives) {
  // durable-before-reply hinges on the commit barrier: a kDedup record that
  // was appended but never committed models a crash between recording the
  // verdict and fsyncing it — the reply never left, so the verdict must
  // vanish on reopen rather than resurrect a reply nobody received.
  Journal j(std::make_unique<MemoryJournalSink>());
  j.append(JournalRecordKind::kDedup, payload_of({1, 1}));
  j.commit();
  const std::uint64_t committed_seq = j.last_committed_seq();
  j.append(JournalRecordKind::kDedup, payload_of({2, 2}));  // no commit

  // The durable image holds exactly the committed record.
  const JournalReplay rep = read_journal(j.sink().contents());
  ASSERT_EQ(rep.records.size(), 1u);
  EXPECT_EQ(rep.records[0].kind, JournalRecordKind::kDedup);
  EXPECT_EQ(rep.records[0].payload, payload_of({1, 1}));

  // Crash-restart over the same sink: the buffered tail is gone and the
  // sequence counter resyncs to the durable image, so the next verdict
  // reuses nothing and leaves no hole.
  j.reopen();
  EXPECT_EQ(j.last_committed_seq(), committed_seq);
  const std::uint64_t next =
      j.append(JournalRecordKind::kDedup, payload_of({3, 3}));
  EXPECT_EQ(next, committed_seq + 1);
  j.commit();
  const SalvageReport s = salvage_scan(j.sink().contents());
  EXPECT_TRUE(s.clean());
  ASSERT_EQ(s.records.size(), 2u);
  EXPECT_EQ(s.records[1].payload, payload_of({3, 3}));
}

TEST(DedupTail, BoundJournalCommitsEachVerdictBeforeTheHookReturns) {
  // bind_dedup_journal is the owner-side wiring under test: the persist
  // hook must leave the verdict *durable* (committed, not merely appended)
  // before RpcDedup::record returns — that is the durable-before-reply
  // contract the dispatcher relies on.
  Journal journal(std::make_unique<MemoryJournalSink>());
  RpcDedup dedup;
  bind_dedup_journal(dedup, journal);
  dedup.record((1ull << 32) | 1, /*rid=*/5, MsgType::kTryStartMateReq, true);

  const JournalReplay rep = read_journal(journal.sink().contents());
  ASSERT_EQ(rep.records.size(), 1u);
  EXPECT_EQ(rep.records[0].kind, JournalRecordKind::kDedup);

  RpcDedup restored;
  apply_dedup_record(restored, rep.records[0]);
  EXPECT_EQ(restored.size(), 1u);
}

}  // namespace
}  // namespace cosched
