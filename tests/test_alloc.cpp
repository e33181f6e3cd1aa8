// Heap allocations on the coscheduling, journaling and event-queue hot
// paths.
//
// This binary replaces the global operator new/delete with counting
// versions, which is why it is a test executable of its own: every
// allocation in the process is counted.  Each check warms its path up once,
// then asserts that a long run of the same calls allocates nothing.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <new>
#include <numeric>
#include <vector>

#include "core/fault.h"
#include "core/journal.h"
#include "proto/peer.h"
#include "sched/scheduler.h"
#include "sim/engine.h"
#include "util/inline_list.h"

namespace {

std::atomic<std::uint64_t> g_allocations{0};

void* counted_malloc(std::size_t n) noexcept {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(n == 0 ? 1 : n);
}

void* counted_new(std::size_t n) {
  if (void* p = counted_malloc(n)) return p;
  throw std::bad_alloc();
}

}  // namespace

// Every non-aligned form is replaced, so no allocation reaches a runtime's
// own operator new and every free matches its malloc (ASan checks that).
void* operator new(std::size_t n) { return counted_new(n); }
void* operator new[](std::size_t n) { return counted_new(n); }
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  return counted_malloc(n);
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  return counted_malloc(n);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace cosched {
namespace {

template <class F>
std::uint64_t allocations_in(F&& fn) {
  const std::uint64_t before = g_allocations.load(std::memory_order_relaxed);
  fn();
  return g_allocations.load(std::memory_order_relaxed) - before;
}

/// Fixed answers: a queued mate that cannot start, as in a yield retry.
class ScriptedService final : public CoschedService {
 public:
  std::optional<JobId> get_mate_job(GroupId, JobId) override { return 2; }
  MateStatus get_mate_status(JobId) override { return MateStatus::kQueuing; }
  bool try_start_mate(JobId) override { return false; }
  bool start_job(JobId) override { return false; }
};

TEST(Allocations, WarmRoundTripsAllocateNothing) {
  ScriptedService svc;
  FaultInjectingPeer peer(std::make_unique<LoopbackPeer>(svc));
  // One Algorithm-1 retry: getMateJob, getMateStatus, tryStartMate.
  const auto retry = [&peer] {
    const auto mate = peer.get_mate_job(5, 1);
    const auto status = peer.get_mate_status(2);
    const auto started = peer.try_start_mate(2);
    return mate && *mate == 2 && status == MateStatus::kQueuing &&
           started == false;
  };
  ASSERT_TRUE(retry());  // warm-up: the loopback's two writers grow once

  int answered = 0;
  const std::uint64_t allocations = allocations_in([&] {
    for (int i = 0; i < 10000; ++i) answered += retry() ? 1 : 0;
  });
  EXPECT_EQ(answered, 10000);
  EXPECT_EQ(allocations, 0u);
}

JobSpec job(JobId id, Time submit, Duration walltime, NodeCount nodes) {
  JobSpec s;
  s.id = id;
  s.submit = submit;
  s.runtime = walltime;
  s.walltime = walltime;
  s.nodes = nodes;
  return s;
}

TEST(Allocations, WarmTryStartSpecificAllocatesNothing) {
  Scheduler s(100, make_policy("fcfs"));
  s.submit(job(1, 0, 10000, 60), 0);
  ASSERT_EQ(s.iterate(0).size(), 1u);
  // A 1,000-job queue whose 80-node head cannot start beside the running
  // job, so every targeted start finds the head and checks its shadow.
  s.submit(job(2, 1, 1000, 80), 1);
  for (JobId id = 3; id <= 1001; ++id) s.submit(job(id, id, 100, 10), id);
  ASSERT_EQ(s.queue_length(), 1000u);

  int hook_calls = 0;
  const RunJobHook skip = [&hook_calls](RuntimeJob&) {
    ++hook_calls;
    return RunDecision::kSkip;
  };
  const Time now = 2000;
  ASSERT_FALSE(s.try_start_specific(500, now, skip));  // scores the queue
  ASSERT_EQ(hook_calls, 1);

  const std::uint64_t allocations = allocations_in([&] {
    for (int i = 0; i < 10000; ++i) s.try_start_specific(500, now, skip);
  });
  EXPECT_EQ(hook_calls, 10001);  // each call passed the head's reservation
  EXPECT_EQ(allocations, 0u);
}

/// Keeps nothing, so only the journal's own framing is counted.
class DiscardingSink final : public JournalSink {
 public:
  void append(std::span<const std::uint8_t>) override {}
  void commit() override {}
  void reset(std::vector<std::uint8_t>) override {}
  std::vector<std::uint8_t> contents() const override { return {}; }
};

TEST(Allocations, WarmJournalAppendsAllocateNothing) {
  Journal journal(std::make_unique<DiscardingSink>());
  const std::vector<std::uint8_t> payload(48, 0x5a);
  // Warm-up: the frame buffer grows once to the largest frame, here one
  // with a longer payload than any below (their varint seqs grow to two
  // bytes).
  journal.append(JournalRecordKind::kSubmit,
                 std::vector<std::uint8_t>(64, 0x5a));
  journal.commit();

  const std::uint64_t allocations = allocations_in([&] {
    for (int i = 0; i < 10000; ++i) {
      journal.append(JournalRecordKind::kSubmit, payload);
      journal.commit();
    }
  });
  EXPECT_EQ(journal.last_committed_seq(), 10001u);
  EXPECT_EQ(allocations, 0u);
}

TEST(Allocations, WarmJournalOverAMemorySinkWithRoomAllocatesNothing) {
  // The sink the simulator runs: a commit moves its mark and copies
  // nothing, so once its one buffer has room, appends and commits allocate
  // nothing.  An empty image with capacity for every frame below gives it
  // that room.
  auto sink = std::make_unique<MemoryJournalSink>();
  MemoryJournalSink* raw = sink.get();
  std::vector<std::uint8_t> room;
  room.reserve(1u << 20);
  sink->reset(std::move(room));
  Journal journal(std::move(sink));
  const std::vector<std::uint8_t> payload(48, 0x5a);
  journal.append(JournalRecordKind::kSubmit,
                 std::vector<std::uint8_t>(64, 0x5a));
  journal.commit();

  const std::uint64_t allocations = allocations_in([&] {
    for (int i = 0; i < 10000; ++i) {
      journal.append(JournalRecordKind::kSubmit, payload);
      journal.commit();
    }
  });
  EXPECT_EQ(journal.last_committed_seq(), 10001u);
  EXPECT_EQ(raw->buffered_bytes(), 0u);
  EXPECT_GT(raw->durable_bytes(), 10000u * payload.size());
  EXPECT_EQ(allocations, 0u);
}

std::vector<Time> ascending_times(std::size_t n) {
  std::vector<Time> times(n);
  std::iota(times.begin(), times.end(), Time{0});
  return times;
}

TEST(Allocations, BatchedEventsAllocateOnlyWhenScheduled) {
  // Scheduling a batch allocates a fixed number of times, whatever its size.
  const auto noop = [](std::size_t) {};
  const auto schedule_allocations = [&noop](std::size_t n) {
    const std::vector<Time> times = ascending_times(n);
    Engine e;
    return allocations_in([&] { e.schedule_batch(times, 0, noop); });
  };
  EXPECT_EQ(schedule_allocations(10), schedule_allocations(10000));

  // Running the batch allocates nothing, its release included.
  const std::vector<Time> times = ascending_times(10000);
  Engine e;
  std::size_t fired = 0;
  e.schedule_batch(times, 0, [&fired](std::size_t) { ++fired; });
  const std::uint64_t allocations = allocations_in([&] {
    while (e.step()) {
    }
  });
  EXPECT_EQ(fired, 10000u);
  EXPECT_EQ(e.pending(), 0u);
  EXPECT_EQ(allocations, 0u);
}

TEST(Allocations, InlineListAllocatesOnlyPastItsCapacity) {
  struct Mate {
    void* peer = nullptr;
    int index = -1;
    long id = -1;
  };
  const auto fill = [](std::size_t n) {
    return allocations_in([n] {
      InlineList<Mate, 8> list;
      for (std::size_t i = 0; i < n; ++i)
        list.push_back(Mate{nullptr, static_cast<int>(i), 0});
    });
  };
  EXPECT_EQ(fill(8), 0u);
  EXPECT_GT(fill(9), 0u);
}

}  // namespace
}  // namespace cosched
