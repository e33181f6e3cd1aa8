#include "sim/engine.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "util/rng.h"

namespace cosched {
namespace {

TEST(Engine, RunsEventsInTimeOrder) {
  Engine e;
  std::vector<int> order;
  e.schedule_at(30, 0, [&] { order.push_back(3); });
  e.schedule_at(10, 0, [&] { order.push_back(1); });
  e.schedule_at(20, 0, [&] { order.push_back(2); });
  e.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(e.now(), 30);
}

TEST(Engine, SameTimeOrderedByPriorityThenSeq) {
  Engine e;
  std::vector<std::string> order;
  e.schedule_at(5, EventPriority::kSchedule, [&] { order.push_back("sched"); });
  e.schedule_at(5, EventPriority::kJobEnd, [&] { order.push_back("end"); });
  e.schedule_at(5, EventPriority::kJobSubmit, [&] { order.push_back("sub1"); });
  e.schedule_at(5, EventPriority::kJobSubmit, [&] { order.push_back("sub2"); });
  e.run();
  EXPECT_EQ(order,
            (std::vector<std::string>{"end", "sub1", "sub2", "sched"}));
}

TEST(Engine, HandlersCanScheduleMoreEvents) {
  Engine e;
  std::vector<Time> fired;
  e.schedule_at(1, 0, [&] {
    fired.push_back(e.now());
    e.schedule_in(9, 0, [&] { fired.push_back(e.now()); });
  });
  e.run();
  EXPECT_EQ(fired, (std::vector<Time>{1, 10}));
}

TEST(Engine, SchedulingInPastThrows) {
  Engine e;
  e.schedule_at(10, 0, [] {});
  e.run();
  EXPECT_EQ(e.now(), 10);
  EXPECT_THROW(e.schedule_at(5, 0, [] {}), InvariantError);
}

TEST(Engine, SameTimeAsNowIsAllowed) {
  Engine e;
  int count = 0;
  e.schedule_at(10, 0, [&] {
    e.schedule_at(10, 50, [&] { ++count; });
  });
  e.run();
  EXPECT_EQ(count, 1);
}

TEST(Engine, CancelPreventsExecution) {
  Engine e;
  int fired = 0;
  const EventId id = e.schedule_at(10, 0, [&] { ++fired; });
  e.schedule_at(5, 0, [&] { EXPECT_TRUE(e.cancel(id)); });
  e.run();
  EXPECT_EQ(fired, 0);
  EXPECT_FALSE(e.cancel(id));  // already cancelled
}

TEST(Engine, CancelAfterRunReturnsFalse) {
  Engine e;
  const EventId id = e.schedule_at(1, 0, [] {});
  e.run();
  EXPECT_FALSE(e.cancel(id));
}

TEST(Engine, StaleHandleDoesNotCancelTheEventReusingItsSlot) {
  Engine e;
  const EventId executed = e.schedule_at(1, 0, [] {});
  e.run();
  // The executed event's slot is free again; the next schedule reuses it.
  int fired = 0;
  const EventId reused = e.schedule_at(2, 0, [&] { ++fired; });
  EXPECT_NE(reused, executed);
  EXPECT_FALSE(e.cancel(executed));
  EXPECT_EQ(e.pending(), 1u);
  e.run();
  EXPECT_EQ(fired, 1);
}

TEST(Engine, StepReturnsFalseWhenEmpty) {
  Engine e;
  EXPECT_FALSE(e.step());
  e.schedule_at(0, 0, [] {});
  EXPECT_TRUE(e.step());
  EXPECT_FALSE(e.step());
}

TEST(Engine, RunUntilStopsAtBoundaryInclusive) {
  Engine e;
  std::vector<Time> fired;
  for (Time t : {5, 10, 15}) e.schedule_at(t, 0, [&, t] { fired.push_back(t); });
  e.run_until(10);
  EXPECT_EQ(fired, (std::vector<Time>{5, 10}));
  EXPECT_EQ(e.now(), 10);
  EXPECT_EQ(e.pending(), 1u);
  e.run();
  EXPECT_EQ(fired.back(), 15);
}

TEST(Engine, RunUntilAdvancesClockWithoutEvents) {
  Engine e;
  e.run_until(100);
  EXPECT_EQ(e.now(), 100);
}

TEST(Engine, PendingAndExecutedCounts) {
  Engine e;
  e.schedule_at(1, 0, [] {});
  const EventId id = e.schedule_at(2, 0, [] {});
  EXPECT_EQ(e.pending(), 2u);
  e.cancel(id);
  EXPECT_EQ(e.pending(), 1u);
  e.run();
  EXPECT_EQ(e.executed(), 1u);
}

TEST(Engine, TombstoneHeavyHeapIsCompactedInOneRebuild) {
  Engine e;
  std::vector<EventId> ids;
  std::vector<Time> ran;
  for (int i = 0; i < 1000; ++i)
    ids.push_back(e.schedule_at(1000 + i, 0, [&] { ran.push_back(e.now()); }));
  // Cancel 90%: once tombstones outnumber live entries the heap is
  // rebuilt in one O(n) pass instead of draining lazily one-by-one.
  for (int i = 0; i < 1000; ++i)
    if (i % 10 != 0) e.cancel(ids[i]);
  EXPECT_GE(e.heap_compactions(), 1u);
  EXPECT_EQ(e.pending(), 100u);
  EXPECT_EQ(e.cancelled_total(), 900u);
  // Ordering and execution of the survivors are unaffected.
  e.run();
  std::vector<Time> expect;
  for (int i = 0; i < 1000; i += 10) expect.push_back(1000 + i);
  EXPECT_EQ(ran, expect);
  EXPECT_EQ(e.executed(), 100u);
  EXPECT_EQ(e.pending(), 0u);
}

TEST(Engine, ManyEventsStressOrdering) {
  Engine e;
  Time last = -1;
  bool monotone = true;
  for (int i = 0; i < 10000; ++i) {
    const Time t = (i * 7919) % 1000;  // scattered times
    e.schedule_at(t, 0, [&, t] {
      if (t < last) monotone = false;
      last = t;
    });
  }
  e.run();
  EXPECT_TRUE(monotone);
  EXPECT_EQ(e.executed(), 10000u);
}

TEST(Engine, BatchRunsInTimeThenSequenceOrder) {
  Engine e;
  std::vector<std::string> order;
  e.schedule_at(5, 0, [&] { order.push_back("a"); });
  const std::vector<Time> times = {0, 5, 5, 9};
  e.schedule_batch(times, 0, [&](std::size_t i) {
    order.push_back("b" + std::to_string(i));
  });
  e.schedule_at(5, 0, [&] { order.push_back("c"); });
  EXPECT_EQ(e.pending(), 6u);
  EXPECT_EQ(e.scheduled_total(), 6u);
  e.run();
  EXPECT_EQ(order,
            (std::vector<std::string>{"b0", "a", "b1", "b2", "c", "b3"}));
  EXPECT_EQ(e.executed(), 6u);
  EXPECT_EQ(e.pending(), 0u);
  EXPECT_EQ(e.peak_pending(), 2u);  // the heap's mark; batch entries excluded
}

TEST(Engine, BatchRejectsUnsortedOrPastTimes) {
  Engine e;
  const auto noop = [](std::size_t) {};
  const std::vector<Time> unsorted = {1, 3, 2};
  EXPECT_THROW(e.schedule_batch(unsorted, 0, noop), InvariantError);
  e.run_until(10);
  const std::vector<Time> past = {9, 12};
  EXPECT_THROW(e.schedule_batch(past, 0, noop), InvariantError);
  EXPECT_EQ(e.pending(), 0u);
  EXPECT_EQ(e.scheduled_total(), 0u);
}

/// A random script of schedule_at events, batches, cancels, run_until
/// boundaries and steps, run with real batches or, as the reference, with
/// one schedule_at per batch entry at the same point.  Every decision is
/// drawn from (seed, label of the running event), so two runs that execute
/// the same events in the same order make the same decisions.  Times and
/// priorities come from small ranges, so most events tie on (time,
/// priority) with another one.
class EngineScript {
 public:
  EngineScript(std::uint64_t seed, bool batched)
      : seed_(seed), batched_(batched) {}

  /// The labelled execution order, cancel verdicts and counter checkpoints.
  std::vector<std::string> run() {
    Rng rng(seed_);
    for (int op = 0; op < 40; ++op) {
      switch (rng.uniform_int(0, 4)) {
        case 0:
          add_event(e_.now() + rng.uniform_int(0, 30), priority(rng));
          break;
        case 1:
          add_batch(rng);
          break;
        case 2:
          e_.run_until(e_.now() + rng.uniform_int(0, 15));
          break;
        case 3:
          for (auto n = rng.uniform_int(0, 3); n > 0; --n) e_.step();
          break;
        default:
          cancel_one(rng);
          break;
      }
      checkpoint("op" + std::to_string(op));
    }
    e_.run();
    checkpoint("end");
    return log_;
  }

 private:
  static int priority(Rng& rng) {
    return static_cast<int>(rng.uniform_int(0, 2));
  }

  void add_event(Time t, int prio) {
    const int label = next_label_++;
    const EventId id = e_.schedule_at(t, prio, [this, label] { body(label); });
    cancellable_.push_back(id);
  }

  /// 0–5 entries from now + [0, 10), sorted; an empty batch is a no-op.
  void add_batch(Rng& rng) {
    std::vector<Time> times(static_cast<std::size_t>(rng.uniform_int(0, 5)));
    for (Time& t : times) t = e_.now() + rng.uniform_int(0, 9);
    std::sort(times.begin(), times.end());
    const int prio = priority(rng);
    const int base = next_label_;
    next_label_ += static_cast<int>(times.size());
    if (batched_) {
      e_.schedule_batch(times, prio, [this, base](std::size_t i) {
        body(base + static_cast<int>(i));
      });
      return;
    }
    for (std::size_t i = 0; i < times.size(); ++i) {
      const int label = base + static_cast<int>(i);
      e_.schedule_at(times[i], prio, [this, label] { body(label); });
    }
  }

  void cancel_one(Rng& rng) {
    if (cancellable_.empty()) return;
    const auto last = static_cast<std::int64_t>(cancellable_.size()) - 1;
    const auto k = static_cast<std::size_t>(rng.uniform_int(0, last));
    const bool ok = e_.cancel(cancellable_[k]);
    log_.push_back("cancel " + std::to_string(k) + (ok ? " ok" : " no-op"));
  }

  /// Runs event `label`: logs it, then may schedule at now or later, add a
  /// batch at the advanced clock, or cancel, while the script is small.
  void body(int label) {
    log_.push_back(std::to_string(label) + "@" + std::to_string(e_.now()));
    Rng rng(seed_ * 1000003 + static_cast<std::uint64_t>(label));
    if (next_label_ > 300) return;
    switch (rng.uniform_int(0, 7)) {
      case 0:
      case 1:
        add_event(e_.now(), priority(rng));
        break;
      case 2:
        add_event(e_.now() + rng.uniform_int(1, 20), priority(rng));
        break;
      case 3:
        add_batch(rng);
        break;
      case 4:
        cancel_one(rng);
        break;
      default:
        break;
    }
  }

  void checkpoint(const std::string& what) {
    log_.push_back(what + " now=" + std::to_string(e_.now()));
    log_.push_back("executed=" + std::to_string(e_.executed()));
    log_.push_back("scheduled=" + std::to_string(e_.scheduled_total()));
    log_.push_back("pending=" + std::to_string(e_.pending()));
  }

  std::uint64_t seed_;
  bool batched_;
  Engine e_;
  int next_label_ = 0;
  std::vector<EventId> cancellable_;  ///< schedule_at events, in order
  std::vector<std::string> log_;
};

TEST(Engine, BatchesRunExactlyWhereOneEventPerEntryWould) {
  std::size_t log_lines = 0;
  for (std::uint64_t seed = 1; seed <= 300; ++seed) {
    const auto batched = EngineScript(seed, true).run();
    const auto reference = EngineScript(seed, false).run();
    ASSERT_EQ(batched, reference) << "seed " << seed;
    log_lines += batched.size();
  }
  EXPECT_GT(log_lines, 10000u);  // the scripts did real work
}

}  // namespace
}  // namespace cosched
