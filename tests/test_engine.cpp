#include "sim/engine.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <span>
#include <string>
#include <tuple>
#include <utility>
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
  for (Time t : {5, 10, 15})
    e.schedule_at(t, 0, [&, t] { fired.push_back(t); });
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

TEST(Engine, TombstoneHeavyHeapAndRunAreEachCompacted) {
  // Descending times: each event is earlier than the tail of priority 1's
  // run, so all but the first wait in the heap.  Ascending times at
  // priority 2 all join that priority's run.
  Engine e;
  std::vector<EventId> heap_ids, run_ids;
  std::vector<std::pair<Time, int>> ran;
  for (int i = 0; i < 200; ++i) {
    heap_ids.push_back(e.schedule_at(3000 - i, 1, [&] {
      ran.emplace_back(e.now(), 1);
    }));
    run_ids.push_back(e.schedule_at(2800 + i, 2, [&] {
      ran.emplace_back(e.now(), 2);
    }));
  }
  for (int i = 0; i < 200; ++i)
    if (i % 4 != 0) e.cancel(heap_ids[i]);
  const std::uint64_t after_heap = e.heap_compactions();
  EXPECT_GE(after_heap, 1u);
  for (int i = 0; i < 200; ++i)
    if (i % 4 != 0) e.cancel(run_ids[i]);
  EXPECT_GT(e.heap_compactions(), after_heap);
  EXPECT_EQ(e.pending(), 100u);
  EXPECT_EQ(e.peak_pending(), 400u);  // heap and run entries alike
  e.run();
  std::vector<std::pair<Time, int>> expect;
  for (int i = 0; i < 200; i += 4) {
    expect.emplace_back(3000 - i, 1);
    expect.emplace_back(2800 + i, 2);
  }
  std::sort(expect.begin(), expect.end());  // (time, priority) order
  EXPECT_EQ(ran, expect);
  EXPECT_EQ(e.tombstones_skipped(), e.cancelled_total());
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

/// The order the engine must reproduce, built the simplest way: every
/// event, batch entries included, in one list, and each step runs the least
/// (time, priority, seq) found by a linear scan.
class ReferenceEngine {
 public:
  Time now() const { return now_; }

  EventId schedule_at(Time t, int priority, std::function<void()> fn) {
    COSCHED_CHECK(t >= now_);
    events_.push_back({t, priority, seq_++, ++last_id_, false, std::move(fn)});
    ++scheduled_;
    const auto live = static_cast<std::size_t>(std::ranges::count_if(
        events_, [](const Event& e) { return !e.batch; }));
    peak_pending_ = std::max(peak_pending_, live);
    return last_id_;
  }

  void schedule_batch(std::span<const Time> times, int priority,
                      std::function<void(std::size_t)> fire) {
    for (std::size_t i = 0; i < times.size(); ++i)
      events_.push_back(
          {times[i], priority, seq_++, 0, true, [fire, i] { fire(i); }});
    scheduled_ += times.size();
  }

  bool cancel(EventId id) {
    const auto it = std::ranges::find_if(
        events_, [id](const Event& e) { return !e.batch && e.id == id; });
    if (it == events_.end()) return false;
    events_.erase(it);
    ++cancelled_;
    return true;
  }

  bool step() {
    if (events_.empty()) return false;
    const auto it = first();
    Event e = std::move(*it);
    events_.erase(it);
    now_ = e.time;
    ++executed_;
    e.fn();
    return true;
  }

  void run() {
    while (step()) {
    }
  }

  void run_until(Time t) {
    while (!events_.empty() && first()->time <= t) step();
    now_ = t;
  }

  std::size_t pending() const { return events_.size(); }
  std::uint64_t executed() const { return executed_; }
  std::uint64_t scheduled_total() const { return scheduled_; }
  std::uint64_t cancelled_total() const { return cancelled_; }
  std::size_t peak_pending() const { return peak_pending_; }

 private:
  struct Event {
    Time time;
    int priority;
    std::uint64_t seq;
    EventId id;
    bool batch;
    std::function<void()> fn;
  };

  std::vector<Event>::iterator first() {
    return std::ranges::min_element(
        events_, [](const Event& a, const Event& b) {
          return std::tie(a.time, a.priority, a.seq) <
                 std::tie(b.time, b.priority, b.seq);
        });
  }

  Time now_ = 0;
  std::uint64_t seq_ = 0;
  EventId last_id_ = 0;
  std::uint64_t scheduled_ = 0;
  std::uint64_t cancelled_ = 0;
  std::uint64_t executed_ = 0;
  std::size_t peak_pending_ = 0;
  std::vector<Event> events_;
};

/// A random script of schedule_at events, batches, cancels, run_until
/// boundaries and steps, run on engine type E, with real batches or, as a
/// reference, with one schedule_at per batch entry at the same point.
/// Every decision is drawn from (seed, label of the running event), so two
/// runs that execute the same events in the same order make the same
/// decisions.  Times and priorities come from small ranges, so most events
/// tie on (time, priority) with another one, and many are earlier than the
/// last event queued at their priority.  Bursts of 70 events at one
/// priority, in ascending or descending time, with three in four cancelled,
/// make whole queues mostly tombstones.
template <class E>
class EngineScript {
 public:
  EngineScript(std::uint64_t seed, bool batched)
      : seed_(seed), batched_(batched) {}

  /// The labelled execution order, cancel verdicts and counter checkpoints.
  std::vector<std::string> run() {
    Rng rng(seed_);
    for (int op = 0; op < 40; ++op) {
      switch (rng.uniform_int(0, 9)) {
        case 0:
        case 1:
          add_event(e_.now() + rng.uniform_int(0, 30), priority(rng));
          break;
        case 2:
        case 3:
          add_batch(rng);
          break;
        case 4:
        case 5:
          e_.run_until(e_.now() + rng.uniform_int(0, 15));
          break;
        case 6:
        case 7:
          for (auto n = rng.uniform_int(0, 3); n > 0; --n) e_.step();
          break;
        case 8:
          cancel_one(rng);
          break;
        default:
          burst(rng);
          break;
      }
      checkpoint("op" + std::to_string(op));
    }
    e_.run();
    checkpoint("end");
    return log_;
  }

  /// peak_pending() at each checkpoint (it counts batch entries only when
  /// they were scheduled one by one, so it is kept out of the log).
  const std::vector<std::size_t>& peaks() const { return peaks_; }
  const E& engine() const { return e_; }

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
    cancel(static_cast<std::size_t>(rng.uniform_int(0, last)));
  }

  void cancel(std::size_t k) {
    const bool ok = e_.cancel(cancellable_[k]);
    log_.push_back("cancel " + std::to_string(k) + (ok ? " ok" : " no-op"));
  }

  void burst(Rng& rng) {
    const int prio = priority(rng);
    const bool ascending = rng.uniform_int(0, 1) == 0;
    const std::size_t first = cancellable_.size();
    for (int i = 0; i < 70; ++i)
      add_event(e_.now() + 20 + (ascending ? i : 70 - i), prio);
    for (std::size_t k = first; k < cancellable_.size(); ++k)
      if (rng.uniform_int(0, 3) != 0) cancel(k);
  }

  /// Runs event `label`: logs it, then may schedule at now or later, add a
  /// batch at the advanced clock, or cancel, while the script is small.
  void body(int label) {
    log_.push_back(std::to_string(label) + "@" + std::to_string(e_.now()));
    Rng rng(seed_ * 1000003 + static_cast<std::uint64_t>(label));
    if (next_label_ > 600) return;
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
    log_.push_back("cancelled=" + std::to_string(e_.cancelled_total()));
    peaks_.push_back(e_.peak_pending());
  }

  std::uint64_t seed_;
  bool batched_;
  E e_;
  int next_label_ = 0;
  std::vector<EventId> cancellable_;  ///< schedule_at events, in order
  std::vector<std::string> log_;
  std::vector<std::size_t> peaks_;
};

TEST(Engine, RunsHeapAndBatchesMatchOneSortedList) {
  std::size_t log_lines = 0;
  std::uint64_t compactions = 0;
  for (std::uint64_t seed = 1; seed <= 300; ++seed) {
    EngineScript<Engine> engine(seed, true);
    EngineScript<ReferenceEngine> reference(seed, true);
    const std::vector<std::string> log = engine.run();
    ASSERT_EQ(log, reference.run()) << "seed " << seed;
    ASSERT_EQ(engine.peaks(), reference.peaks()) << "seed " << seed;
    log_lines += log.size();
    compactions += engine.engine().heap_compactions();
  }
  EXPECT_GT(log_lines, 10000u);  // the scripts did real work
  EXPECT_GT(compactions, 0u);     // and made queues mostly tombstones
}

TEST(Engine, BatchesRunExactlyWhereOneEventPerEntryWould) {
  std::size_t log_lines = 0;
  for (std::uint64_t seed = 1; seed <= 300; ++seed) {
    const auto batched = EngineScript<Engine>(seed, true).run();
    const auto reference = EngineScript<Engine>(seed, false).run();
    ASSERT_EQ(batched, reference) << "seed " << seed;
    log_lines += batched.size();
  }
  EXPECT_GT(log_lines, 10000u);  // the scripts did real work
}

}  // namespace
}  // namespace cosched
