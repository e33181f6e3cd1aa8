// Discrete-event simulation engine.
//
// This is the substrate the paper's evaluation runs on: the authors extended
// Qsim (the event-driven simulator shipped with the Cobalt resource manager)
// to drive multiple scheduling domains from one event clock.  We reproduce
// that design: a single engine owns the clock and one serial event queue,
// and every scheduling domain (cluster) registers events on it, so
// cross-domain coscheduling interactions are totally ordered and
// deterministic.
//
// Determinism rules:
//  * Time is integer seconds.
//  * Events at equal time are ordered by (priority, insertion sequence).
//  * Handlers may schedule further events at >= now.
//
// Storage: handlers live in generation-tagged slots recycled through a free
// list, so steady-state scheduling allocates nothing beyond the queue entry.
// cancel() detaches the slot in O(1); the queued entry becomes a tombstone
// drained when it reaches the front of its queue, and a queue that is more
// than half tombstones is compacted in one O(n) pass instead of draining
// lazily one-by-one.
//
// Runs beside the heap: many events are armed a fixed delay ahead (yield
// retries, periodic ticks), so at their priority they arrive in time order
// and need no sift.  An event whose time is not earlier than the last event
// queued in its priority's run goes to the back of that FIFO run; any other
// event goes to the binary heap.  A run is therefore sorted under the same
// (time, priority, seq) order as the heap, and popping its head is O(1).
//
// Batches beside the heap: a simulation's trace arrivals are known up front
// and already in time order, so schedule_batch() keeps them out of the heap.
// A batch reserves one sequence number per entry when it is scheduled and
// holds only the entries' times (8 bytes each); entry i's sequence number is
// the batch's base plus i.
//
// Every step runs the least of the live heap top, the run heads and the
// batch heads under that one (time, priority, seq) order, so the event
// order is exactly the one a single heap holding every event would give.
// pending() and the event counters count run and batch entries like any
// other event; peak_pending() is the high-water mark of live events in the
// heap and the runs together, batch entries excluded.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "util/error.h"
#include "util/types.h"

namespace cosched {

/// Ordering classes for events that share a timestamp.  Lower runs first.
/// Completions precede arrivals so nodes freed at time T are available to a
/// job arriving at T; scheduling iterations run after all state changes at T.
struct EventPriority {
  static constexpr int kJobEnd = 0;
  static constexpr int kHoldRelease = 10;
  static constexpr int kJobSubmit = 20;
  static constexpr int kMessage = 30;
  static constexpr int kSchedule = 40;
  static constexpr int kStats = 50;
};

/// Handle identifying a scheduled event; used for cancellation.  Encodes
/// (slot generation, slot index), so handles from executed or cancelled
/// events — even ones whose slot was since recycled — never alias a live
/// event.
using EventId = std::uint64_t;

/// The benchmark's frozen wiring (perfbench/coupled_month/traced_wiring.cpp)
/// still declares one execution lane per coupling group; with one serial
/// queue there are no lanes, so the alias below and the three members that
/// take or return it (two on Engine, one on Cluster) are no-ops kept only
/// for that caller.
using SourceId = std::uint32_t;

class Engine {
 public:
  using Handler = std::function<void()>;
  /// Runs batch entry i (see schedule_batch()).
  using BatchHandler = std::function<void(std::size_t)>;

  Engine() = default;
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// Current simulated time.  Starts at 0.
  Time now() const { return now_; }

  /// Schedules a handler at absolute time `t` (>= now).  Returns a handle
  /// for cancel().
  EventId schedule_at(Time t, int priority, Handler fn);

  /// Schedules `fire(i)` at `times[i]` for every entry of `times`, which
  /// must be non-decreasing and >= now.  Entry i takes sequence number
  /// base + i, reserved now, so it runs exactly where schedule_at(times[i],
  /// priority, ...) called here once per entry would have put it.  Entries
  /// cannot be cancelled.  The batch (its times and `fire`) is released
  /// when its last entry runs.
  void schedule_batch(std::span<const Time> times, int priority,
                      BatchHandler fire);

  /// Schedules a handler `d` seconds from now.
  EventId schedule_in(Duration d, int priority, Handler fn) {
    COSCHED_CHECK(d >= 0);
    return schedule_at(now_ + d, priority, std::move(fn));
  }

  /// Cancels a pending event.  Returns false if it already ran or was
  /// cancelled before.
  bool cancel(EventId id);

  /// Runs the next pending event; returns false when the queue is empty.
  bool step();

  /// Runs until the queue is empty.
  void run();

  /// Runs all events with time <= `t`, then sets the clock to `t`.
  void run_until(Time t);

  /// Number of scheduled (uncancelled) events, unfired batch entries
  /// included.
  std::size_t pending() const { return armed_; }

  /// Total number of events executed (for micro-benchmarks and tests).
  std::uint64_t executed() const { return executed_; }

  // -- engine counters ---------------------------------------------------

  /// Total events ever scheduled.
  std::uint64_t scheduled_total() const { return scheduled_; }

  /// Total events cancelled before running.
  std::uint64_t cancelled_total() const { return cancelled_; }

  /// High-water mark of live schedule_at() events, whether they wait in
  /// the heap or in a run; batch entries are excluded.
  std::size_t peak_pending() const { return peak_pending_; }

  /// Cancelled entries dropped while popping or compacting.
  std::uint64_t tombstones_skipped() const { return tombstones_; }

  /// One-pass tombstone compactions of the heap or of a run (lazy drain
  /// replaced by one rebuild).
  std::uint64_t heap_compactions() const { return compactions_; }

  /// True iff `id` names an event that is scheduled and has neither run
  /// nor been cancelled (test/debug hook).
  bool is_pending(EventId id) const {
    const auto slot = static_cast<std::uint32_t>(id);
    return slot < slots_.size() &&
           slots_[slot].gen == static_cast<std::uint32_t>(id >> 32) &&
           slots_[slot].fn != nullptr;
  }

  // No-ops for the benchmark's frozen wiring; see SourceId above.
  void add_dependency(SourceId, SourceId) {}
  void build_clusters() {}

 private:
  struct Slot {
    std::uint32_t gen = 1;    ///< bumped on cancel/execute; 0 is never issued
    std::uint32_t queue = 0;  ///< where the entry waits: kHeap or a run index
    Handler fn;
  };
  struct Entry {
    Time time;
    int priority;
    std::uint64_t seq;
    std::uint32_t slot;
    std::uint32_t gen;
  };
  struct Later {
    bool operator()(const Entry& a, const Entry& b) const {
      if (a.time != b.time) return a.time > b.time;
      if (a.priority != b.priority) return a.priority > b.priority;
      return a.seq > b.seq;
    }
  };
  struct Batch {
    std::vector<Time> times;
    std::uint64_t base = 0;  ///< sequence number of times[0]
    std::size_t next = 0;    ///< first unfired entry
    int priority = 0;
    BatchHandler fire;
    /// The next entry, ordered like a heap entry (slot and gen unused).
    Entry head() const { return {times[next], priority, base + next, 0, 0}; }
  };
  /// One priority's FIFO run: entries in (time, seq) order from `head`.
  struct Run {
    int priority = 0;
    std::vector<Entry> entries;  ///< [head, size) are queued
    std::size_t head = 0;
    std::size_t dead = 0;  ///< tombstones among the queued entries
    bool empty() const { return head == entries.size(); }
    std::size_t size() const { return entries.size() - head; }
    const Entry& front() const { return entries[head]; }
    /// Drops the head; reclaims the popped prefix once it outgrows the
    /// queued entries, so a steady run reuses its storage.
    void pop_front() {
      if (++head == entries.size()) {
        entries.clear();
        head = 0;
      } else if (head >= entries.size() - head) {
        entries.erase(entries.begin(),
                      entries.begin() + static_cast<std::ptrdiff_t>(head));
        head = 0;
      }
    }
  };
  /// The event to run next: a batch head, a run head or the heap top.
  struct Next {
    Time time;
    Batch* batch = nullptr;
    Run* run = nullptr;
  };

  /// Slot::queue of an entry that waits in the heap.
  static constexpr std::uint32_t kHeap = UINT32_MAX;
  /// Minimum queue size before tombstone compaction is considered.
  static constexpr std::size_t kCompactMinSize = 64;

  bool live(const Entry& e) const { return slots_[e.slot].gen == e.gen; }
  /// The run for `priority`, created on first use.
  std::uint32_t run_for(int priority);
  /// Drains cancelled entries off the heap top; returns the next live entry
  /// or nullptr when the heap is empty.
  const Entry* peek_live();
  /// Drains cancelled entries off `r`'s head; true iff a live one is left.
  bool peek_live(Run& r);
  /// Compacts the queue `queue` (kHeap or a run index) when more than half
  /// its entries are tombstones.
  void maybe_compact(std::uint32_t queue);
  /// The least of the live heap top, the live run heads and the batch
  /// heads, or nothing when no event is pending.
  std::optional<Next> peek_next();
  /// Runs a popped heap or run entry.
  void exec_entry(const Entry& e);
  /// Executes `b`'s next entry, releasing the batch after its last one.
  void exec_batch(Batch& b);
  /// Executes the event peek_next() returned.
  void exec(const Next& n);

  Time now_ = 0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t executed_ = 0;
  std::uint64_t scheduled_ = 0;
  std::uint64_t cancelled_ = 0;
  std::uint64_t tombstones_ = 0;
  std::uint64_t compactions_ = 0;
  std::size_t armed_ = 0;        ///< live queued events + unfired batch entries
  std::size_t batch_armed_ = 0;  ///< unfired batch entries
  std::size_t peak_pending_ = 0;
  std::vector<Entry> heap_;  ///< binary heap via std::push_heap/pop_heap
  /// One FIFO run per priority seen, in first-use order.  Indexed, never
  /// held by reference across a handler, which may add a run.
  std::vector<Run> runs_;
  /// Batches with unfired entries, in scheduling order.  Held by pointer so
  /// a handler that schedules a batch cannot move the one that is running.
  std::vector<std::unique_ptr<Batch>> batches_;
  std::vector<Slot> slots_;
  std::vector<std::uint32_t> free_;
  std::size_t dead_ = 0;  ///< tombstones currently in heap_
};

}  // namespace cosched
