#include "sim/engine.h"

#include <algorithm>
#include <utility>

namespace cosched {

EventId Engine::schedule_at(Time t, int priority, Handler fn) {
  COSCHED_CHECK(fn != nullptr);
  COSCHED_CHECK_MSG(t >= now_, "cannot schedule event in the past: t="
                                   << t << " now=" << now_);
  std::uint32_t slot;
  if (!free_.empty()) {
    slot = free_.back();
    free_.pop_back();
  } else {
    slot = static_cast<std::uint32_t>(slots_.size());
    slots_.emplace_back();
  }
  Slot& s = slots_[slot];
  s.fn = std::move(fn);
  const Entry e{t, priority, next_seq_++, slot, s.gen};
  // The run takes the entry iff it keeps the run sorted: its seq is the
  // newest, so a time no earlier than the tail's is enough.
  const std::uint32_t r = run_for(priority);
  Run& run = runs_[r];
  if (run.empty() || run.entries.back().time <= t) {
    s.queue = r;
    run.entries.push_back(e);
  } else {
    s.queue = kHeap;
    heap_.push_back(e);
    std::push_heap(heap_.begin(), heap_.end(), Later{});
  }
  ++scheduled_;
  ++armed_;
  peak_pending_ = std::max(peak_pending_, armed_ - batch_armed_);
  return (static_cast<EventId>(s.gen) << 32) | slot;
}

void Engine::schedule_batch(std::span<const Time> times, int priority,
                            BatchHandler fire) {
  COSCHED_CHECK(fire != nullptr);
  if (times.empty()) return;
  COSCHED_CHECK_MSG(times.front() >= now_,
                    "cannot schedule event in the past: t="
                        << times.front() << " now=" << now_);
  COSCHED_CHECK_MSG(std::ranges::is_sorted(times),
                    "batch times must be non-decreasing");
  auto batch = std::make_unique<Batch>();
  batch->times.assign(times.begin(), times.end());
  batch->base = next_seq_;
  batch->priority = priority;
  batch->fire = std::move(fire);
  batches_.push_back(std::move(batch));
  next_seq_ += times.size();
  scheduled_ += times.size();
  armed_ += times.size();
  batch_armed_ += times.size();
}

bool Engine::cancel(EventId id) {
  const auto gen = static_cast<std::uint32_t>(id >> 32);
  const auto slot = static_cast<std::uint32_t>(id);
  if (slot >= slots_.size()) return false;
  Slot& s = slots_[slot];
  if (s.gen != gen || !s.fn) return false;
  s.fn = nullptr;
  ++s.gen;  // the queued entry, now stale, is skipped as a tombstone
  free_.push_back(slot);
  if (s.queue == kHeap)
    ++dead_;
  else
    ++runs_[s.queue].dead;
  --armed_;
  ++cancelled_;
  maybe_compact(s.queue);
  return true;
}

std::uint32_t Engine::run_for(int priority) {
  for (std::uint32_t i = 0; i < runs_.size(); ++i)
    if (runs_[i].priority == priority) return i;
  runs_.push_back(Run{priority, {}, 0, 0});
  return static_cast<std::uint32_t>(runs_.size() - 1);
}

void Engine::maybe_compact(std::uint32_t queue) {
  const auto dead = [this](const Entry& e) { return !live(e); };
  std::size_t removed = 0;
  if (queue == kHeap) {
    if (heap_.size() < kCompactMinSize || dead_ * 2 <= heap_.size()) return;
    removed = static_cast<std::size_t>(std::erase_if(heap_, dead));
    std::make_heap(heap_.begin(), heap_.end(), Later{});
    dead_ -= removed;
  } else {
    Run& r = runs_[queue];
    if (r.size() < kCompactMinSize || r.dead * 2 <= r.size()) return;
    // Dropping the popped prefix too keeps the survivors' order.
    r.entries.erase(r.entries.begin(),
                    r.entries.begin() + static_cast<std::ptrdiff_t>(r.head));
    r.head = 0;
    removed = static_cast<std::size_t>(std::erase_if(r.entries, dead));
    r.dead -= removed;
  }
  tombstones_ += removed;
  ++compactions_;
}

const Engine::Entry* Engine::peek_live() {
  while (!heap_.empty()) {
    const Entry& e = heap_.front();
    if (live(e)) return &e;
    std::pop_heap(heap_.begin(), heap_.end(), Later{});
    heap_.pop_back();
    --dead_;
    ++tombstones_;
  }
  return nullptr;
}

bool Engine::peek_live(Run& r) {
  while (!r.empty()) {
    if (live(r.front())) return true;
    r.pop_front();
    --r.dead;
    ++tombstones_;
  }
  return false;
}

std::optional<Engine::Next> Engine::peek_next() {
  // The least entry so far and where it waits.
  const Entry* best = peek_live();
  Next n{0};
  Entry head{};
  for (Run& r : runs_) {
    if (!peek_live(r)) continue;
    if (best == nullptr || Later{}(*best, r.front())) {
      best = &r.front();
      n.run = &r;
    }
  }
  for (const auto& b : batches_) {
    if (best != nullptr && !Later{}(*best, b->head())) continue;
    head = b->head();
    best = &head;
    n.run = nullptr;
    n.batch = b.get();
  }
  if (best == nullptr) return std::nullopt;
  n.time = best->time;
  return n;
}

void Engine::exec(const Next& n) {
  if (n.batch != nullptr) {
    exec_batch(*n.batch);
    return;
  }
  Entry e;
  if (n.run != nullptr) {
    e = n.run->front();
    n.run->pop_front();
  } else {
    e = heap_.front();
    std::pop_heap(heap_.begin(), heap_.end(), Later{});
    heap_.pop_back();
  }
  exec_entry(e);
}

void Engine::exec_entry(const Entry& e) {
  Slot& s = slots_[e.slot];
  Handler fn = std::move(s.fn);
  s.fn = nullptr;
  ++s.gen;
  free_.push_back(e.slot);
  --armed_;
  now_ = e.time;
  ++executed_;
  fn();  // may schedule events and grow slots_; no slot refs held past here
}

void Engine::exec_batch(Batch& b) {
  const std::size_t i = b.next++;
  --armed_;
  --batch_armed_;
  now_ = b.times[i];
  ++executed_;
  if (b.next < b.times.size()) {
    b.fire(i);  // may schedule batches; `b` stays put behind its pointer
    return;
  }
  // Last entry: own the batch here so it is released once fire returns.
  auto it = batches_.begin();
  while (it->get() != &b) ++it;
  const std::unique_ptr<Batch> last = std::move(*it);
  batches_.erase(it);
  last->fire(i);
}

bool Engine::step() {
  const std::optional<Next> n = peek_next();
  if (!n) return false;
  exec(*n);
  return true;
}

void Engine::run() {
  while (step()) {
  }
}

void Engine::run_until(Time t) {
  COSCHED_CHECK(t >= now_);
  for (auto n = peek_next(); n && n->time <= t; n = peek_next()) exec(*n);
  now_ = t;
}

}  // namespace cosched
