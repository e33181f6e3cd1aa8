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
  heap_.push_back(Entry{t, priority, next_seq_++, slot, s.gen});
  std::push_heap(heap_.begin(), heap_.end(), Later{});
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
  ++s.gen;  // the heap entry, now stale, is skipped as a tombstone
  free_.push_back(slot);
  ++dead_;
  --armed_;
  ++cancelled_;
  maybe_compact();
  return true;
}

void Engine::maybe_compact() {
  if (heap_.size() < kCompactMinHeap || dead_ * 2 <= heap_.size()) return;
  const auto live_end =
      std::remove_if(heap_.begin(), heap_.end(), [this](const Entry& e) {
        return slots_[e.slot].gen != e.gen;
      });
  const auto removed =
      static_cast<std::uint64_t>(std::distance(live_end, heap_.end()));
  heap_.erase(live_end, heap_.end());
  std::make_heap(heap_.begin(), heap_.end(), Later{});
  dead_ -= removed;
  tombstones_ += removed;
  ++compactions_;
}

const Engine::Entry* Engine::peek_live() {
  while (!heap_.empty()) {
    const Entry& e = heap_.front();
    if (slots_[e.slot].gen == e.gen) return &e;
    std::pop_heap(heap_.begin(), heap_.end(), Later{});
    heap_.pop_back();
    --dead_;
    ++tombstones_;
  }
  return nullptr;
}

std::optional<Engine::Next> Engine::peek_next() {
  Batch* first = nullptr;
  for (const auto& b : batches_)
    if (first == nullptr || Later{}(first->head(), b->head())) first = b.get();
  const Entry* top = peek_live();
  if (first != nullptr && (top == nullptr || Later{}(*top, first->head())))
    return Next{first->times[first->next], first};
  if (top == nullptr) return std::nullopt;
  return Next{top->time, nullptr};
}

void Engine::exec_top() {
  const Entry e = heap_.front();
  std::pop_heap(heap_.begin(), heap_.end(), Later{});
  heap_.pop_back();
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
