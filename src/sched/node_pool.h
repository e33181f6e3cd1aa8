// Node pool: tracks busy (running) and held (coscheduling-hold) nodes and
// integrates node-time for the utilization and service-unit-loss metrics.
//
// "Held" nodes are the paper's hold scheme: a job occupies its assigned
// nodes while waiting for its remote mate.  The scheduler treats held nodes
// exactly like busy ones ("the scheduler treats the held nodes as busy");
// they are accounted separately because held node-hours are the paper's
// *service unit loss* metric (Figs. 6 and 10).
#pragma once

#include <memory>

#include "sched/allocation.h"
#include "util/fields.h"
#include "util/types.h"

namespace cosched {

class NodePool {
 public:
  /// A pool of `capacity` nodes.  `model` defines request→charge rounding;
  /// nullptr means plain (charge == request).
  explicit NodePool(NodeCount capacity,
                    std::shared_ptr<const AllocationModel> model = nullptr);

  NodeCount capacity() const { return capacity_; }
  NodeCount busy() const { return busy_; }
  NodeCount held() const { return held_; }
  NodeCount free() const { return capacity_ - busy_ - held_; }

  /// Nodes charged for a request under the allocation model.
  NodeCount charged(NodeCount requested) const;

  bool can_allocate(NodeCount charged_nodes) const {
    return charged_nodes <= free();
  }

  /// Moves `n` charged nodes free -> busy (job start).
  void allocate(NodeCount n, Time now);

  /// Moves `n` charged nodes busy -> free (job end).
  void release(NodeCount n, Time now);

  /// Moves `n` charged nodes free -> held (coscheduling hold).
  void hold(NodeCount n, Time now);

  /// Moves `n` charged nodes held -> free (forced hold release).
  void unhold(NodeCount n, Time now);

  /// Moves `n` charged nodes held -> busy (holding job's mate became ready).
  void hold_to_busy(NodeCount n, Time now);

  /// Integrates accounting up to `now` without changing state.
  void advance_to(Time now);

  /// Node-seconds spent busy (running jobs) so far.
  double busy_node_seconds() const { return busy_ns_; }

  /// Node-seconds spent held — the service-unit loss integrand.
  double held_node_seconds() const { return held_ns_; }

  /// Delivered utilization over [0, now]: busy node-seconds / (capacity*now).
  double utilization(Time now) const;

  /// Held-node fraction of total capacity-time (the Fig. 6/10 "lost system
  /// utilization rate").
  double held_fraction(Time now) const;

  /// Raw accounting state for snapshot/restore (core/journal.h).  Capacity
  /// and allocation model are construction-time facts and are not included.
  struct Accounting {
    NodeCount busy = 0;
    NodeCount held = 0;
    Time last_update = 0;
    double busy_ns = 0.0;
    double held_ns = 0.0;
    COSCHED_FIELDS(Accounting, busy, held, last_update, busy_ns, held_ns)
  };
  Accounting accounting() const {
    return {busy_, held_, last_update_, busy_ns_, held_ns_};
  }
  void restore(const Accounting& a) {
    busy_ = a.busy;
    held_ = a.held;
    last_update_ = a.last_update;
    busy_ns_ = a.busy_ns;
    held_ns_ = a.held_ns;
  }

 private:
  NodeCount capacity_;
  std::shared_ptr<const AllocationModel> model_;
  NodeCount busy_ = 0;
  NodeCount held_ = 0;
  Time last_update_ = 0;
  double busy_ns_ = 0.0;
  double held_ns_ = 0.0;
};

}  // namespace cosched
