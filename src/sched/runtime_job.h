// Runtime scheduling state of one job inside a scheduling domain.
#pragma once

#include "util/error.h"
#include "util/fields.h"
#include "util/types.h"
#include "workload/job.h"

namespace cosched {

enum class JobState {
  kQueued,   ///< waiting in the queue
  kHolding,  ///< coscheduling hold: occupies nodes, waiting for its mate
  kRunning,  ///< executing
  kFinished, ///< completed
};

const char* to_string(JobState s);

struct RuntimeJob {
  JobSpec spec;
  JobState state = JobState::kQueued;

  Time start = kNoTime;
  Time end = kNoTime;

  /// First moment the scheduler selected this job and assigned nodes ("ready"
  /// in the paper's terms).  Without coscheduling the job would have started
  /// here; (start - first_ready) is its paired-job synchronization time.
  Time first_ready = kNoTime;

  /// When the current hold began (kNoTime unless holding).
  Time hold_since = kNoTime;

  /// Charged nodes while holding or running.
  NodeCount allocated = 0;

  /// Number of times the job yielded its turn to run.
  int yield_count = 0;

  /// Number of times the job's hold was forcibly released (deadlock breaker).
  int forced_releases = 0;

  /// When set, the job sorts below every normal job for the next scheduling
  /// iteration (the paper demotes a force-released holder to lowest priority
  /// so the jobs it was blocking can take the nodes).
  bool demoted = false;

  /// Additive priority boost accumulated from yields (optional enhancement).
  double priority_boost = 0.0;

  Duration wait_time() const {
    return start == kNoTime ? 0 : start - spec.submit;
  }
  Duration response_time() const {
    return end == kNoTime ? 0 : end - spec.submit;
  }
  /// Paper metric: response time / runtime.
  double slowdown() const {
    if (end == kNoTime || spec.runtime <= 0) return 0.0;
    return static_cast<double>(response_time()) /
           static_cast<double>(spec.runtime);
  }
  /// Extra wait caused by coscheduling (0 for unpaired or never-ready jobs).
  Duration sync_time() const {
    if (start == kNoTime || first_ready == kNoTime) return 0;
    return start - first_ready;
  }

  COSCHED_FIELDS(RuntimeJob, spec, state, start, end, first_ready, hold_since,
                 allocated, yield_count, forced_releases, demoted,
                 priority_boost)
  friend void check_durable(const RuntimeJob& j) {
    if (j.state > JobState::kFinished)
      throw ParseError("snapshot: bad job state");
    for (Time t : {j.start, j.end, j.first_ready, j.hold_since})
      check_durable_time(t);
  }
};

}  // namespace cosched
