// Trace-level job description.
//
// A JobSpec is what a workload trace contains: static facts about a job known
// at submission (plus its actual runtime, which the simulator reveals only at
// completion).  Runtime scheduling state lives in sched::Job, not here.
#pragma once

#include <cstdint>
#include <string>

#include "util/error.h"
#include "util/fields.h"
#include "util/types.h"

namespace cosched {

/// Throws ParseError unless a decoded time or duration lies in
/// [kNoTime, 2^62), so that the sum of any two fits in a Time.
inline void check_durable_time(Time t) {
  if (t < kNoTime || t >= Time{1} << 62)
    throw ParseError("durable: time out of range");
}

/// Identifier of a coscheduling group.  Jobs sharing a group id (on different
/// systems) are "associated" in the paper's sense and must start together.
using GroupId = std::int64_t;

/// Sentinel meaning "not associated with any other job".
inline constexpr GroupId kNoGroup = -1;

struct JobSpec {
  /// Trace-local identifier (unique within one system's trace).
  JobId id = kNoJob;

  /// Submission (arrival) time.
  Time submit = 0;

  /// Actual runtime.  The scheduler does not see this until the job ends.
  Duration runtime = 0;

  /// User-requested walltime; schedulers use it for backfill estimates.
  /// Always >= 1; usually >= runtime (jobs hitting the limit are killed at
  /// walltime by real systems; we model runtime = min(runtime, walltime)).
  Duration walltime = 0;

  /// Requested node count.
  NodeCount nodes = 0;

  /// Coscheduling group (kNoGroup for regular jobs).
  GroupId group = kNoGroup;

  /// Same-domain ordering constraint: this job may not start until job
  /// `after` has finished (SWF "preceding job" field; the paper notes
  /// job-ordering constraints as the temporal dependency RMs already
  /// support, in contrast to co-execution).
  JobId after = kNoJob;

  /// Minimum gap between `after`'s completion and this job's earliest start
  /// (SWF "think time").  Ignored when `after` is kNoJob.
  Duration after_delay = 0;

  /// Trace user id (kept for SWF round-trips; not used by schedulers).
  std::int32_t user = 0;

  bool is_paired() const { return group != kNoGroup; }
  bool has_dependency() const { return after != kNoJob; }

  COSCHED_FIELDS(JobSpec, id, submit, runtime, walltime, nodes, group, after,
                 after_delay, user)
  /// A table of specs is keyed by id, so it stores the specs alone.
  friend JobId durable_key(const JobSpec& s) { return s.id; }
  friend void check_durable(const JobSpec& s) {
    for (Time t : {s.submit, s.runtime, s.walltime, s.after_delay})
      check_durable_time(t);
  }
};

}  // namespace cosched
