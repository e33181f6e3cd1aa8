#include "metrics/report.h"

#include <algorithm>

namespace cosched {

SystemMetrics collect_metrics(const Scheduler& sched, Time end_time,
                              std::string system_name) {
  SystemMetrics m;
  m.system = std::move(system_name);
  m.makespan = end_time;

  double wait_sum = 0, slow_sum = 0, bslow_sum = 0;
  double sync_sum = 0;
  constexpr double kBound = 600.0;  // 10-minute bounded-slowdown floor

  std::size_t finished_paired = 0;
  sched.for_each_job([&](JobId id, const RuntimeJob& job) {
    (void)id;
    ++m.jobs_total;
    m.total_yields += job.yield_count;
    m.total_forced_releases += job.forced_releases;
    if (job.spec.is_paired()) ++m.paired_jobs;
    if (job.state != JobState::kFinished || job.start == kNoTime) return;
    ++m.jobs_finished;

    const auto wait = static_cast<double>(job.wait_time());
    wait_sum += wait;
    m.max_wait_minutes =
        std::max(m.max_wait_minutes, to_minutes(job.wait_time()));

    slow_sum += job.slowdown();
    const double resp = static_cast<double>(job.response_time());
    bslow_sum += std::max(
        1.0, resp / std::max(static_cast<double>(job.spec.runtime), kBound));

    if (job.spec.is_paired()) {
      ++finished_paired;
      const auto sync = static_cast<double>(job.sync_time());
      sync_sum += sync;
      m.max_sync_minutes =
          std::max(m.max_sync_minutes, to_minutes(job.sync_time()));
    }
  });

  if (m.jobs_finished > 0) {
    const auto n = static_cast<double>(m.jobs_finished);
    m.avg_wait_minutes = wait_sum / n / kMinute;
    m.avg_slowdown = slow_sum / n;
    m.avg_bounded_slowdown = bslow_sum / n;
  }

  // Sync averages over finished paired jobs.
  if (finished_paired > 0)
    m.avg_sync_minutes =
        sync_sum / static_cast<double>(finished_paired) / kMinute;

  m.held_node_hours = sched.pool().held_node_seconds() / kHour;
  m.held_fraction = sched.pool().held_fraction(end_time);
  m.utilization = sched.pool().utilization(end_time);
  return m;
}

}  // namespace cosched
