#include "workload/scaling.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include "util/error.h"

namespace cosched {

double offered_load(const Trace& trace, NodeCount capacity) {
  return trace.stats().offered_load(capacity);
}

void scale_arrival_intervals(Trace& trace, double factor) {
  COSCHED_CHECK(factor > 0);
  auto& jobs = trace.jobs();
  if (jobs.size() < 2) return;
  COSCHED_CHECK_MSG(trace.is_sorted(), "scale requires a sorted trace");
  const Time base = jobs.front().submit;
  double acc = static_cast<double>(base);
  Time prev_orig = base;
  for (std::size_t i = 1; i < jobs.size(); ++i) {
    const Time orig = jobs[i].submit;
    acc += static_cast<double>(orig - prev_orig) * factor;
    prev_orig = orig;
    jobs[i].submit = static_cast<Time>(std::llround(acc));
  }
}

double scale_to_offered_load(Trace& trace, NodeCount capacity,
                             double target_load) {
  COSCHED_CHECK(target_load > 0);
  const double current = offered_load(trace, capacity);
  if (current <= 0)
    throw Error("scale_to_offered_load: trace has no measurable load");
  // Load is inversely proportional to the span, which is proportional to the
  // interval scale factor.
  const double factor = current / target_load;
  scale_arrival_intervals(trace, factor);
  return factor;
}

void truncate_to_span(Trace& trace, Duration span) {
  auto& jobs = trace.jobs();
  if (jobs.empty()) return;
  const Time cutoff = jobs.front().submit + span;
  std::erase_if(jobs, [&](const JobSpec& j) { return j.submit >= cutoff; });
}

}  // namespace cosched
