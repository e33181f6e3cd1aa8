#include "workload/trace.h"

#include <algorithm>

#include "util/error.h"
#include "util/hashed.h"

namespace cosched {

double TraceStats::offered_load(NodeCount capacity) const {
  if (capacity <= 0 || span <= 0) return 0.0;
  return total_node_seconds /
         (static_cast<double>(capacity) * static_cast<double>(span));
}

Trace::Trace(std::string system_name, std::vector<JobSpec> jobs)
    : name_(std::move(system_name)), jobs_(std::move(jobs)) {
  sort_by_submit();
}

void Trace::sort_by_submit() {
  std::stable_sort(jobs_.begin(), jobs_.end(),
                   [](const JobSpec& a, const JobSpec& b) {
                     if (a.submit != b.submit) return a.submit < b.submit;
                     return a.id < b.id;
                   });
}

bool Trace::is_sorted() const {
  return std::is_sorted(jobs_.begin(), jobs_.end(),
                        [](const JobSpec& a, const JobSpec& b) {
                          return a.submit < b.submit;
                        });
}

void Trace::validate(NodeCount capacity) const {
  HashSet<JobId> seen;
  for (const JobSpec& j : jobs_) {
    if (j.id == kNoJob)
      throw ParseError("trace " + name_ + ": job without id");
    if (!seen.insert(j.id))
      throw ParseError("trace " + name_ + ": duplicate job id " +
                       std::to_string(j.id));
    if (j.nodes <= 0)
      throw ParseError("trace " + name_ + ": job " + std::to_string(j.id) +
                       " has non-positive node count");
    if (j.nodes > capacity)
      throw ParseError("trace " + name_ + ": job " + std::to_string(j.id) +
                       " requests " + std::to_string(j.nodes) +
                       " nodes > capacity " + std::to_string(capacity));
    if (j.walltime <= 0)
      throw ParseError("trace " + name_ + ": job " + std::to_string(j.id) +
                       " has non-positive walltime");
    if (j.runtime <= 0)
      throw ParseError("trace " + name_ + ": job " + std::to_string(j.id) +
                       " has non-positive runtime");
    if (j.runtime > j.walltime)
      throw ParseError("trace " + name_ + ": job " + std::to_string(j.id) +
                       " has runtime > walltime");
    if (j.submit < 0)
      throw ParseError("trace " + name_ + ": job " + std::to_string(j.id) +
                       " has negative submit time");
  }
}

TraceStats Trace::stats() const {
  TraceStats s;
  s.job_count = jobs_.size();
  if (jobs_.empty()) return s;
  s.first_submit = jobs_.front().submit;
  s.last_submit = jobs_.front().submit;
  s.min_nodes = jobs_.front().nodes;
  s.max_nodes = jobs_.front().nodes;
  double node_sum = 0, runtime_sum = 0;
  for (const JobSpec& j : jobs_) {
    s.first_submit = std::min(s.first_submit, j.submit);
    s.last_submit = std::max(s.last_submit, j.submit);
    s.min_nodes = std::min(s.min_nodes, j.nodes);
    s.max_nodes = std::max(s.max_nodes, j.nodes);
    s.total_node_seconds +=
        static_cast<double>(j.nodes) * static_cast<double>(j.runtime);
    node_sum += static_cast<double>(j.nodes);
    runtime_sum += static_cast<double>(j.runtime);
    if (j.is_paired()) ++s.paired_count;
  }
  s.span = s.last_submit - s.first_submit;
  s.mean_nodes = node_sum / static_cast<double>(jobs_.size());
  s.mean_runtime = runtime_sum / static_cast<double>(jobs_.size());
  return s;
}

}  // namespace cosched
