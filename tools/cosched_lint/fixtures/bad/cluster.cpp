// Known-bad fixture: Cluster methods that change replayed state outside
// Cluster::Durable's applies — the mutate-in-apply rule must flag every
// mutation line, journaled or not.  (Never compiled; parsed by cosched_lint_test only.)
#include "core/cluster.h"

namespace cosched {

void Cluster::kill_job(JobId id) {
  sched_.kill(id, engine_.now());  // no record at all
  request_iteration();
}

void Cluster::expire_lease(JobId job) {
  durable_.lease_table.leases.erase(job);  // no record at all
  ++fence_counter_;
}

bool Cluster::gang_victim(JobId job) {
  append(JournalRecordKind::kGangVictim, job, engine_.now());
  sched_.release_hold(job, engine_.now());  // journaled, but not an apply
  return true;
}

bool Cluster::grant_lease(JobId job) {
  WireWriter w;
  w.put_i64(job);
  journal_->append(JournalRecordKind::kLeaseGrant, w.bytes());
  durable_.lease_table.leases[job] = HoldLease{};  // write-ahead, but not an apply
  return true;
}

}  // namespace cosched
