// Known-good fixture: live methods commit records whose Durable::apply_*
// methods make the changes, the replay arms call the same applies, and an
// explicit allow() waiver covers a test-only reset.  (Never compiled.)
#include "core/cluster.h"

namespace cosched {

void Cluster::kill_job(JobId id) {
  commit(JournalRecordKind::kKill, &Durable::apply_kill, id, engine_.now());
  request_iteration();
  journal_commit();
}

void Cluster::grant_lease(JobId job, const HoldLease& lease) {
  commit(JournalRecordKind::kLeaseGrant, &Durable::apply_lease_grant, lease);
  arm_liveness_tick();
}

void Cluster::apply_record(const JournalRecord& rec) {
  WireReader r(rec.payload);
  switch (rec.kind) {
    case JournalRecordKind::kKill:
      return replay(r, &Durable::apply_kill);
    case JournalRecordKind::kLeaseGrant:
      return replay(r, &Durable::apply_lease_grant);
  }
}

void Cluster::Durable::apply_kill(JobId id, Time t) {
  sched_.kill(id, t);
  lease_table.leases.erase(id);
}

void Cluster::Durable::apply_lease_grant(const HoldLease& lease) {
  lease_table.leases[lease.job] = lease;
}

void Cluster::reset_leases_for_test() {
  // cosched-lint: allow(mutate-in-apply) test-only reset, never journaled
  durable_.lease_table.leases.clear();
}

}  // namespace cosched
