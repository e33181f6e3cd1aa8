// Single-domain job scheduler: queue + priority policy + EASY backfilling,
// with the paper's coscheduling hook at the moment a job becomes "ready".
//
// The paper (§IV-C) extends the resource manager's Run_Job function: when the
// scheduler selects a job and assigns nodes, additional logic decides whether
// the job starts, holds its nodes, or yields its turn.  We model that as the
// RunJobHook: the scheduler is entirely coscheduling-agnostic, and the
// coscheduling agent (core/agent.h) supplies Algorithm 1 as the hook — the
// same separation the authors used between Cobalt and their extension.
//
// Hot-path design: every scheduling iteration touches only *live* jobs, and
// never through the id hash.  A job keeps one address for its whole life:
// the job tables are node-based maps, and finishing or killing a job moves
// its node from the live table to the archive (with an ascending id index,
// so snapshots walk it without sorting) instead of copying it.  The
// maintained indices therefore hold RuntimeJob pointers: the queue, the
// running jobs keyed by walltime end (the shadow/profile scans walk that
// index instead of the whole job table), the holding jobs in id order, and
// the priority order, cached per (time, state-epoch) so the repeated
// tryStartMate calls arriving within one event timestamp reuse one
// score-and-sort.  The id hash is read only by calls that take an id: find()
// and the by-id transitions.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "proto/wire.h"
#include "sched/node_pool.h"
#include "sched/policy.h"
#include "sched/runtime_job.h"
#include "util/hashed.h"
#include "util/job_id_set.h"
#include "util/types.h"

namespace cosched {

/// Outcome of the Run_Job decision for a ready job.
enum class RunDecision {
  kStart,  ///< start now on the assigned nodes
  kHold,   ///< occupy the nodes, wait for the remote mate
  kYield,  ///< give the turn up; scheduler proceeds with other jobs
  kSkip,   ///< decline without side effects (used by tryStartMate contexts;
           ///< not counted as a yield)
};

/// Decides what a ready job does.  Called with the job in kQueued state and
/// job.allocated set to the charged node count.  A null hook means kStart.
using RunJobHook = std::function<RunDecision(RuntimeJob&)>;

struct SchedulerConfig {
  /// Enable backfilling.  When false, scheduling is strict priority order:
  /// nothing may pass a blocked queue head.
  bool backfill = true;

  /// Conservative backfilling: every queued job receives a reservation on a
  /// rebuilt availability timeline each iteration, and a job may start only
  /// at its planned time — no queued job can be delayed by a later one.
  /// When false (default), EASY backfilling is used (only the head job is
  /// protected by a shadow-time reservation).
  bool conservative = false;

  /// When tryStartMate-style targeted starts must obey the head job's
  /// backfill reservation (recommended; prevents mate starts from starving
  /// the local queue head).
  bool respect_reservation_on_try = true;

  /// Periodic scheduling cadence, used by the Cluster event driver (the
  /// Scheduler itself is clockless).  0 = purely event-driven iterations
  /// (submit/end/release); > 0 additionally runs an iteration every period
  /// while unfinished jobs exist, as production Cobalt does.
  Duration iteration_period = 0;
};

/// One scheduling domain's job scheduler.
class Scheduler {
 public:
  Scheduler(NodeCount capacity, std::unique_ptr<PriorityPolicy> policy,
            SchedulerConfig config = {},
            std::shared_ptr<const AllocationModel> alloc = nullptr);

  /// Invoked whenever any job transitions to running (from any path);
  /// the owner uses it to schedule the completion event.
  void set_on_start(std::function<void(const RuntimeJob&)> cb) {
    on_start_ = std::move(cb);
  }

  /// Adds a job to the queue.
  void submit(const JobSpec& spec, Time now);

  /// Runs one scheduling iteration: walk the queue in priority order,
  /// start/hold/backfill jobs per the policy and the hook.
  /// Returns ids of jobs started during this pass.
  std::vector<JobId> iterate(Time now, const RunJobHook& hook = nullptr);

  /// Targeted start of one queued job (the remote side's tryStartMate).
  /// Starts it iff it fits and (optionally) does not violate the queue
  /// head's backfill reservation, and the hook agrees.  Returns true iff
  /// the job started.
  bool try_start_specific(JobId id, Time now, const RunJobHook& hook = nullptr);
  /// The same for a live job already found (as find_mut() returns it), so
  /// a caller that has looked the job up reads no hash again.
  bool try_start_specific(RuntimeJob& job, Time now,
                          const RunJobHook& hook = nullptr);

  /// Starts a holding job (its mate became ready): held -> busy.
  void start_holding(JobId id, Time now);

  /// Forcibly releases a holding job's nodes (deadlock breaker): the job
  /// re-queues demoted to lowest priority for the next iteration.
  void release_hold(JobId id, Time now);

  /// Completes a running job, freeing its nodes and archiving its record.
  void finish(JobId id, Time now);

  /// Kills a job wherever it is (fault injection).  Queued jobs leave the
  /// queue; running/holding jobs free their nodes.  end = now.
  void kill(JobId id, Time now);

  /// Dependency eligibility: true when the job has no `after` constraint or
  /// the constraint is satisfied (dependency finished, delay elapsed).
  /// Ineligible jobs are invisible to iterations and targeted starts.
  bool eligible(const RuntimeJob& job, Time now) const;

  /// Queue order for one iteration: demoted jobs last, then score desc,
  /// submit asc, id asc (the ids of ordered(), for tests and tools).
  std::vector<JobId> priority_order(Time now) const;

  // -- introspection ---------------------------------------------------

  /// Looks up a job by id, live or archived.
  const RuntimeJob* find(JobId id) const;
  /// Looks up a live job by id; null for an archived one too.  A finished
  /// job never changes, so snapshot() encodes each once.
  RuntimeJob* find_mut(JobId id);

  NodePool& pool() { return pool_; }
  const NodePool& pool() const { return pool_; }

  std::size_t queue_length() const { return queued_.size(); }
  /// Instantaneous fraction of capacity occupied by coscheduling holds
  /// (piggybacked on liveness heartbeats; distinct from the time-integrated
  /// NodePool::held_fraction loss metric).
  double hold_fraction() const {
    return pool_.capacity() > 0 ? static_cast<double>(pool_.held()) /
                                      static_cast<double>(pool_.capacity())
                                : 0.0;
  }
  /// Queued job ids in unspecified order (removal is swap-and-pop).
  std::vector<JobId> queued_ids() const;
  std::vector<JobId> holding_ids() const;
  std::size_t holding_count() const { return holding_.size(); }
  std::size_t running_count() const { return running_ends_.size(); }
  std::size_t finished_count() const { return archived_.size(); }

  /// Live (queued/holding/running) jobs.  Finished jobs are in archived().
  const HashMap<JobId, RuntimeJob>& jobs() const { return jobs_; }

  /// Finished jobs, moved out of the live table so hot-path scans never
  /// touch them.
  const HashMap<JobId, RuntimeJob>& archived() const { return archived_; }

  /// Applies `fn(id, job)` to every job this scheduler has seen, live then
  /// archived, each table in ascending-id order (for metric extraction).
  /// The canonical order matters: callers sum floating-point metrics and
  /// build report strings, and hash-order iteration would make both depend
  /// on insertion history (live run vs. journal replay).
  template <class F>
  void for_each_job(F&& fn) const {
    for (JobId id : jobs_.sorted_keys()) fn(id, jobs_.at(id));
    for (JobId id : archive_ids_) fn(id, archived_.at(id));
  }

  /// Total jobs ever submitted (live + archived).
  std::size_t total_jobs() const { return jobs_.size() + archived_.size(); }

  /// Brute-force recomputes every maintained index (the archive's id index
  /// and its encoded bytes included) from the job tables and throws
  /// InvariantError on any mismatch (test/debug hook).
  void validate_indices() const;

  const PriorityPolicy& policy() const { return *policy_; }

  // -- decision transitions ----------------------------------------------
  //
  // What a queued job's Run_Job decision does to the scheduler.  decide()
  // applies them when the hook returns; journal replay applies them from
  // the records the hook's owner wrote.  Both run this one code, so every
  // index and pool integral comes out the same.

  /// Starts a queued job on `allocated` nodes.
  void start_queued(JobId id, Time now, Time first_ready, NodeCount allocated);
  /// A queued job occupies `allocated` nodes and waits for its mates.
  void hold(JobId id, Time now, Time first_ready, NodeCount allocated);
  /// A queued job gives its turn up; `boost` is its priority boost after the
  /// decision (the hook may raise it, §IV-E1).
  void yield(JobId id, Time first_ready, double boost);
  /// Ends every demotion: a demotion lasts one iteration (§IV-E1), so
  /// iterate() calls this last.
  void clear_demotions();

  // -- crash-consistent persistence (core/journal.h) ---------------------
  //
  // snapshot()/restore() serialize the complete mutable state (job tables,
  // pool accounting, running-end tie order) in a canonical order; capacity,
  // policy, config, and the allocation model are construction facts and are
  // not included — restore() must be called on a Scheduler built with the
  // same ones.  restore() throws ParseError on malformed bytes, a job id
  // read twice included.

  void snapshot(WireWriter& w) const;
  void restore(WireReader& r);

 private:
  // EASY reservation for a blocked head job.
  struct Shadow {
    // When the head is guaranteed to fit (kNoTime = never).
    Time time = kNoTime;
    // Nodes usable past the shadow without delaying it.
    NodeCount extra = 0;
  };
  Shadow compute_shadow(const RuntimeJob& head, Time now) const;

  /// priority_order()'s jobs, cached per (now, state epoch): repeated calls
  /// at one timestamp with no intervening state change skip the
  /// re-score/sort.  The reference is to the cache itself, which the next
  /// call at another time or epoch overwrites: copy it before running a
  /// hook.
  const std::vector<RuntimeJob*>& ordered(Time now) const;

  // Conservative-backfill iteration (config_.conservative).
  std::vector<JobId> iterate_conservative(Time now, const RunJobHook& hook);

  // Applies the hook decision to a fitting job.  Returns the decision.
  RunDecision decide(RuntimeJob& job, NodeCount charged, Time now,
                     const RunJobHook& hook);

  /// The live job `id`; throws InvariantError for any other.
  RuntimeJob& live_job(JobId id);
  /// The queued job `id`; throws InvariantError for any other.
  RuntimeJob& queued_job(JobId id);
  void start_queued(RuntimeJob& job, Time now, Time first_ready,
                    NodeCount allocated);
  void hold(RuntimeJob& job, Time now, Time first_ready, NodeCount allocated);
  void yield(RuntimeJob& job, Time first_ready, double boost);

  void do_start(RuntimeJob& job, Time now);
  void enqueue(RuntimeJob& job);
  void remove_from_queue(JobId id);
  /// Moves a finished live job's node to the archive; its address stays.
  void archive(const RuntimeJob& job);
  /// The archive section's bytes, built on the first call.
  std::span<const std::uint8_t> encoded_archive() const;
  /// Encodes every archived job afresh, in archive_ids_ order, with the
  /// offset where each starts.
  void encode_archive(std::vector<std::uint8_t>& bytes,
                      std::vector<std::uint32_t>& offsets) const;
  void erase_running_end(const RuntimeJob& job);

  // Any state change that can alter priority order, eligibility, or the
  // live-job indices bumps the epoch, invalidating the order cache.
  void touch() { ++epoch_; }

  NodePool pool_;
  std::unique_ptr<PriorityPolicy> policy_;
  SchedulerConfig config_;
  std::function<void(const RuntimeJob&)> on_start_;

  HashMap<JobId, RuntimeJob> jobs_;      ///< live jobs only
  HashMap<JobId, RuntimeJob> archived_;  ///< finished jobs
  /// archived_'s ids in ascending order: snapshot() and for_each_job() walk
  /// it instead of sorting the whole history on every call.
  std::vector<JobId> archive_ids_;
  /// The archive section's bytes: each archived job's put(RuntimeJob)
  /// encoding in archive_ids_ order, and the offset where each starts.  A
  /// finished job never changes, so it is encoded once: the first
  /// snapshot() builds these, archive() then splices each newly finished
  /// job in at its id's place, and restore() drops them.  A scheduler that
  /// never snapshots holds none.  Mutable because the const snapshot()
  /// builds them; one thread owns a scheduler.
  mutable std::vector<std::uint8_t> archive_bytes_;
  mutable std::vector<std::uint32_t> archive_offsets_;
  mutable bool archive_encoded_ = false;
  WireWriter job_bytes_;  ///< archive()'s encoding of the job it splices

  // -- maintained indices over the live table --------------------------
  std::vector<RuntimeJob*> queued_;
  HashMap<JobId, std::size_t> queue_pos_;
  /// Running jobs keyed by walltime end (start + walltime); the shadow and
  /// profile scans walk this instead of the job table.  Ties preserve start
  /// order (multimap insertion order), keeping scans deterministic.
  std::multimap<Time, RuntimeJob*> running_ends_;
  std::map<JobId, RuntimeJob*> holding_;

  // -- priority-order cache ---------------------------------------------
  std::uint64_t epoch_ = 1;
  mutable std::uint64_t order_epoch_ = 0;
  mutable Time order_time_ = kNoTime;
  mutable std::vector<RuntimeJob*> order_cache_;
};

}  // namespace cosched
