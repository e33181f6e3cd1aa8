// One scheduling domain of a coupled HEC system.
//
// A Cluster binds together a Scheduler (queue + policy + backfilling), the
// discrete-event engine, and the coscheduling agent implementing the paper's
// Algorithm 1.  It is both a protocol *client* (through PeerClient stubs to
// its peers) and a protocol *server* (it implements CoschedService for its
// peers' remote.* calls).
//
// The implementation generalizes Algorithm 1 to N scheduling domains (the
// paper's future-work extension): a ready paired job asks every peer for the
// group member it owns; when a mate is not ready, a single tryStartMate is
// issued and the commit marker (`starting` status) lets the remote side's own
// Run_Job recursively complete the chain across all remaining domains.  With
// two domains this reduces exactly to the published algorithm.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <span>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "core/config.h"
#include "core/event_log.h"
#include "core/journal.h"
#include "core/liveness.h"
#include "proto/peer.h"
#include "proto/service.h"
#include "sched/scheduler.h"
#include "sim/engine.h"
#include "util/hashed.h"
#include "util/job_id_set.h"
#include "workload/trace.h"

namespace cosched {

class Cluster final : public CoschedService {
 public:
  Cluster(Engine& engine, std::string name, NodeCount capacity,
          std::unique_ptr<PriorityPolicy> policy, CoschedConfig cosched = {},
          SchedulerConfig sched_config = {},
          std::shared_ptr<const AllocationModel> alloc = nullptr);

  // Non-copyable, non-movable: peers hold references to the service.
  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  /// Registers a remote scheduling domain.  Not owned.  Order is the order
  /// mates are queried in.
  void add_peer(PeerClient& peer);

  /// Loads a trace: pre-registers paired-job associations (the paper's
  /// equivalent of users declaring associated jobs at submission) and
  /// schedules one submit event per job, as one engine batch in submit
  /// order (ties in trace order).
  void load_trace(const Trace& trace);

  /// Submits one job at the current engine time (examples/tests).
  void submit_now(const JobSpec& spec);

  /// Kills a job wherever it is (fault injection): queued jobs vanish from
  /// the queue, holding jobs free their nodes, running jobs stop early.
  /// Safe against the job's pending completion event.  No-op for unknown or
  /// finished jobs.
  void kill_job(JobId id);

  /// Pre-registers a paired job expected to arrive later, so peers querying
  /// before its submission see status `unsubmitted`.
  void register_expected(const JobSpec& spec);

  // -- CoschedService (the four remote calls + liveness plane) -----------
  std::optional<JobId> get_mate_job(GroupId group, JobId asking) override;
  MateStatus get_mate_status(JobId job) override;
  bool try_start_mate(JobId job) override;
  bool start_job(JobId job) override;
  std::optional<HeartbeatInfo> heartbeat(const HeartbeatInfo& from) override;
  bool admit_fence(JobId job, std::uint64_t fence) override;

  // -- CoschedService (k-of-N gang costart, two-phase fenced) ------------
  bool gang_prepare(JobId job, GroupId group) override;
  bool gang_commit(JobId job, GroupId group) override;
  bool gang_abort(JobId job, GroupId group) override;
  bool gang_victim(JobId job, GroupId group) override;

  // -- accessors ---------------------------------------------------------
  /// Read-only: only Cluster::Durable changes the scheduler.
  const Scheduler& scheduler() const { return sched_; }
  Engine& engine() { return engine_; }
  const std::string& name() const { return name_; }
  /// No-op for the benchmark's frozen wiring; see SourceId in sim/engine.h.
  SourceId source() const { return 0; }
  const CoschedConfig& config() const { return cfg_; }
  void set_config(const CoschedConfig& cfg) { cfg_ = cfg; }

  std::uint64_t iterations_run() const {
    return durable_.agent.iterations_run;
  }
  std::uint64_t try_start_requests() const {
    return durable_.agent.try_start_requests;
  }
  std::uint64_t forced_releases() const {
    return durable_.agent.forced_releases;
  }

  // -- degraded-mode counters (§IV-C fault rule firing) ------------------
  /// Peer calls that failed in a decision path (mate treated as unknown).
  std::uint64_t unknown_status_decisions() const {
    return durable_.agent.unknown_status_decisions;
  }
  /// Paired jobs started without mate confirmation.
  std::uint64_t unsync_starts() const { return durable_.agent.unsync_starts; }
  /// Forced releases of jobs whose decision saw a transport fault.
  std::uint64_t degraded_forced_releases() const {
    return durable_.agent.degraded_forced_releases;
  }

  // -- storage alarm counters (journal ENOSPC ladder) --------------------
  /// Commits that found the journal out of space (each triggers the
  /// emergency-compaction → degrade-to-memory ladder).
  std::uint64_t storage_enospc_events() const {
    return durable_.agent.enospc_events;
  }
  /// Emergency compactions that freed enough space to stay durable.
  std::uint64_t storage_emergency_compactions() const {
    return durable_.agent.emergency_compactions;
  }
  /// The attached journal fell back to an in-memory sink (durability lost
  /// until an operator intervenes).
  bool journal_degraded() const {
    return journal_ != nullptr && journal_->degraded();
  }

  // -- liveness layer (heartbeats, failure detector, leased holds) -------

  /// This domain's current liveness payload (also what heartbeats carry).
  HeartbeatInfo liveness_info() const;

  /// Current fencing epoch: side-effecting calls stamped with an older
  /// nonzero token are rejected by admit_fence().
  std::uint64_t fence_epoch() const {
    return make_fence_token(durable_.agent.incarnation,
                            durable_.leases().fence_counter);
  }

  /// Detector health of peer `i` at the current engine time (kAlive when
  /// liveness is disabled).
  PeerHealth peer_health(std::size_t i) const;

  /// Last payload heard from peer `i` (all-zero before the first ack).
  const HeartbeatInfo& peer_info(std::size_t i) const {
    return durable_.peer_state[i].info;
  }

  /// Active hold leases by job id (empty when liveness is disabled).
  const std::map<JobId, HoldLease>& leases() const {
    return durable_.leases().leases;
  }

  std::uint64_t heartbeats_sent() const {
    return durable_.leases().heartbeats_sent;
  }
  std::uint64_t heartbeats_acked() const {
    return durable_.leases().heartbeats_acked;
  }
  std::uint64_t lease_grants() const {
    return durable_.leases().lease_grants;
  }
  std::uint64_t lease_renewals() const {
    return durable_.leases().lease_renewals;
  }
  std::uint64_t lease_expiries() const {
    return durable_.leases().lease_expiries;
  }
  /// Side-effecting calls rejected for carrying a stale fencing token.
  std::uint64_t stale_fence_rejections() const {
    return durable_.leases().stale_fence_rejections;
  }
  /// Starts that executed despite a stale fence — the runtime tripwire
  /// behind the no-start-with-stale-fence invariant; always 0 unless the
  /// dispatcher gate is bypassed.
  std::uint64_t stale_fence_starts() const {
    return durable_.leases().stale_fence_starts;
  }
  /// Decision paths that classified a mate as `suspected` (detector phase
  /// between alive and confirmed-dead): the job held/yielded instead of
  /// starting unsynchronized.
  std::uint64_t suspected_status_decisions() const {
    return durable_.leases().suspected_status_decisions;
  }
  /// Leases whose expiry is more than two heartbeat periods overdue while
  /// their job still holds nodes — the lease-expiry-respected invariant.
  std::uint64_t lease_expiry_violations(Time now) const;

  // -- gang costart layer (two-phase k-of-N starts) ----------------------
  /// Members this domain placed into a fenced prepared hold.
  std::uint64_t gangs_prepared() const {
    return durable_.gang_book.gangs_prepared;
  }
  /// Coordinator-side: gang rounds that committed (one per gang start).
  std::uint64_t gangs_committed() const {
    return durable_.gang_book.gangs_committed;
  }
  /// Coordinator-side: prepare rounds aborted (holds released, backoff).
  std::uint64_t gangs_aborted() const {
    return durable_.gang_book.gangs_aborted;
  }
  /// Victim-side: holds force-yielded by a deadlock-resolution order.
  std::uint64_t gangs_victimized() const {
    return durable_.gang_book.gangs_victimized;
  }
  /// Jobs on this domain that started through a gang commit — the basis of
  /// the gang-atomicity invariant (a committed gang must fully start).
  const std::set<JobId>& gang_started_jobs() const {
    return durable_.gang_book.started;
  }
  /// Jobs currently sitting in a prepared (fenced, leased) hold.
  const std::set<JobId>& gang_prepared_jobs() const {
    return durable_.gang_book.prepared;
  }

  /// Attaches a lifecycle event log (not owned; may be shared across
  /// domains).  Pass nullptr to detach.
  void set_event_log(EventLog* log) { event_log_ = log; }

  /// Schedules a scheduling iteration at the current time (coalesced).
  void request_iteration();

  // -- crash-consistent persistence (core/journal.h) ---------------------

  /// Outcome of one journal recovery.  The salvage fields are the
  /// zero-silent-loss contract: whatever the replay could not restore is
  /// counted here, never quietly dropped.
  struct RecoveryStats {
    std::size_t records_replayed = 0;  ///< snapshot + tail records applied
    std::size_t bytes_scanned = 0;     ///< journal bytes examined
    bool tail_torn = false;            ///< the torn-tail rule fired
    std::uint64_t incarnation = 0;     ///< incarnation after the bump
    double replay_seconds = 0.0;       ///< wall-clock spent wiping+replaying

    // -- salvage accounting (storage fault plane) ------------------------
    std::size_t corrupt_regions = 0;   ///< unreadable byte ranges skipped
    std::size_t bytes_skipped = 0;     ///< bytes inside those regions
    std::uint64_t seq_holes = 0;       ///< gaps in the record sequence
    std::uint64_t records_missing = 0; ///< sequence numbers lost in holes
    /// Intact records beyond the first hole: replaying them over missing
    /// intermediate state would be unsound, so they are dropped — and
    /// counted.
    std::uint64_t records_dropped = 0;
    std::uint64_t duplicates_skipped = 0;  ///< repeated seqs not re-applied
    /// The newest snapshot failed verification; an older generation was
    /// applied with a longer tail replay.
    bool snapshot_fallback = false;
    std::uint64_t snapshot_generation = 0; ///< generation actually applied
    int read_retries = 0;              ///< transient read errors retried

    /// True when the journal image could not be fully restored — every
    /// such loss is itemized above.
    bool data_loss_reported() const {
      return corrupt_regions > 0 || seq_holes > 0 || records_missing > 0 ||
             records_dropped > 0 || duplicates_skipped > 0 ||
             snapshot_fallback;
    }
  };

  /// Attaches a write-ahead journal (not owned; nullptr detaches).  Writes
  /// an initial snapshot (which carries the incarnation) so the journal is
  /// always recoverable on its own.  When `compact_every` > 0, the journal
  /// is compacted back to a single snapshot record every time that many
  /// records accumulate.
  void set_journal(Journal* journal, std::uint64_t compact_every = 0);
  Journal* journal() { return journal_; }

  /// Daemon incarnation: starts at 1, bumped by every recovery.
  std::uint64_t incarnation() const { return durable_.agent.incarnation; }

  /// Full crash recovery on this object: cancels tracked timers, wipes all
  /// mutable state, applies the journal's snapshot, replays the tail
  /// (stopping at a torn frame), re-arms timers, bumps the incarnation and
  /// journals it.  The journal stays attached for the new life.
  RecoveryStats recover_from_journal(Journal& journal);

  /// Serializes the complete mutable state (including the scheduler's) in a
  /// canonical order.  Construction facts (capacity, policy, config, peers)
  /// are not included.
  void write_snapshot(WireWriter& w) const;

  /// Wipes state and applies a snapshot written by write_snapshot().  The
  /// caller must advance the engine to the snapshot time and then call
  /// rearm_after_restore() (CoupledSim::restore does both).
  void restore_snapshot(WireReader& r);

  /// Re-arms completion/iteration/tick/periodic/retry timers from restored
  /// state at their absolute journaled times.  Idempotent per recovery.
  void rearm_after_restore();

  /// Brute-force checks the ready-job index against the set it orders, the
  /// yield retries' order and that each has a pending event, then the
  /// scheduler's indices; throws InvariantError on any mismatch (test/debug
  /// hook).
  void validate_indices() const;

 private:
  /// Algorithm 1's degraded-mode bookkeeping for one decision (§IV-C),
  /// gathered while the decision runs and applied once through kDegraded.
  struct Degraded {
    std::uint64_t unknown = 0;     ///< peer calls that failed: mate unknown
    std::uint64_t suspected = 0;   ///< mates awaited on a suspected peer
    bool transport_fault = false;  ///< some peer call failed
    bool fault_seen = false;       ///< a later forced release is degraded
    bool unsync = false;           ///< a start now is unsynchronized
    void peer_call_failed() {
      transport_fault = true;
      ++unknown;
    }
  };

  /// Run_Job hook around Algorithm 1: journals the first-ready transition
  /// and then the decision's degraded-mode bookkeeping.
  RunDecision run_job_hook(RuntimeJob& job, bool try_context);

  /// The paper's Run_Job coscheduling logic (Algorithm 1).  `try_context`
  /// is true when invoked underneath a remote tryStartMate: the job must
  /// either start or decline without side effects (no hold/yield).
  RunDecision run_job_decision(RuntimeJob& job, bool try_context,
                               Degraded& deg);

  /// Applies the local scheme + enhancement thresholds (§IV-E2).  `force`
  /// overrides the configured scheme (gang paths yield while backing off
  /// regardless of the hold/yield setting); enhancement thresholds only
  /// apply to the configured scheme.
  RunDecision scheme_decision(RuntimeJob& job, bool try_context,
                              std::optional<Scheme> force = std::nullopt);

  // -- gang costart internals --------------------------------------------
  bool gang_on() const { return cfg_.enabled && cfg_.gang.two_phase; }
  /// One remote member of a gang, as seen by the coordinator.
  struct GangMate {
    PeerClient* peer = nullptr;
    std::int32_t peer_index = -1;
    JobId id = kNoJob;
  };
  /// Coordinator side of the two-phase costart: prepare every member, then
  /// commit all (kStart) or abort every prepared hold and back off (kYield).
  RunDecision gang_costart(RuntimeJob& job, std::span<const GangMate> members,
                           Degraded& deg);
  /// Run_Job hook that places the member into a fenced leased hold
  /// (journals kHold, arms the breaker, grants a self-expiring lease).
  RunDecision gang_hold_hook(RuntimeJob& job);
  /// Journals the two gang round kinds; the member side of a round carries
  /// no backoff (attempt 0, until kNoTime).
  void commit_gang_commit(JobId id, GroupId group, bool coordinator);
  void commit_gang_abort(JobId id, GroupId group, bool coordinator,
                         std::uint64_t attempt = 0, Time until = kNoTime);
  /// Deterministic jittered exponential backoff for re-prepare attempts.
  Duration gang_backoff(JobId job, std::uint32_t attempt) const;

  void track_dependency(const JobSpec& spec);
  void do_submit(const JobSpec& spec);
  void arm_periodic_iteration();
  /// Journals kReady the first time a job is selected.
  void note_ready(const RuntimeJob& job);
  /// The hook's side of a hold: arm the release tick, journal kHold (the
  /// scheduler applies it when the hook returns) and lease the hold against
  /// peer `lease_peer`.
  RunDecision hold_for_mates(const RuntimeJob& job, std::int32_t lease_peer);
  /// Forced release of a holder (tick or lease expiry), journaled.
  void force_release(JobId id, bool degraded);
  /// Advances the fencing epoch, journaled.
  void advance_fence();
  /// Starts a holding job (its mates are ready) through kStart's apply.
  void start_held(const RuntimeJob& j);
  void on_job_started(const RuntimeJob& job);
  void on_job_finished(JobId id);
  void schedule_hold_release();
  void log_event(JobEventKind kind, const RuntimeJob& job);

  // Timer event bodies, named so recovery can re-arm them at absolute
  // journaled times.
  void run_iteration_body();
  void hold_release_tick();
  void periodic_body();
  EventId arm_yield_retry_event(Time at, JobId id);

  // -- liveness internals ------------------------------------------------
  bool liveness_on() const {
    return cfg_.liveness.enabled && !peers_.empty();
  }
  void arm_liveness_tick();
  /// Heartbeat round: probe every peer, feed the detectors, renew leases
  /// backed by live mates, expire the rest.
  void liveness_body();
  /// Grants (or re-grants) the hold lease for `job` against blocking peer
  /// `peer`.
  void grant_lease(JobId job, std::int32_t peer);
  /// Expires one lease: advances the fencing epoch, force-releases the hold
  /// and requeues the job (a confirmed-dead mate then starts it
  /// unsynchronized at the next iteration).
  void expire_lease(JobId job, bool mate_dead);

  // -- journaling internals ----------------------------------------------
  bool journaling() const { return journal_ != nullptr && !replaying_; }
  /// Group-commit point at the end of every journaling entry body; also
  /// triggers compaction once compact_every_ records accumulate.
  void journal_commit();
  /// Every commit barrier: ENOSPC ladder rung 1 when an append was dropped
  /// since the last commit, then the journal's commit, so a dropped record
  /// never leaves a durable hole.  Cluster's only call of Journal::commit().
  void journal_barrier();
  /// write_snapshot() into snapshot_, which set_journal, journal_commit
  /// and emergency_compact share; valid until the next call.
  std::span<const std::uint8_t> encode_snapshot();
  /// ENOSPC ladder step: fold the whole tail into one snapshot (freeing
  /// quota); if even that does not fit, degrade the journal to memory.
  void emergency_compact();
  void wipe_for_recovery();
  void apply_record(const JournalRecord& rec);
  /// Picks the newest snapshot record that verifies (checksum + parse) and
  /// applies it, walking back a generation per failure.  Returns the index
  /// into `records` or records.size() when none verifies.
  std::size_t apply_verified_snapshot(const std::vector<JournalRecord>& records,
                                      RecoveryStats& stats);
  /// Replays the salvaged tail after the applied snapshot: sorts by
  /// sequence number (healing reordered writes), skips duplicates and
  /// rejected snapshots, and stops at the first hole — everything beyond it
  /// is counted into `stats`, never silently applied.
  void replay_salvaged_tail(const std::vector<JournalRecord>& records,
                            std::size_t snap_idx, RecoveryStats& stats);

  Engine& engine_;
  std::string name_;
  CoschedConfig cfg_;
  SchedulerConfig sched_cfg_;
  std::vector<PeerClient*> peers_;
  EventLog* event_log_ = nullptr;

  // -- durable state ----------------------------------------------------------
  //
  // What a snapshot carries besides the scheduler's state, grouped by owner.
  // Each group declares its members in snapshot order, and each member's
  // initializer is its value after wipe_for_recovery().

  /// The Algorithm-1 agent: decision counters, the paired-job registry,
  /// degraded-mode marks and the armed timers.
  struct Agent {
    std::uint64_t incarnation = 1;  ///< starts at 1, bumped by every recovery
    std::uint64_t iterations_run = 0;
    std::uint64_t try_start_requests = 0;
    std::uint64_t forced_releases = 0;
    std::uint64_t unknown_status_decisions = 0;
    std::uint64_t unsync_starts = 0;
    std::uint64_t degraded_forced_releases = 0;
    /// Times the journal hit ENOSPC and entered the degradation ladder.
    std::uint64_t enospc_events = 0;
    /// Emergency compactions that successfully recovered journal space.
    std::uint64_t emergency_compactions = 0;
    HashMap<JobId, JobSpec> expected;  ///< registered, unsubmitted
    HashMap<GroupId, JobId> group_to_job;
    /// dependency -> (dependent job, think-time delay); drained at finish.
    HashMultiMap<JobId, std::pair<JobId, Duration>> dependents;
    /// Every job that ever became ready (its kReady is logged once).
    JobIdSet ready_logged;
    /// Jobs whose latest decision path hit a transport fault; membership
    /// makes a subsequent forced release fault-attributable.
    HashSet<JobId> fault_seen;
    /// Jobs whose start decision was taken under a transport fault;
    /// confirmed as unsynchronized starts when the start actually lands.
    HashSet<JobId> unsync_pending;
    bool iteration_pending = false;
    bool release_tick_pending = false;
    Time release_tick_at = kNoTime;  ///< absolute time of the armed tick
    bool periodic_armed = false;
    Time periodic_at = kNoTime;      ///< absolute time of the armed periodic
    /// Pending yield-retry checks as (absolute time, job), one per armed
    /// retry event, so a fresh-process restore can re-arm them.  Held in
    /// the order their events fire: live retries are armed a constant
    /// period ahead, so they join at the back and fire from the front.  A
    /// snapshot writes each (time, job) once, in (time, id) order, the
    /// order rearm_after_restore() re-arms them in.
    RetryQueue yield_retries;
    COSCHED_FIELDS(Agent, incarnation, iterations_run, try_start_requests,
                   forced_releases, unknown_status_decisions, unsync_starts,
                   degraded_forced_releases, enospc_events,
                   emergency_compactions, expected, group_to_job, dependents,
                   ready_logged, fault_seen, unsync_pending, iteration_pending,
                   release_tick_pending, release_tick_at, periodic_armed,
                   periodic_at, yield_retries)
  };

  /// The liveness layer's lease table: heartbeat and lease counters, the
  /// fencing epoch, the liveness timer and the active hold leases.
  struct LeaseTable {
    std::uint64_t heartbeats_sent = 0;
    std::uint64_t heartbeats_acked = 0;
    std::uint64_t lease_grants = 0;
    std::uint64_t lease_renewals = 0;
    std::uint64_t lease_expiries = 0;
    std::uint64_t stale_fence_rejections = 0;
    std::uint64_t stale_fence_starts = 0;
    std::uint64_t suspected_status_decisions = 0;
    /// Low 32 bits of the fencing epoch; bumped on every lease expiry.  The
    /// incarnation forms the high bits (see make_fence_token).
    std::uint32_t fence_counter = 0;
    bool liveness_armed = false;
    Time liveness_at = kNoTime;
    /// Active hold leases by job.  Ordered so snapshots and expiry scans are
    /// deterministic.
    std::map<JobId, HoldLease> leases;
    COSCHED_FIELDS(LeaseTable, heartbeats_sent, heartbeats_acked,
                   lease_grants, lease_renewals, lease_expiries,
                   stale_fence_rejections, stale_fence_starts,
                   suspected_status_decisions, fence_counter, liveness_armed,
                   liveness_at, leases)
  };

  /// Detector and last-heard payload of one peer.
  struct PeerState {
    FailureDetector detector;
    HeartbeatInfo info;
    bool ever_heard = false;
    COSCHED_FIELDS(PeerState, detector, info, ever_heard)
  };

  /// The gang costart layer's book: round counters and per-job state, all
  /// ordered so snapshots are canonical.
  struct GangBook {
    std::uint64_t gangs_prepared = 0;
    std::uint64_t gangs_committed = 0;
    std::uint64_t gangs_aborted = 0;
    std::uint64_t gangs_victimized = 0;
    /// Members currently in a prepared hold.
    std::set<JobId> prepared;
    /// Jobs started via a gang commit (never shrinks; atomicity witness).
    std::set<JobId> started;
    /// Re-prepare backoff deadline per local gang job (coordinator/victim).
    std::map<JobId, Time> backoff_until;
    /// Abort/victim attempt count per job, feeding the backoff exponent.
    std::map<JobId, std::uint32_t> attempts;
    COSCHED_FIELDS(GangBook, gangs_prepared, gangs_committed, gangs_aborted,
                   gangs_victimized, prepared, started, backoff_until,
                   attempts)
  };

  // -- journaled changes --------------------------------------------------
  //
  // Every durable change is one record kind with one apply_* method, and a
  // record's payload is its apply's parameters in order.  A live change
  // commits its record: commit() encodes and appends it when journaling,
  // then calls the apply; timers, EventLog entries, RPCs and fence-token
  // pushes follow on the live path.  apply_record() decodes the same fields
  // and calls the same apply through replay().
  //
  // kHold and kYield record a Run_Job decision: the hook appends them and
  // Scheduler::decide() applies the transition when the hook returns.
  // kStart is appended by the scheduler's start callback (on_job_started),
  // whatever started the job.  Their applies run the same scheduler
  // transitions.
  //
  // The applies are Durable's, and Durable holds nothing but the snapshot's
  // aggregates, the scheduler and the yield-retry period.  So an apply
  // cannot write Cluster state that a snapshot leaves out: such a write
  // does not compile.  Durable also owns the Scheduler and the lease table,
  // and Cluster sees both const, so a live scheduler transition or lease
  // write outside Durable does not compile either.  The live decision
  // paths reach the scheduler through iterate() and try_start_specific(),
  // whose hook journals the decision; the lease table's writes that carry
  // no record are named methods.

  /// The durable state, the scheduler, and the only code that changes them.
  class Durable {
   public:
    Durable(NodeCount capacity, std::unique_ptr<PriorityPolicy> policy,
            const SchedulerConfig& sched_config,
            std::shared_ptr<const AllocationModel> alloc,
            std::function<void(const RuntimeJob&)> on_start,
            const Duration& yield_retry_period);

    Agent agent;

   private:
    // Declared between agent and peer_state: snapshot_fields() binds the
    // members in declaration order.
    LeaseTable lease_table_;

   public:
    /// One entry per peer, parallel to peers_: add_peer() sizes it, so it
    /// is not wiped, and a snapshot must carry exactly as many entries.
    std::vector<PeerState> peer_state;
    GangBook gang_book;

    const Scheduler& scheduler() const { return sched_; }
    const LeaseTable& leases() const { return lease_table_; }

    /// Writes the snapshot: snapshot_fields(), then the scheduler's state.
    void snapshot(WireWriter& w) const;
    /// Reads what snapshot() wrote over the current state.
    void restore(WireReader& r);

    void apply_incarnation(std::uint64_t incarnation);
    void apply_expected(const JobSpec& spec);
    void apply_submit(const JobSpec& spec, Time t);
    void apply_ready(JobId id, Time first_ready);
    void apply_start(JobId id, Time t, Time first_ready, NodeCount allocated,
                     bool from_hold, bool was_unsync);
    /// The durable side of every start, live or replayed (on_job_started).
    void apply_started(JobId id);
    void apply_hold(JobId id, Time t, Time first_ready, NodeCount allocated);
    void apply_hold_release(JobId id, Time t, bool degraded);
    void apply_yield(JobId id, Time t, Time first_ready, double boost);
    void apply_finish(JobId id, Time t);
    void apply_kill(JobId id, Time t);
    void apply_iterate(Time t);
    void apply_tick_armed(Time at);
    void apply_tick_fired(Time t);
    void apply_iteration_armed(Time t);
    void apply_periodic_armed(Time at);
    void apply_degraded(JobId id, std::uint64_t unknown, bool fault_seen,
                        bool unsync_pending, std::uint64_t suspected);
    void apply_lease_grant(const HoldLease& lease);
    void apply_lease_renew(JobId id, Time expires_at);
    void apply_lease_expire(JobId id, Time t, bool mate_dead);
    void apply_lease_fence(std::uint64_t counter);
    void apply_heartbeat(
        Time t, const std::vector<std::optional<HeartbeatInfo>>& acks);
    void apply_liveness_armed(Time at);
    void apply_gang_prepare(JobId id, GroupId group, Time t);
    void apply_gang_commit(JobId id, GroupId group, Time t, bool coordinator,
                           std::uint64_t attempt, Time until);
    void apply_gang_abort(JobId id, GroupId group, Time t, bool coordinator,
                          std::uint64_t attempt, Time until);
    void apply_gang_victim(JobId id, GroupId group, Time t,
                           std::uint64_t attempt, Time until);

    /// kIterate's first half: a live iteration runs it before the pass it
    /// records (a request made during the pass arms the next one).
    void begin_iteration();
    /// The yield-retry entry of a yield at `yielded_at` (kYield's durable
    /// state); null when retries are off.  A live yield then arms its
    /// event.
    RetryQueue::Entry* add_yield_retry(JobId id, Time yielded_at);

    // -- the live decision paths -------------------------------------------
    /// One scheduling pass.  `hook` journals each decision (kHold, kYield;
    /// kStart through the start callback) and the pass applies it.
    void iterate(Time now, const RunJobHook& hook) {
      sched_.iterate(now, hook);
    }
    /// A targeted start of the job `id` names, a live one looked up once;
    /// false for an archived one, which is finished and read only const;
    /// nullopt when the scheduler has no such job.
    std::optional<bool> try_start_specific(JobId id, Time now,
                                           const RunJobHook& hook) {
      if (RuntimeJob* job = sched_.find_mut(id))
        return sched_.try_start_specific(*job, now, hook);
      if (sched_.find(id) != nullptr) return false;
      return std::nullopt;
    }

    // -- writes with no record (docs/RECOVERY.md) --------------------------
    /// Counters a recovery rolls back to the last snapshot.
    void count_stale_fence_rejection() {
      ++lease_table_.stale_fence_rejections;
    }
    void count_stale_fence_start() { ++lease_table_.stale_fence_starts; }
    /// The liveness timer fired (or, after a restore, was due in the past):
    /// a quiescent fire journals nothing, so recovery re-derives this.
    void disarm_liveness();
    /// Recovery's wipe: the agent, the lease table and the gang book go
    /// back to their initializers; the peer states keep their size, since
    /// the snapshot applied next overwrites every entry.
    void wipe();

   private:
    /// The snapshot's field list: what snapshot() writes and restore()
    /// reads, in order, ahead of the scheduler's state.  The binding names
    /// every member, so a member added to Durable without a decision here
    /// does not compile.
    template <class Self>
    static auto snapshot_fields(Self& self) {
      auto& [agent, lease_table, peer_state, gang_book, sched, period] = self;
      return std::tie(agent, lease_table, peer_state, gang_book);
    }

    Scheduler sched_;
    const Duration& yield_retry_period_;  ///< the Cluster's config
  };

  Durable durable_;
  /// Every read of the scheduler goes through this view.
  const Scheduler& sched_ = durable_.scheduler();

  template <class... Fields>
  void append(JournalRecordKind kind, const Fields&... fields);
  template <class... Params>
  void commit(JournalRecordKind kind, void (Durable::*apply)(Params...),
              std::type_identity_t<Params>... fields);
  template <class... Params>
  void replay(WireReader& r, void (Durable::*apply)(Params...));

  // -- process-local state ----------------------------------------------------
  std::vector<JobId> committing_;  ///< report kStarting
  /// Job whose latest admit_fence() verdict was "stale" — consumed by
  /// try_start_mate/start_job to detect a bypassed gate.
  JobId pending_stale_fence_ = kNoJob;
  /// Peer index that blocked the most recent scheme_decision (-1 = none);
  /// the lease grant records it as the renewal source.
  std::int32_t blocking_peer_ = -1;
  Journal* journal_ = nullptr;   ///< not owned
  /// Reused encoders, so a warm record or snapshot allocates nothing: each
  /// record's payload, and each compaction's snapshot.
  WireWriter record_;
  WireWriter snapshot_;
  std::uint64_t compact_every_ = 0;
  bool replaying_ = false;
  /// True while start_held() promotes a holder, so the kStart record can
  /// distinguish holding-origin from queued-origin starts.
  bool starting_from_hold_ = false;
  /// Tracked timers a crash cancels and recovery re-arms.  Untracked events
  /// (the trace's submit batch, yield retries, dependency wakes) survive a
  /// crash and carry state guards instead.
  HashMap<JobId, EventId> completion_events_;
  std::optional<EventId> iteration_event_;
  std::optional<EventId> tick_event_;
  std::optional<EventId> periodic_event_;
  std::optional<EventId> liveness_event_;
  /// Replay-only scratch: the time of the newest kIterate record replayed,
  /// which apply_record() sets; kNoTime outside recovery.  Lets
  /// rearm_after_restore() drop yield retries at the crash instant that
  /// provably fired before the crash (retries at a timestamp always run
  /// before the iteration armed there).
  Time replay_last_iterate_ = kNoTime;
};

}  // namespace cosched
