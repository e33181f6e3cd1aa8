#include "core/cluster.h"

#include <algorithm>
#include <chrono>
#include <concepts>
#include <cstddef>
#include <tuple>
#include <utility>

#include "proto/durable.h"
#include "util/error.h"
#include "util/inline_list.h"
#include "util/log.h"
#include "util/rng.h"

namespace cosched {

void Cluster::track_dependency(const JobSpec& spec) {
  if (!spec.has_dependency()) return;
  // Dependency already finished: schedule the delayed wake directly (the
  // finish-side drain will never see this dependent; apply_submit() linked
  // every other dependency).
  const RuntimeJob* dep = sched_.find(spec.after);
  if (dep == nullptr || dep->state != JobState::kFinished) return;
  const Time ready_at = std::max(engine_.now(), dep->end + spec.after_delay);
  engine_.schedule_at(ready_at, EventPriority::kSchedule,
                      [this] { request_iteration(); });
}

namespace {

/// RAII commit marker: while a job is deciding/starting, peers that query it
/// see `starting`, which Algorithm 1 treats like `holding` (ready).  The
/// set holds at most one job per nested decision, so a vector serves:
/// insert if absent, erase on exit.
class CommitGuard {
 public:
  CommitGuard(std::vector<JobId>& set, JobId id) : set_(set), id_(id) {
    if (std::ranges::find(set_, id_) == set_.end()) set_.push_back(id_);
  }
  ~CommitGuard() { std::erase(set_, id_); }
  CommitGuard(const CommitGuard&) = delete;
  CommitGuard& operator=(const CommitGuard&) = delete;

 private:
  std::vector<JobId>& set_;
  JobId id_;
};

/// Times, job ids, node counts and groups are all int64_t, and every one
/// this program writes lies in the durable time range.  A record that
/// passed its CRC with one outside it (crafted, or written by another
/// program) would overflow the applies' arithmetic (`t + walltime`), so
/// replay rejects it first.
template <class T>
void check_replayed(const T& v) {
  if constexpr (std::same_as<T, std::int64_t>) check_durable_time(v);
}

}  // namespace

template <class... Fields>
void Cluster::append(JournalRecordKind kind, const Fields&... fields) {
  if (!journaling()) return;
  record_.clear();
  (put(record_, fields), ...);
  journal_->append(kind, record_.bytes());
}

template <class... Params>
void Cluster::commit(JournalRecordKind kind, void (Durable::*apply)(Params...),
                     std::type_identity_t<Params>... fields) {
  append(kind, fields...);
  (durable_.*apply)(fields...);
}

template <class... Params>
void Cluster::replay(WireReader& r, void (Durable::*apply)(Params...)) {
  std::tuple<std::remove_cvref_t<Params>...> fields;
  std::apply([&r](auto&... f) { (get(r, f), ...); }, fields);
  std::apply([](const auto&... f) { (check_replayed(f), ...); }, fields);
  std::apply([this, apply](auto&... f) { (durable_.*apply)(f...); }, fields);
}

Cluster::Cluster(Engine& engine, std::string name, NodeCount capacity,
                 std::unique_ptr<PriorityPolicy> policy, CoschedConfig cosched,
                 SchedulerConfig sched_config,
                 std::shared_ptr<const AllocationModel> alloc)
    : engine_(engine),
      name_(std::move(name)),
      cfg_(cosched),
      sched_cfg_(sched_config),
      durable_(capacity, std::move(policy), sched_config, std::move(alloc),
               [this](const RuntimeJob& job) { on_job_started(job); },
               cfg_.yield_retry_period) {}

void Cluster::arm_periodic_iteration() {
  if (sched_cfg_.iteration_period <= 0 || durable_.agent.periodic_armed) return;
  commit(JournalRecordKind::kPeriodicArmed, &Durable::apply_periodic_armed,
         engine_.now() + sched_cfg_.iteration_period);
  periodic_event_ =
      engine_.schedule_at(durable_.agent.periodic_at, EventPriority::kStats,
                          [this] { periodic_body(); });
}

void Cluster::periodic_body() {
  periodic_event_.reset();
  durable_.agent.periodic_armed = false;
  durable_.agent.periodic_at = kNoTime;
  const bool work_left = sched_.queue_length() > 0 ||
                         sched_.running_count() > 0 ||
                         sched_.holding_count() > 0;
  if (!work_left) return;  // go quiescent; submits re-arm
  request_iteration();
  arm_periodic_iteration();
  journal_commit();
}

void Cluster::add_peer(PeerClient& peer) {
  peers_.push_back(&peer);
  durable_.peer_state.push_back(PeerState{
      FailureDetector(cfg_.liveness.heartbeat_period, engine_.now()),
      HeartbeatInfo{}, false});
}

void Cluster::register_expected(const JobSpec& spec) {
  COSCHED_CHECK(spec.is_paired());
  const JobId* member = durable_.agent.group_to_job.find(spec.group);
  COSCHED_CHECK_MSG(member == nullptr || *member == spec.id,
                    "group " << spec.group << " already has local member "
                             << *member << " on " << name_);
  commit(JournalRecordKind::kExpected, &Durable::apply_expected, spec);
  journal_commit();
}

void Cluster::do_submit(const JobSpec& spec) {
  // The timers' records precede kSubmit in the journal.
  arm_periodic_iteration();
  arm_liveness_tick();
  commit(JournalRecordKind::kSubmit, &Durable::apply_submit, spec,
         engine_.now());
  track_dependency(spec);
  log_event(JobEventKind::kSubmit, *sched_.find(spec.id));
  request_iteration();
}

void Cluster::load_trace(const Trace& trace) {
  for (const JobSpec& spec : trace.jobs())
    if (spec.is_paired()) register_expected(spec);
  // Stable, so jobs with equal submit times arrive in trace order.
  std::vector<JobSpec> specs = trace.jobs();
  std::ranges::stable_sort(specs, {}, &JobSpec::submit);
  std::vector<Time> times;
  times.reserve(specs.size());
  for (const JobSpec& spec : specs) times.push_back(spec.submit);
  // A snapshot restore may already carry a job: the batch survives the crash
  // (it is untracked) and must re-fire that job's arrival as a no-op.
  auto fire = [this, specs = std::move(specs)](std::size_t i) {
    if (sched_.find(specs[i].id) != nullptr) return;
    do_submit(specs[i]);
    journal_commit();
  };
  engine_.schedule_batch(times, EventPriority::kJobSubmit, std::move(fire));
}

void Cluster::submit_now(const JobSpec& spec) {
  do_submit(spec);
  journal_commit();
}

void Cluster::kill_job(JobId id) {
  const RuntimeJob* j = sched_.find(id);
  if (j == nullptr || j->state == JobState::kFinished) return;
  commit(JournalRecordKind::kKill, &Durable::apply_kill, id, engine_.now());
  // The stale completion event stays armed (its body is state-guarded) so
  // the engine's drain time matches a run without the kill; only the
  // tracking entry goes.
  completion_events_.erase(id);
  log_event(JobEventKind::kFinish, *sched_.find(id));
  request_iteration();
  journal_commit();
}

void Cluster::request_iteration() {
  if (durable_.agent.iteration_pending) return;
  commit(JournalRecordKind::kIterArmed, &Durable::apply_iteration_armed,
         engine_.now());
  // Committed immediately: this can be the only record of an entry point
  // (e.g. a transport retry listener), and losing it would silently drop
  // the armed iteration on recovery.
  if (journaling()) journal_barrier();
  iteration_event_ =
      engine_.schedule_at(engine_.now(), EventPriority::kSchedule,
                          [this] { run_iteration_body(); });
}

void Cluster::run_iteration_body() {
  iteration_event_.reset();
  // kIterate's effect is split around the iteration it records: the
  // pending flag clears before it, so a request made during the iteration
  // arms the next one, and the scheduler ends the demotions after it.
  durable_.begin_iteration();
  durable_.iterate(engine_.now(), [this](RuntimeJob& job) {
    return run_job_hook(job, /*try_context=*/false);
  });
  append(JournalRecordKind::kIterate, engine_.now());
  journal_commit();
}

// -- CoschedService ---------------------------------------------------------

std::optional<JobId> Cluster::get_mate_job(GroupId group, JobId asking) {
  (void)asking;
  const JobId* member = durable_.agent.group_to_job.find(group);
  if (member == nullptr) return std::nullopt;
  return *member;
}

MateStatus Cluster::get_mate_status(JobId job) {
  if (std::ranges::find(committing_, job) != committing_.end())
    return MateStatus::kStarting;
  const RuntimeJob* j = sched_.find(job);
  if (!j)
    return durable_.agent.expected.contains(job) ? MateStatus::kUnsubmitted
                                                 : MateStatus::kUnknown;
  switch (j->state) {
    case JobState::kQueued: return MateStatus::kQueuing;
    case JobState::kHolding: return MateStatus::kHolding;
    case JobState::kRunning: return MateStatus::kRunning;
    case JobState::kFinished: return MateStatus::kFinished;
  }
  return MateStatus::kUnknown;
}

bool Cluster::try_start_mate(JobId job) {
  // Tripwire behind the no-start-with-stale-fence invariant: the dispatcher
  // must not reach this method after admit_fence() said "stale".
  if (job == pending_stale_fence_) durable_.count_stale_fence_start();
  pending_stale_fence_ = kNoJob;
  ++durable_.agent.try_start_requests;
  const std::optional<bool> started =
      durable_.try_start_specific(job, engine_.now(), [this](RuntimeJob& rj) {
        return run_job_hook(rj, /*try_context=*/true);
      });
  if (!started) return false;  // unsubmitted or unknown: cannot start
  journal_commit();
  return *started;
}

bool Cluster::start_job(JobId job) {
  if (job == pending_stale_fence_) durable_.count_stale_fence_start();
  pending_stale_fence_ = kNoJob;
  const RuntimeJob* j = sched_.find(job);
  if (!j || j->state != JobState::kHolding) return false;
  start_held(*j);
  journal_commit();
  return true;
}

void Cluster::start_held(const RuntimeJob& j) {
  const JobId id = j.spec.id;
  // The start's own callback, on_job_started, journals kStart with these
  // fields; the flag tells it the job held.
  starting_from_hold_ = true;
  durable_.apply_start(id, engine_.now(), j.first_ready, j.allocated,
                       /*from_hold=*/true,
                       durable_.agent.unsync_pending.contains(id));
  starting_from_hold_ = false;
}

// -- Algorithm 1 --------------------------------------------------------------

void Cluster::note_ready(const RuntimeJob& job) {
  if (durable_.agent.ready_logged.contains(job.spec.id)) return;
  commit(JournalRecordKind::kReady, &Durable::apply_ready, job.spec.id,
         job.first_ready);
  log_event(JobEventKind::kReady, job);
}

RunDecision Cluster::run_job_hook(RuntimeJob& job, bool try_context) {
  note_ready(job);
  // The decision may talk to peers; what it learns about their faults is
  // applied once it is made, so replay reproduces the §IV-C bookkeeping.
  Degraded deg;
  const RunDecision d = run_job_decision(job, try_context, deg);
  if (deg.unknown == 0 && deg.suspected == 0 && !deg.fault_seen && !deg.unsync)
    return d;
  const JobId id = job.spec.id;
  const bool had_fault = durable_.agent.fault_seen.contains(id);
  const bool had_unsync = durable_.agent.unsync_pending.contains(id);
  if (deg.unknown != 0 || deg.suspected != 0 ||
      (deg.fault_seen && !had_fault) || (deg.unsync && !had_unsync))
    commit(JournalRecordKind::kDegraded, &Durable::apply_degraded, id,
           deg.unknown, deg.fault_seen || had_fault, deg.unsync || had_unsync,
           deg.suspected);
  return d;
}

RunDecision Cluster::run_job_decision(RuntimeJob& job, bool try_context,
                                      Degraded& deg) {
  blocking_peer_ = -1;

  // Lines 33-36: coscheduling disabled, or a regular job: start normally.
  if (!cfg_.enabled || !job.spec.is_paired()) return RunDecision::kStart;

  // A gang job inside its re-prepare backoff window yields without touching
  // peers (jittered backoff after an aborted round or a victim order).
  if (gang_on()) {
    const auto bo = durable_.gang_book.backoff_until.find(job.spec.id);
    if (bo != durable_.gang_book.backoff_until.end() &&
        engine_.now() < bo->second)
      return scheme_decision(job, try_context, Scheme::kYield);
  }

  // Line 2: locate the mate on each peer.  A peer that is down, or has no
  // member of this group, does not constrain the job (lines 30-31).
  using MateRef = GangMate;
  // Up to 8 peers' mates fit inline: a retried decision allocates nothing.
  using Mates = InlineList<MateRef, 8>;
  std::int32_t suspect_peer = -1;  // a suspected peer we could not consult
  Mates mates;
  for (std::size_t i = 0; i < peers_.size(); ++i) {
    // A confirmed-dead peer is not consulted: the detector already holds the
    // answer the transport would eventually fail its way to (§IV-C: remote
    // down, mate unknown — do not block the local job).
    if (liveness_on() && peer_health(i) == PeerHealth::kDead) {
      deg.peer_call_failed();
      continue;
    }
    const auto found = peers_[i]->get_mate_job(job.spec.group, job.spec.id);
    if (!found) {
      if (liveness_on() && peer_health(i) == PeerHealth::kSuspect) {
        // Unreachable but not yet confirmed dead: await confirmation under
        // the local scheme instead of starting unsynchronized right away.
        ++deg.suspected;
        if (suspect_peer < 0) suspect_peer = static_cast<std::int32_t>(i);
      } else {
        deg.peer_call_failed();
      }
      continue;
    }
    if (!*found) continue;
    mates.push_back(MateRef{peers_[i], static_cast<std::int32_t>(i), **found});
  }
  if (mates.empty()) {
    if (suspect_peer >= 0) {
      blocking_peer_ = suspect_peer;
      return scheme_decision(job, try_context);
    }
    if (deg.transport_fault) deg.unsync = true;
    return RunDecision::kStart;
  }

  CommitGuard commit_marker(committing_, job.spec.id);

  // Lines 4-27: classify each mate.
  Mates holding;
  Mates not_ready;
  Mates suspected;
  std::int32_t unsubmitted_peer = -1;
  for (const MateRef& m : mates) {
    const auto status_reply = m.peer->get_mate_status(m.id);
    MateStatus status;
    if (!status_reply) {
      if (liveness_on() &&
          peer_health(static_cast<std::size_t>(m.peer_index)) ==
              PeerHealth::kSuspect) {
        // The failure is not confirmed yet: treat the silent mate as
        // `suspected` and fall back to the local scheme (hold/yield) rather
        // than start unsynchronized on what may be a transient partition.
        ++deg.suspected;
        status = MateStatus::kSuspected;
      } else {
        deg.peer_call_failed();
        status = MateStatus::kUnknown;
      }
    } else {
      status = *status_reply;
    }
    switch (status) {
      case MateStatus::kHolding:
        holding.push_back(m);
        break;
      case MateStatus::kStarting:
        break;  // committed by its own Run_Job; it will start with us
      case MateStatus::kQueuing:
        not_ready.push_back(m);
        break;
      case MateStatus::kUnsubmitted:
        not_ready.push_back(m);
        if (unsubmitted_peer < 0) unsubmitted_peer = m.peer_index;
        break;
      case MateStatus::kSuspected:
        suspected.push_back(m);
        break;
      case MateStatus::kRunning:
      case MateStatus::kFinished:
      case MateStatus::kUnknown:
        // Line 25-26: mate failed/unknowable — start the local job normally
        // rather than wait forever.
        break;
    }
  }

  // -- k-of-N two-phase gang costart (>= 3 domains, gang.two_phase on) -----
  // The recursive tryStartMate chain commits one member at a time; a crash
  // or partition mid-chain strands a partial gang.  The two-phase path first
  // places *every* member into a fenced leased hold (prepare), then starts
  // them all (commit) — any failure aborts the round and releases every
  // prepared hold.  Two-domain groups keep the paper's Algorithm-1 chain.
  if (gang_on() && !try_context && mates.size() >= 2) {
    if (!suspected.empty() || suspect_peer >= 0) {
      blocking_peer_ =
          !suspected.empty() ? suspected.front().peer_index : suspect_peer;
      return scheme_decision(job, try_context);
    }
    if (unsubmitted_peer >= 0) {
      // A member is not in its queue yet; there is nothing to prepare.
      blocking_peer_ = unsubmitted_peer;
      return scheme_decision(job, try_context);
    }
    Mates members;
    for (const MateRef& m : holding) members.push_back(m);
    for (const MateRef& m : not_ready) members.push_back(m);
    std::sort(members.begin(), members.end(),
              [](const MateRef& a, const MateRef& b) {
                return a.peer_index < b.peer_index;
              });
    const RunDecision d = gang_costart(job, members, deg);
    if (d == RunDecision::kStart && deg.transport_fault) deg.unsync = true;
    return d;
  }

  if (!not_ready.empty()) {
    // Lines 10-23: ask the first unready mate's domain to run an additional
    // scheduling iteration.  Its own Run_Job (seeing us as `starting`)
    // recursively extends the chain to any further domains, so one call
    // suffices; `false` means the mate could not start now.
    const auto started = not_ready.front().peer->try_start_mate(
        not_ready.front().id);
    if (!started) deg.peer_call_failed();
    if (started.has_value() && !*started) {
      if (deg.transport_fault) deg.fault_seen = true;
      blocking_peer_ = not_ready.front().peer_index;
      return scheme_decision(job, try_context);
    }
    // Transport failure counts as unknown: do not block the local job.
  }

  if (not_ready.empty() && (!suspected.empty() || suspect_peer >= 0)) {
    // Every reachable mate is ready but at least one lives on a suspected
    // domain: await confirmation under the local scheme instead of waking
    // holders into a possibly half-dead group.
    blocking_peer_ =
        !suspected.empty() ? suspected.front().peer_index : suspect_peer;
    return scheme_decision(job, try_context);
  }

  // Lines 6-8: everyone is ready; wake the holding mates and start.
  for (const MateRef& m : holding) {
    const auto woke = m.peer->start_job(m.id);
    if (!woke) {
      // The wake-up itself was lost: our mate stays holding while we run —
      // the quintessential unsynchronized start.
      deg.peer_call_failed();
    } else if (!*woke) {
      COSCHED_LOG(kDebug) << name_ << ": mate " << m.id
                          << " was no longer holding at start";
    }
  }
  if (deg.transport_fault) deg.unsync = true;
  return RunDecision::kStart;
}

RunDecision Cluster::scheme_decision(RuntimeJob& job, bool try_context,
                                     std::optional<Scheme> force) {
  // Under a remote tryStartMate the job must start or decline; holding or
  // yielding inside someone else's iteration would corrupt their queue pass.
  if (try_context) return RunDecision::kSkip;

  Scheme scheme = force.value_or(cfg_.scheme);

  // §IV-E2: a job that yielded too many times escalates to hold.  The
  // escalation never applies to a forced yield (gang backoff): escalating
  // a backoff into a hold would recreate the deadlock being resolved.
  if (!force && scheme == Scheme::kYield && cfg_.max_yield_before_hold > 0 &&
      job.yield_count >= cfg_.max_yield_before_hold)
    scheme = Scheme::kHold;

  // §IV-E2: cap the fraction of the machine allowed to sit in hold state.
  if (scheme == Scheme::kHold) {
    const auto& pool = sched_.pool();
    const double would_hold =
        static_cast<double>(pool.held() + job.allocated);
    if (would_hold >
        cfg_.max_hold_fraction * static_cast<double>(pool.capacity()))
      scheme = Scheme::kYield;
  }

  if (scheme == Scheme::kHold) return hold_for_mates(job, blocking_peer_);
  // The raised boost is the decision's: the scheduler's yield transition
  // keeps it, and the record carries it absolute.
  job.priority_boost += cfg_.yield_priority_boost;
  append(JournalRecordKind::kYield, job.spec.id, engine_.now(),
         job.first_ready, job.priority_boost);
  if (RetryQueue::Entry* retry =
          durable_.add_yield_retry(job.spec.id, engine_.now()))
    retry->event = arm_yield_retry_event(retry->at, job.spec.id);
  log_event(JobEventKind::kYield, job);
  return RunDecision::kYield;
}

RunDecision Cluster::hold_for_mates(const RuntimeJob& job,
                                    std::int32_t lease_peer) {
  schedule_hold_release();
  append(JournalRecordKind::kHold, job.spec.id, engine_.now(),
         job.first_ready, job.allocated);
  log_event(JobEventKind::kHold, job);
  if (liveness_on()) grant_lease(job.spec.id, lease_peer);
  return RunDecision::kHold;
}

// -- k-of-N gang costart (two-phase, fenced) ----------------------------------

Duration Cluster::gang_backoff(JobId job, std::uint32_t attempt) const {
  const Duration base = std::max<Duration>(1, cfg_.gang.backoff_base);
  const std::uint32_t exp =
      std::min<std::uint32_t>(attempt > 0 ? attempt - 1 : 0, 6);
  Duration d = base << exp;
  // Jitter is a pure function of (seed, job, attempt): deterministic across
  // runs and replays, yet decorrelated between the gangs of a wait cycle so
  // they do not re-prepare in lockstep forever.
  SplitMix64 mix(cfg_.gang.seed ^
                 (static_cast<std::uint64_t>(job) * 0x9e3779b97f4a7c15ULL) ^
                 attempt);
  d += static_cast<Duration>(mix.next() % static_cast<std::uint64_t>(base));
  if (cfg_.gang.backoff_cap > 0 && d > cfg_.gang.backoff_cap)
    d = cfg_.gang.backoff_cap;
  return d;
}

RunDecision Cluster::gang_hold_hook(RuntimeJob& job) {
  note_ready(job);
  // The prepared hold's lease has no renewal source (peer = -1): unless a
  // commit lands, it expires after lease_duration and the fencing epoch
  // advances — a partitioned coordinator can neither keep these nodes past
  // the lease nor commit with its stale token once the partition heals.
  return hold_for_mates(job, /*lease_peer=*/-1);
}

void Cluster::commit_gang_commit(JobId id, GroupId group, bool coordinator) {
  commit(JournalRecordKind::kGangCommit, &Durable::apply_gang_commit, id,
         group, engine_.now(), coordinator, 0, kNoTime);
}

void Cluster::commit_gang_abort(JobId id, GroupId group, bool coordinator,
                                std::uint64_t attempt, Time until) {
  commit(JournalRecordKind::kGangAbort, &Durable::apply_gang_abort, id, group,
         engine_.now(), coordinator, attempt, until);
}

RunDecision Cluster::gang_costart(RuntimeJob& job,
                                  std::span<const GangMate> members,
                                  Degraded& deg) {
  const GroupId group = job.spec.group;

  // Phase 1 — prepare: place every member into a fenced leased hold.
  InlineList<GangMate, 8> prepared;
  std::int32_t failed_peer = -1;
  for (const GangMate& m : members) {
    const auto ok = m.peer->gang_prepare(m.id, group);
    if (!ok) deg.peer_call_failed();
    if (!ok || !*ok) {
      failed_peer = m.peer_index;
      break;
    }
    prepared.push_back(m);
  }

  if (failed_peer >= 0) {
    // Abort: release every hold this round placed, then back off before
    // re-preparing so the gangs of a wait cycle do not livelock
    // re-acquiring each other's nodes.
    for (const GangMate& m : prepared) {
      // A lost abort leaves the member its prepared hold, but the hold's
      // self-expiring lease returns the nodes at expiry — the fencing
      // guarantee.
      if (!m.peer->gang_abort(m.id, group)) deg.peer_call_failed();
    }
    const auto ait = durable_.gang_book.attempts.find(job.spec.id);
    const std::uint32_t attempt =
        (ait == durable_.gang_book.attempts.end() ? 0u : ait->second) + 1;
    commit_gang_abort(job.spec.id, group, /*coordinator=*/true, attempt,
                      engine_.now() + gang_backoff(job.spec.id, attempt));
    if (deg.transport_fault) deg.fault_seen = true;
    blocking_peer_ = failed_peer;
    return scheme_decision(job, /*try_context=*/false, Scheme::kYield);
  }

  // Phase 2 — commit: start every prepared member, then the local job.  A
  // lost commit cannot strand its member: the prepared hold's lease
  // expires, the member requeues, and its own Run_Job sees the rest of the
  // gang running and starts it (§IV-C unknown rule) — eventual completion.
  for (const GangMate& m : prepared) {
    const auto started = m.peer->gang_commit(m.id, group);
    if (!started) {
      deg.peer_call_failed();
    } else if (!*started) {
      COSCHED_LOG(kDebug) << name_ << ": gang member " << m.id
                          << " was no longer prepared at commit";
    }
  }
  commit_gang_commit(job.spec.id, group, /*coordinator=*/true);
  return RunDecision::kStart;
}

bool Cluster::gang_prepare(JobId job, GroupId group) {
  pending_stale_fence_ = kNoJob;
  if (!cfg_.enabled) return false;
  const RuntimeJob* j = sched_.find(job);
  if (j == nullptr) return false;
  // A holding member is re-prepared in place (coordinator retry after a lost
  // reply, or the member already held under its own scheme): its record, if
  // it was not prepared yet, then a refreshed self-expiring lease fence the
  // hold.  A queued member takes a fenced leased hold first.
  const bool was_holding = j->state == JobState::kHolding;
  if (!was_holding) {
    if (j->state != JobState::kQueued) return false;
    durable_.try_start_specific(job, engine_.now(), [this](RuntimeJob& jj) {
      return gang_hold_hook(jj);
    });
    const RuntimeJob* after = sched_.find(job);
    if (after == nullptr || after->state != JobState::kHolding) {
      // Not enough free nodes (or not eligible yet): the coordinator aborts
      // the round and backs off.
      journal_commit();
      return false;
    }
  }
  if (!was_holding || durable_.gang_book.prepared.count(job) == 0)
    commit(JournalRecordKind::kGangPrepare, &Durable::apply_gang_prepare, job,
           group, engine_.now());
  if (was_holding && liveness_on()) grant_lease(job, /*peer=*/-1);
  journal_commit();
  return true;
}

bool Cluster::gang_commit(JobId job, GroupId group) {
  // Tripwire parity with start_job: the dispatcher must not reach a gang
  // start after admit_fence() said "stale".
  if (job == pending_stale_fence_) durable_.count_stale_fence_start();
  pending_stale_fence_ = kNoJob;
  const RuntimeJob* j = sched_.find(job);
  if (j == nullptr || j->state != JobState::kHolding) return false;
  commit_gang_commit(job, group, /*coordinator=*/false);
  start_held(*j);
  journal_commit();
  return true;
}

bool Cluster::gang_abort(JobId job, GroupId group) {
  pending_stale_fence_ = kNoJob;
  if (durable_.gang_book.prepared.count(job) == 0) return false;
  // Abort advances the fencing epoch just like a lease expiry: any
  // in-flight commit stamped under the prepared epoch is now stale.
  const bool fenced = liveness_on() && leases().count(job) > 0;
  const RuntimeJob* j = sched_.find(job);
  const bool holding = j != nullptr && j->state == JobState::kHolding;
  commit_gang_abort(job, group, /*coordinator=*/false);
  if (fenced) advance_fence();
  if (holding) {
    log_event(JobEventKind::kHoldRelease, *sched_.find(job));
    request_iteration();
  }
  journal_commit();
  return true;
}

bool Cluster::gang_victim(JobId job, GroupId group) {
  pending_stale_fence_ = kNoJob;
  const RuntimeJob* j = sched_.find(job);
  if (j == nullptr || j->state != JobState::kHolding) return false;
  const auto ait = durable_.gang_book.attempts.find(job);
  const std::uint32_t attempt =
      (ait == durable_.gang_book.attempts.end() ? 0u : ait->second) + 1;
  const bool fenced = liveness_on() && leases().count(job) > 0;
  commit(JournalRecordKind::kGangVictim, &Durable::apply_gang_victim, job,
         group, engine_.now(), attempt,
         engine_.now() + gang_backoff(job, attempt));
  if (fenced) advance_fence();
  log_event(JobEventKind::kHoldRelease, *sched_.find(job));
  request_iteration();
  journal_commit();
  return true;
}

// -- events -------------------------------------------------------------------

void Cluster::on_job_started(const RuntimeJob& job) {
  // Every start lands here from the scheduler's start transition: a live
  // one journals kStart, and a replayed one came from apply_start().  Both
  // then run the Cluster side of the start.
  const JobId id = job.spec.id;
  const bool was_unsync = durable_.agent.unsync_pending.contains(id);
  append(JournalRecordKind::kStart, id, engine_.now(), job.first_ready,
         job.allocated, starting_from_hold_, was_unsync);
  durable_.apply_started(id);
  if (replaying_) return;  // recovery re-arms the completion itself
  log_event(JobEventKind::kStart, job);
  if (was_unsync) log_event(JobEventKind::kUnsyncStart, job);
  completion_events_[id] = engine_.schedule_at(
      engine_.now() + job.spec.runtime, EventPriority::kJobEnd,
      [this, id] { on_job_finished(id); });
}

void Cluster::on_job_finished(JobId id) {
  completion_events_.erase(id);
  // The job may have been killed between its start and this completion
  // event; a second finish would corrupt the pool accounting.
  const RuntimeJob* cur = sched_.find(id);
  if (cur == nullptr || cur->state != JobState::kRunning) return;
  // Dependents gated by a think-time delay become eligible later than this
  // finish-triggered iteration; wake the scheduler when the gap elapses.
  // Armed before the finish's apply drops the dependency links.
  for (const auto& [dependent, delay] :
       durable_.agent.dependents.sorted_values(id)) {
    if (delay > 0)
      engine_.schedule_in(delay, EventPriority::kSchedule,
                          [this] { request_iteration(); });
  }
  commit(JournalRecordKind::kFinish, &Durable::apply_finish, id,
         engine_.now());
  log_event(JobEventKind::kFinish, *sched_.find(id));
  request_iteration();
  journal_commit();
}

void Cluster::log_event(JobEventKind kind, const RuntimeJob& job) {
  if (event_log_ == nullptr) return;
  JobEvent e;
  e.time = engine_.now();
  e.system = name_;
  e.kind = kind;
  e.job = job.spec.id;
  e.group = job.spec.group;
  e.nodes = job.spec.nodes;
  event_log_->record(std::move(e));
}

EventId Cluster::arm_yield_retry_event(Time at, JobId id) {
  // Untracked on purpose: the event survives a crash, and its body is fully
  // state-guarded, so a recovery re-arm at the same (at, id) coalesces: the
  // yield-retry entry is the ground truth, and whichever twin fires first
  // consumes it.  The body reads `at` back as its own firing time, keeping
  // the capture to two words so the handler fits std::function's inline
  // buffer.
  return engine_.schedule_at(at, EventPriority::kSchedule, [this, id] {
    if (!durable_.agent.yield_retries.erase(engine_.now(), id)) return;
    const RuntimeJob* j = sched_.find(id);
    if (!j || j->state != JobState::kQueued) return;
    request_iteration();
  });
}

void Cluster::schedule_hold_release() {
  if (cfg_.hold_release_period <= 0) return;  // deadlock breaker disabled
  if (durable_.agent.release_tick_pending) return;
  // One synchronized tick per domain, not per-job timers: the paper's
  // enhancement "force[s] the holding jobs to release their resources
  // periodically".  Releasing all holders at the same instant matters —
  // with staggered per-job releases, a blocked job larger than any single
  // hold can never see enough simultaneous free nodes, and every released
  // holder immediately re-holds (cross-machine livelock).
  commit(JournalRecordKind::kTickArmed, &Durable::apply_tick_armed,
         engine_.now() + cfg_.hold_release_period);
  tick_event_ = engine_.schedule_at(durable_.agent.release_tick_at,
                                    EventPriority::kHoldRelease,
                                    [this] { hold_release_tick(); });
}

void Cluster::hold_release_tick() {
  tick_event_.reset();
  commit(JournalRecordKind::kTickFired, &Durable::apply_tick_fired,
         engine_.now());
  const std::vector<JobId> holders = sched_.holding_ids();
  if (holders.empty()) {
    journal_commit();
    return;
  }
  for (JobId h : holders)
    force_release(h, durable_.agent.fault_seen.contains(h));
  request_iteration();
  journal_commit();
}

void Cluster::force_release(JobId id, bool degraded) {
  commit(JournalRecordKind::kHoldRelease, &Durable::apply_hold_release, id,
         engine_.now(), degraded);
  log_event(JobEventKind::kHoldRelease, *sched_.find(id));
}

void Cluster::advance_fence() {
  commit(JournalRecordKind::kLeaseFence, &Durable::apply_lease_fence,
         std::uint64_t{durable_.leases().fence_counter} + 1);
}

// -- liveness layer -----------------------------------------------------------

HeartbeatInfo Cluster::liveness_info() const {
  HeartbeatInfo info;
  info.incarnation = durable_.agent.incarnation;
  info.fence = fence_epoch();
  info.queue_depth = sched_.queue_length();
  info.hold_fraction = sched_.hold_fraction();
  return info;
}

PeerHealth Cluster::peer_health(std::size_t i) const {
  if (!cfg_.liveness.enabled) return PeerHealth::kAlive;
  return durable_.peer_state[i].detector.health(engine_.now(),
                                                cfg_.liveness.phi_suspect,
                                                cfg_.liveness.phi_confirm);
}

std::optional<HeartbeatInfo> Cluster::heartbeat(const HeartbeatInfo& from) {
  // Each side probes independently; answering at all is the evidence the
  // prober wants, and the payload lets it piggyback our load picture.
  (void)from;
  if (!cfg_.liveness.enabled) return std::nullopt;
  return liveness_info();
}

bool Cluster::admit_fence(JobId job, std::uint64_t fence) {
  pending_stale_fence_ = kNoJob;
  if (!cfg_.liveness.enabled || fence == 0 || fence >= fence_epoch())
    return true;
  // The caller learned this token before our last lease expiry (or before a
  // restart bumped the incarnation): its view of our holds is stale, and
  // acting on it could double-start the group.
  durable_.count_stale_fence_rejection();
  pending_stale_fence_ = job;
  if (const RuntimeJob* j = sched_.find(job))
    log_event(JobEventKind::kFenceReject, *j);
  return false;
}

std::uint64_t Cluster::lease_expiry_violations(Time now) const {
  const Duration grace = 2 * cfg_.liveness.heartbeat_period;
  std::uint64_t violations = 0;
  for (const auto& [id, lease] : leases()) {
    if (now - lease.expires_at <= grace) continue;
    const RuntimeJob* j = sched_.find(id);
    if (j != nullptr && j->state == JobState::kHolding) ++violations;
  }
  return violations;
}

void Cluster::arm_liveness_tick() {
  if (!liveness_on() || durable_.leases().liveness_armed) return;
  commit(JournalRecordKind::kLivenessArmed, &Durable::apply_liveness_armed,
         engine_.now() + cfg_.liveness.heartbeat_period);
  liveness_event_ = engine_.schedule_at(durable_.leases().liveness_at,
                                        EventPriority::kStats,
                                        [this] { liveness_body(); });
}

void Cluster::liveness_body() {
  liveness_event_.reset();
  durable_.disarm_liveness();
  if (!liveness_on()) return;
  const bool work_left = sched_.queue_length() > 0 ||
                         sched_.running_count() > 0 ||
                         sched_.holding_count() > 0;
  // Quiescent fire journals nothing (mirrors periodic_body); submits re-arm.
  if (!work_left && leases().empty()) return;

  const Time now = engine_.now();
  const HeartbeatInfo mine = liveness_info();

  // Probe every peer, then journal and apply the whole round.
  std::vector<std::optional<HeartbeatInfo>> acks(peers_.size());
  for (std::size_t i = 0; i < peers_.size(); ++i)
    acks[i] = peers_[i]->heartbeat(mine);
  commit(JournalRecordKind::kHeartbeat, &Durable::apply_heartbeat, now, acks);
  // Learn each peer's fencing epoch: every later side-effecting call to it
  // carries this token, so the peer can spot us going stale.
  for (std::size_t i = 0; i < peers_.size(); ++i)
    if (acks[i]) peers_[i]->set_fence_token(acks[i]->fence);

  // Lease maintenance.  Renewal requires fresh evidence from the blocking
  // peer *this round*; a lease whose peer stayed silent past the expiry
  // auto-expires.  The lease table is ordered, so the scan is deterministic.
  std::vector<std::pair<JobId, bool>> to_expire;  // (job, mate confirmed dead)
  for (const auto& [job, lease] : leases()) {
    const bool peer_ok = lease.peer >= 0 &&
                         static_cast<std::size_t>(lease.peer) < acks.size() &&
                         acks[static_cast<std::size_t>(lease.peer)];
    if (peer_ok) {
      commit(JournalRecordKind::kLeaseRenew, &Durable::apply_lease_renew, job,
             now + cfg_.liveness.lease_duration);
      continue;
    }
    if (lease.expires_at <= now) {
      const bool dead =
          lease.peer >= 0 &&
          peer_health(static_cast<std::size_t>(lease.peer)) ==
              PeerHealth::kDead;
      to_expire.emplace_back(job, dead);
    }
  }
  for (const auto& [job, dead] : to_expire) expire_lease(job, dead);

  arm_liveness_tick();
  journal_commit();
}

void Cluster::grant_lease(JobId job, std::int32_t peer) {
  HoldLease lease;
  lease.job = job;
  lease.peer = peer;
  lease.granted_at = engine_.now();
  lease.expires_at = engine_.now() + cfg_.liveness.lease_duration;
  lease.token = fence_epoch();
  commit(JournalRecordKind::kLeaseGrant, &Durable::apply_lease_grant, lease);
  arm_liveness_tick();
}

void Cluster::expire_lease(JobId job, bool mate_dead) {
  if (leases().count(job) == 0) return;
  // The fencing epoch advances with the expiry: any in-flight call stamped
  // under the old epoch is stale from this instant, which is exactly what
  // closes the partitioned-then-healed double-start window.
  commit(JournalRecordKind::kLeaseExpire, &Durable::apply_lease_expire, job,
         engine_.now(), mate_dead);
  advance_fence();
  const RuntimeJob* j = sched_.find(job);
  if (j != nullptr) log_event(JobEventKind::kLeaseExpire, *j);
  if (j != nullptr && j->state == JobState::kHolding) {
    force_release(job, mate_dead || durable_.agent.fault_seen.contains(job));
    // The requeued job decides afresh next iteration: a confirmed-dead mate
    // then takes the §IV-C unknown path and starts unsynchronized.
    request_iteration();
  }
}

// -- crash-consistent persistence --------------------------------------------

void Cluster::set_journal(Journal* journal, std::uint64_t compact_every) {
  journal_ = journal;
  compact_every_ = compact_every;
  if (journal_ == nullptr) return;
  // The journal must be recoverable from its very first byte: start it with
  // a snapshot of the current state.  There is no previous generation to
  // retain on the initial attach.
  journal_->compact(encode_snapshot(), /*retain_previous=*/false);
}

std::span<const std::uint8_t> Cluster::encode_snapshot() {
  snapshot_.clear();
  write_snapshot(snapshot_);
  return snapshot_.bytes();
}

void Cluster::journal_barrier() {
  // ENOSPC ladder, rung 1: an append was dropped since the last commit.
  // Compact before the barrier so the hole the dropped record left never
  // becomes durable.
  if (journal_->no_space()) emergency_compact();
  journal_->commit();
}

void Cluster::journal_commit() {
  if (!journaling()) return;
  journal_barrier();
  if (compact_every_ > 0 &&
      journal_->records_since_compaction() >= compact_every_) {
    try {
      journal_->compact(encode_snapshot());
    } catch (const JournalNoSpace&) {
      // The generation-retaining image no longer fits — fall through to the
      // ladder, which collapses to a single snapshot (and beyond).
      emergency_compact();
    } catch (const JournalIoError&) {
      // Transient medium error while re-reading the old image: skip this
      // round; the periodic trigger re-fires at the next threshold commit.
    }
  }
}

void Cluster::emergency_compact() {
  ++durable_.agent.enospc_events;
  const std::span<const std::uint8_t> snap = encode_snapshot();
  try {
    // Rung 2: collapse the whole log into one snapshot frame, freeing every
    // byte the tail occupied.
    journal_->compact(snap, /*retain_previous=*/false);
    ++durable_.agent.emergency_compactions;
  } catch (const Error&) {
    // Rung 3: even a single snapshot does not fit (or the old image cannot
    // be read back) — keep journaling in memory so in-process recovery and
    // the exactly-once cache stay alive, and raise the degraded alarm.
    journal_->degrade_to_memory();
    journal_->compact(snap, /*retain_previous=*/false);
  }
}

void Cluster::write_snapshot(WireWriter& w) const { durable_.snapshot(w); }

void Cluster::validate_indices() const {
  durable_.agent.ready_logged.validate("ready-logged");
  durable_.agent.yield_retries.validate("yield-retry");
  for (const RetryQueue::Entry& e : durable_.agent.yield_retries)
    COSCHED_CHECK_MSG(engine_.is_pending(e.event),
                      name_ << ": yield retry of job " << e.id << " at "
                            << e.at << " has no armed event");
  sched_.validate_indices();
}

void Cluster::wipe_for_recovery() {
  completion_events_.for_each_sorted(
      [this](const auto& entry) { engine_.cancel(entry.second); });
  completion_events_.clear();
  for (std::optional<EventId>* ev :
       {&iteration_event_, &tick_event_, &periodic_event_, &liveness_event_}) {
    if (*ev) engine_.cancel(**ev);
    ev->reset();
  }
  durable_.wipe();
  // The rest is process-local.
  committing_.clear();
  pending_stale_fence_ = kNoJob;
  blocking_peer_ = -1;
  starting_from_hold_ = false;
  replay_last_iterate_ = kNoTime;
}

void Cluster::restore_snapshot(WireReader& r) {
  journal_ = nullptr;  // a restore does not adopt a journal by itself
  wipe_for_recovery();
  replaying_ = true;
  durable_.restore(r);
  replaying_ = false;
}

void Cluster::apply_record(const JournalRecord& rec) {
  WireReader r(rec.payload);
  switch (rec.kind) {
    case JournalRecordKind::kSnapshot:
      // Snapshot records are verified and applied (or skipped, for the
      // generations behind the one chosen) by recover_from_journal(); the
      // replay loop never routes them here.
      COSCHED_CHECK_MSG(false, name_ << ": snapshot record routed to replay");
      break;
    case JournalRecordKind::kDedup:
      break;  // owned by the RPC layer, not scheduler state
    case JournalRecordKind::kIncarnation:
      return replay(r, &Durable::apply_incarnation);
    case JournalRecordKind::kExpected:
      return replay(r, &Durable::apply_expected);
    case JournalRecordKind::kSubmit:
      return replay(r, &Durable::apply_submit);
    case JournalRecordKind::kReady:
      return replay(r, &Durable::apply_ready);
    case JournalRecordKind::kStart:
      return replay(r, &Durable::apply_start);
    case JournalRecordKind::kHold:
      return replay(r, &Durable::apply_hold);
    case JournalRecordKind::kHoldRelease:
      return replay(r, &Durable::apply_hold_release);
    case JournalRecordKind::kYield:
      return replay(r, &Durable::apply_yield);
    case JournalRecordKind::kFinish:
      return replay(r, &Durable::apply_finish);
    case JournalRecordKind::kKill:
      return replay(r, &Durable::apply_kill);
    case JournalRecordKind::kIterate:
      // Replay-only scratch for rearm_after_restore(): the newest
      // iteration time replayed.
      get(r, replay_last_iterate_);
      check_replayed(replay_last_iterate_);
      return durable_.apply_iterate(replay_last_iterate_);
    case JournalRecordKind::kTickArmed:
      return replay(r, &Durable::apply_tick_armed);
    case JournalRecordKind::kTickFired:
      return replay(r, &Durable::apply_tick_fired);
    case JournalRecordKind::kIterArmed:
      return replay(r, &Durable::apply_iteration_armed);
    case JournalRecordKind::kPeriodicArmed:
      return replay(r, &Durable::apply_periodic_armed);
    case JournalRecordKind::kDegraded:
      return replay(r, &Durable::apply_degraded);
    case JournalRecordKind::kLeaseGrant:
      return replay(r, &Durable::apply_lease_grant);
    case JournalRecordKind::kLeaseRenew:
      return replay(r, &Durable::apply_lease_renew);
    case JournalRecordKind::kLeaseExpire:
      return replay(r, &Durable::apply_lease_expire);
    case JournalRecordKind::kLeaseFence:
      return replay(r, &Durable::apply_lease_fence);
    case JournalRecordKind::kHeartbeat:
      return replay(r, &Durable::apply_heartbeat);
    case JournalRecordKind::kLivenessArmed:
      return replay(r, &Durable::apply_liveness_armed);
    case JournalRecordKind::kGangPrepare:
      return replay(r, &Durable::apply_gang_prepare);
    case JournalRecordKind::kGangCommit:
      return replay(r, &Durable::apply_gang_commit);
    case JournalRecordKind::kGangAbort:
      return replay(r, &Durable::apply_gang_abort);
    case JournalRecordKind::kGangVictim:
      return replay(r, &Durable::apply_gang_victim);
  }
}

// -- Durable: the state, the scheduler and what changes them ---------------

Cluster::Durable::Durable(NodeCount capacity,
                          std::unique_ptr<PriorityPolicy> policy,
                          const SchedulerConfig& sched_config,
                          std::shared_ptr<const AllocationModel> alloc,
                          std::function<void(const RuntimeJob&)> on_start,
                          const Duration& yield_retry_period)
    : sched_(capacity, std::move(policy), sched_config, std::move(alloc)),
      yield_retry_period_(yield_retry_period) {
  sched_.set_on_start(std::move(on_start));
}

void Cluster::Durable::snapshot(WireWriter& w) const {
  put(w, snapshot_fields(*this));
  sched_.snapshot(w);
}

void Cluster::Durable::restore(WireReader& r) {
  get(r, snapshot_fields(*this));
  sched_.restore(r);
}

void Cluster::Durable::disarm_liveness() {
  lease_table_.liveness_armed = false;
  lease_table_.liveness_at = kNoTime;
}

void Cluster::Durable::wipe() {
  agent = {};
  lease_table_ = {};
  gang_book = {};
}

// -- applies: one per record kind --------------------------------------------

void Cluster::Durable::begin_iteration() {
  agent.iteration_pending = false;
  ++agent.iterations_run;
}

RetryQueue::Entry* Cluster::Durable::add_yield_retry(JobId id,
                                                     Time yielded_at) {
  if (yield_retry_period_ <= 0) return nullptr;
  return &agent.yield_retries.insert(yielded_at + yield_retry_period_, id);
}

void Cluster::Durable::apply_incarnation(std::uint64_t incarnation) {
  agent.incarnation = incarnation;
}

void Cluster::Durable::apply_expected(const JobSpec& spec) {
  agent.group_to_job.try_emplace(spec.group, spec.id);
  agent.expected.try_emplace(spec.id, spec);
}

void Cluster::Durable::apply_submit(const JobSpec& spec, Time t) {
  if (spec.is_paired()) agent.group_to_job.try_emplace(spec.group, spec.id);
  agent.expected.erase(spec.id);
  sched_.submit(spec, t);
  // Link the dependency only while it can still fire; a dependency that
  // already finished gets a direct wake (track_dependency, or
  // rearm_after_restore after a recovery).
  if (!spec.has_dependency()) return;
  const RuntimeJob* dep = sched_.find(spec.after);
  if (dep == nullptr || dep->state != JobState::kFinished)
    agent.dependents.emplace(spec.after,
                             std::make_pair(spec.id, spec.after_delay));
}

void Cluster::Durable::apply_ready(JobId id, Time first_ready) {
  agent.ready_logged.insert(id);
  // A live decision set first_ready already; a replayed one may not reach
  // another record that carries it.  The job is live: a journal holds a
  // job's kReady before its kFinish or kKill.
  if (RuntimeJob* j = sched_.find_mut(id))
    if (j->first_ready == kNoTime) j->first_ready = first_ready;
}

void Cluster::Durable::apply_start(
    JobId id, Time t, Time first_ready, NodeCount allocated, bool from_hold,
    bool /*was_unsync: kDegraded state re-derives it*/) {
  if (from_hold)
    sched_.start_holding(id, t);
  else
    sched_.start_queued(id, t, first_ready, allocated);
}

void Cluster::Durable::apply_started(JobId id) {
  if (agent.unsync_pending.erase(id) > 0) ++agent.unsync_starts;
  agent.fault_seen.erase(id);
  // The gang bookkeeping retires (gang_book.started stays: it witnesses the
  // atomicity invariant), and so does the hold's lease.
  gang_book.prepared.erase(id);
  gang_book.backoff_until.erase(id);
  gang_book.attempts.erase(id);
  lease_table_.leases.erase(id);
}

void Cluster::Durable::apply_hold(JobId id, Time t, Time first_ready,
                                  NodeCount allocated) {
  sched_.hold(id, t, first_ready, allocated);
}

void Cluster::Durable::apply_hold_release(JobId id, Time t, bool degraded) {
  sched_.release_hold(id, t);
  ++agent.forced_releases;
  if (degraded) ++agent.degraded_forced_releases;
  lease_table_.leases.erase(id);  // the release supersedes the lease
}

void Cluster::Durable::apply_yield(JobId id, Time t, Time first_ready,
                                   double boost) {
  sched_.yield(id, first_ready, boost);
  add_yield_retry(id, t);
}

void Cluster::Durable::apply_finish(JobId id, Time t) {
  sched_.finish(id, t);
  agent.dependents.erase(id);
}

void Cluster::Durable::apply_kill(JobId id, Time t) {
  sched_.kill(id, t);
  lease_table_.leases.erase(id);
  gang_book.prepared.erase(id);
  gang_book.backoff_until.erase(id);
  gang_book.attempts.erase(id);
}

void Cluster::Durable::apply_iterate(Time /*t*/) {
  begin_iteration();
  sched_.clear_demotions();
}

void Cluster::Durable::apply_tick_armed(Time at) {
  agent.release_tick_pending = true;
  agent.release_tick_at = at;
}

void Cluster::Durable::apply_tick_fired(Time /*fired_at*/) {
  agent.release_tick_pending = false;
  agent.release_tick_at = kNoTime;
}

void Cluster::Durable::apply_iteration_armed(Time /*armed_at*/) {
  agent.iteration_pending = true;
}

void Cluster::Durable::apply_periodic_armed(Time at) {
  agent.periodic_armed = true;
  agent.periodic_at = at;
}

void Cluster::Durable::apply_degraded(JobId id, std::uint64_t unknown,
                                      bool fault_seen, bool unsync_pending,
                                      std::uint64_t suspected) {
  agent.unknown_status_decisions += unknown;
  lease_table_.suspected_status_decisions += suspected;
  if (fault_seen)
    agent.fault_seen.insert(id);
  else
    agent.fault_seen.erase(id);
  if (unsync_pending)
    agent.unsync_pending.insert(id);
  else
    agent.unsync_pending.erase(id);
}

void Cluster::Durable::apply_lease_grant(const HoldLease& lease) {
  lease_table_.leases[lease.job] = lease;
  ++lease_table_.lease_grants;
}

void Cluster::Durable::apply_lease_renew(JobId id, Time expires_at) {
  const auto it = lease_table_.leases.find(id);
  if (it != lease_table_.leases.end()) {
    it->second.expires_at = expires_at;
    ++it->second.renewals;
  }
  ++lease_table_.lease_renewals;
}

void Cluster::Durable::apply_lease_expire(JobId id, Time /*t*/,
                                          bool /*mate_dead*/) {
  lease_table_.leases.erase(id);
  ++lease_table_.lease_expiries;
}

void Cluster::Durable::apply_lease_fence(std::uint64_t counter) {
  lease_table_.fence_counter = static_cast<std::uint32_t>(counter);
}

void Cluster::Durable::apply_heartbeat(
    Time t, const std::vector<std::optional<HeartbeatInfo>>& acks) {
  lease_table_.heartbeats_sent += acks.size();
  for (std::size_t i = 0; i < acks.size(); ++i) {
    if (acks[i]) ++lease_table_.heartbeats_acked;
    if (i >= peer_state.size()) continue;
    PeerState& ps = peer_state[i];
    ps.detector.mark_probe(t);
    if (!acks[i]) continue;
    ps.detector.record_heartbeat(t);
    ps.info = *acks[i];
    ps.ever_heard = true;
  }
}

void Cluster::Durable::apply_liveness_armed(Time at) {
  lease_table_.liveness_armed = true;
  lease_table_.liveness_at = at;
}

void Cluster::Durable::apply_gang_prepare(JobId id, GroupId /*group*/,
                                          Time /*t*/) {
  gang_book.prepared.insert(id);
  ++gang_book.gangs_prepared;
}

void Cluster::Durable::apply_gang_commit(
    JobId id, GroupId /*group*/, Time /*t*/, bool coordinator,
    std::uint64_t /*attempt*/, Time /*until*/) {
  gang_book.prepared.erase(id);
  gang_book.started.insert(id);
  if (coordinator) ++gang_book.gangs_committed;
  // The start itself is its own kStart record.
}

void Cluster::Durable::apply_gang_abort(JobId id, GroupId /*group*/, Time t,
                                        bool coordinator,
                                        std::uint64_t attempt, Time until) {
  if (coordinator) {
    // The round failed: back off before re-preparing.
    gang_book.attempts[id] = static_cast<std::uint32_t>(attempt);
    gang_book.backoff_until[id] = until;
    ++gang_book.gangs_aborted;
    return;
  }
  // A member releases its prepared hold.
  gang_book.prepared.erase(id);
  lease_table_.leases.erase(id);
  const RuntimeJob* j = sched_.find(id);
  if (j != nullptr && j->state == JobState::kHolding)
    sched_.release_hold(id, t);
}

void Cluster::Durable::apply_gang_victim(JobId id, GroupId /*group*/, Time t,
                                         std::uint64_t attempt, Time until) {
  gang_book.attempts[id] = static_cast<std::uint32_t>(attempt);
  gang_book.backoff_until[id] = until;
  gang_book.prepared.erase(id);
  ++gang_book.gangs_victimized;
  lease_table_.leases.erase(id);
  const RuntimeJob* j = sched_.find(id);
  if (j != nullptr && j->state == JobState::kHolding)
    sched_.release_hold(id, t);
}

std::size_t Cluster::apply_verified_snapshot(
    const std::vector<JournalRecord>& records, RecoveryStats& stats) {
  // Candidate snapshots, newest first.
  std::vector<std::size_t> snaps;
  for (std::size_t i = 0; i < records.size(); ++i)
    if (records[i].kind == JournalRecordKind::kSnapshot) snaps.push_back(i);
  COSCHED_CHECK_MSG(!snaps.empty(),
                    name_ << ": no snapshot record salvaged from the journal");

  for (auto it = snaps.rbegin(); it != snaps.rend(); ++it) {
    const JournalRecord& rec = records[*it];
    const SnapshotView view = parse_snapshot_payload(rec);
    if (!view.checksum_ok) {
      // The envelope says the state bytes rotted — do not even try to parse
      // them; fall back a generation.
      stats.snapshot_fallback = true;
      continue;
    }
    wipe_for_recovery();
    try {
      WireReader sr(view.state);
      durable_.restore(sr);
    } catch (const ParseError&) {
      // A v1 snapshot carries no checksum, so rot surfaces here instead; a
      // clean wipe makes the next (older) candidate start from scratch.
      wipe_for_recovery();
      stats.snapshot_fallback = true;
      continue;
    }
    stats.snapshot_generation = view.generation;
    return *it;
  }
  COSCHED_CHECK_MSG(false,
                    name_ << ": every salvaged snapshot generation is corrupt");
  return records.size();
}

void Cluster::replay_salvaged_tail(const std::vector<JournalRecord>& records,
                                   std::size_t snap_idx, RecoveryStats& stats) {
  // Records to replay: everything sequenced after the chosen snapshot.  A
  // salvage scan returns stream order, which reordered pre-fsync writes can
  // permute — sort by sequence number (stable within a seq so a duplicate's
  // first copy wins) before judging holes.
  std::vector<const JournalRecord*> tail;
  for (std::size_t i = 0; i < records.size(); ++i)
    if (records[i].seq > records[snap_idx].seq) tail.push_back(&records[i]);
  std::stable_sort(tail.begin(), tail.end(),
                   [](const JournalRecord* a, const JournalRecord* b) {
                     return a->seq < b->seq;
                   });

  std::uint64_t prev_seq = records[snap_idx].seq;
  bool holed = false;
  for (const JournalRecord* rec : tail) {
    if (rec->seq == prev_seq) {
      // Same record persisted twice (reorder + retry artifacts): the first
      // copy already applied; re-applying would double-count.
      ++stats.duplicates_skipped;
      continue;
    }
    if (holed || rec->seq != prev_seq + 1) {
      // First hole ends the sound replay: records beyond it would apply over
      // missing intermediate state.  Count both the hole and the survivors
      // we refuse to use — this is the data_loss_reported() contract.
      if (!holed) {
        holed = true;
        ++stats.seq_holes;
        stats.records_missing += rec->seq - prev_seq - 1;
      }
      ++stats.records_dropped;
      prev_seq = rec->seq;
      continue;
    }
    prev_seq = rec->seq;
    if (rec->kind == JournalRecordKind::kSnapshot) {
      // A newer-but-rejected (or mid-tail retained) snapshot: its state is
      // already covered by the records around it; it only advances the seq.
      continue;
    }
    apply_record(*rec);
    ++stats.records_replayed;
  }
}

Cluster::RecoveryStats Cluster::recover_from_journal(Journal& journal) {
  const auto t0 = std::chrono::steady_clock::now();
  // A JournalIoError here (transient read failure) propagates: the caller
  // owns the retry loop, and each retry re-draws the fault stream.
  const std::vector<std::uint8_t> bytes = journal.sink().contents();
  const SalvageReport rep = salvage_scan(bytes);

  RecoveryStats stats;
  stats.bytes_scanned = rep.bytes_scanned;
  stats.bytes_skipped = rep.bytes_skipped;
  stats.corrupt_regions = rep.corrupt_regions.size();
  stats.tail_torn = rep.tail_torn;

  journal_ = nullptr;  // never journal while wiping or replaying
  replaying_ = true;
  const std::size_t snap_idx = apply_verified_snapshot(rep.records, stats);
  stats.records_replayed = 1;  // the snapshot itself
  replay_salvaged_tail(rep.records, snap_idx, stats);
  replaying_ = false;
  rearm_after_restore();

  // New life: bump the incarnation and make it durable so peers (and the
  // RPC dedup cache) can tell pre-crash requests from post-crash ones.
  journal_ = &journal;
  commit(JournalRecordKind::kIncarnation, &Durable::apply_incarnation,
         durable_.agent.incarnation + 1);
  journal_barrier();

  stats.incarnation = durable_.agent.incarnation;
  stats.replay_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  return stats;
}

void Cluster::rearm_after_restore() {
  const Time now = engine_.now();

  // Completions for every running job, armed at the job's absolute end time
  // in (end, start, id) order so same-instant completions pop in the same
  // sequence an uncrashed run would produce.
  struct Completion {
    Time end;
    Time start;
    JobId id;
  };
  std::vector<Completion> completions;
  for (JobId id : sched_.jobs().sorted_keys()) {
    const RuntimeJob& job = sched_.jobs().at(id);
    if (job.state != JobState::kRunning) continue;
    completions.push_back({job.start + job.spec.runtime, job.start, id});
  }
  std::sort(completions.begin(), completions.end(),
            [](const Completion& a, const Completion& b) {
              return std::tie(a.end, a.start, a.id) <
                     std::tie(b.end, b.start, b.id);
            });
  for (const Completion& c : completions) {
    const JobId id = c.id;
    completion_events_[id] =
        engine_.schedule_at(std::max(now, c.end), EventPriority::kJobEnd,
                            [this, id] { on_job_finished(id); });
  }

  if (durable_.agent.release_tick_pending) {
    if (durable_.agent.release_tick_at >= now) {
      tick_event_ = engine_.schedule_at(durable_.agent.release_tick_at,
                                        EventPriority::kHoldRelease,
                                        [this] { hold_release_tick(); });
    } else {
      // The tick fired before the crash but its kTickFired never committed
      // together with a state change we kept — treat it as spent.
      durable_.agent.release_tick_pending = false;
      durable_.agent.release_tick_at = kNoTime;
    }
  }

  if (durable_.agent.periodic_armed) {
    if (durable_.agent.periodic_at >= now) {
      periodic_event_ =
          engine_.schedule_at(durable_.agent.periodic_at, EventPriority::kStats,
                              [this] { periodic_body(); });
    } else {
      // A quiescent periodic fire journals nothing; an armed-in-the-past
      // timer therefore means it already fired and found no work.
      durable_.agent.periodic_armed = false;
      durable_.agent.periodic_at = kNoTime;
    }
  }

  if (durable_.leases().liveness_armed) {
    if (durable_.leases().liveness_at >= now) {
      liveness_event_ = engine_.schedule_at(durable_.leases().liveness_at,
                                            EventPriority::kStats,
                                            [this] { liveness_body(); });
    } else {
      // Same quiescence rule as the periodic timer: a liveness fire with
      // work (or leases) always journals a kHeartbeat, so armed-in-the-past
      // means it fired and found nothing to do.
      durable_.disarm_liveness();
    }
  }
  // Defensive: leases must never sit without a renewal/expiry driver.  In
  // any consistent journal state leases imply an armed tick, so this only
  // fires if that invariant was already broken — and it re-derives the same
  // way on a second recovery, so it needs no record of its own.
  if (!durable_.leases().liveness_armed && liveness_on() &&
      !leases().empty())
    arm_liveness_tick();

  // Re-teach peers the fencing tokens learned before the crash: the stubs'
  // stamps are process state, not journal state.
  for (std::size_t i = 0;
       i < peers_.size() && i < durable_.peer_state.size(); ++i)
    if (durable_.peer_state[i].ever_heard)
      peers_[i]->set_fence_token(durable_.peer_state[i].info.fence);

  RetryQueue& retries = durable_.agent.yield_retries;
  retries.sort_by_id();
  for (auto it = retries.begin(); it != retries.end();) {
    const Time at = it->at;
    const JobId id = it->id;
    if (at < now || (at == now && replay_last_iterate_ == now)) {
      // Fired before the crash.  The at == now case is provable because a
      // retry at a timestamp is always armed earlier (at - period), so it
      // sorts before — and runs before — the iteration armed at that
      // timestamp; a committed kIterate at `now` therefore means every retry
      // due at `now` was already consumed.  kYield replay re-derives the
      // entry unconditionally, so without this prune the re-armed twin would
      // fire again after recovery and schedule an extra iteration.
      it = retries.erase(it);
      continue;
    }
    it->event = arm_yield_retry_event(at, id);
    ++it;
  }

  // Dependency wakes whose dependency finished before the crash: a job
  // still queued behind a satisfied-later constraint re-checks at its ready
  // time (this re-derives both the delayed finish-side wakes and the
  // track_dependency() direct wakes).
  for (JobId id : sched_.jobs().sorted_keys()) {
    const RuntimeJob& job = sched_.jobs().at(id);
    if (job.state != JobState::kQueued || !job.spec.has_dependency()) continue;
    const RuntimeJob* dep = sched_.find(job.spec.after);
    if (dep == nullptr || dep->state != JobState::kFinished) continue;
    const Time ready_at = dep->end + job.spec.after_delay;
    if (ready_at > now)
      engine_.schedule_at(ready_at, EventPriority::kSchedule,
                          [this] { request_iteration(); });
  }

  // The pending iteration is re-armed LAST.  In live operation the
  // iteration event is always the newest same-priority event at its
  // timestamp (it is armed by whichever trigger fired first), so it runs
  // after every same-instant retry/wake and their requests coalesce into
  // it.  Re-arming it before the yield retries above would invert that
  // order at the crash instant: a retry firing after the iteration would
  // schedule a second iteration at the same time, yielding paired jobs once
  // more than the uncrashed run.
  if (durable_.agent.iteration_pending)
    iteration_event_ = engine_.schedule_at(now, EventPriority::kSchedule,
                                           [this] { run_iteration_body(); });
}

}  // namespace cosched
