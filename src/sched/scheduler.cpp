#include "sched/scheduler.h"

#include <algorithm>
#include <limits>

#include "proto/durable.h"
#include "sched/profile.h"
#include "util/error.h"
#include "util/log.h"

namespace cosched {

Scheduler::Scheduler(NodeCount capacity, std::unique_ptr<PriorityPolicy> policy,
                     SchedulerConfig config,
                     std::shared_ptr<const AllocationModel> alloc)
    : pool_(capacity, std::move(alloc)),
      policy_(std::move(policy)),
      config_(config) {
  COSCHED_CHECK(policy_ != nullptr);
}

void Scheduler::submit(const JobSpec& spec, Time now) {
  COSCHED_CHECK_MSG(spec.id != kNoJob, "job must have an id");
  COSCHED_CHECK_MSG(!jobs_.contains(spec.id) && !archived_.contains(spec.id),
                    "duplicate submit of job " << spec.id);
  COSCHED_CHECK_MSG(pool_.charged(spec.nodes) <= pool_.capacity(),
                    "job " << spec.id << " cannot fit the machine");
  (void)now;
  RuntimeJob& job = jobs_[spec.id];
  job.spec = spec;
  job.state = JobState::kQueued;
  enqueue(job);
  touch();
}

bool Scheduler::eligible(const RuntimeJob& job, Time now) const {
  if (!job.spec.has_dependency()) return true;
  // Finished dependencies live in the archive; a dependency still in the
  // live table (or not yet submitted) cannot be satisfied.
  const RuntimeJob* dep = archived_.find(job.spec.after);
  return dep != nullptr && now >= dep->end + job.spec.after_delay;
}

std::vector<JobId> Scheduler::priority_order(Time now) const {
  std::vector<JobId> ids;
  for (const RuntimeJob* j : ordered(now)) ids.push_back(j->spec.id);
  return ids;
}

std::vector<JobId> Scheduler::queued_ids() const {
  std::vector<JobId> ids;
  for (const RuntimeJob* j : queued_) ids.push_back(j->spec.id);
  return ids;
}

const std::vector<RuntimeJob*>& Scheduler::ordered(Time now) const {
  if (order_time_ == now && order_epoch_ == epoch_) return order_cache_;
  struct Key {
    RuntimeJob* job;
    bool demoted;
    double score;
    Time submit;
  };
  std::vector<Key> keys;
  keys.reserve(queued_.size());
  for (RuntimeJob* j : queued_) {
    if (!eligible(*j, now)) continue;  // waiting on a dependency
    keys.push_back(Key{j, j->demoted, policy_->score(*j, now), j->spec.submit});
  }
  std::sort(keys.begin(), keys.end(), [](const Key& a, const Key& b) {
    if (a.demoted != b.demoted) return !a.demoted;  // demoted sort last
    if (a.score != b.score) return a.score > b.score;
    if (a.submit != b.submit) return a.submit < b.submit;
    return a.job->spec.id < b.job->spec.id;
  });
  order_cache_.clear();
  order_cache_.reserve(keys.size());
  for (const Key& k : keys) order_cache_.push_back(k.job);
  order_time_ = now;
  order_epoch_ = epoch_;
  return order_cache_;
}

Scheduler::Shadow Scheduler::compute_shadow(const RuntimeJob& head,
                                            Time now) const {
  Shadow s;
  const NodeCount need = pool_.charged(head.spec.nodes);
  NodeCount cum = pool_.free();
  // Running jobs free their charged nodes no later than start + walltime;
  // the index is already ordered by that end.  Holding jobs have no bounded
  // end; they contribute nothing (conservative).
  for (const auto& [t, job] : running_ends_) {
    cum += job->allocated;
    if (cum >= need) {
      s.time = std::max(t, now);
      s.extra = cum - need;
      return s;
    }
  }
  // Head can never fit from running-job completions alone (held nodes block
  // it).  No reservation is possible; allow free backfilling.
  s.time = kNoTime;
  s.extra = pool_.free();
  return s;
}

RunDecision Scheduler::decide(RuntimeJob& job, NodeCount charged, Time now,
                              const RunJobHook& hook) {
  job.allocated = charged;
  if (job.first_ready == kNoTime) job.first_ready = now;
  const RunDecision d = hook ? hook(job) : RunDecision::kStart;
  switch (d) {
    case RunDecision::kStart:
      start_queued(job, now, job.first_ready, charged);
      break;
    case RunDecision::kHold:
      hold(job, now, job.first_ready, charged);
      break;
    case RunDecision::kYield:
      yield(job, job.first_ready, job.priority_boost);
      break;
    case RunDecision::kSkip:
      // By contract side-effect free (tryStartMate contexts); the cached
      // priority order stays valid.
      job.allocated = 0;
      break;
  }
  return d;
}

RuntimeJob& Scheduler::live_job(JobId id) {
  RuntimeJob* job = jobs_.find(id);
  COSCHED_CHECK_MSG(job != nullptr, "unknown job " << id);
  return *job;
}

RuntimeJob& Scheduler::queued_job(JobId id) {
  RuntimeJob& job = live_job(id);
  COSCHED_CHECK_MSG(job.state == JobState::kQueued,
                    "job " << id << " is not queued");
  return job;
}

void Scheduler::start_queued(JobId id, Time now, Time first_ready,
                             NodeCount allocated) {
  start_queued(queued_job(id), now, first_ready, allocated);
}

void Scheduler::start_queued(RuntimeJob& job, Time now, Time first_ready,
                             NodeCount allocated) {
  job.allocated = allocated;
  job.first_ready = first_ready;
  pool_.allocate(allocated, now);
  do_start(job, now);
}

void Scheduler::hold(JobId id, Time now, Time first_ready,
                     NodeCount allocated) {
  hold(queued_job(id), now, first_ready, allocated);
}

void Scheduler::hold(RuntimeJob& job, Time now, Time first_ready,
                     NodeCount allocated) {
  job.allocated = allocated;
  job.first_ready = first_ready;
  pool_.hold(allocated, now);
  job.state = JobState::kHolding;
  job.hold_since = now;
  remove_from_queue(job.spec.id);
  holding_.emplace(job.spec.id, &job);
  touch();
}

void Scheduler::yield(JobId id, Time first_ready, double boost) {
  yield(queued_job(id), first_ready, boost);
}

void Scheduler::yield(RuntimeJob& job, Time first_ready, double boost) {
  job.first_ready = first_ready;
  job.allocated = 0;
  ++job.yield_count;
  job.priority_boost = boost;
  touch();
}

void Scheduler::clear_demotions() {
  bool any = false;
  for (RuntimeJob* j : queued_) {
    if (j->demoted) {
      j->demoted = false;
      any = true;
    }
  }
  if (any) touch();
}

void Scheduler::do_start(RuntimeJob& job, Time now) {
  job.state = JobState::kRunning;
  job.start = now;
  if (job.first_ready == kNoTime) job.first_ready = now;
  job.hold_since = kNoTime;
  job.demoted = false;
  remove_from_queue(job.spec.id);
  running_ends_.emplace(now + job.spec.walltime, &job);
  touch();
  if (on_start_) on_start_(job);
}

std::vector<JobId> Scheduler::iterate_conservative(Time now,
                                                   const RunJobHook& hook) {
  std::vector<JobId> started;
  // Rebuild the availability timeline: running jobs free their nodes at
  // start + walltime; holding jobs have no bounded end and occupy their
  // nodes out to the planning horizon.
  constexpr Duration kHorizon = 10LL * 365 * kDay;
  TimelineProfile profile(pool_.capacity());
  for (const auto& [end, job] : running_ends_) {
    if (end > now) profile.reserve(now, end - now, job->allocated);
  }
  for (const auto& [id, job] : holding_)
    profile.reserve(now, kHorizon, job->allocated);

  // A copy: a hook may re-enter ordered() and refill the cache.  A job a
  // hook finished or killed keeps its address in the archive, so the state
  // check below skips it.
  const std::vector<RuntimeJob*> order = ordered(now);
  for (RuntimeJob* jp : order) {
    RuntimeJob& job = *jp;
    if (job.state != JobState::kQueued) continue;
    const NodeCount charged = pool_.charged(job.spec.nodes);
    const Time planned = profile.earliest_fit(now, job.spec.walltime, charged);
    if (planned > now) {
      // Reserved for later; no later job may take these nodes first.
      profile.reserve(planned, job.spec.walltime, charged);
      continue;
    }
    const RunDecision d = decide(job, charged, now, hook);
    switch (d) {
      case RunDecision::kStart:
        started.push_back(job.spec.id);
        profile.reserve(now, job.spec.walltime, charged);
        break;
      case RunDecision::kHold:
        profile.reserve(now, kHorizon, charged);
        break;
      case RunDecision::kYield:
      case RunDecision::kSkip:
        break;  // slot released; later jobs may claim it
    }
  }
  clear_demotions();
  return started;
}

std::vector<JobId> Scheduler::iterate(Time now, const RunJobHook& hook) {
  if (config_.backfill && config_.conservative)
    return iterate_conservative(now, hook);
  std::vector<JobId> started;
  // A copy: a hook may re-enter ordered() and refill the cache.  A job a
  // hook finished or killed keeps its address in the archive, so the state
  // check below skips it.
  const std::vector<RuntimeJob*> order = ordered(now);

  bool blocked = false;
  Shadow shadow;
  for (RuntimeJob* jp : order) {
    RuntimeJob& job = *jp;
    // Held or started through a hook's side effects.
    if (job.state != JobState::kQueued) continue;
    const JobId id = job.spec.id;

    const NodeCount charged = pool_.charged(job.spec.nodes);
    const bool fits = pool_.can_allocate(charged);

    if (!blocked) {
      if (fits) {
        if (decide(job, charged, now, hook) == RunDecision::kStart)
          started.push_back(id);
        continue;
      }
      // Head job blocks: reserve its shadow window, then backfill.
      blocked = true;
      if (!config_.backfill) break;
      shadow = compute_shadow(job, now);
      continue;
    }

    // Backfill phase.
    if (!fits) continue;
    const bool ends_before_shadow =
        shadow.time != kNoTime && now + job.spec.walltime <= shadow.time;
    const bool within_extra = charged <= shadow.extra;
    if (shadow.time != kNoTime && !ends_before_shadow && !within_extra)
      continue;
    const RunDecision d = decide(job, charged, now, hook);
    if (d == RunDecision::kStart) started.push_back(id);
    // Consuming nodes past the shadow (or holding, whose end is unknown)
    // draws down the extra-node budget.
    if ((d == RunDecision::kStart || d == RunDecision::kHold) &&
        (!ends_before_shadow || d == RunDecision::kHold))
      shadow.extra = std::max<NodeCount>(0, shadow.extra - charged);
  }

  clear_demotions();
  return started;
}

bool Scheduler::try_start_specific(JobId id, Time now, const RunJobHook& hook) {
  RuntimeJob* job = jobs_.find(id);
  return job != nullptr && try_start_specific(*job, now, hook);
}

bool Scheduler::try_start_specific(RuntimeJob& job, Time now,
                                   const RunJobHook& hook) {
  if (job.state != JobState::kQueued) return false;
  if (!eligible(job, now)) return false;

  const NodeCount charged = pool_.charged(job.spec.nodes);
  if (!pool_.can_allocate(charged)) return false;

  if (config_.backfill && config_.respect_reservation_on_try) {
    // Find the blocked queue head; starting `id` must not delay it.  No
    // hook runs inside this loop, so it reads the cached order in place.
    for (const RuntimeJob* hp : ordered(now)) {
      if (hp == &job) break;  // `id` outranks everything unfitting before it
      const RuntimeJob& head = *hp;
      if (head.state != JobState::kQueued) continue;
      if (pool_.can_allocate(pool_.charged(head.spec.nodes))) continue;
      const Shadow shadow = compute_shadow(head, now);
      const bool ends_before =
          shadow.time != kNoTime && now + job.spec.walltime <= shadow.time;
      const bool within_extra = charged <= shadow.extra;
      if (shadow.time != kNoTime && !ends_before && !within_extra)
        return false;
      break;
    }
  }

  return decide(job, charged, now, hook) == RunDecision::kStart;
}

void Scheduler::start_holding(JobId id, Time now) {
  RuntimeJob& job = live_job(id);
  COSCHED_CHECK_MSG(job.state == JobState::kHolding,
                    "job " << id << " is not holding");
  pool_.hold_to_busy(job.allocated, now);
  holding_.erase(id);
  do_start(job, now);
}

void Scheduler::release_hold(JobId id, Time now) {
  RuntimeJob& job = live_job(id);
  COSCHED_CHECK_MSG(job.state == JobState::kHolding,
                    "job " << id << " is not holding");
  pool_.unhold(job.allocated, now);
  job.allocated = 0;
  job.hold_since = kNoTime;
  job.state = JobState::kQueued;
  job.demoted = true;  // lowest priority for the next iteration
  ++job.forced_releases;
  holding_.erase(id);
  enqueue(job);
  touch();
}

void Scheduler::finish(JobId id, Time now) {
  RuntimeJob& job = live_job(id);
  COSCHED_CHECK_MSG(job.state == JobState::kRunning,
                    "job " << id << " is not running");
  pool_.release(job.allocated, now);
  erase_running_end(job);
  job.state = JobState::kFinished;
  job.end = now;
  archive(job);
  touch();  // archived dependencies may unblock queued jobs
}

void Scheduler::kill(JobId id, Time now) {
  RuntimeJob* found = jobs_.find(id);
  if (found == nullptr) return;  // unknown or already archived
  RuntimeJob& job = *found;
  switch (job.state) {
    case JobState::kQueued:
      remove_from_queue(id);
      break;
    case JobState::kHolding:
      pool_.unhold(job.allocated, now);
      holding_.erase(id);
      break;
    case JobState::kRunning:
      pool_.release(job.allocated, now);
      erase_running_end(job);
      break;
    case JobState::kFinished:
      return;  // unreachable: finished jobs are archived
  }
  job.state = JobState::kFinished;
  job.end = now;
  archive(job);
  touch();
}

const RuntimeJob* Scheduler::find(JobId id) const {
  const RuntimeJob* job = jobs_.find(id);
  return job != nullptr ? job : archived_.find(id);
}

RuntimeJob* Scheduler::find_mut(JobId id) { return jobs_.find(id); }

std::vector<JobId> Scheduler::holding_ids() const {
  std::vector<JobId> ids;
  ids.reserve(holding_.size());
  for (const auto& [id, job] : holding_) ids.push_back(id);
  return ids;
}

void Scheduler::enqueue(RuntimeJob& job) {
  queue_pos_.emplace(job.spec.id, queued_.size());
  queued_.push_back(&job);
}

void Scheduler::remove_from_queue(JobId id) {
  const auto node = queue_pos_.extract(id);
  if (node.empty()) return;
  const std::size_t pos = node.mapped();
  RuntimeJob* const last = queued_.back();
  queued_.pop_back();
  if (last->spec.id != id) {
    queued_[pos] = last;
    queue_pos_[last->spec.id] = pos;
  }
}

namespace {

/// The encoded archive's offsets are 32-bit.  Each lies below the bytes'
/// size, so they fit while `size` does.
void check_archive_size(std::size_t size) {
  COSCHED_CHECK_MSG(size <= std::numeric_limits<std::uint32_t>::max(),
                    "encoded archive exceeds 4 GiB");
}

}  // namespace

void Scheduler::archive(const RuntimeJob& job) {
  const JobId id = job.spec.id;
  archived_.insert(jobs_.extract(id));  // the node moves; the job stays put
  const auto at =
      std::lower_bound(archive_ids_.begin(), archive_ids_.end(), id);
  const auto i = static_cast<std::size_t>(at - archive_ids_.begin());
  archive_ids_.insert(at, id);
  if (!archive_encoded_) return;
  // Splice the job's encoding in at its id's place; the entries after it
  // move up by its size.
  job_bytes_.clear();
  put(job_bytes_, job);
  const std::span<const std::uint8_t> enc = job_bytes_.bytes();
  check_archive_size(archive_bytes_.size() + enc.size());
  const auto start = i < archive_offsets_.size()
                         ? archive_offsets_[i]
                         : static_cast<std::uint32_t>(archive_bytes_.size());
  archive_bytes_.insert(archive_bytes_.begin() + start, enc.begin(), enc.end());
  archive_offsets_.insert(archive_offsets_.begin() + i, start);
  for (std::size_t k = i + 1; k < archive_offsets_.size(); ++k)
    archive_offsets_[k] += static_cast<std::uint32_t>(enc.size());
}

std::span<const std::uint8_t> Scheduler::encoded_archive() const {
  if (!archive_encoded_) {
    encode_archive(archive_bytes_, archive_offsets_);
    archive_encoded_ = true;
  }
  return archive_bytes_;
}

void Scheduler::encode_archive(std::vector<std::uint8_t>& bytes,
                               std::vector<std::uint32_t>& offsets) const {
  WireWriter w;
  offsets.clear();
  offsets.reserve(archive_ids_.size());
  for (JobId id : archive_ids_) {
    offsets.push_back(static_cast<std::uint32_t>(w.bytes().size()));
    put(w, archived_.at(id));
  }
  check_archive_size(w.bytes().size());
  bytes = w.take();
}

void Scheduler::erase_running_end(const RuntimeJob& job) {
  const Time key = job.start + job.spec.walltime;
  auto [lo, hi] = running_ends_.equal_range(key);
  for (auto it = lo; it != hi; ++it) {
    if (it->second == &job) {
      running_ends_.erase(it);
      return;
    }
  }
  COSCHED_CHECK_MSG(false, "running job " << job.spec.id
                                          << " missing from end index");
}

void Scheduler::snapshot(WireWriter& w) const {
  put(w, pool_.accounting());

  // Both tables go out in ascending id order: the live one encoded now, the
  // archive as the bytes it keeps.
  const std::vector<JobId> live = jobs_.sorted_keys();
  w.put_u64(live.size());
  for (JobId id : live) put(w, jobs_.at(id));
  w.put_u64(archive_ids_.size());
  w.put_bytes(encoded_archive());

  // The running-end index in iteration order: equal walltime-end keys keep
  // multimap insertion (= start) order, which the shadow/profile scans
  // depend on for determinism.
  w.put_u64(running_ends_.size());
  for (const auto& [end, job] : running_ends_) w.put_i64(job->spec.id);
}

void Scheduler::restore(WireReader& r) {
  NodePool::Accounting a;
  get(r, a);
  pool_.restore(a);

  jobs_.clear();
  archived_.clear();
  archive_ids_.clear();
  archive_bytes_.clear();
  archive_offsets_.clear();
  archive_encoded_ = false;
  queued_.clear();
  queue_pos_.clear();
  running_ends_.clear();
  holding_.clear();

  // Each job is in one table, once: the encoded archive is built from
  // archived_, and a job must not be both live and finished.
  for (std::uint64_t n = r.get_u64(); n > 0; --n) {
    RuntimeJob j;
    get(r, j);
    const JobId id = j.spec.id;
    if (!jobs_.emplace(id, std::move(j)))
      throw ParseError("snapshot: duplicate job id");
  }
  for (std::uint64_t n = r.get_u64(); n > 0; --n) {
    RuntimeJob j;
    get(r, j);
    if (j.state != JobState::kFinished)
      throw ParseError("snapshot: unfinished job in the archive");
    const JobId id = j.spec.id;
    if (jobs_.contains(id) || !archived_.emplace(id, std::move(j)))
      throw ParseError("snapshot: duplicate job id");
    insert_ascending(archive_ids_, id);
  }

  // Rebuild indices.  Queue order is behaviorally irrelevant (priority_order
  // is a total order with an id tiebreak), so ascending id is canonical.
  std::size_t running = 0;
  for (JobId id : jobs_.sorted_keys()) {
    RuntimeJob& j = jobs_.at(id);
    switch (j.state) {
      case JobState::kQueued: enqueue(j); break;
      case JobState::kHolding: holding_.emplace(id, &j); break;
      case JobState::kRunning: ++running; break;
      case JobState::kFinished:
        throw ParseError("snapshot: finished job in the live table");
    }
  }
  if (r.get_u64() != running)
    throw ParseError("snapshot: running-end index count differs");
  for (std::size_t i = 0; i < running; ++i) {
    RuntimeJob* j = jobs_.find(r.get_i64());
    if (j == nullptr || j->state != JobState::kRunning)
      throw ParseError("snapshot: end index names a job not running");
    // Decoded times lie in [kNoTime, 2^62) (check_durable), so this fits.
    running_ends_.emplace(j->start + j->spec.walltime, j);
  }
  touch();
}

void Scheduler::validate_indices() const {
  std::size_t queued = 0, holding = 0, running = 0;
  for (JobId id : jobs_.sorted_keys()) {
    const RuntimeJob& j = jobs_.at(id);
    switch (j.state) {
      case JobState::kQueued: {
        ++queued;
        const std::size_t* pos = queue_pos_.find(id);
        COSCHED_CHECK_MSG(pos != nullptr && queued_.at(*pos) == &j,
                          "queued job " << id << " missing from queue index");
        break;
      }
      case JobState::kHolding: {
        ++holding;
        const auto it = holding_.find(id);
        COSCHED_CHECK_MSG(it != holding_.end() && it->second == &j,
                          "holding job " << id << " missing from hold index");
        break;
      }
      case JobState::kRunning: {
        ++running;
        bool found = false;
        auto [lo, hi] = running_ends_.equal_range(j.start + j.spec.walltime);
        for (auto it = lo; it != hi; ++it) found |= it->second == &j;
        COSCHED_CHECK_MSG(found,
                          "running job " << id << " missing from end index");
        break;
      }
      case JobState::kFinished:
        COSCHED_CHECK_MSG(false, "finished job " << id << " in live table");
    }
  }
  COSCHED_CHECK_MSG(queued == queued_.size() && queued == queue_pos_.size(),
                    "queue index size mismatch");
  COSCHED_CHECK_MSG(holding == holding_.size(), "hold index size mismatch");
  COSCHED_CHECK_MSG(running == running_ends_.size(),
                    "running-end index size mismatch");
  const std::vector<JobId> archived_ids = archived_.sorted_keys();
  for (JobId id : archived_ids)
    COSCHED_CHECK_MSG(archived_.at(id).state == JobState::kFinished,
                      "archived job " << id << " not finished");
  check_ascending_index(archive_ids_, archived_ids, "archive");
  if (archive_encoded_) {
    std::vector<std::uint8_t> bytes;
    std::vector<std::uint32_t> offsets;
    encode_archive(bytes, offsets);
    COSCHED_CHECK_MSG(bytes == archive_bytes_ && offsets == archive_offsets_,
                      "encoded archive differs from its jobs' encoding");
  }
}

}  // namespace cosched
