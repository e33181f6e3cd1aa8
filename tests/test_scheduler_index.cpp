// Regression tests for the incremental scheduler indices: the maintained
// running/holding/archived structures and the cached priority order must
// stay byte-equivalent to brute-force recomputation from job state, and
// finished jobs must never leak back into the hot-path scans.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <type_traits>
#include <utility>
#include <vector>

#include "proto/durable.h"
#include "sched/policy.h"
#include "sched/scheduler.h"
#include "util/error.h"

namespace cosched {
namespace {

JobSpec make_spec(JobId id, NodeCount nodes, Duration walltime,
                  Time submit = 0) {
  JobSpec s;
  s.id = id;
  s.nodes = nodes;
  s.walltime = walltime;
  s.runtime = walltime;
  s.submit = submit;
  return s;
}

// Brute-force reimplementation of the priority order from public state:
// score every eligible queued job, sort by (demoted last, score desc,
// submit asc, id asc).
std::vector<JobId> brute_force_order(const Scheduler& s, Time now) {
  struct Key {
    JobId id;
    bool demoted;
    double score;
    Time submit;
  };
  std::vector<Key> keys;
  for (JobId id : s.queued_ids()) {
    const RuntimeJob* job = s.find(id);
    if (!s.eligible(*job, now)) continue;
    keys.push_back(Key{id, job->demoted, s.policy().score(*job, now),
                       job->spec.submit});
  }
  std::sort(keys.begin(), keys.end(), [](const Key& a, const Key& b) {
    if (a.demoted != b.demoted) return !a.demoted;
    if (a.score != b.score) return a.score > b.score;
    if (a.submit != b.submit) return a.submit < b.submit;
    return a.id < b.id;
  });
  std::vector<JobId> out;
  out.reserve(keys.size());
  for (const Key& k : keys) out.push_back(k.id);
  return out;
}

// Holding set recomputed from live job state.
std::vector<JobId> brute_force_holding(const Scheduler& s) {
  std::vector<JobId> ids;
  for (JobId id : s.jobs().sorted_keys())
    if (s.jobs().at(id).state == JobState::kHolding) ids.push_back(id);
  return ids;
}

TEST(SchedulerIndex, FinishedJobsAreArchivedAndExcludedFromLiveScans) {
  Scheduler s(100, make_policy("wfp"));
  s.submit(make_spec(1, 60, 100), 0);
  s.submit(make_spec(2, 60, 100), 0);
  s.iterate(0);

  EXPECT_EQ(s.running_count(), 1u);
  EXPECT_EQ(s.queue_length(), 1u);

  s.finish(1, 100);
  EXPECT_EQ(s.running_count(), 0u);
  EXPECT_EQ(s.finished_count(), 1u);
  // The live map no longer holds job 1...
  EXPECT_FALSE(s.jobs().contains(1));
  EXPECT_TRUE(s.archived().contains(1));
  // ...but lookups and whole-history iteration still see it.
  ASSERT_NE(s.find(1), nullptr);
  EXPECT_EQ(s.find(1)->state, JobState::kFinished);
  std::size_t seen = 0;
  s.for_each_job([&](JobId, const RuntimeJob&) { ++seen; });
  EXPECT_EQ(seen, 2u);
  EXPECT_EQ(s.total_jobs(), 2u);

  // With job 1 archived nothing blocks job 2: the shadow/profile scans must
  // not count the finished job's nodes as still held.
  s.iterate(100);
  EXPECT_EQ(s.running_count(), 1u);
  EXPECT_EQ(s.queue_length(), 0u);
  EXPECT_NO_THROW(s.validate_indices());
}

TEST(SchedulerIndex, HoldingIdsMatchesBruteForceAfterChurn) {
  Scheduler s(200, make_policy("fcfs"));
  // Hook that holds every paired job on start.
  const RunJobHook hold_paired = [](RuntimeJob& job) {
    return job.spec.is_paired() ? RunDecision::kHold : RunDecision::kStart;
  };

  for (int i = 0; i < 12; ++i) {
    JobSpec spec = make_spec(100 + i, 10, 50, 0);
    if (i % 3 == 0) spec.group = 9000 + i;  // every third job pairs → holds
    s.submit(spec, 0);
  }
  s.iterate(0, hold_paired);

  EXPECT_EQ(s.holding_ids(), brute_force_holding(s));
  EXPECT_EQ(s.holding_count(), brute_force_holding(s).size());
  ASSERT_GE(s.holding_count(), 2u);

  // Churn: start one held job, force-release another back to the queue.
  const std::vector<JobId> held = s.holding_ids();
  s.start_holding(held[0], 10);
  s.release_hold(held[1], 10);
  EXPECT_EQ(s.holding_ids(), brute_force_holding(s));

  s.kill(held[0], 20);
  s.iterate(20, hold_paired);
  EXPECT_EQ(s.holding_ids(), brute_force_holding(s));
  EXPECT_NO_THROW(s.validate_indices());
}

TEST(SchedulerIndex, PriorityOrderMatchesBruteForceAndCacheInvalidates) {
  Scheduler s(64, make_policy("wfp"));
  // Mixed sizes/walltimes/submits so WFP scores differ and vary with time.
  for (int i = 0; i < 20; ++i)
    s.submit(make_spec(i + 1, 8 + (i % 4) * 8, 100 + (i % 5) * 300, i % 3),
             i % 3);
  const Time now = 500;
  EXPECT_EQ(s.priority_order(now), brute_force_order(s, now));

  // Cached call must be byte-identical to the first.
  const std::vector<JobId> first = s.priority_order(now);
  EXPECT_EQ(s.priority_order(now), first);

  // A submit invalidates the cache; the order must track the new queue.
  s.submit(make_spec(999, 64, 10, 0), now);
  EXPECT_EQ(s.priority_order(now), brute_force_order(s, now));
  EXPECT_NE(s.priority_order(now), first);

  // Starting jobs (queue removal) invalidates too.
  s.iterate(now);
  EXPECT_EQ(s.priority_order(now), brute_force_order(s, now));
  // A different query time recomputes (WFP scores are time-dependent).
  EXPECT_EQ(s.priority_order(now + 1000), brute_force_order(s, now + 1000));
  EXPECT_NO_THROW(s.validate_indices());
}

TEST(SchedulerIndex, AJobKilledInsideAHookIsSkippedAndKeepsItsAddress) {
  // The iteration walks a copy of the priority order, which holds job
  // addresses: a job a hook kills must be skipped, and stay readable at
  // the address the copy holds.
  Scheduler s(100, make_policy("fcfs"));
  for (JobId id : {1, 2, 3}) s.submit(make_spec(id, 10, 100, id), id);
  const RuntimeJob* victim = s.find(3);
  std::vector<JobId> decided;
  const std::vector<JobId> started = s.iterate(5, [&](RuntimeJob& job) {
    decided.push_back(job.spec.id);
    if (job.spec.id == 1) s.kill(3, 5);
    return RunDecision::kStart;
  });
  EXPECT_EQ(decided, (std::vector<JobId>{1, 2}));
  EXPECT_EQ(started, (std::vector<JobId>{1, 2}));
  EXPECT_EQ(s.find(3), victim);
  EXPECT_TRUE(s.archived().contains(3));
  EXPECT_EQ(&s.archived().at(3), victim);
  EXPECT_EQ(victim->state, JobState::kFinished);
  EXPECT_EQ(victim->end, 5);
  EXPECT_NO_THROW(s.validate_indices());
}

TEST(SchedulerIndex, ValidateIndicesAfterLifecycleChurn) {
  Scheduler s(256, make_policy("wfp"));
  int flip = 0;
  const RunJobHook every_fourth_holds = [&flip](RuntimeJob&) {
    return (++flip % 4 == 0) ? RunDecision::kHold : RunDecision::kStart;
  };

  Time now = 0;
  for (int round = 0; round < 10; ++round) {
    for (int i = 0; i < 6; ++i)
      s.submit(make_spec(1000 * round + i + 1, 16 + 16 * (i % 3),
                         200 + 100 * (i % 4), now),
               now);
    s.iterate(now, every_fourth_holds);
    ASSERT_NO_THROW(s.validate_indices()) << "round " << round;

    // Finish every running job whose walltime has elapsed.
    std::vector<JobId> done;
    for (JobId id : s.jobs().sorted_keys()) {
      const RuntimeJob& job = s.jobs().at(id);
      if (job.state == JobState::kRunning &&
          job.start + job.spec.walltime <= now)
        done.push_back(id);
    }
    for (JobId id : done) s.finish(id, now);

    if (s.holding_count() > 0) {
      if (round % 2 == 0)
        s.release_hold(s.holding_ids().front(), now);
      else
        s.start_holding(s.holding_ids().front(), now);
    }
    ASSERT_NO_THROW(s.validate_indices()) << "round " << round << " churned";
    now += 150;
  }

  // Drain: run everything out and confirm the terminal state is consistent.
  for (int i = 0;
       i < 500 && (s.running_count() || s.queue_length() || s.holding_count());
       ++i) {
    while (s.holding_count() > 0) s.start_holding(s.holding_ids().front(), now);
    s.iterate(now);
    std::vector<JobId> done;
    for (JobId id : s.jobs().sorted_keys()) {
      const RuntimeJob& job = s.jobs().at(id);
      if (job.state == JobState::kRunning &&
          job.start + job.spec.walltime <= now)
        done.push_back(id);
    }
    for (JobId id : done) s.finish(id, now);
    now += 100;
  }
  EXPECT_EQ(s.running_count(), 0u);
  EXPECT_EQ(s.queue_length(), 0u);
  EXPECT_EQ(s.holding_count(), 0u);
  EXPECT_EQ(s.finished_count(), s.total_jobs());
  EXPECT_NO_THROW(s.validate_indices());
}

TEST(SchedulerIndex, DependentEligibilityReadsArchive) {
  Scheduler s(100, make_policy("wfp"));
  JobSpec dep = make_spec(2, 10, 50);
  dep.after = 1;
  dep.after_delay = 25;
  s.submit(make_spec(1, 10, 100), 0);
  s.submit(dep, 0);
  s.iterate(0);
  // Job 1 runs; job 2 waits on its completion + delay.
  EXPECT_EQ(s.running_count(), 1u);
  EXPECT_EQ(s.queue_length(), 1u);

  s.finish(1, 100);
  s.iterate(100);  // delay not yet elapsed
  EXPECT_EQ(s.running_count(), 0u);
  s.iterate(125);  // 100 + 25: eligibility resolved via the archived record
  EXPECT_EQ(s.running_count(), 1u);
  EXPECT_NO_THROW(s.validate_indices());
}

// Scheduler::snapshot() as it was before the archive kept an id index: each
// table's keys are sorted on every call.  The running-end index is ordered
// by walltime end, which is exact when no two running jobs share an end.
std::vector<std::uint8_t> reference_snapshot(const Scheduler& s) {
  WireWriter w;
  const NodePool::Accounting a = s.pool().accounting();
  w.put_i64(a.busy);
  w.put_i64(a.held);
  w.put_i64(a.last_update);
  w.put_double(a.busy_ns);
  w.put_double(a.held_ns);
  const auto write_jobs = [&w](const HashMap<JobId, RuntimeJob>& table) {
    const std::vector<JobId> ids = table.sorted_keys();
    w.put_u64(ids.size());
    for (JobId id : ids) {
      const RuntimeJob& j = table.at(id);
      for (const std::int64_t v :
           {j.spec.id, j.spec.submit, j.spec.runtime, j.spec.walltime,
            j.spec.nodes, j.spec.group, j.spec.after, j.spec.after_delay,
            std::int64_t{j.spec.user}})
        w.put_i64(v);
      w.put_u8(static_cast<std::uint8_t>(j.state));
      w.put_i64(j.start);
      w.put_i64(j.end);
      w.put_i64(j.first_ready);
      w.put_i64(j.hold_since);
      w.put_i64(j.allocated);
      w.put_i64(j.yield_count);
      w.put_i64(j.forced_releases);
      w.put_bool(j.demoted);
      w.put_double(j.priority_boost);
    }
  };
  write_jobs(s.jobs());
  write_jobs(s.archived());
  std::vector<std::pair<Time, JobId>> ends;
  for (JobId id : s.jobs().sorted_keys()) {
    const RuntimeJob& j = s.jobs().at(id);
    if (j.state == JobState::kRunning)
      ends.emplace_back(j.start + j.spec.walltime, id);
  }
  std::sort(ends.begin(), ends.end());
  w.put_u64(ends.size());
  for (const auto& [end, id] : ends) w.put_i64(id);
  return w.take();
}

std::vector<std::uint8_t> snapshot_of(const Scheduler& s) {
  WireWriter w;
  s.snapshot(w);
  return w.take();
}

std::vector<JobId> archived_walk(const Scheduler& s) {
  std::vector<JobId> ids;
  s.for_each_job([&](JobId id, const RuntimeJob& j) {
    if (j.state == JobState::kFinished) ids.push_back(id);
  });
  return ids;
}

TEST(SchedulerIndex, RestoreRejectsAnEndIndexTheTablesContradict) {
  // The running-end index must name running jobs whose ends fit the time
  // range; a snapshot that says otherwise is malformed input.
  const auto image = [](JobState state, Time start, JobId indexed) {
    WireWriter w;
    put(w, NodePool::Accounting{});
    RuntimeJob job;
    job.spec = make_spec(1, 10, 100);
    job.state = state;
    job.start = start;
    w.put_u64(1);  // live jobs
    put(w, job);
    w.put_u64(0);  // archived jobs
    w.put_u64(1);  // running-end index
    w.put_i64(indexed);
    return w.take();
  };
  const auto restore = [](const std::vector<std::uint8_t>& bytes) {
    Scheduler s(300, make_policy("fcfs"));
    WireReader r(bytes);
    s.restore(r);
  };
  EXPECT_NO_THROW(restore(image(JobState::kRunning, 50, 1)));
  EXPECT_THROW(restore(image(JobState::kRunning, 50, 2)), ParseError);
  EXPECT_THROW(restore(image(JobState::kQueued, 50, 1)), ParseError);
  EXPECT_THROW(restore(image(JobState::kRunning,
                             std::numeric_limits<Time>::max() - 10, 1)),
               ParseError);
}

TEST(SchedulerIndex, DecodedTimesOutsideTheDurableRangeThrow) {
  // Decoded times and durations lie in [kNoTime, 2^62), so restore's sums
  // of two (start + runtime, a dependency's end + after_delay) fit.
  constexpr Time kLimit = Time{1} << 62;
  const auto decode = [](const auto& value) {
    WireWriter w;
    put(w, value);
    const std::vector<std::uint8_t> bytes = w.take();
    WireReader r(bytes);
    std::remove_cvref_t<decltype(value)> out;
    get(r, out);
  };
  for (Duration JobSpec::*field : {&JobSpec::submit, &JobSpec::runtime,
                                   &JobSpec::walltime, &JobSpec::after_delay}) {
    JobSpec spec = make_spec(1, 10, 100);
    spec.*field = kLimit - 1;
    EXPECT_NO_THROW(decode(spec));
    spec.*field = kNoTime;
    EXPECT_NO_THROW(decode(spec));
    spec.*field = kLimit + 1;
    EXPECT_THROW(decode(spec), ParseError);
    spec.*field = kNoTime - 1;
    EXPECT_THROW(decode(spec), ParseError);
  }
  for (Time RuntimeJob::*field : {&RuntimeJob::start, &RuntimeJob::end,
                                  &RuntimeJob::first_ready,
                                  &RuntimeJob::hold_since}) {
    RuntimeJob job;
    job.spec = make_spec(1, 10, 100);
    EXPECT_NO_THROW(decode(job));
    job.*field = kLimit - 1;
    EXPECT_NO_THROW(decode(job));
    job.*field = kLimit + 1;
    EXPECT_THROW(decode(job), ParseError);
    job.*field = kNoTime - 1;
    EXPECT_THROW(decode(job), ParseError);
  }
}

TEST(SchedulerIndex, ArchiveIndexSurvivesOutOfOrderEndsAndRestore) {
  // 40 jobs on room for 30: some queue, every seventh holds.  Walltimes are
  // distinct, so the reference's running-end order is exact.
  const auto make = [] { return Scheduler(300, make_policy("fcfs")); };
  const RunJobHook hold_sevenths = [](RuntimeJob& job) {
    return job.spec.id % 7 == 0 ? RunDecision::kHold : RunDecision::kStart;
  };
  Scheduler s = make();
  for (JobId id = 1; id <= 40; ++id)
    s.submit(make_spec(id, 10, 1000 + 37 * ((id * 17) % 41)), 0);
  s.iterate(0, hold_sevenths);
  ASSERT_GT(s.queue_length(), 0u);
  ASSERT_GT(s.holding_count(), 0u);

  // End jobs against id order: a stride walk of the ids, killing every
  // third (queued, holding or running) and finishing the running rest.
  Time now = 10;
  const auto end_some = [&now](Scheduler& sched, JobId stride, int count) {
    std::vector<JobId> ended;
    for (JobId k = 1; k <= 40 && static_cast<int>(ended.size()) < count; ++k) {
      const JobId id = 41 - (k * stride) % 41;
      const RuntimeJob* j = sched.find(id);
      if (j == nullptr || j->state == JobState::kFinished) continue;
      if (ended.size() % 3 == 0)
        sched.kill(id, now);
      else if (j->state == JobState::kRunning)
        sched.finish(id, now);
      else
        continue;
      ended.push_back(id);
      now += 10;
    }
    return ended;
  };
  const std::vector<JobId> ended = end_some(s, 13, 15);
  ASSERT_EQ(ended.size(), 15u);
  ASSERT_FALSE(std::is_sorted(ended.begin(), ended.end()));
  ASSERT_NO_THROW(s.validate_indices());
  const std::vector<JobId> walk = archived_walk(s);
  EXPECT_EQ(walk.size(), s.finished_count());
  EXPECT_TRUE(std::is_sorted(walk.begin(), walk.end()));
  const std::vector<std::uint8_t> before = snapshot_of(s);
  EXPECT_EQ(before, reference_snapshot(s));

  // Restore into a fresh scheduler: the archive index is rebuilt, and the
  // restored state re-encodes to the same bytes.
  Scheduler restored = make();
  WireReader r(before);
  restored.restore(r);
  EXPECT_TRUE(r.exhausted());
  ASSERT_NO_THROW(restored.validate_indices());
  EXPECT_EQ(archived_walk(restored), walk);
  EXPECT_EQ(snapshot_of(restored), before);

  // Both keep ending jobs out of order after the restore and stay equal.
  for (Scheduler* sched : {&s, &restored}) {
    now = 1000;
    EXPECT_EQ(end_some(*sched, 5, 12).size(), 12u);
    ASSERT_NO_THROW(sched->validate_indices());
    EXPECT_EQ(snapshot_of(*sched), reference_snapshot(*sched));
  }
  EXPECT_EQ(snapshot_of(restored), snapshot_of(s));

  // Rolling back to the earlier snapshot drops the ids archived since.
  WireReader back(before);
  s.restore(back);
  ASSERT_NO_THROW(s.validate_indices());
  EXPECT_EQ(archived_walk(s), walk);
  EXPECT_EQ(snapshot_of(s), before);
}

TEST(JobIdSet, KeepsMembersAscendingUnderOutOfOrderInserts) {
  JobIdSet set;
  for (JobId id : {5, 3, 9, 1, 7}) EXPECT_TRUE(set.insert(id));
  EXPECT_FALSE(set.insert(3));
  EXPECT_FALSE(set.insert(9));
  EXPECT_EQ(set.ascending(), (std::vector<JobId>{1, 3, 5, 7, 9}));
  EXPECT_TRUE(set.insert(4));
  EXPECT_EQ(set.ascending(), (std::vector<JobId>{1, 3, 4, 5, 7, 9}));
  EXPECT_NO_THROW(set.validate("test"));

  // clear() empties both the hash set and the order: old ids insert anew.
  set.clear();
  EXPECT_TRUE(set.ascending().empty());
  for (JobId id : {8, 5}) EXPECT_TRUE(set.insert(id));
  EXPECT_EQ(set.ascending(), (std::vector<JobId>{5, 8}));
  EXPECT_NO_THROW(set.validate("test"));
}

/// The queue's keys in held order.
std::vector<std::pair<Time, JobId>> held(const RetryQueue& q) {
  std::vector<std::pair<Time, JobId>> keys;
  for (const RetryQueue::Entry& e : q) keys.emplace_back(e.at, e.id);
  return keys;
}

TEST(RetryQueue, HoldsFiringOrderAndWritesDistinctSortedKeys) {
  using Keys = std::vector<std::pair<Time, JobId>>;
  RetryQueue q;
  // One instant's retries arrive out of id order, one job twice.
  for (JobId id : {5, 4, 3, 5}) q.insert(100, id).event = 7;
  q.insert(200, 1);
  q.insert(100, 9);  // a time out of order joins behind its time's entries
  EXPECT_EQ(held(q), (Keys{{100, 5}, {100, 4}, {100, 3}, {100, 5}, {100, 9},
                           {200, 1}}));
  EXPECT_EQ(q.begin()->event, 7u);
  EXPECT_NO_THROW(q.validate("test"));
  EXPECT_EQ(q.sorted_keys(), (Keys{{100, 3}, {100, 4}, {100, 5}, {100, 9},
                                   {200, 1}}));

  // Events fire in held order and find their entry at the front; a key
  // held elsewhere in its time is found there; an absent key is not.
  EXPECT_TRUE(q.erase(100, 5));
  EXPECT_FALSE(q.erase(100, 8));
  EXPECT_FALSE(q.erase(200, 4));
  EXPECT_TRUE(q.erase(100, 3));
  EXPECT_EQ(held(q), (Keys{{100, 4}, {100, 5}, {100, 9}, {200, 1}}));

  // A restore re-arms in (time, id) order.
  q.insert(200, 0);
  q.sort_by_id();
  EXPECT_EQ(held(q), (Keys{{100, 4}, {100, 5}, {100, 9}, {200, 0}, {200, 1}}));
  q.clear();
  EXPECT_EQ(q.size(), 0u);
}

}  // namespace
}  // namespace cosched
