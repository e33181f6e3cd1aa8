// Cluster as a protocol service: status mapping, registration, counters.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <ranges>
#include <type_traits>
#include <utility>
#include <vector>

#include "core_test_util.h"

namespace cosched {
namespace {

using testutil::job;

// Only Cluster::Durable changes the scheduler and the lease table: even a
// non-const Cluster hands out neither mutably.
static_assert(std::is_same_v<decltype(std::declval<Cluster&>().scheduler()),
                             const Scheduler&>);
static_assert(std::is_same_v<decltype(std::declval<Cluster&>().leases()),
                             const std::map<JobId, HoldLease>&>);

// Hash order cannot leak: a hash table has no begin()/end(), so a range-for
// over the scheduler's job table does not compile (util/hashed.h).
static_assert(!std::ranges::range<HashMap<JobId, RuntimeJob>>);
static_assert(
    !std::ranges::range<decltype(std::declval<Cluster&>().scheduler().jobs())>);

struct Rig {
  Engine engine;
  Cluster cluster;
  Rig() : cluster(engine, "solo", 100, make_policy("fcfs")) {}
};

TEST(ClusterService, GetMateJobUnknownGroup) {
  Rig rig;
  EXPECT_EQ(rig.cluster.get_mate_job(42, 1), std::nullopt);
}

TEST(ClusterService, RegisteredGroupResolvesBeforeSubmission) {
  Rig rig;
  rig.cluster.register_expected(job(5, 1000, 600, 10, /*group=*/42));
  const auto mate = rig.cluster.get_mate_job(42, 99);
  ASSERT_TRUE(mate.has_value());
  EXPECT_EQ(*mate, 5);
  EXPECT_EQ(rig.cluster.get_mate_status(5), MateStatus::kUnsubmitted);
}

TEST(ClusterService, StatusTracksLifecycle) {
  Rig rig;
  rig.cluster.register_expected(job(5, 0, 600, 10, 42));
  rig.cluster.submit_now(job(5, 0, 600, 10, 42));
  EXPECT_EQ(rig.cluster.get_mate_status(5), MateStatus::kQueuing);
  rig.engine.run();  // iteration starts it (no peers -> no mate found)
  EXPECT_EQ(rig.cluster.get_mate_status(5), MateStatus::kFinished);
}

TEST(ClusterService, StatusUnknownForUnregisteredJob) {
  Rig rig;
  EXPECT_EQ(rig.cluster.get_mate_status(12345), MateStatus::kUnknown);
}

TEST(ClusterService, TryStartMateStartsFittingQueuedJob) {
  Rig rig;
  rig.cluster.submit_now(job(1, 0, 600, 40));
  // Drain the pending iteration event first? No: call try directly while
  // queued.
  EXPECT_TRUE(rig.cluster.try_start_mate(1));
  EXPECT_EQ(rig.cluster.scheduler().find(1)->state, JobState::kRunning);
  EXPECT_EQ(rig.cluster.try_start_requests(), 1u);
}

TEST(ClusterService, TryStartMateFailsForUnsubmitted) {
  Rig rig;
  rig.cluster.register_expected(job(5, 1000, 600, 10, 42));
  EXPECT_FALSE(rig.cluster.try_start_mate(5));
}

TEST(ClusterService, StartJobOnlyWorksWhileHolding) {
  Rig rig;
  rig.cluster.submit_now(job(1, 0, 600, 40));
  EXPECT_FALSE(rig.cluster.start_job(1));  // queued, not holding
  rig.engine.run();
  EXPECT_FALSE(rig.cluster.start_job(1));  // finished
  EXPECT_FALSE(rig.cluster.start_job(999));
}

TEST(Cluster, RegularWorkloadRunsWithoutPeers) {
  Rig rig;
  Trace t;
  for (int i = 1; i <= 20; ++i) t.add(job(i, i * 10, 300, 25));
  rig.cluster.load_trace(t);
  rig.engine.run();
  EXPECT_EQ(rig.cluster.scheduler().finished_count(), 20u);
  // 4 jobs fit simultaneously; utilization accounting is consistent.
  EXPECT_GT(rig.cluster.scheduler().pool().busy_node_seconds(), 0.0);
}

TEST(Cluster, IterationsCoalesceAtSameInstant) {
  Rig rig;
  Trace t;
  for (int i = 1; i <= 10; ++i) t.add(job(i, 100, 300, 5));  // same submit
  rig.cluster.load_trace(t);
  rig.engine.run();
  // 10 submits at t=100 trigger one iteration, then one per job end batch.
  EXPECT_LT(rig.cluster.iterations_run(), 10u);
  EXPECT_EQ(rig.cluster.scheduler().finished_count(), 10u);
}

TEST(Cluster, DuplicateGroupMemberOnSameDomainRejected) {
  Rig rig;
  rig.cluster.register_expected(job(1, 0, 600, 10, 42));
  EXPECT_THROW(rig.cluster.register_expected(job(2, 0, 600, 10, 42)),
               InvariantError);
}

TEST(Cluster, PeriodicIterationRetriesYieldedJobs) {
  // With yield retries disabled, a yielded job on a quiet machine is only
  // rescued by the periodic iteration tick.
  Engine engine;
  CoschedConfig ccfg;
  ccfg.scheme = Scheme::kYield;
  ccfg.yield_retry_period = 0;  // rely solely on the periodic tick
  SchedulerConfig scfg;
  scfg.iteration_period = 5 * kMinute;
  Cluster alpha(engine, "alpha", 100, make_policy("fcfs"), ccfg, scfg);
  Cluster beta(engine, "beta", 100, make_policy("fcfs"), ccfg, scfg);
  LoopbackPeer to_beta(beta), to_alpha(alpha);
  alpha.add_peer(to_beta);
  beta.add_peer(to_alpha);

  Trace a, b;
  a.add(job(1, 0, 600, 50, 7));
  b.add(job(10, 2000, 600, 30, 7));
  alpha.load_trace(a);
  beta.load_trace(b);
  engine.run();
  ASSERT_EQ(alpha.scheduler().find(1)->state, JobState::kFinished);
  EXPECT_EQ(alpha.scheduler().find(1)->start,
            beta.scheduler().find(10)->start);
  // The engine drained: periodic ticks stop once all work completes.
  EXPECT_EQ(engine.pending(), 0u);
}

TEST(Cluster, PeriodicTickGoesQuiescentAndRearms) {
  Engine engine;
  SchedulerConfig scfg;
  scfg.iteration_period = kMinute;
  Cluster c(engine, "solo", 100, make_policy("fcfs"), {}, scfg);
  c.submit_now(job(1, 0, 120, 10));
  engine.run();
  EXPECT_EQ(c.scheduler().finished_count(), 1u);
  // Second burst after quiescence re-arms the tick.
  c.submit_now(job(2, 0, 120, 10));
  engine.run();
  EXPECT_EQ(c.scheduler().finished_count(), 2u);
}

TEST(Cluster, ForcedReleaseCounterAdvances) {
  Engine engine;
  CoschedConfig cfg;
  cfg.scheme = Scheme::kHold;
  cfg.hold_release_period = 10 * kMinute;
  Cluster alpha(engine, "alpha", 100, make_policy("fcfs"), cfg);
  Cluster beta(engine, "beta", 100, make_policy("fcfs"), cfg);
  LoopbackPeer to_beta(beta), to_alpha(alpha);
  alpha.add_peer(to_beta);
  beta.add_peer(to_alpha);

  Trace a, b;
  a.add(job(1, 0, 600, 50, 7));
  b.add(job(10, 45 * kMinute, 600, 30, 7));  // mate arrives after 4 releases
  alpha.load_trace(a);
  beta.load_trace(b);
  engine.run();
  EXPECT_GE(alpha.forced_releases(), 3u);
  EXPECT_EQ(alpha.scheduler().find(1)->start,
            beta.scheduler().find(10)->start);
}

TEST(Cluster, SameInstantYieldRetriesKeepOneEntryEachInTimeIdOrder) {
  // Three paired jobs wait behind a full machine; when it frees at t=1000
  // they yield in FCFS order 5, 4, 3 (not id order), because their mates
  // arrive at t=2000.  A second iteration at the same instant makes each of
  // them yield again, arming the same (at, id) retries a second time.
  Engine engine;
  CoschedConfig cfg;
  cfg.scheme = Scheme::kYield;
  Cluster alpha(engine, "alpha", 100, make_policy("fcfs"), cfg);
  Cluster beta(engine, "beta", 100, make_policy("fcfs"), cfg);
  LoopbackPeer to_beta(beta), to_alpha(alpha);
  alpha.add_peer(to_beta);
  beta.add_peer(to_alpha);
  EventLog log;
  alpha.set_event_log(&log);

  Trace a, b;
  a.add(job(1, 0, 1000, 100));
  for (const JobId id : {5, 4, 3}) {
    a.add(job(id, 6 - id, 600, 30, /*group=*/id));
    b.add(job(10 + id, 2000, 600, 10, /*group=*/id));
  }
  alpha.load_trace(a);
  beta.load_trace(b);
  engine.schedule_at(1000, EventPriority::kStats,
                     [&alpha] { alpha.request_iteration(); });
  engine.run_until(1000);

  std::vector<JobId> yielded;
  for (const JobEvent& e : log.of_kind(JobEventKind::kYield)) {
    EXPECT_EQ(e.time, 1000);
    yielded.push_back(e.job);
  }
  ASSERT_EQ(yielded, (std::vector<JobId>{5, 4, 3, 5, 4, 3}));
  alpha.validate_indices();

  // The snapshot writes one entry per (at, id), ascending: the bytes a
  // std::set would encode.
  const Time at = 1000 + cfg.yield_retry_period;
  WireWriter expect;
  expect.put_u64(3);
  for (const JobId id : {3, 4, 5}) {
    expect.put_i64(at);
    expect.put_i64(id);
  }
  const std::vector<std::uint8_t> section = expect.take();
  WireWriter snap;
  alpha.write_snapshot(snap);
  const std::vector<std::uint8_t> bytes = snap.take();
  EXPECT_FALSE(std::ranges::search(bytes, section).empty());

  // The retries fire in arming order (5, 4, 3, then the three twins), the
  // order the queue holds them in, so each finds its entry at the front;
  // every job still coschedules with its mate.
  engine.run();
  alpha.validate_indices();
  for (const JobId id : {3, 4, 5}) {
    ASSERT_EQ(alpha.scheduler().find(id)->state, JobState::kFinished);
    EXPECT_EQ(alpha.scheduler().find(id)->start,
              beta.scheduler().find(10 + id)->start);
  }
}

}  // namespace
}  // namespace cosched
