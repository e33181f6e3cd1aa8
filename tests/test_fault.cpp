// Fault tolerance (paper §IV-C, last paragraph): "a job will not wait
// forever when the remote machine or its mate job is down."
#include <gtest/gtest.h>

#include "core_test_util.h"

namespace cosched {
namespace {

using testutil::find_job;
using testutil::job;
using testutil::two_domains;

TEST(Fault, RemoteDownMeansImmediateStart) {
  auto specs = two_domains(kHH);
  Trace a, b;
  a.add(job(1, 0, 600, 50, 7));
  b.add(job(10, 0, 600, 30, 7));
  CoupledSim sim(specs, {a, b});
  sim.link(0, 1).set_down(true);  // alpha cannot reach beta
  sim.link(1, 0).set_down(true);  // beta cannot reach alpha
  const SimResult r = sim.run(30 * kDay);
  EXPECT_TRUE(r.completed);
  // Line 2 returns nothing -> both start immediately, unsynchronized.
  EXPECT_EQ(find_job(sim, 0, 1).start, 0);
  EXPECT_EQ(find_job(sim, 1, 10).start, 0);
  EXPECT_DOUBLE_EQ(sim.cluster(0).scheduler().pool().held_node_seconds(), 0.0);
}

TEST(Fault, OneWayLinkFailureStillCompletes) {
  auto specs = two_domains(kHH);
  Trace a, b;
  a.add(job(1, 0, 600, 50, 7));
  b.add(job(10, 300, 600, 30, 7));
  CoupledSim sim(specs, {a, b});
  sim.link(0, 1).set_down(true);  // alpha -> beta broken; beta -> alpha fine
  const SimResult r = sim.run(30 * kDay);
  EXPECT_TRUE(r.completed);
  // alpha's job started without coordination at 0.
  EXPECT_EQ(find_job(sim, 0, 1).start, 0);
  // beta's job sees alpha's mate already running -> starts normally too.
  EXPECT_EQ(find_job(sim, 1, 10).start, 300);
}

TEST(Fault, LinkRecoveryRestoresCoscheduling) {
  auto specs = two_domains(kHH);
  Trace a, b;
  a.add(job(1, 0, 300, 50, 7));          // while link down
  b.add(job(10, 0, 300, 30, 7));
  a.add(job(2, 5000, 600, 50, 8));       // after recovery
  b.add(job(20, 5400, 600, 30, 8));
  CoupledSim sim(specs, {a, b});
  sim.link(0, 1).set_down(true);
  sim.link(1, 0).set_down(true);
  sim.engine().run_until(4000);
  sim.link(0, 1).set_down(false);
  sim.link(1, 0).set_down(false);
  const SimResult r = sim.run(30 * kDay);
  EXPECT_TRUE(r.completed);
  // Group 7 ran uncoordinated; group 8 synchronized after recovery.
  EXPECT_EQ(find_job(sim, 0, 2).start, find_job(sim, 1, 20).start);
  EXPECT_EQ(find_job(sim, 0, 2).start, 5400);
}

TEST(Fault, MateKilledUnblocksHolder) {
  // alpha holds for a mate that then dies; the next forced release plus the
  // now-unknown status lets the job start normally.
  auto specs = two_domains(kHH);
  specs[0].cosched.hold_release_period = 10 * kMinute;
  Trace a, b;
  a.add(job(1, 0, 600, 50, 7));
  b.add(job(10, 50, 600, 30, 7));
  CoupledSim sim(specs, {a, b});
  // Kill the mate right after its submission event (priority kMessage runs
  // between the submit and the scheduling iteration at t=50), so it dies
  // while queued and never starts.
  sim.engine().schedule_at(50, EventPriority::kMessage,
                           [&] { sim.cluster(1).kill_job(10); });
  const SimResult r = sim.run(30 * kDay);
  // Job 1 finishes despite its mate never running: at the first forced
  // release the mate's status reads `finished`, which does not block.
  EXPECT_EQ(find_job(sim, 0, 1).state, JobState::kFinished);
  EXPECT_EQ(find_job(sim, 0, 1).start, 600);  // one release period
  EXPECT_FALSE(r.systems.empty());
}

TEST(Fault, KillRunningJobTwiceSafe) {
  // The completion event of a killed job must not double-free its nodes.
  auto specs = two_domains(kHH);
  Trace a, b;
  a.add(job(1, 0, 600, 50));
  CoupledSim sim(specs, {a, b});
  sim.engine().schedule_at(100, EventPriority::kMessage,
                           [&] { sim.cluster(0).kill_job(1); });
  const SimResult r = sim.run(kDay);
  EXPECT_TRUE(r.completed);
  EXPECT_EQ(find_job(sim, 0, 1).end, 100);
  EXPECT_EQ(sim.cluster(0).scheduler().pool().busy(), 0);
}

TEST(Fault, FailureStormLeavesSystemConsistent) {
  // Kill 20% of all jobs (including paired ones) at random points in their
  // lives; every surviving job must still finish and accounting must
  // balance.  Survivor pairs whose mates died start via the unknown rule.
  auto specs = two_domains(kHY);
  Trace a, b;
  GroupId g = 1;
  for (int i = 1; i <= 120; ++i) {
    const bool paired = i % 4 == 0;
    a.add(job(i, i * 200, 900, 10 + (i % 5) * 10, paired ? g : kNoGroup));
    if (paired) {
      b.add(job(10000 + i, i * 200 + 60, 600, 5 + (i % 3) * 10, g));
      ++g;
    }
  }
  b.sort_by_submit();
  CoupledSim sim(specs, {a, b});

  // Schedule kills at scattered times over the workload's life.
  std::vector<std::pair<std::size_t, JobId>> victims;
  for (int i = 1; i <= 120; i += 5) victims.push_back({0, i});
  for (int i = 4; i <= 120; i += 20) victims.push_back({1, 10000 + i});
  for (std::size_t k = 0; k < victims.size(); ++k) {
    const auto [domain, id] = victims[k];
    sim.engine().schedule_at(
        static_cast<Time>(100 + 400 * k), EventPriority::kMessage,
        [&sim, domain = domain, id = id] { sim.cluster(domain).kill_job(id); });
  }

  const SimResult r = sim.run(60 * kDay);
  EXPECT_TRUE(r.completed) << "survivors must all finish";
  for (std::size_t d = 0; d < 2; ++d) {
    EXPECT_EQ(sim.cluster(d).scheduler().pool().busy(), 0);
    EXPECT_EQ(sim.cluster(d).scheduler().pool().held(), 0);
  }
}

// -- FaultPlan: seedable chaos schedules ------------------------------------

/// Stub peer that always answers; counts delivered calls.
class CountingPeer final : public PeerClient {
 public:
  int calls = 0;
  std::optional<std::optional<JobId>> get_mate_job(GroupId, JobId) override {
    ++calls;
    return std::optional<std::optional<JobId>>(std::in_place, 42);
  }
  std::optional<MateStatus> get_mate_status(JobId) override {
    ++calls;
    return MateStatus::kHolding;
  }
  std::optional<bool> try_start_mate(JobId) override {
    ++calls;
    return true;
  }
  std::optional<bool> start_job(JobId) override {
    ++calls;
    return true;
  }
  std::optional<bool> gang_prepare(JobId, GroupId) override {
    ++calls;
    return true;
  }
  std::optional<bool> gang_commit(JobId, GroupId) override {
    ++calls;
    return true;
  }
  std::optional<bool> gang_abort(JobId, GroupId) override {
    ++calls;
    return true;
  }
  std::optional<bool> gang_victim(JobId, GroupId) override {
    ++calls;
    return true;
  }
  std::optional<HeartbeatInfo> heartbeat(const HeartbeatInfo&) override {
    ++calls;
    return HeartbeatInfo{};
  }
  void set_fence_token(std::uint64_t) override {}
};

TEST(FaultPlan, DefaultPlanIsTransparent) {
  auto inner = std::make_unique<CountingPeer>();
  auto* counting = inner.get();
  FaultInjectingPeer peer(std::move(inner));
  for (int i = 0; i < 10; ++i)
    EXPECT_EQ(peer.get_mate_status(1), MateStatus::kHolding);
  EXPECT_EQ(counting->calls, 10);
  EXPECT_EQ(peer.stats().delivered, 10u);
  EXPECT_EQ(peer.stats().failed(), 0u);
}

TEST(FaultPlan, FullDropBlocksEverything) {
  FaultInjectingPeer peer(std::make_unique<CountingPeer>());
  FaultPlan plan;
  plan.drop_probability = 1.0;
  peer.set_plan(plan);
  EXPECT_EQ(peer.get_mate_job(1, 2), std::nullopt);
  EXPECT_EQ(peer.get_mate_status(1), std::nullopt);
  EXPECT_EQ(peer.try_start_mate(1), std::nullopt);
  EXPECT_EQ(peer.start_job(1), std::nullopt);
  EXPECT_EQ(peer.stats().dropped, 4u);
  EXPECT_EQ(peer.stats().delivered, 0u);
}

TEST(FaultPlan, CorruptionDeliversButAnswersUnknown) {
  auto inner = std::make_unique<CountingPeer>();
  auto* counting = inner.get();
  FaultInjectingPeer peer(std::move(inner));
  FaultPlan plan;
  plan.corrupt_probability = 1.0;
  peer.set_plan(plan);
  // The remote processes the call (partial failure) but the caller cannot
  // read the reply -> unknown.
  EXPECT_EQ(peer.try_start_mate(7), std::nullopt);
  EXPECT_EQ(counting->calls, 1);
  EXPECT_EQ(peer.stats().corrupted, 1u);
}

TEST(FaultPlan, LatencyPastDeadlineTimesOut) {
  FaultInjectingPeer peer(std::make_unique<CountingPeer>());
  FaultPlan plan;
  plan.latency_base = 200;
  plan.rpc_deadline = 100;
  peer.set_plan(plan);
  EXPECT_EQ(peer.get_mate_status(1), std::nullopt);
  EXPECT_EQ(peer.stats().timed_out, 1u);

  // Within the deadline the call goes through and latency is accounted.
  plan.rpc_deadline = 300;
  peer.set_plan(plan);
  EXPECT_EQ(peer.get_mate_status(1), MateStatus::kHolding);
  EXPECT_EQ(peer.stats().total_latency, 200u);
}

TEST(FaultPlan, SameSeedSameFaultSequence) {
  auto sequence = [](std::uint64_t seed) {
    FaultInjectingPeer peer(std::make_unique<CountingPeer>());
    FaultPlan plan;
    plan.seed = seed;
    plan.drop_probability = 0.5;
    peer.set_plan(plan);
    std::vector<bool> outcomes;
    for (int i = 0; i < 64; ++i)
      outcomes.push_back(peer.get_mate_status(1).has_value());
    return outcomes;
  };
  EXPECT_EQ(sequence(11), sequence(11));
  EXPECT_NE(sequence(11), sequence(12));  // 2^-64 flake odds
}

TEST(FaultPlan, ReplyDropExecutesRemotelyButAnswersNothing) {
  // The asymmetric half of a partition: the remote acts on the call, only
  // the reply is lost — distinct from drop_probability (remote never acted).
  auto inner = std::make_unique<CountingPeer>();
  auto* counting = inner.get();
  FaultInjectingPeer peer(std::move(inner));
  FaultPlan plan;
  plan.reply_drop_probability = 1.0;
  peer.set_plan(plan);
  EXPECT_EQ(peer.try_start_mate(7), std::nullopt);
  EXPECT_EQ(counting->calls, 1);
  EXPECT_EQ(peer.stats().reply_lost, 1u);
  EXPECT_EQ(peer.stats().delivered, 0u);
}

TEST(FaultPlan, ReplyOutageWindowIsOneWayAndTimed) {
  Engine engine;
  auto inner = std::make_unique<CountingPeer>();
  auto* counting = inner.get();
  FaultInjectingPeer peer(std::move(inner), &engine);
  FaultPlan plan;
  plan.reply_outages.push_back({100, 200});
  peer.set_plan(plan);

  // Before the window: transparent.
  EXPECT_EQ(peer.get_mate_status(1), MateStatus::kHolding);
  // Inside [100, 200): the call is executed remotely, the reply is lost.
  engine.run_until(150);
  EXPECT_EQ(peer.get_mate_status(1), std::nullopt);
  EXPECT_EQ(counting->calls, 2);
  EXPECT_EQ(peer.stats().reply_lost, 1u);
  // After the window: transparent again.
  engine.run_until(200);
  EXPECT_EQ(peer.get_mate_status(1), MateStatus::kHolding);
  EXPECT_EQ(peer.stats().reply_lost, 1u);
  EXPECT_EQ(peer.stats().delivered, 2u);
}

TEST(FaultPlan, SameSeedSameReplyFaultSequence) {
  // Seeded determinism extends to the per-direction reply-loss dimension.
  auto sequence = [](std::uint64_t seed) {
    FaultInjectingPeer peer(std::make_unique<CountingPeer>());
    FaultPlan plan;
    plan.seed = seed;
    plan.reply_drop_probability = 0.5;
    peer.set_plan(plan);
    std::vector<bool> outcomes;
    for (int i = 0; i < 64; ++i)
      outcomes.push_back(peer.get_mate_status(1).has_value());
    return outcomes;
  };
  EXPECT_EQ(sequence(21), sequence(21));
  EXPECT_NE(sequence(21), sequence(22));  // 2^-64 flake odds
}

TEST(FaultPlan, ReplyPartitionRunStillCompletesConsistently) {
  // A whole-run one-way reply partition alpha->beta: beta executes every
  // call alpha makes but alpha never learns; both sides must still finish
  // with clean invariants (the scenario the fencing layer exists for).
  auto specs = two_domains(kHY);
  Trace a, b;
  a.add(job(1, 0, 600, 50, 7));
  b.add(job(10, 300, 600, 30, 7));
  CoupledSim sim(specs, {a, b});
  sim.add_reply_partition(0, 1, 0, 30 * kDay);
  const SimResult r = sim.run(30 * kDay);
  EXPECT_TRUE(r.completed);
  EXPECT_TRUE(r.invariants.ok())
      << (r.invariants.violations.empty() ? ""
                                          : r.invariants.violations.front());
  EXPECT_GT(sim.fault_stats().reply_lost, 0u);
  for (std::size_t d = 0; d < 2; ++d) {
    EXPECT_EQ(sim.cluster(d).scheduler().pool().busy(), 0);
    EXPECT_EQ(sim.cluster(d).scheduler().pool().held(), 0);
  }
}

TEST(FaultPlan, HundredPercentDropReproducesRemoteDownBehavior) {
  // Acceptance criterion: a 100%-drop plan must reproduce the set_down
  // expectations — unknown => immediate uncoordinated start, zero held
  // node-seconds, clean invariants.
  auto specs = two_domains(kHH);
  Trace a, b;
  a.add(job(1, 0, 600, 50, 7));
  b.add(job(10, 0, 600, 30, 7));
  CoupledSim sim(specs, {a, b});
  FaultPlan plan;
  plan.drop_probability = 1.0;
  sim.set_fault_plan_all(plan);
  const SimResult r = sim.run(30 * kDay);
  EXPECT_TRUE(r.completed);
  EXPECT_TRUE(r.invariants.ok())
      << (r.invariants.violations.empty() ? ""
                                          : r.invariants.violations.front());
  EXPECT_EQ(find_job(sim, 0, 1).start, 0);
  EXPECT_EQ(find_job(sim, 1, 10).start, 0);
  EXPECT_DOUBLE_EQ(sim.cluster(0).scheduler().pool().held_node_seconds(), 0.0);
  // Degraded accounting saw it all: every decision ran on unknown status and
  // both starts were unsynchronized.
  EXPECT_GT(r.systems[0].unknown_status_decisions, 0);
  EXPECT_EQ(r.systems[0].unsync_starts, 1);
  EXPECT_EQ(r.systems[1].unsync_starts, 1);
  EXPECT_GT(sim.fault_stats().dropped, 0u);
  EXPECT_EQ(sim.fault_stats().delivered, 0u);
}

TEST(FaultPlan, OutageWindowDegradesThenResynchronizes) {
  // Scheduled-window version of LinkRecoveryRestoresCoscheduling: group 7
  // falls inside the outage and runs uncoordinated; group 8 arrives after
  // the window and co-starts.
  auto specs = two_domains(kHH);
  Trace a, b;
  a.add(job(1, 0, 300, 50, 7));
  b.add(job(10, 0, 300, 30, 7));
  a.add(job(2, 5000, 600, 50, 8));
  b.add(job(20, 5400, 600, 30, 8));
  CoupledSim sim(specs, {a, b});
  FaultPlan plan;
  plan.outages.push_back({0, 4000});
  sim.set_fault_plan(0, 1, plan);
  sim.set_fault_plan(1, 0, plan);
  const SimResult r = sim.run(30 * kDay);
  EXPECT_TRUE(r.completed);
  EXPECT_TRUE(r.invariants.ok());
  EXPECT_EQ(find_job(sim, 0, 1).start, 0);  // uncoordinated inside window
  EXPECT_EQ(find_job(sim, 0, 2).start, find_job(sim, 1, 20).start);
  EXPECT_EQ(find_job(sim, 0, 2).start, 5400);
  EXPECT_GT(sim.fault_stats().outage_blocked, 0u);
}

TEST(FaultPlan, HoldReleaseDemotionDuringOutageWindow) {
  // A holder established *before* an outage window is forcibly released by
  // the hold-release tick while its link is down.  With the mate unreachable
  // the demoted job restarts uncoordinated instead of deadlocking, and a
  // pair arriving after the window still co-starts exactly.
  auto specs = two_domains(kHH, /*release=*/600);
  Trace a, b;
  b.add(job(90, 0, 6000, 80));       // blocks the mate: job 10 must queue
  // The pair arrives after the filler is running (at t=0 beta's pool is
  // still empty and a try-start would co-start the pair immediately).
  a.add(job(1, 50, 300, 50, 7));     // ready at 50 -> holds for job 10
  b.add(job(10, 50, 300, 30, 7));
  a.add(job(2, 8000, 300, 50, 8));   // post-outage pair: must co-start
  b.add(job(20, 8200, 300, 30, 8));
  CoupledSim sim(specs, {a, b});
  FaultPlan plan;
  plan.outages.push_back({100, 4000});
  sim.set_fault_plan(0, 1, plan);
  sim.set_fault_plan(1, 0, plan);
  const SimResult r = sim.run(30 * kDay);
  EXPECT_TRUE(r.completed);
  EXPECT_TRUE(r.invariants.ok());
  const RuntimeJob& holder = find_job(sim, 0, 1);
  EXPECT_GE(holder.forced_releases, 1);
  EXPECT_GT(holder.start, 0);    // held first, restarted after the release
  EXPECT_LT(holder.start, 4000); // ...without waiting out the outage
  EXPECT_EQ(find_job(sim, 0, 2).start, find_job(sim, 1, 20).start);
  EXPECT_GT(sim.fault_stats().outage_blocked, 0u);
}

TEST(FaultPlan, FlappingLinkStillCompletes) {
  // Link down half of every 200 s; the workload must drain regardless, with
  // at least some calls blocked and some delivered.
  auto specs = two_domains(kYY);
  Trace a, b;
  GroupId g = 1;
  for (int i = 1; i <= 20; ++i) {
    a.add(job(i, i * 300, 600, 20, g));
    b.add(job(100 + i, i * 300 + 30, 600, 10, g));
    ++g;
  }
  CoupledSim sim(specs, {a, b});
  FaultPlan plan;
  plan.flap_period = 200;
  plan.flap_down_for = 100;
  sim.set_fault_plan_all(plan);
  const SimResult r = sim.run(60 * kDay);
  EXPECT_TRUE(r.completed);
  EXPECT_TRUE(r.invariants.ok());
  EXPECT_GT(sim.fault_stats().outage_blocked, 0u);
  EXPECT_GT(sim.fault_stats().delivered, 0u);
}

TEST(FaultPlan, RetryBackoffReschedulesIteration) {
  // With retry_backoff set, a failed call wakes the calling domain again
  // after the backoff, so recovery is noticed without new job traffic.
  auto specs = two_domains(kHH);
  specs[0].cosched.hold_release_period = 0;  // isolate the retry path
  specs[1].cosched.hold_release_period = 0;
  Trace a, b;
  a.add(job(1, 0, 300, 50, 7));
  b.add(job(10, 0, 300, 30, 7));
  CoupledSim sim(specs, {a, b});
  FaultPlan plan;
  plan.outages.push_back({0, 1000});
  plan.retry_backoff = 250;
  sim.set_fault_plan(0, 1, plan);
  sim.set_fault_plan(1, 0, plan);
  const SimResult r = sim.run(30 * kDay);
  EXPECT_TRUE(r.completed);
  EXPECT_TRUE(r.invariants.ok());
}

TEST(FaultPlan, DomainCrashKillsJobsAndRestartResynchronizes) {
  auto specs = two_domains(kHH);
  Trace a, b;
  a.add(job(1, 0, 3000, 50, 7));   // co-starts at 0, survives the crash
  b.add(job(10, 0, 3000, 30, 7));  // dies with beta at t=1000
  a.add(job(3, 2000, 600, 20, 9));  // submitted mid-crash: degraded start
  b.add(job(30, 2000, 600, 20, 9));
  a.add(job(2, 6000, 600, 50, 8));  // submitted after restart: co-starts
  b.add(job(20, 6000, 600, 30, 8));
  CoupledSim sim(specs, {a, b});
  sim.schedule_domain_crash(/*domain=*/1, /*at=*/1000, /*restart_at=*/5000);
  const SimResult r = sim.run(30 * kDay);
  EXPECT_TRUE(r.completed);
  EXPECT_TRUE(r.invariants.ok())
      << (r.invariants.violations.empty() ? ""
                                          : r.invariants.violations.front());
  EXPECT_EQ(find_job(sim, 0, 1).start, 0);
  EXPECT_EQ(find_job(sim, 1, 10).start, 0);
  EXPECT_EQ(find_job(sim, 1, 10).end, 1000);  // killed by the crash
  EXPECT_EQ(find_job(sim, 0, 1).end, 3000);   // survivor runs to term
  // Group 9 arrived while beta was unreachable: both members start via the
  // unknown rule instead of waiting for the restart.
  EXPECT_EQ(find_job(sim, 0, 3).start, 2000);
  EXPECT_GT(sim.fault_stats().outage_blocked, 0u);
  EXPECT_GT(r.systems[0].unsync_starts + r.systems[1].unsync_starts, 0);
  EXPECT_EQ(find_job(sim, 0, 2).start, find_job(sim, 1, 20).start);
}

TEST(Fault, ProtocolFailureDuringTryStartIsNonFatal) {
  // Link goes down between the status query and later interactions; the
  // pair still completes once the link is back (or runs uncoordinated).
  auto specs = two_domains(kYY);
  Trace a, b;
  a.add(job(1, 0, 600, 50, 7));
  b.add(job(10, 2000, 600, 30, 7));
  CoupledSim sim(specs, {a, b});
  sim.engine().schedule_at(1000, EventPriority::kMessage,
                           [&] { sim.link(1, 0).set_down(true); });
  const SimResult r = sim.run(30 * kDay);
  EXPECT_TRUE(r.completed);
}

}  // namespace
}  // namespace cosched
