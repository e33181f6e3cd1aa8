// Fault-tolerant k-of-N gang costart: the two-phase fenced protocol that
// replaces the recursive tryStartMate chain for groups spanning >= 3
// domains, its abort/backoff behaviour, and the wait-cycle victim
// resolution driver.
#include <gtest/gtest.h>

#include "core/deadlock.h"
#include "core_test_util.h"

namespace cosched {
namespace {

using testutil::job;

std::vector<DomainSpec> gang_domains(std::size_t n, Scheme scheme,
                                     NodeCount capacity = 100,
                                     Duration release = 20 * kMinute) {
  std::vector<DomainSpec> specs(n);
  for (std::size_t i = 0; i < n; ++i) {
    std::string name = "d";
    name += std::to_string(i);
    specs[i].name = std::move(name);
    specs[i].capacity = capacity;
    specs[i].policy = "fcfs";
    specs[i].cosched.scheme = scheme;
    specs[i].cosched.hold_release_period = release;
    specs[i].cosched.gang.two_phase = true;
  }
  return specs;
}

TEST(Gang, ThreeDomainsCommitInOneRound) {
  Trace a, b, c;
  a.add(job(1, 0, 600, 40, /*group=*/5));
  b.add(job(10, 200, 600, 40, 5));
  c.add(job(20, 400, 600, 40, 5));
  CoupledSim sim(gang_domains(3, Scheme::kHold), {a, b, c});
  const SimResult r = sim.run(30 * kDay);
  EXPECT_TRUE(r.completed);
  EXPECT_TRUE(r.invariants.ok());
  EXPECT_EQ(r.groups.groups_started_together, 1u);
  EXPECT_EQ(r.groups.skew_by_group.at(5), 0);
  // One commit round by the last arrival's coordinator; the two earlier
  // members were prepared (their legacy holds re-fenced in place).
  EXPECT_EQ(r.gangs_committed, 1u);
  EXPECT_EQ(r.gangs_prepared, 2u);
  EXPECT_EQ(r.gangs_aborted, 0u);
  EXPECT_EQ(r.invariants.gang_atomicity_violations, 0u);
  const Time start = sim.cluster(0).scheduler().find(1)->start;
  EXPECT_EQ(start, 400);
  EXPECT_EQ(sim.cluster(1).scheduler().find(10)->start, start);
  EXPECT_EQ(sim.cluster(2).scheduler().find(20)->start, start);
}

TEST(Gang, FourDomainsCommitTogether) {
  std::vector<Trace> traces(4);
  for (int i = 0; i < 4; ++i)
    traces[i].add(job(100 + i, i * 100, 600, 25, /*group=*/3));
  CoupledSim sim(gang_domains(4, Scheme::kHold, 50), traces);
  const SimResult r = sim.run(30 * kDay);
  EXPECT_TRUE(r.completed);
  EXPECT_EQ(r.groups.groups_started_together, 1u);
  EXPECT_EQ(r.gangs_committed, 1u);
  EXPECT_EQ(r.invariants.gang_atomicity_violations, 0u);
  for (int i = 0; i < 4; ++i)
    EXPECT_EQ(sim.cluster(i).scheduler().find(100 + i)->start, 300);
}

TEST(Gang, TwoDomainGroupsKeepTheLegacyChain) {
  // k = 2 stays on the paper's Algorithm-1 path even with gang.two_phase on:
  // the pinned two-domain fingerprints must not shift.
  Trace a, b;
  a.add(job(1, 0, 600, 40, /*group=*/5));
  b.add(job(10, 200, 600, 40, 5));
  CoupledSim sim(gang_domains(2, Scheme::kHold), {a, b});
  const SimResult r = sim.run(30 * kDay);
  EXPECT_TRUE(r.completed);
  EXPECT_EQ(r.groups.groups_started_together, 1u);
  EXPECT_EQ(r.gangs_prepared, 0u);
  EXPECT_EQ(r.gangs_committed, 0u);
}

TEST(Gang, PrepareFailureAbortsTheRoundAndBacksOff) {
  // d2's member cannot allocate while a filler occupies its nodes, so every
  // coordinator round aborts (releasing the holds it prepared) until the
  // filler finishes; the jittered backoff then lets a retry commit.
  Trace a, b, c;
  a.add(job(1, 0, 600, 40, /*group=*/5));
  b.add(job(10, 100, 600, 40, 5));
  c.add(job(90, 0, 30 * kMinute, 80));  // filler: blocks the member below
  c.add(job(20, 200, 600, 40, 5));
  CoupledSim sim(gang_domains(3, Scheme::kYield), {a, b, c});
  const SimResult r = sim.run(30 * kDay);
  EXPECT_TRUE(r.completed);
  EXPECT_TRUE(r.invariants.ok());
  EXPECT_GE(r.gangs_aborted, 1u);
  EXPECT_GE(r.gangs_committed, 1u);
  EXPECT_EQ(r.invariants.gang_atomicity_violations, 0u);
  EXPECT_EQ(r.groups.groups_started_together, 1u);
  // The gang could not start before the filler freed d2.
  EXPECT_GE(sim.cluster(2).scheduler().find(20)->start, 30 * kMinute);
}

TEST(Gang, PartitionDuringCostartHealsWithoutStranding) {
  // A partition separates the coordinator from one member across the
  // costart window.  Whatever mix of aborts and suspect fallbacks results,
  // no member may be stranded: the run completes with zero atomicity
  // violations and zero stale-fence starts.
  CoschedConfig::Liveness live;
  live.enabled = true;
  Trace a, b, c;
  a.add(job(1, 0, 600, 40, /*group=*/5));
  b.add(job(10, 100, 600, 40, 5));
  c.add(job(20, 500, 600, 40, 5));
  CoupledSim sim(gang_domains(3, Scheme::kYield), {a, b, c});
  sim.set_liveness_all(live);
  sim.add_partition(0, 2, 400, 2 * kHour);
  const SimResult r = sim.run(30 * kDay);
  EXPECT_TRUE(r.completed);
  EXPECT_EQ(r.invariants.gang_atomicity_violations, 0u);
  EXPECT_EQ(r.invariants.stale_fence_starts, 0u);
  EXPECT_EQ(r.invariants.lease_expiry_violations, 0u);
  EXPECT_EQ(r.groups.groups_unstarted, 0u);
}

// Three two-domain gangs holding full machines in a ring: d0 holds g1
// waiting on d1, d1 holds g2 waiting on d2, d2 holds g3 waiting on d0 — a
// length-3 cycle no pairwise breaker sees.
struct Ring3 {
  std::vector<Trace> traces{3};
  Ring3() {
    traces[0].add(job(1, 0, 600, 6, /*group=*/1));
    traces[0].add(job(3, 10, 600, 6, /*group=*/3));
    traces[1].add(job(2, 0, 600, 6, /*group=*/2));
    traces[1].add(job(10, 10, 600, 6, /*group=*/1));
    traces[2].add(job(30, 0, 600, 6, /*group=*/3));
    traces[2].add(job(20, 10, 600, 6, /*group=*/2));
  }
};

TEST(Gang, RingOfHoldsDeadlocksWithoutResolution) {
  Ring3 ring;
  CoupledSim sim(gang_domains(3, Scheme::kHold, 6, /*release=*/0),
                 ring.traces);
  const SimResult r = sim.run(30 * kDay);
  EXPECT_TRUE(r.deadlocked);
  const WaitCycle c = find_hold_wait_cycle(
      {&sim.cluster(0), &sim.cluster(1), &sim.cluster(2)});
  EXPECT_EQ(c.length(), 3u);
}

TEST(Gang, CycleResolutionVictimizesAndCompletes) {
  Ring3 ring;
  CoupledSim sim(gang_domains(3, Scheme::kHold, 6, /*release=*/0),
                 ring.traces);
  sim.enable_gang_resolution(5 * kMinute);
  const SimResult r = sim.run(30 * kDay);
  EXPECT_TRUE(r.completed) << "cycle must resolve via the victim order";
  EXPECT_TRUE(r.invariants.ok())
      << (r.invariants.violations.empty() ? ""
                                          : r.invariants.violations.front());
  EXPECT_GE(r.gangs_resolved_by_victim, 1u);
  // Deterministic victim: all holders submitted at t=0, so the tie breaks
  // toward the lowest job id — job 1 on d0 yields its hold.
  EXPECT_GE(sim.cluster(0).scheduler().find(1)->forced_releases, 1);
}

TEST(Gang, ResolutionIsDeterministicAcrossRuns) {
  auto fingerprint_of = [] {
    Ring3 ring;
    CoupledSim sim(gang_domains(3, Scheme::kHold, 6, /*release=*/0),
                   ring.traces);
    sim.enable_gang_resolution(5 * kMinute);
    const SimResult r = sim.run(30 * kDay);
    EXPECT_TRUE(r.completed);
    return determinism_fingerprint(sim);
  };
  EXPECT_EQ(fingerprint_of(), fingerprint_of());
}

}  // namespace
}  // namespace cosched
