// Integration: full coupled simulations on synthetic workloads.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <tuple>

#include "core_test_util.h"
#include "workload/pairing.h"
#include "workload/scaling.h"
#include "workload/synth.h"

namespace cosched {
namespace {

using testutil::job;

struct Workload {
  Trace a, b;
};

// A small coupled workload: ~3 days, modest machines, a given paired share.
Workload small_workload(double proportion, std::uint64_t seed) {
  SystemModel big;
  big.name = "compute";
  big.capacity = 1024;
  big.sizes = {{64, 0.5}, {128, 0.3}, {256, 0.15}, {512, 0.05}};
  big.runtime_log_mean = std::log(1200.0);
  big.runtime_log_sigma = 0.9;
  big.runtime_min = 60;
  big.runtime_max = 4 * kHour;

  SystemModel viz = eureka_model();

  SynthParams pa;
  pa.span = 3 * kDay;
  pa.offered_load = 0.6;
  pa.seed = seed;
  SynthParams pb = pa;
  pb.seed = seed + 1000;
  pb.offered_load = 0.5;

  Workload w;
  w.a = generate_trace(big, pa);
  w.b = generate_trace(viz, pb);
  // Offset ids so the two traces are clearly distinct domains.
  for (auto& j : w.b.jobs()) j.id += 1000000;
  pair_by_proportion(w.a, w.b, proportion, seed + 7);
  return w;
}

std::vector<DomainSpec> specs_for(SchemeCombo combo) {
  auto s = make_coupled_specs("compute", 1024, "viz", 100, combo);
  return s;
}

TEST(CoupledSim, BaselineWithoutPairsCompletes) {
  Workload w = small_workload(0.0, 42);
  CoupledSim sim(specs_for(kHH), {w.a, w.b});
  const SimResult r = sim.run(90 * kDay);
  EXPECT_TRUE(r.completed);
  EXPECT_EQ(r.groups.groups_total, 0u);
  EXPECT_EQ(r.systems[0].jobs_finished, w.a.size());
  EXPECT_EQ(r.systems[1].jobs_finished, w.b.size());
  // Nothing held when nothing is paired.
  EXPECT_DOUBLE_EQ(r.systems[0].held_node_hours, 0.0);
  EXPECT_DOUBLE_EQ(r.systems[1].held_node_hours, 0.0);
}

TEST(CoupledSim, AllCombosCompleteAndSynchronize) {
  for (const SchemeCombo& combo : kAllCombos) {
    Workload w = small_workload(0.10, 123);
    CoupledSim sim(specs_for(combo), {w.a, w.b});
    const SimResult r = sim.run(90 * kDay);
    EXPECT_TRUE(r.completed) << combo.label;
    EXPECT_GT(r.groups.groups_total, 0u) << combo.label;
    EXPECT_EQ(r.groups.groups_started_together, r.groups.groups_total)
        << combo.label << ": all paired jobs must start simultaneously";
    EXPECT_EQ(r.groups.max_start_skew, 0) << combo.label;
    EXPECT_EQ(r.groups.groups_unstarted, 0u) << combo.label;
  }
}

TEST(CoupledSim, CoschedulingCostsWaitTime) {
  // The same workload with and without coscheduling: coscheduling must not
  // *improve* average wait (it only adds constraints).
  Workload w = small_workload(0.20, 77);
  auto base_specs = specs_for(kHH);
  base_specs[0].cosched.enabled = false;
  base_specs[1].cosched.enabled = false;
  CoupledSim base(base_specs, {w.a, w.b});
  const SimResult rb = base.run(90 * kDay);

  Workload w2 = small_workload(0.20, 77);  // identical (same seed)
  CoupledSim cs(specs_for(kHH), {w2.a, w2.b});
  const SimResult rc = cs.run(90 * kDay);

  ASSERT_TRUE(rb.completed);
  ASSERT_TRUE(rc.completed);
  EXPECT_GE(rc.systems[0].avg_wait_minutes + rc.systems[1].avg_wait_minutes,
            rb.systems[0].avg_wait_minutes + rb.systems[1].avg_wait_minutes -
                1e-9);
}

TEST(CoupledSim, HoldLosesServiceUnitsYieldDoesNot) {
  Workload wh = small_workload(0.15, 5);
  CoupledSim hold_sim(specs_for(kHH), {wh.a, wh.b});
  const SimResult rh = hold_sim.run(90 * kDay);

  Workload wy = small_workload(0.15, 5);
  CoupledSim yield_sim(specs_for(kYY), {wy.a, wy.b});
  const SimResult ry = yield_sim.run(90 * kDay);

  ASSERT_TRUE(rh.completed);
  ASSERT_TRUE(ry.completed);
  EXPECT_GT(rh.systems[0].held_node_hours + rh.systems[1].held_node_hours,
            0.0);
  EXPECT_DOUBLE_EQ(
      ry.systems[0].held_node_hours + ry.systems[1].held_node_hours, 0.0);
}

TEST(CoupledSim, DeterministicAcrossRuns) {
  Workload w1 = small_workload(0.10, 99);
  CoupledSim s1(specs_for(kHY), {w1.a, w1.b});
  const SimResult r1 = s1.run(90 * kDay);

  Workload w2 = small_workload(0.10, 99);
  CoupledSim s2(specs_for(kHY), {w2.a, w2.b});
  const SimResult r2 = s2.run(90 * kDay);

  EXPECT_DOUBLE_EQ(r1.systems[0].avg_wait_minutes,
                   r2.systems[0].avg_wait_minutes);
  EXPECT_DOUBLE_EQ(r1.systems[1].avg_slowdown, r2.systems[1].avg_slowdown);
  EXPECT_DOUBLE_EQ(r1.systems[0].held_node_hours,
                   r2.systems[0].held_node_hours);
  EXPECT_EQ(r1.end_time, r2.end_time);
}

TEST(CoupledSim, MismatchedSpecTraceArityThrows) {
  Workload w = small_workload(0.0, 1);
  auto specs = specs_for(kHH);
  specs.pop_back();
  EXPECT_THROW(CoupledSim(specs, {w.a, w.b}), InvariantError);
}

TEST(CoupledSim, WfpPolicyAlsoSynchronizes) {
  Workload w = small_workload(0.10, 31);
  auto specs = specs_for(kYH);
  specs[0].policy = "wfp";
  specs[1].policy = "wfp";
  CoupledSim sim(specs, {w.a, w.b});
  const SimResult r = sim.run(90 * kDay);
  EXPECT_TRUE(r.completed);
  EXPECT_EQ(r.groups.groups_started_together, r.groups.groups_total);
}

TEST(CoupledSim, PartitionAllocationChargesRoundedSizes) {
  Trace a, b;
  a.add(job(1, 0, 600, 600));  // charged 1024 under BG/P rounding
  auto specs = make_coupled_specs("bgp", 40960, "viz", 100, kHH);
  specs[0].alloc = std::make_shared<PartitionAllocation>(
      PartitionAllocation::intrepid());
  CoupledSim sim(specs, {a, b});
  const SimResult r = sim.run();
  EXPECT_TRUE(r.completed);
  // 1024 nodes * 600 s of busy time, not 600 * 600.
  EXPECT_DOUBLE_EQ(
      sim.cluster(0).scheduler().pool().busy_node_seconds(), 1024.0 * 600.0);
}

// Two coupled pairs in disjoint coupling groups share one engine clock but
// no protocol link, so each pair must schedule exactly as it does alone.
TEST(CoupledSim, CouplingGroupsScheduleLikeSeparatePairs) {
  const SchemeCombo combos[2] = {kHY, kYH};
  std::vector<DomainSpec> specs;
  std::vector<Trace> traces(4);
  for (int g = 0; g < 2; ++g) {
    for (DomainSpec& s :
         make_coupled_specs("c" + std::to_string(g), 100,
                            "v" + std::to_string(g), 100, combos[g])) {
      s.policy = "fcfs";
      s.cosched.liveness.enabled = true;
      specs.push_back(std::move(s));
    }
    // Mated jobs with staggered arrivals plus local filler; job and group
    // ids are disjoint across the two pairs.
    const JobId base = 10000 * (g + 1);
    const GroupId gbase = 1000 * (g + 1);
    for (int i = 0; i < 12; ++i) {
      const Time t = 60 + 240 * i + 17 * g;
      traces[2 * g].add(job(base + i, t, 600 + 30 * (i % 5),
                            10 + 5 * (i % 4), gbase + i));
      traces[2 * g + 1].add(job(base + 1000 + i, t + 90 + 40 * (i % 3),
                                500 + 25 * (i % 7), 8 + 4 * (i % 3),
                                gbase + i));
      if (i % 3 == 0) {
        traces[2 * g].add(job(base + 2000 + i, t + 30, 300, 20));
        traces[2 * g + 1].add(job(base + 3000 + i, t + 50, 400, 16));
      }
    }
  }
  for (std::size_t d = 2; d < 4; ++d) specs[d].coupling_group = 1;

  using Outcome = std::tuple<Time, Time, int, int>;
  const auto outcomes = [](CoupledSim& sim, std::size_t first) {
    std::map<JobId, Outcome> out;
    for (std::size_t d = first; d < first + 2; ++d) {
      sim.cluster(d).scheduler().for_each_job(
          [&](JobId id, const RuntimeJob& j) {
            out[id] = {j.start, j.end, j.yield_count, j.forced_releases};
          });
    }
    return out;
  };

  CoupledSim both(specs, traces);
  EventLog& log = both.enable_event_log();
  const SimResult r = both.run(30 * kDay);
  ASSERT_TRUE(r.completed);
  EXPECT_TRUE(r.invariants.ok());
  EXPECT_THROW(both.link(0, 2), InvariantError);

  for (std::size_t g = 0; g < 2; ++g) {
    SCOPED_TRACE(g);
    std::vector<DomainSpec> pair_specs = {specs[2 * g], specs[2 * g + 1]};
    for (DomainSpec& s : pair_specs) s.coupling_group = 0;
    CoupledSim alone(pair_specs, {traces[2 * g], traces[2 * g + 1]});
    ASSERT_TRUE(alone.run(30 * kDay).completed);
    const std::map<JobId, Outcome> expected = outcomes(alone, 0);
    EXPECT_EQ(expected.size(), traces[2 * g].size() + traces[2 * g + 1].size());
    EXPECT_EQ(outcomes(both, 2 * g), expected);
  }

  const std::vector<JobEvent>& events = log.events();
  EXPECT_FALSE(events.empty());
  EXPECT_TRUE(std::is_sorted(
      events.begin(), events.end(),
      [](const JobEvent& a, const JobEvent& b) { return a.time < b.time; }));
}

}  // namespace
}  // namespace cosched
