// Property-based sweeps (TEST_P): invariants that must hold for every
// scheme combination, load level, pairing proportion, and seed.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <ostream>
#include <string>
#include <tuple>
#include <vector>

#include "core_test_util.h"
#include "workload/pairing.h"
#include "workload/synth.h"

namespace cosched {
namespace {

struct SweepParam {
  SchemeCombo combo;
  double load;
  double proportion;
  std::uint64_t seed;
};

// Prints the fields, so ctest's "GetParam() = ..." suffix is the same in
// every build (the default prints the raw bytes, the label pointer
// included).
void PrintTo(const SweepParam& p, std::ostream* os) {
  *os << "{combo " << p.combo.label << ", load " << p.load << ", proportion "
      << p.proportion << ", seed " << p.seed << "}";
}

std::string param_name(const ::testing::TestParamInfo<SweepParam>& info) {
  const auto& p = info.param;
  return std::string(p.combo.label) + "_load" +
         std::to_string(static_cast<int>(p.load * 100)) + "_prop" +
         std::to_string(static_cast<int>(p.proportion * 100)) + "_seed" +
         std::to_string(p.seed);
}

class CoschedSweep : public ::testing::TestWithParam<SweepParam> {
 protected:
  struct Built {
    std::vector<DomainSpec> specs;
    std::vector<Trace> traces;
  };

  Built build() const {
    const SweepParam& p = GetParam();
    SystemModel compute;
    compute.name = "compute";
    compute.capacity = 512;
    compute.sizes = {{32, 0.5}, {64, 0.3}, {128, 0.15}, {256, 0.05}};
    compute.runtime_log_mean = std::log(900.0);
    compute.runtime_log_sigma = 0.9;
    compute.runtime_min = 60;
    compute.runtime_max = 3 * kHour;

    SystemModel viz = eureka_model();

    SynthParams pa;
    pa.span = 2 * kDay;
    pa.offered_load = 0.6;
    pa.seed = p.seed;
    SynthParams pb = pa;
    pb.offered_load = p.load;
    pb.seed = p.seed + 555;

    Built w;
    w.traces.push_back(generate_trace(compute, pa));
    w.traces.push_back(generate_trace(viz, pb));
    for (auto& j : w.traces[1].jobs()) j.id += 1000000;
    pair_by_proportion(w.traces[0], w.traces[1], p.proportion, p.seed + 9);
    w.specs = make_coupled_specs("compute", 512, "viz", 100, p.combo);
    return w;
  }
};

TEST_P(CoschedSweep, CompletesWithAllPairsSynchronized) {
  Built w = build();
  CoupledSim sim(w.specs, w.traces);
  const SimResult r = sim.run(120 * kDay);

  // §V-B capability validation: every simulation completes and every paired
  // group starts simultaneously, whichever member got ready first.
  ASSERT_TRUE(r.completed) << "simulation deadlocked or stalled";
  EXPECT_EQ(r.groups.groups_started_together, r.groups.groups_total);
  EXPECT_EQ(r.groups.max_start_skew, 0);
  EXPECT_EQ(r.groups.groups_unstarted, 0u);

  for (std::size_t d = 0; d < 2; ++d) {
    const auto& pool = sim.cluster(d).scheduler().pool();
    // All nodes returned at the end.
    EXPECT_EQ(pool.busy(), 0) << "domain " << d;
    EXPECT_EQ(pool.held(), 0) << "domain " << d;
    // Physical sanity of the aggregates.
    EXPECT_GE(r.systems[d].utilization, 0.0);
    EXPECT_LE(r.systems[d].utilization, 1.0 + 1e-9);
    EXPECT_GE(r.systems[d].held_fraction, 0.0);
    EXPECT_LE(r.systems[d].held_fraction, 1.0 + 1e-9);
    EXPECT_GE(r.systems[d].avg_slowdown, 1.0 - 1e-9)
        << "slowdown below 1 is impossible";
    EXPECT_EQ(r.systems[d].jobs_finished, w.traces[d].size());
  }

  // Scheme-specific invariants.
  const SweepParam& p = GetParam();
  const bool any_pairs = r.groups.groups_total > 0;
  if (p.combo.first == Scheme::kYield && p.combo.second == Scheme::kYield) {
    EXPECT_DOUBLE_EQ(
        r.systems[0].held_node_hours + r.systems[1].held_node_hours, 0.0)
        << "yield must never hold nodes";
  }
  if (!any_pairs) {
    EXPECT_DOUBLE_EQ(
        r.systems[0].held_node_hours + r.systems[1].held_node_hours, 0.0);
    for (const auto& sysm : r.systems) EXPECT_EQ(sysm.total_yields, 0);
  }
}

TEST_P(CoschedSweep, SyncTimeZeroForUnpairedJobs) {
  Built w = build();
  CoupledSim sim(w.specs, w.traces);
  const SimResult r = sim.run(120 * kDay);
  ASSERT_TRUE(r.completed);
  for (std::size_t d = 0; d < 2; ++d) {
    sim.cluster(d).scheduler().for_each_job(
        [](JobId id, const RuntimeJob& rj) {
          (void)id;
          if (!rj.spec.is_paired()) {
            EXPECT_EQ(rj.sync_time(), 0)
                << "unpaired job must start at first readiness";
          }
          EXPECT_GE(rj.sync_time(), 0);
        });
  }
}

// -- determinism guard --------------------------------------------------
//
// The incremental scheduler/engine rewrite must not change simulation
// results: these fingerprints (determinism_fingerprint: FNV-1a over every
// job's id, start, end, yield count, and forced releases, sorted by id) were
// recorded from the pre-optimization implementation for fixed seeds.  Any
// divergence in scheduling order, backfill decisions, or event ordering
// changes a start time somewhere and breaks the hash.

TEST(DeterminismGuard, FixedSeedResultsMatchPreOptimizationFingerprints) {
  // The protocol traffic a run sends over its loopback links: round trips
  // and encoded bytes, and the calls the fault injectors saw and passed on.
  struct Traffic {
    std::uint64_t calls;
    std::uint64_t request_bytes;
    std::uint64_t response_bytes;
    std::uint64_t fault_calls;
    std::uint64_t delivered;
    bool operator==(const Traffic&) const = default;
  };
  struct Pinned {
    SchemeCombo combo;
    std::uint64_t expect;
    Traffic traffic;
  };
  // The fingerprints were recorded from the pre-optimization (full-rescan)
  // implementation; the traffic from the codec before its in-place decode,
  // so any codec change that alters a byte or a call shows here.
  const Pinned pinned[] = {
      {kHH, 0x1b674b6d199ed7c0ULL, {297, 1862, 1474, 297, 297}},
      {kHY, 0x4becedf2dca9e57bULL, {437, 2842, 2272, 437, 437}},
      {kYH, 0xd33b7fd83c6bce0aULL, {608, 4115, 3377, 608, 608}},
      {kYY, 0x9db813ffb767cb65ULL, {769, 5242, 4296, 769, 769}},
  };
  for (const Pinned& p : pinned) {
    SystemModel compute;
    compute.name = "compute";
    compute.capacity = 512;
    compute.sizes = {{32, 0.5}, {64, 0.3}, {128, 0.15}, {256, 0.05}};
    compute.runtime_log_mean = std::log(900.0);
    compute.runtime_log_sigma = 0.9;
    compute.runtime_min = 60;
    compute.runtime_max = 3 * kHour;

    SynthParams pa;
    pa.span = 2 * kDay;
    pa.offered_load = 0.6;
    pa.seed = 42;
    SynthParams pb = pa;
    pb.offered_load = 0.5;
    pb.seed = 42 + 555;

    std::vector<Trace> traces;
    traces.push_back(generate_trace(compute, pa));
    traces.push_back(generate_trace(eureka_model(), pb));
    for (auto& j : traces[1].jobs()) j.id += 1000000;
    pair_by_proportion(traces[0], traces[1], 0.15, 42 + 9);
    auto specs = make_coupled_specs("compute", 512, "viz", 100, p.combo);

    CoupledSim sim(specs, traces);
    const SimResult r = sim.run(120 * kDay);
    ASSERT_TRUE(r.completed) << p.combo.label;
    EXPECT_EQ(determinism_fingerprint(sim), p.expect)
        << "simulation results diverged from the pre-optimization "
           "implementation for combo "
        << p.combo.label;
    const auto proto = sim.protocol_stats();
    const FaultStats faults = sim.fault_stats();
    const Traffic traffic{proto.calls, proto.request_bytes,
                          proto.response_bytes, faults.calls,
                          faults.delivered};
    EXPECT_EQ(traffic, p.traffic)
        << "protocol traffic changed for combo " << p.combo.label << ": {"
        << traffic.calls << ", " << traffic.request_bytes << ", "
        << traffic.response_bytes << ", " << traffic.fault_calls << ", "
        << traffic.delivered << "}";
  }
}

TEST(DeterminismGuard, RepeatedRunsAreBitIdentical) {
  auto run_fp = [] {
    SynthParams pa;
    pa.span = 1 * kDay;
    pa.offered_load = 0.7;
    pa.seed = 7;
    Trace a = generate_trace(eureka_model(), pa);
    pa.seed = 8;
    pa.offered_load = 0.5;
    Trace b = generate_trace(eureka_model(), pa);
    for (auto& j : b.jobs()) j.id += 1000000;
    pair_by_proportion(a, b, 0.2, 11);
    auto specs = make_coupled_specs("a", 100, "b", 100, kHY);
    CoupledSim sim(specs, {a, b});
    EXPECT_TRUE(sim.run(120 * kDay).completed);
    return determinism_fingerprint(sim);
  };
  EXPECT_EQ(run_fp(), run_fp());
}

TEST(DeterminismGuard, ChaosRunsWithSameFaultSeedAreBitIdentical) {
  // Deterministic chaos: an identical FaultPlan seed must reproduce the
  // identical SimResult, faults included.  Different seeds draw different
  // fault sequences, which (at 20% drop) perturbs the schedule.
  auto run_fp = [](std::uint64_t fault_seed) {
    SynthParams pa;
    pa.span = 1 * kDay;
    pa.offered_load = 0.7;
    pa.seed = 7;
    Trace a = generate_trace(eureka_model(), pa);
    pa.seed = 8;
    Trace b = generate_trace(eureka_model(), pa);
    for (auto& j : b.jobs()) j.id += 1000000;
    pair_by_proportion(a, b, 0.2, 11);
    auto specs = make_coupled_specs("a", 100, "b", 100, kHY);
    CoupledSim sim(specs, {a, b});
    FaultPlan plan;
    plan.seed = fault_seed;
    plan.drop_probability = 0.2;
    sim.set_fault_plan_all(plan);
    const SimResult r = sim.run(120 * kDay);
    EXPECT_TRUE(r.completed);
    EXPECT_TRUE(r.invariants.ok());
    return determinism_fingerprint(sim);
  };
  EXPECT_EQ(run_fp(3), run_fp(3));
  EXPECT_NE(run_fp(3), run_fp(4));
}

TEST(DeterminismGuard, PartitionChaosRunsWithSameScheduleAreBitIdentical) {
  // Deterministic chaos extends to the liveness layer: the same fault seed
  // and the same partition schedule (symmetric window plus a later one-way
  // window) must reproduce the identical schedule with heartbeats, failure
  // detection, lease expiries, and fencing all active.
  auto run_fp = [](std::uint64_t fault_seed, Time onset) {
    SynthParams pa;
    pa.span = 1 * kDay;
    pa.offered_load = 0.7;
    pa.seed = 7;
    Trace a = generate_trace(eureka_model(), pa);
    pa.seed = 8;
    Trace b = generate_trace(eureka_model(), pa);
    for (auto& j : b.jobs()) j.id += 1000000;
    pair_by_proportion(a, b, 0.2, 11);
    auto specs = make_coupled_specs("a", 100, "b", 100, kHH);
    for (auto& s : specs) s.cosched.liveness.enabled = true;
    CoupledSim sim(specs, {a, b});
    FaultPlan plan;
    plan.seed = fault_seed;
    plan.drop_probability = 0.05;
    plan.reply_drop_probability = 0.05;
    sim.set_fault_plan_all(plan);
    sim.add_partition(0, 1, onset, onset + 2 * kHour);
    sim.add_one_way_partition(1, 0, onset + 4 * kHour, onset + 5 * kHour);
    const SimResult r = sim.run(120 * kDay);
    EXPECT_TRUE(r.completed);
    EXPECT_TRUE(r.invariants.ok());
    return determinism_fingerprint(sim);
  };
  EXPECT_EQ(run_fp(3, 6 * kHour), run_fp(3, 6 * kHour));
  EXPECT_NE(run_fp(3, 6 * kHour), run_fp(5, 7 * kHour));
}

INSTANTIATE_TEST_SUITE_P(
    SchemeLoadProportion, CoschedSweep,
    ::testing::Values(
        SweepParam{kHH, 0.25, 0.10, 1}, SweepParam{kHY, 0.25, 0.10, 1},
        SweepParam{kYH, 0.25, 0.10, 1}, SweepParam{kYY, 0.25, 0.10, 1},
        SweepParam{kHH, 0.75, 0.10, 2}, SweepParam{kHY, 0.75, 0.10, 2},
        SweepParam{kYH, 0.75, 0.10, 2}, SweepParam{kYY, 0.75, 0.10, 2},
        SweepParam{kHH, 0.50, 0.33, 3}, SweepParam{kYY, 0.50, 0.33, 3},
        SweepParam{kHY, 0.50, 0.02, 4}, SweepParam{kYH, 0.50, 0.02, 4},
        SweepParam{kHH, 0.50, 0.00, 5}, SweepParam{kYY, 0.50, 0.00, 5}),
    param_name);

// Enhancement sweeps: thresholds must preserve the synchronization
// guarantee while changing only the hold/yield mix.
struct EnhanceParam {
  double max_hold_fraction;
  int max_yield_before_hold;
  double yield_boost;
  std::uint64_t seed;
};

// Prints the fields, so ctest's "GetParam() = ..." suffix is the same in
// every build (the default prints the raw bytes, padding included).
void PrintTo(const EnhanceParam& p, std::ostream* os) {
  *os << "{max_hold_fraction " << p.max_hold_fraction
      << ", max_yield_before_hold " << p.max_yield_before_hold
      << ", yield_boost " << p.yield_boost << ", seed " << p.seed << "}";
}

std::string enhance_name(const ::testing::TestParamInfo<EnhanceParam>& info) {
  const auto& p = info.param;
  return "hold" + std::to_string(static_cast<int>(p.max_hold_fraction * 100)) +
         "_yields" + std::to_string(p.max_yield_before_hold) + "_boost" +
         std::to_string(static_cast<int>(p.yield_boost)) + "_seed" +
         std::to_string(p.seed);
}

class EnhancementSweep : public ::testing::TestWithParam<EnhanceParam> {};

TEST_P(EnhancementSweep, GuaranteeHoldsUnderThresholds) {
  const EnhanceParam& p = GetParam();
  SynthParams pa;
  pa.span = 2 * kDay;
  pa.offered_load = 0.6;
  pa.seed = p.seed;
  Trace a = generate_trace(eureka_model(), pa);
  pa.seed = p.seed + 3;
  pa.offered_load = 0.5;
  Trace b = generate_trace(eureka_model(), pa);
  for (auto& j : b.jobs()) j.id += 1000000;
  pair_by_proportion(a, b, 0.15, p.seed + 11);

  auto specs = make_coupled_specs("a", 100, "b", 100, kHY);
  for (auto& s : specs) {
    s.cosched.max_hold_fraction = p.max_hold_fraction;
    s.cosched.max_yield_before_hold = p.max_yield_before_hold;
    s.cosched.yield_priority_boost = p.yield_boost;
  }
  CoupledSim sim(specs, {a, b});
  const SimResult r = sim.run(120 * kDay);
  ASSERT_TRUE(r.completed);
  EXPECT_EQ(r.groups.groups_started_together, r.groups.groups_total);
  EXPECT_EQ(r.groups.max_start_skew, 0);

  // The hold-fraction cap bounds held nodes at every instant; verify the
  // aggregate consequence: held node-time never exceeds the cap's share.
  if (p.max_hold_fraction < 1.0) {
    for (const auto& sysm : r.systems)
      EXPECT_LE(sysm.held_fraction, p.max_hold_fraction + 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Thresholds, EnhancementSweep,
    ::testing::Values(EnhanceParam{1.0, 0, 0.0, 1},
                      EnhanceParam{0.5, 0, 0.0, 2},
                      EnhanceParam{0.2, 0, 0.0, 3},
                      EnhanceParam{1.0, 3, 0.0, 4},
                      EnhanceParam{1.0, 0, 10.0, 5},
                      EnhanceParam{0.5, 5, 5.0, 6}),
    enhance_name);

}  // namespace
}  // namespace cosched
