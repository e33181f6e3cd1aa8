// Tests of the benchmark's own machinery: the tracing decorators must not
// change what the simulator computes, span self time must be the duration
// minus the direct children, and the median and host-speed helpers must be
// right.
#include <gtest/gtest.h>

#include <cstdlib>
#include <vector>

#include "core/coupled_sim.h"
#include "host_speed.h"
#include "summary.h"
#include "traced_wiring.h"
#include "workloads.h"

namespace perfbench {
namespace {

using namespace cosched;

/// Small months: the figure harness scales job counts by this factor.
class SmallTraces : public ::testing::Test {
 protected:
  void SetUp() override { setenv("COSCHED_BENCH_SCALE", "0.03", 1); }
  void TearDown() override { unsetenv("COSCHED_BENCH_SCALE"); }
};

void expect_transparent(Workload w, std::uint64_t seed) {
  const MonthConfig cfg = month_config(w);
  const MonthInputs in = make_month_inputs(w, seed);

  CoupledSim reference(cfg.specs, in.traces);
  configure(reference, cfg);
  const SimResult r = reference.run(kGuard);
  ASSERT_TRUE(r.completed);

  Tracer tracer;
  TracedCoupled traced(cfg, in.traces, &tracer);
  ASSERT_TRUE(traced.run(kGuard));
  EXPECT_EQ(tracer.open_spans(), 0u);

  EXPECT_EQ(traced.fingerprint(), determinism_fingerprint(reference));
  EXPECT_EQ(traced.engine().executed(), reference.engine().executed());
  const auto p = traced.protocol_stats();
  const auto q = reference.protocol_stats();
  EXPECT_EQ(p.calls, q.calls);
  EXPECT_EQ(p.request_bytes, q.request_bytes);
  EXPECT_EQ(p.response_bytes, q.response_bytes);
  EXPECT_EQ(traced.fault_stats().dropped, reference.fault_stats().dropped);
  EXPECT_EQ(traced.fault_stats().delivered, reference.fault_stats().delivered);
  EXPECT_EQ(tracer.totals(SpanKind::kStep).count,
            reference.engine().executed() + 1);  // the final empty step
  // Every call through the fault plane that was delivered reached the
  // loopback decorator; every loopback round trip was counted by it.
  EXPECT_EQ(tracer.totals(SpanKind::kRoundtrip).count, p.calls);
  EXPECT_EQ(traced.call_counts().total(), tracer.totals(SpanKind::kCall).count);
}

TEST_F(SmallTraces, DecoratorsForwardEveryCallOnBaseMonth) {
  expect_transparent(Workload::kBaseMonth, 3);
}

TEST_F(SmallTraces, DecoratorsForwardEveryCallOnYieldYieldMonth) {
  expect_transparent(Workload::kYyMonth, 3);
}

TEST_F(SmallTraces, DecoratorsForwardEveryCallOnDurableMonth) {
  expect_transparent(Workload::kDurableMonth, 5);
}

TEST_F(SmallTraces, DurableMonthExercisesEveryLayer) {
  const MonthConfig cfg = month_config(Workload::kDurableMonth);
  const MonthInputs in = make_month_inputs(Workload::kDurableMonth, 5);
  Tracer tracer;
  TracedCoupled traced(cfg, in.traces, &tracer);
  ASSERT_TRUE(traced.run(kGuard));
  for (SpanKind k : {SpanKind::kStep, SpanKind::kScore, SpanKind::kCall,
                     SpanKind::kRoundtrip, SpanKind::kService,
                     SpanKind::kJournalAppend, SpanKind::kJournalCommit})
    EXPECT_GT(tracer.totals(k).count, 0u) << span_name(k);
}

TEST_F(SmallTraces, BaseMonthMakesNoProtocolOrJournalCalls) {
  LayerRaw raw;
  const MonthConfig cfg = month_config(Workload::kBaseMonth);
  const MonthInputs in = make_month_inputs(Workload::kBaseMonth, 3);
  TracedCoupled traced(cfg, in.traces, &raw.tracer);
  ASSERT_TRUE(traced.run(kGuard));
  EXPECT_EQ(traced.protocol_stats().calls, 0u);
  EXPECT_EQ(raw.tracer.totals(SpanKind::kJournalAppend).count, 0u);
}

// A scripted clock: each read returns the next timestamp.
std::vector<std::int64_t> g_ticks;
std::size_t g_next = 0;
std::int64_t scripted_clock() { return g_ticks.at(g_next++); }

TEST(Tracer, SelfTimeSubtractsDirectChildren) {
  // step [0, 100) contains call [10, 70) which contains roundtrip [20, 60)
  // which contains service [30, 50); then a second call [80, 90).
  g_ticks = {0, 10, 20, 30, 50, 60, 70, 80, 90, 100};
  g_next = 0;
  Tracer t(scripted_clock);
  t.begin(SpanKind::kStep);
  t.begin(SpanKind::kCall);
  t.begin(SpanKind::kRoundtrip);
  t.begin(SpanKind::kService);
  t.end();
  t.end();
  t.end();
  t.begin(SpanKind::kCall);
  t.end();
  t.end();
  EXPECT_EQ(t.open_spans(), 0u);

  const SpanTotals step = t.totals(SpanKind::kStep);
  EXPECT_EQ(step.count, 1u);
  EXPECT_EQ(step.total_ns, 100);
  EXPECT_EQ(step.self_ns, 100 - 60 - 10);

  const SpanTotals call = t.totals(SpanKind::kCall);
  EXPECT_EQ(call.count, 2u);
  EXPECT_EQ(call.total_ns, 60 + 10);
  EXPECT_EQ(call.self_ns, (60 - 40) + 10);

  const SpanTotals rt = t.totals(SpanKind::kRoundtrip);
  EXPECT_EQ(rt.total_ns, 40);
  EXPECT_EQ(rt.self_ns, 20);

  const SpanTotals svc = t.totals(SpanKind::kService);
  EXPECT_EQ(svc.total_ns, 20);
  EXPECT_EQ(svc.self_ns, 20);

  // Aggregation keeps the parent: both calls sit directly under the step.
  const SpanKind step_kind = SpanKind::kStep;
  EXPECT_EQ(t.edge(SpanKind::kCall, &step_kind).count, 2u);
  EXPECT_EQ(t.edge(SpanKind::kStep, nullptr).count, 1u);

  // Self times of all spans add up to the root's duration.
  std::int64_t self_sum = 0;
  for (SpanKind k : {SpanKind::kStep, SpanKind::kCall, SpanKind::kRoundtrip,
                     SpanKind::kService})
    self_sum += t.totals(k).self_ns;
  EXPECT_EQ(self_sum, step.total_ns);
}

TEST(Tracer, MergeAddsAggregates) {
  g_ticks = {0, 5, 10, 30};
  g_next = 0;
  Tracer a(scripted_clock), b(scripted_clock);
  a.begin(SpanKind::kScore);
  a.end();
  b.begin(SpanKind::kScore);
  b.end();
  a.merge(b);
  EXPECT_EQ(a.totals(SpanKind::kScore).count, 2u);
  EXPECT_EQ(a.totals(SpanKind::kScore).total_ns, 25);
}

TEST(Median, OddEvenAndEmpty) {
  EXPECT_DOUBLE_EQ(median({}), 0.0);
  EXPECT_DOUBLE_EQ(median({7.0}), 7.0);
  EXPECT_DOUBLE_EQ(median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_DOUBLE_EQ(median({4.0, 1.0, 3.0, 2.0}), 2.5);
  EXPECT_DOUBLE_EQ(median({5.0, 5.0, 1.0, 9.0, 9.0, 9.0}), 7.0);
  EXPECT_DOUBLE_EQ(median({-1.0, 10.0}), 4.5);
}

TEST(HostSpeed, SlowdownIsTheMeanRunOverTheReference) {
  const Slowdown s = slowdown_of({{3 * kReferenceKernelWallS, kReferenceKernelCpuS},
                                  {kReferenceKernelWallS, 2 * kReferenceKernelCpuS}});
  EXPECT_DOUBLE_EQ(s.wall, 2.0);
  EXPECT_DOUBLE_EQ(s.cpu, 1.5);
}

TEST(HostSpeed, ProbeAnswersEveryRequest) {
  HostSpeedProbe probe;
  for (int i = 0; i < 3; ++i) {
    const KernelTimes t = probe.measure();
    EXPECT_GT(t.wall_s, 0.0);
    EXPECT_GT(t.cpu_s, 0.0);
  }
}

}  // namespace
}  // namespace perfbench
