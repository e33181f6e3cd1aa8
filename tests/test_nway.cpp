// N-way coscheduling across more than two domains (the paper's future-work
// extension, §VI): groups spanning three or four schedulers must still start
// all members at the same instant.
#include <gtest/gtest.h>

#include "core_test_util.h"
#include "workload/pairing.h"
#include "workload/synth.h"

namespace cosched {
namespace {

using testutil::job;

std::vector<DomainSpec> three_domains(Scheme s0, Scheme s1, Scheme s2) {
  std::vector<DomainSpec> specs(3);
  const char* names[] = {"cpu", "gpu", "viz"};
  const Scheme schemes[] = {s0, s1, s2};
  for (int i = 0; i < 3; ++i) {
    specs[i].name = names[i];
    specs[i].capacity = 100;
    specs[i].policy = "fcfs";
    specs[i].cosched.scheme = schemes[i];
    specs[i].cosched.hold_release_period = 20 * kMinute;
  }
  return specs;
}

TEST(NWay, ThreeDomainsStartTogether) {
  Trace a, b, c;
  a.add(job(1, 0, 600, 40, /*group=*/5));
  b.add(job(10, 200, 600, 40, 5));
  c.add(job(20, 400, 600, 40, 5));
  CoupledSim sim(three_domains(Scheme::kHold, Scheme::kHold, Scheme::kHold),
                 {a, b, c});
  const SimResult r = sim.run(30 * kDay);
  EXPECT_TRUE(r.completed);
  EXPECT_EQ(r.groups.groups_total, 1u);
  EXPECT_EQ(r.groups.groups_started_together, 1u);
  const Time start = sim.cluster(0).scheduler().find(1)->start;
  EXPECT_EQ(start, 400);  // last member's arrival
  EXPECT_EQ(sim.cluster(1).scheduler().find(10)->start, start);
  EXPECT_EQ(sim.cluster(2).scheduler().find(20)->start, start);
}

TEST(NWay, MixedSchemesAcrossThreeDomains) {
  Trace a, b, c;
  a.add(job(1, 0, 600, 40, 5));
  b.add(job(10, 100, 600, 40, 5));
  c.add(job(20, 300, 600, 40, 5));
  CoupledSim sim(three_domains(Scheme::kHold, Scheme::kYield, Scheme::kHold),
                 {a, b, c});
  const SimResult r = sim.run(30 * kDay);
  EXPECT_TRUE(r.completed);
  EXPECT_EQ(r.groups.groups_started_together, 1u);
}

TEST(NWay, TryStartChainAcrossThreeDomains) {
  // All three members queued-but-startable (yield everywhere): the chain
  // a -> b -> c must start the whole group in one cascade.
  Trace a, b, c;
  a.add(job(1, 0, 600, 40, 5));
  b.add(job(10, 10, 600, 40, 5));
  c.add(job(20, 20, 600, 40, 5));
  CoupledSim sim(
      three_domains(Scheme::kYield, Scheme::kYield, Scheme::kYield),
      {a, b, c});
  const SimResult r = sim.run(30 * kDay);
  EXPECT_TRUE(r.completed);
  EXPECT_EQ(r.groups.groups_started_together, 1u);
  EXPECT_EQ(sim.cluster(0).scheduler().find(1)->start, 20);
}

TEST(NWay, PartialGroupSpanningTwoOfThreeDomains) {
  // Group only on cpu+viz; the gpu domain has no member and must not block.
  Trace a, b, c;
  a.add(job(1, 0, 600, 40, 5));
  c.add(job(20, 100, 600, 40, 5));
  b.add(job(10, 50, 600, 100));  // unrelated regular job on gpu
  CoupledSim sim(three_domains(Scheme::kHold, Scheme::kHold, Scheme::kHold),
                 {a, b, c});
  const SimResult r = sim.run(30 * kDay);
  EXPECT_TRUE(r.completed);
  EXPECT_EQ(r.groups.groups_started_together, 1u);
  EXPECT_EQ(sim.cluster(0).scheduler().find(1)->start, 100);
}

TEST(NWay, GroupedSyntheticWorkloadCompletes) {
  SystemModel small = eureka_model();
  SynthParams p;
  p.span = 2 * kDay;
  p.offered_load = 0.4;
  std::vector<Trace> traces;
  for (std::uint64_t s = 0; s < 3; ++s) {
    p.seed = 100 + s;
    traces.push_back(generate_trace(small, p));
    for (auto& j : traces.back().jobs())
      j.id += static_cast<JobId>(1000000 * (s + 1));
  }
  std::vector<Trace*> ptrs = {&traces[0], &traces[1], &traces[2]};
  const std::size_t groups = group_by_proportion(ptrs, 0.05, 9);
  ASSERT_GT(groups, 0u);

  CoupledSim sim(three_domains(Scheme::kHold, Scheme::kYield, Scheme::kYield),
                 traces);
  const SimResult r = sim.run(90 * kDay);
  EXPECT_TRUE(r.completed);
  EXPECT_EQ(r.groups.groups_total, groups);
  EXPECT_EQ(r.groups.groups_started_together, groups);
  EXPECT_EQ(r.groups.max_start_skew, 0);
}

TEST(NWay, FourDomainsStartTogether) {
  std::vector<DomainSpec> specs(4);
  for (int i = 0; i < 4; ++i) {
    std::string name = "d";
    name += std::to_string(i);
    specs[i].name = std::move(name);
    specs[i].capacity = 50;
    specs[i].policy = "fcfs";
    specs[i].cosched.scheme = i % 2 ? Scheme::kYield : Scheme::kHold;
  }
  std::vector<Trace> traces(4);
  for (int i = 0; i < 4; ++i)
    traces[i].add(job(100 + i, i * 100, 600, 25, /*group=*/3));
  CoupledSim sim(specs, traces);
  const SimResult r = sim.run(30 * kDay);
  EXPECT_TRUE(r.completed);
  EXPECT_EQ(r.groups.groups_started_together, 1u);
  for (int i = 0; i < 4; ++i)
    EXPECT_EQ(sim.cluster(i).scheduler().find(100 + i)->start, 300);
}

}  // namespace
}  // namespace cosched
