#include "core/config_io.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>

#include "util/error.h"

namespace cosched {
namespace {

std::vector<DomainConfig> parse(const std::string& text) {
  std::istringstream in(text);
  return parse_domain_configs(in);
}

TEST(ConfigIo, ParsesTwoDomains) {
  const auto domains = parse(R"(
# coupled system
[domain intrepid]
capacity = 40960
policy = wfp
scheme = hold
hold-release-min = 20
allocation = bgp-partitions
trace = intrepid.swf

[domain eureka]
capacity = 100
policy = wfp
scheme = yield
backfill = easy
trace = synth:eureka?load=0.5
)");
  ASSERT_EQ(domains.size(), 2u);
  EXPECT_EQ(domains[0].spec.name, "intrepid");
  EXPECT_EQ(domains[0].spec.capacity, 40960);
  EXPECT_EQ(domains[0].spec.policy, "wfp");
  EXPECT_EQ(domains[0].spec.cosched.scheme, Scheme::kHold);
  EXPECT_EQ(domains[0].spec.cosched.hold_release_period, 20 * kMinute);
  EXPECT_NE(domains[0].spec.alloc, nullptr);
  EXPECT_EQ(domains[0].trace_source, "intrepid.swf");
  EXPECT_EQ(domains[1].spec.cosched.scheme, Scheme::kYield);
  EXPECT_EQ(domains[1].trace_source, "synth:eureka?load=0.5");
}

TEST(ConfigIo, DefaultsMatchLibraryDefaults) {
  const auto domains = parse("[domain x]\ncapacity = 10\n");
  const CoschedConfig def;
  EXPECT_EQ(domains[0].spec.cosched.scheme, def.scheme);
  EXPECT_EQ(domains[0].spec.cosched.hold_release_period,
            def.hold_release_period);
  EXPECT_TRUE(domains[0].spec.sched.backfill);
  EXPECT_FALSE(domains[0].spec.sched.conservative);
}

TEST(ConfigIo, EnhancementKnobs) {
  const auto domains = parse(R"(
[domain x]
capacity = 10
enabled = false
max-hold-fraction = 0.25
max-yield-before-hold = 7
yield-boost = 3.5
yield-retry-min = 2
backfill = conservative
)");
  const CoschedConfig& c = domains[0].spec.cosched;
  EXPECT_FALSE(c.enabled);
  EXPECT_DOUBLE_EQ(c.max_hold_fraction, 0.25);
  EXPECT_EQ(c.max_yield_before_hold, 7);
  EXPECT_DOUBLE_EQ(c.yield_priority_boost, 3.5);
  EXPECT_EQ(c.yield_retry_period, 2 * kMinute);
  EXPECT_TRUE(domains[0].spec.sched.conservative);
}

TEST(ConfigIo, BackfillNone) {
  const auto domains = parse("[domain x]\ncapacity = 10\nbackfill = none\n");
  EXPECT_FALSE(domains[0].spec.sched.backfill);
}

TEST(ConfigIo, ErrorsCarryLineNumbers) {
  try {
    parse("[domain x]\ncapacity = 10\nbogus = 1\n");
    FAIL() << "expected ParseError";
  } catch (const ParseError& e) {
    EXPECT_NE(std::string(e.what()).find("line 3"), std::string::npos);
  }
}

TEST(ConfigIo, RejectsKeyOutsideSection) {
  EXPECT_THROW(parse("capacity = 10\n"), ParseError);
}

TEST(ConfigIo, RejectsBadSectionHeader) {
  EXPECT_THROW(parse("[cluster x]\n"), ParseError);
  EXPECT_THROW(parse("[domain x\n"), ParseError);
  EXPECT_THROW(parse("[domain]\n"), ParseError);
}

TEST(ConfigIo, RejectsMissingCapacity) {
  EXPECT_THROW(parse("[domain x]\npolicy = fcfs\n"), ParseError);
}

TEST(ConfigIo, RejectsBadValues) {
  EXPECT_THROW(parse("[domain x]\ncapacity = ten\n"), ParseError);
  EXPECT_THROW(parse("[domain x]\ncapacity = 10\npolicy = magic\n"),
               ParseError);
  EXPECT_THROW(parse("[domain x]\ncapacity = 10\nscheme = maybe\n"),
               ParseError);
  EXPECT_THROW(parse("[domain x]\ncapacity = 10\nenabled = sometimes\n"),
               ParseError);
  // Out of range or not finite: strto* would clamp these silently.
  const auto parse_key = [](const std::string& line) {
    return parse("[domain x]\ncapacity = 10\n" + line + "\n");
  };
  EXPECT_THROW(parse_key("capacity = 99999999999999999999"), ParseError);
  EXPECT_THROW(parse_key("max-hold-fraction = 1e999"), ParseError);
  EXPECT_THROW(parse_key("max-hold-fraction = -1e999"), ParseError);
  EXPECT_THROW(parse_key("max-hold-fraction = 1e-999"), ParseError);
  EXPECT_THROW(parse_key("max-hold-fraction = inf"), ParseError);
  EXPECT_THROW(parse_key("yield-boost = nan"), ParseError);
}

TEST(ConfigIo, MissingFileThrows) {
  EXPECT_THROW(read_domain_configs("/no/such/config.conf"), Error);
}

// End-to-end: parse a config, materialize synth traces, run the coupled
// simulation — the cosched_sim CLI path without the process boundary.
TEST(ConfigIo, ConfigDrivesACoupledSimulation) {
  const auto domains = parse(R"(
[domain compute]
capacity = 512
policy = wfp
scheme = hold
trace = synth:intrepid?load=0.4&days=2&seed=5

[domain viz]
capacity = 100
policy = wfp
scheme = yield
backfill = conservative
trace = synth:eureka?load=0.3&days=2&seed=6
)");
  std::vector<DomainSpec> specs;
  std::vector<Trace> traces;
  for (const DomainConfig& c : domains) {
    specs.push_back(c.spec);
    traces.push_back(load_trace_source(c.trace_source, c.spec));
    traces.back().validate(c.spec.capacity);
  }
  CoupledSim sim(specs, traces);
  const SimResult r = sim.run(60 * kDay);
  EXPECT_TRUE(r.completed);
  EXPECT_EQ(r.systems[0].jobs_finished, traces[0].size());
  EXPECT_EQ(r.systems[1].jobs_finished, traces[1].size());
}

TEST(TraceSource, SynthSpecGenerates) {
  DomainSpec spec;
  spec.name = "viz";
  spec.capacity = 100;
  const Trace t =
      load_trace_source("synth:eureka?load=0.4&days=5&seed=9", spec);
  EXPECT_GT(t.size(), 10u);
  EXPECT_NO_THROW(t.validate(100));
  EXPECT_NEAR(t.stats().offered_load(100), 0.4, 0.05);
}

TEST(TraceSource, SynthRescalesToDomainCapacity) {
  DomainSpec spec;
  spec.name = "small-viz";
  spec.capacity = 32;  // smaller than the eureka model's 100
  const Trace t = load_trace_source("synth:eureka?days=3", spec);
  EXPECT_NO_THROW(t.validate(32));
}

TEST(TraceSource, EmptySourceIsEmptyTrace) {
  DomainSpec spec;
  spec.capacity = 10;
  EXPECT_TRUE(load_trace_source("", spec).empty());
}

TEST(TraceSource, BadSynthSpecsThrow) {
  DomainSpec spec;
  spec.capacity = 100;
  EXPECT_THROW(load_trace_source("synth:unknown", spec), ParseError);
  EXPECT_THROW(load_trace_source("synth:eureka?load", spec), ParseError);
  EXPECT_THROW(load_trace_source("synth:eureka?load=1e999", spec), ParseError);
  EXPECT_THROW(load_trace_source("synth:eureka?load=inf", spec), ParseError);
  for (const char* bad :
       {"synth:eureka?load=abc", "synth:eureka?load=0.4x",
        "synth:eureka?load=0", "synth:eureka?days=abc", "synth:eureka?days=5x",
        "synth:eureka?days=-1", "synth:eureka?days=0",
        "synth:eureka?days=99999999999999999999", "synth:eureka?jobs=-5",
        "synth:eureka?jobs=12x", "synth:eureka?seed=-1",
        "synth:eureka?seed=x", "synth:eureka?load=0.4&dayz=5"}) {
    EXPECT_THROW(load_trace_source(bad, spec), ParseError) << bad;
  }
}

TEST(TraceSource, SwfPathLoadsFile) {
  const std::string path = ::testing::TempDir() + "/config_io_trace.swf";
  {
    std::ofstream out(path);
    out << "1 100 -1 3600 8 -1 -1 8 7200\n";
  }
  DomainSpec spec;
  spec.name = "x";
  spec.capacity = 100;
  const Trace t = load_trace_source(path, spec);
  ASSERT_EQ(t.size(), 1u);
  EXPECT_EQ(t.jobs()[0].nodes, 8);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace cosched
