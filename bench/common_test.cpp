// The harness's environment settings (unset or empty keeps the default,
// anything else must parse in full or the bench fails naming the variable),
// the worker pool's failure report, the series runner's aggregation and
// stall report, and the chaos runner's shared aggregation and gate.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "common.h"
#include "util/error.h"

namespace cosched::bench {
namespace {

/// The message a rejected value throws, or "" if it parsed.
template <class Parse>
std::string rejection(Parse parse) {
  try {
    parse();
  } catch (const Error& e) {
    return e.what();
  }
  return "";
}

TEST(BenchSettings, UnsetOrEmptyKeepsTheDefault) {
  EXPECT_EQ(positive_int_setting("COSCHED_BENCH_RUNS", nullptr, 3), 3);
  EXPECT_EQ(positive_int_setting("COSCHED_BENCH_RUNS", "", 3), 3);
  EXPECT_EQ(positive_real_setting("COSCHED_BENCH_SCALE", nullptr, 1.0), 1.0);
  EXPECT_EQ(positive_real_setting("COSCHED_BENCH_SCALE", "", 1.0), 1.0);
}

TEST(BenchSettings, WholePositiveNumbersParse) {
  EXPECT_EQ(positive_int_setting("COSCHED_BENCH_RUNS", "10", 3), 10);
  EXPECT_EQ(positive_int_setting("COSCHED_BENCH_THREADS", "1", 4), 1);
  EXPECT_EQ(positive_real_setting("COSCHED_BENCH_SCALE", "0.03", 1.0), 0.03);
  EXPECT_EQ(positive_real_setting("COSCHED_BENCH_SCALE", "2", 1.0), 2.0);
  EXPECT_EQ(positive_real_setting("COSCHED_BENCH_SCALE", "5e-2", 1.0), 0.05);
}

TEST(BenchSettings, MalformedCountsNameTheVariableAndValue) {
  for (const char* bad : {"ten", "-2", "0", "3x", " 3", "3 ", "1.5", "+4",
                          "99999999999"}) {
    const std::string what = rejection(
        [&] { positive_int_setting("COSCHED_BENCH_THREADS", bad, 4); });
    EXPECT_NE(what.find("COSCHED_BENCH_THREADS"), std::string::npos) << bad;
    EXPECT_NE(what.find(std::string("'") + bad + "'"), std::string::npos)
        << what;
  }
}

TEST(BenchSettings, MalformedScalesNameTheVariableAndValue) {
  for (const char* bad :
       {"0,05", "0", "-1", "inf", "nan", "1e999", "0.5x", "x0.5", " 1"}) {
    const std::string what = rejection(
        [&] { positive_real_setting("COSCHED_BENCH_SCALE", bad, 1.0); });
    EXPECT_NE(what.find("COSCHED_BENCH_SCALE"), std::string::npos) << bad;
    EXPECT_NE(what.find(std::string("'") + bad + "'"), std::string::npos)
        << what;
  }
}

TEST(BenchSettings, AccessorsReadTheEnvironment) {
  setenv("COSCHED_BENCH_RUNS", "ten", 1);
  EXPECT_THROW(runs(), Error);
  setenv("COSCHED_BENCH_RUNS", "7", 1);
  EXPECT_EQ(runs(), 7);
  unsetenv("COSCHED_BENCH_RUNS");
  EXPECT_EQ(runs(), 3);

  setenv("COSCHED_BENCH_SCALE", "0,05", 1);
  EXPECT_THROW(scale(), Error);
  setenv("COSCHED_BENCH_SCALE", "0.03", 1);
  EXPECT_EQ(scale(), 0.03);
  unsetenv("COSCHED_BENCH_SCALE");
  EXPECT_EQ(scale(), 1.0);

  setenv("COSCHED_BENCH_THREADS", "-2", 1);
  EXPECT_THROW(threads(), Error);
  setenv("COSCHED_BENCH_THREADS", "", 1);
  EXPECT_EQ(threads(), hardware_cpus());
  unsetenv("COSCHED_BENCH_THREADS");
}

/// The figures' smoke setting, about 5 ms per (series, seed) case, for the
/// scope of one test.
struct SmokeScale {
  SmokeScale() {
    setenv("COSCHED_BENCH_SCALE", "0.05", 1);
    setenv("COSCHED_BENCH_RUNS", "2", 1);
  }
  ~SmokeScale() {
    unsetenv("COSCHED_BENCH_SCALE");
    unsetenv("COSCHED_BENCH_RUNS");
    unsetenv("COSCHED_BENCH_THREADS");
  }
};

void expect_same_series(const Series& a, const Series& b) {
  for (RunningStats Series::*m :
       {&Series::intrepid_wait, &Series::eureka_wait, &Series::intrepid_slow,
        &Series::eureka_slow, &Series::intrepid_sync, &Series::eureka_sync,
        &Series::intrepid_loss_nh, &Series::eureka_loss_nh,
        &Series::intrepid_loss_frac, &Series::eureka_loss_frac,
        &Series::paired_fraction}) {
    EXPECT_EQ((a.*m).count(), (b.*m).count());
    EXPECT_EQ((a.*m).mean(), (b.*m).mean());
    EXPECT_EQ((a.*m).stddev(), (b.*m).stddev());
  }
  EXPECT_EQ(a.pairs_total, b.pairs_total);
  EXPECT_EQ(a.pairs_synced, b.pairs_synced);
  EXPECT_EQ(a.events, b.events);
}

TEST(ParallelFor, StopsAtTheFirstFailureAndRethrowsTheLowestIndex) {
  setenv("COSCHED_BENCH_THREADS", "4", 1);
  // Indices 5 and 9 fail; the rest take 1 ms, so either failure can come
  // first by time.  Index 5 goes out before 9, so it always runs and wins.
  const auto task = [](std::size_t i) {
    if (i == 5 || i == 9) throw Error("task " + std::to_string(i));
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  };
  for (int rep = 0; rep < 20; ++rep)
    EXPECT_EQ(rejection([&] { parallel_for(64, task); }), "task 5") << rep;

  // After index 0 fails, no worker takes another index: at most the three
  // running beside it and one more each finish.
  std::atomic<int> started{0};
  const std::string what = rejection([&] {
    parallel_for(64, [&started](std::size_t i) {
      ++started;
      if (i == 0) throw Error("task 0");
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    });
  });
  unsetenv("COSCHED_BENCH_THREADS");
  EXPECT_EQ(what, "task 0");
  EXPECT_LE(started.load(), 8);
}

TEST(RunSeries, OneSeriesPerSpecInInputOrderWhateverTheThreadCount) {
  const SmokeScale smoke;
  const std::vector<SeriesSpec> specs = {{true, 0.25, kHY, true},
                                         {false, 0.05, kYY, true},
                                         {true, 0.75, kHH, false},
                                         {true, 0.25, kHY, true}};
  setenv("COSCHED_BENCH_THREADS", "1", 1);
  const std::vector<Series> serial = run_series(specs);
  setenv("COSCHED_BENCH_THREADS", "4", 1);
  const std::vector<Series> parallel = run_series(specs);

  ASSERT_EQ(serial.size(), specs.size());
  ASSERT_EQ(parallel.size(), specs.size());
  for (std::size_t i = 0; i < specs.size(); ++i) {
    SCOPED_TRACE(series_label(specs[i]));
    EXPECT_EQ(parallel[i].intrepid_wait.count(), 2u);
    expect_same_series(serial[i], parallel[i]);
    // In input order: each series equals the one it gives on its own.
    expect_same_series(run_series({specs[i]}).front(), parallel[i]);
  }
  EXPECT_NE(parallel[0].events, parallel[1].events);
}

TEST(RunSeries, AStalledCaseNamesItsSeriesAndSeed) {
  // Hold-hold without the periodic release: seed 1 completes, seed 1001
  // deadlocks.
  const SmokeScale smoke;
  SeriesSpec spec{false, 0.20, kHH, true};
  spec.tweak.hold_release_period = 0;
  const std::string what = rejection([&] { run_series({spec}); });
  EXPECT_NE(what.find("prop=20.0%/HH/rel=0s"), std::string::npos) << what;
  EXPECT_NE(what.find("seed 1001"), std::string::npos) << what;
  EXPECT_EQ(what.find("seed 1:"), std::string::npos) << what;
}

/// Two cases, a sample `x`, a plain count and one family gate count.
ChaosFamily fake_family() {
  ChaosFamily f;
  f.bench = "fake";
  f.cases = {"a", "b"};
  f.min_seeds = 2;
  f.samples = {"x"};
  f.counts = {"crashes"};
  f.gate = {"silent_loss"};
  return f;
}

TEST(ChaosGate, SeedsAddUpToTheStatsOfTheirSamplesAndTheSumOfTheirCounts) {
  setenv("COSCHED_BENCH_RUNS", "1", 1);  // min_seeds wins: two seeds
  ChaosFamily f = fake_family();
  f.run = [](std::size_t c, std::uint64_t seed) {
    ChaosRun r;
    r.sample("x", c == 0 ? 1.0 + 2.0 * static_cast<double>(seed) : 10.0);
    r.count("crashes", 3 + seed);
    r.count("silent_loss", 0);
    r.events = 100;
    return r;
  };
  const std::vector<ChaosCase> cases = run_chaos(f);
  unsetenv("COSCHED_BENCH_RUNS");

  ASSERT_EQ(cases.size(), 2u);
  RunningStats expect;
  expect.add(1.0);
  expect.add(3.0);
  EXPECT_EQ(cases[0].samples[0].count(), 2u);
  EXPECT_EQ(cases[0].samples[0].mean(), expect.mean());
  EXPECT_EQ(cases[0].samples[0].stddev(), expect.stddev());
  EXPECT_EQ(cases[0].counts,
            (std::vector<std::size_t>{7, 0, 0, 0}));  // crashes 3 + 4
  EXPECT_EQ(cases[0].events, 200u);
  EXPECT_EQ(cases[1].samples[0].mean(), 10.0);
  EXPECT_EQ(cases[1].samples[0].stddev(), 0.0);
}

TEST(ChaosGate, UndeclaredNamesThrow) {
  ChaosFamily f = fake_family();
  f.run = [](std::size_t, std::uint64_t) {
    ChaosRun r;
    r.count("silent_losses");
    return r;
  };
  const std::string what = rejection([&] { run_chaos(f); });
  EXPECT_NE(what.find("silent_losses"), std::string::npos) << what;
}

TEST(ChaosGate, AnyNonzeroGateCountFailsNamingTheCaseAndCounter) {
  const ChaosFamily f = fake_family();
  const std::vector<std::string> names = f.count_names();
  ASSERT_EQ(names, (std::vector<std::string>{"crashes", "invariant_violations",
                                             "incomplete", "silent_loss"}));
  // A nonzero plain count does not gate.
  const std::vector<ChaosCase> passing(
      2, ChaosCase{{RunningStats{}}, {5, 0, 0, 0}});
  EXPECT_EQ(chaos_gate_failures(f, passing), "");
  for (std::size_t k = 1; k < names.size(); ++k) {
    std::vector<ChaosCase> failing = passing;
    failing[1].counts[k] = 2;
    const std::string what = chaos_gate_failures(f, failing);
    EXPECT_NE(what.find("case b: " + names[k] + " = 2"), std::string::npos)
        << what;
    EXPECT_EQ(what.find("case a"), std::string::npos) << what;
  }
}

}  // namespace
}  // namespace cosched::bench
