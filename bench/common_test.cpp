// The harness's environment settings: unset or empty keeps the default,
// anything else must parse in full or the bench fails naming the variable.
#include <gtest/gtest.h>

#include <cstdlib>
#include <string>

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

}  // namespace
}  // namespace cosched::bench
