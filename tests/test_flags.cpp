#include "util/flags.h"

#include <gtest/gtest.h>

#include <cstdint>

#include "util/error.h"

namespace cosched {
namespace {

Flags make_flags() {
  Flags f;
  f.define("runs", "3", "number of runs");
  f.define("load", "0.5", "offered load");
  f.define("verbose", "false", "chatty output");
  f.define("name", "eureka", "system name");
  return f;
}

std::vector<std::string> parse(Flags& f, std::vector<const char*> argv) {
  argv.insert(argv.begin(), "prog");
  return f.parse(static_cast<int>(argv.size()), argv.data());
}

TEST(Flags, Defaults) {
  Flags f = make_flags();
  parse(f, {});
  EXPECT_EQ(f.get_int("runs"), 3);
  EXPECT_DOUBLE_EQ(f.get_double("load"), 0.5);
  EXPECT_FALSE(f.get_bool("verbose"));
  EXPECT_EQ(f.get("name"), "eureka");
  EXPECT_FALSE(f.provided("runs"));
}

TEST(Flags, EqualsSyntax) {
  Flags f = make_flags();
  parse(f, {"--runs=10", "--load=0.75"});
  EXPECT_EQ(f.get_int("runs"), 10);
  EXPECT_DOUBLE_EQ(f.get_double("load"), 0.75);
  EXPECT_TRUE(f.provided("runs"));
}

TEST(Flags, SpaceSyntax) {
  Flags f = make_flags();
  parse(f, {"--name", "intrepid"});
  EXPECT_EQ(f.get("name"), "intrepid");
}

TEST(Flags, BoolImplicitTrueAndNegation) {
  {
    Flags f = make_flags();
    parse(f, {"--verbose"});
    EXPECT_TRUE(f.get_bool("verbose"));
  }
  {
    Flags f = make_flags();
    parse(f, {"--verbose", "--no-verbose"});
    EXPECT_FALSE(f.get_bool("verbose"));
  }
}

TEST(Flags, PositionalArguments) {
  Flags f = make_flags();
  const auto pos = parse(f, {"trace.swf", "--runs=2", "out.csv"});
  ASSERT_EQ(pos.size(), 2u);
  EXPECT_EQ(pos[0], "trace.swf");
  EXPECT_EQ(pos[1], "out.csv");
}

TEST(Flags, UnknownFlagThrows) {
  Flags f = make_flags();
  EXPECT_THROW(parse(f, {"--bogus=1"}), ParseError);
}

TEST(Flags, MissingValueThrows) {
  Flags f = make_flags();
  EXPECT_THROW(parse(f, {"--name"}), ParseError);
}

TEST(Flags, TypeErrorsThrow) {
  Flags f = make_flags();
  parse(f, {"--name=abc"});
  EXPECT_THROW(f.get_int("name"), ParseError);
  EXPECT_THROW(f.get_bool("name"), ParseError);

  // Out of range or not finite: strto* would clamp these silently.
  const auto int_of = [](const char* arg) {
    Flags g = make_flags();
    parse(g, {arg});
    return g.get_int("runs");
  };
  const auto double_of = [](const char* arg) {
    Flags g = make_flags();
    parse(g, {arg});
    return g.get_double("load");
  };
  EXPECT_THROW(int_of("--runs=99999999999999999999"), ParseError);
  EXPECT_THROW(int_of("--runs=-99999999999999999999"), ParseError);
  EXPECT_THROW(double_of("--load=1e999"), ParseError);
  EXPECT_THROW(double_of("--load=-1e999"), ParseError);
  EXPECT_THROW(double_of("--load=1e-999"), ParseError);
  EXPECT_THROW(double_of("--load=inf"), ParseError);
  EXPECT_THROW(double_of("--load=nan"), ParseError);
  EXPECT_EQ(int_of("--runs=9223372036854775807"), INT64_MAX);
  EXPECT_DOUBLE_EQ(double_of("--load=1e308"), 1e308);
}

TEST(Flags, UsageListsFlags) {
  Flags f = make_flags();
  const std::string u = f.usage("prog");
  EXPECT_NE(u.find("--runs"), std::string::npos);
  EXPECT_NE(u.find("number of runs"), std::string::npos);
}

}  // namespace
}  // namespace cosched
