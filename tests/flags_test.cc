// Tests for the command-line parser behind the piperisk tool.

#include <gtest/gtest.h>

#include <string>

#include "common/flags.h"

namespace piperisk {
namespace {

CommandLine MustParse(std::vector<const char*> argv) {
  auto cl = CommandLine::Parse(static_cast<int>(argv.size()), argv.data());
  EXPECT_TRUE(cl.ok());
  return *cl;
}

TEST(CommandLineTest, CommandAndPositionals) {
  auto cl = MustParse({"fit", "extra1", "extra2"});
  EXPECT_EQ(cl.command(), "fit");
  ASSERT_EQ(cl.positionals().size(), 2u);
  EXPECT_EQ(cl.positionals()[0], "extra1");
}

TEST(CommandLineTest, SpaceAndEqualsForms) {
  auto cl = MustParse({"fit", "--model", "dpmhbp", "--burn=40"});
  EXPECT_EQ(cl.GetString("model", ""), "dpmhbp");
  EXPECT_EQ(*cl.GetInt("burn", 0), 40);
}

TEST(CommandLineTest, BooleanSwitch) {
  auto cl = MustParse({"compare", "--extended", "--data", "x"});
  EXPECT_TRUE(cl.GetBool("extended", false));
  EXPECT_EQ(cl.GetString("data", ""), "x");
  EXPECT_FALSE(cl.GetBool("absent", false));
  EXPECT_TRUE(cl.GetBool("absent", true));
}

TEST(CommandLineTest, TrailingSwitch) {
  auto cl = MustParse({"compare", "--verbose"});
  EXPECT_TRUE(cl.GetBool("verbose", false));
}

TEST(CommandLineTest, TypedGetters) {
  auto cl = MustParse({"x", "--rate", "0.25", "--count", "7"});
  EXPECT_DOUBLE_EQ(*cl.GetDouble("rate", 0.0), 0.25);
  EXPECT_EQ(*cl.GetInt("count", 0), 7);
  EXPECT_DOUBLE_EQ(*cl.GetDouble("missing", 1.5), 1.5);
  EXPECT_EQ(*cl.GetInt("missing", -3), -3);
}

TEST(CommandLineTest, TypedGetterRejectsGarbage) {
  auto cl = MustParse({"x", "--rate", "fast"});
  EXPECT_FALSE(cl.GetDouble("rate", 0.0).ok());
  EXPECT_FALSE(cl.GetInt("rate", 0).ok());
}

TEST(CommandLineTest, GetInt32RejectsValuesOutsideIntRange) {
  auto cl = MustParse({"x", "--pipes", "4294967297", "--regions",
                       "-2147483649", "--max", "2147483647", "--min",
                       "-2147483648", "--rate", "fast"});
  auto pipes = cl.GetInt32("pipes", 0);
  ASSERT_FALSE(pipes.ok());
  EXPECT_EQ(pipes.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(pipes.status().message().find("--pipes"), std::string::npos);
  EXPECT_FALSE(cl.GetInt32("regions", 0).ok());
  EXPECT_EQ(*cl.GetInt32("max", 0), 2147483647);
  EXPECT_EQ(*cl.GetInt32("min", 0), -2147483647 - 1);
  EXPECT_EQ(*cl.GetInt32("missing", 7), 7);
  EXPECT_FALSE(cl.GetInt32("rate", 0).ok());
}

TEST(CommandLineTest, RejectsBareDoubleDash) {
  const char* argv[] = {"cmd", "--"};
  EXPECT_FALSE(CommandLine::Parse(2, argv).ok());
}

TEST(CommandLineTest, UnknownFlags) {
  auto cl = MustParse({"fit", "--model", "cox", "--tpyo", "1"});
  auto unknown = cl.UnknownFlags({"model", "data", "out"});
  ASSERT_EQ(unknown.size(), 1u);
  EXPECT_EQ(unknown[0], "tpyo");
}

TEST(CommandLineTest, HasAndEmptyParse) {
  auto cl = MustParse({});
  EXPECT_EQ(cl.command(), "");
  EXPECT_FALSE(cl.Has("anything"));
}

}  // namespace
}  // namespace piperisk
