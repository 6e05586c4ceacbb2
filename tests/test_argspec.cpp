// The shared CLI flag table: one ArgSpec declaration per flag drives
// parsing (both "--name value" and "--name=value"), the rendered help
// text, and unknown-flag diagnostics with near-miss suggestions — plus the
// ScenarioRegistry's matching suggest() behavior for unknown scenario
// operands.
#include "runner/argspec.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <stdexcept>
#include <string>
#include <vector>

#include "analysis/scenarios.hpp"

namespace mcan {
namespace {

using runner::ArgTable;

/// A mutable argv for extract_argv tests (argv strings must be writable).
struct Argv {
  explicit Argv(std::vector<std::string> args) : storage(std::move(args)) {
    for (auto& s : storage) ptrs.push_back(s.data());
    ptrs.push_back(nullptr);
    argc = static_cast<int>(storage.size());
  }
  std::vector<std::string> storage;
  std::vector<char*> ptrs;
  int argc{};
};

TEST(ArgTable, ValueFlagsAcceptSpaceAndEqualsForms) {
  std::uint64_t jobs = 0;
  std::string report;
  ArgTable table;
  table.u64("--jobs", "N", "worker threads", &jobs)
      .str("--report", "PATH", "write report", &report);

  auto rest = table.parse({"--jobs", "8", "--report=out.json", "exp2"});
  EXPECT_EQ(jobs, 8u);
  EXPECT_EQ(report, "out.json");
  ASSERT_EQ(rest.size(), 1u);
  EXPECT_EQ(rest[0], "exp2");

  rest = table.parse({"--jobs=3", "--report", "b.json"});
  EXPECT_EQ(jobs, 3u);
  EXPECT_EQ(report, "b.json");
  EXPECT_TRUE(rest.empty());
}

TEST(ArgTable, PositionalOperandsSurviveInOrder) {
  bool progress = false;
  ArgTable table;
  table.flag("--progress", "narrate", &progress);
  const auto rest = table.parse({"one", "--progress", "two", "three"});
  EXPECT_TRUE(progress);
  EXPECT_EQ(rest, (std::vector<std::string>{"one", "two", "three"}));
}

TEST(ArgTable, UnknownDashArgumentThrowsWithNearMiss) {
  std::uint64_t jobs = 0;
  ArgTable table;
  table.u64("--jobs", "N", "worker threads", &jobs);
  try {
    table.parse({"--jbos", "4"}, ArgTable::Unknown::Reject, "campaign");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("campaign"), std::string::npos) << msg;
    EXPECT_NE(msg.find("--jbos"), std::string::npos) << msg;
    EXPECT_NE(msg.find("did you mean --jobs?"), std::string::npos) << msg;
  }
}

TEST(ArgTable, FarFetchedUnknownGetsNoSuggestion) {
  std::uint64_t jobs = 0;
  ArgTable table;
  table.u64("--jobs", "N", "worker threads", &jobs);
  try {
    table.parse({"--completely-unrelated"});
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string msg = e.what();
    EXPECT_EQ(msg.find("did you mean"), std::string::npos) << msg;
  }
}

TEST(ArgTable, KeepPolicyPassesUnknownsThroughInOrder) {
  bool progress = false;
  ArgTable table;
  table.flag("--progress", "narrate", &progress);
  const auto rest = table.parse({"--benchmark_filter=x", "--progress", "pos"},
                                ArgTable::Unknown::Keep);
  EXPECT_TRUE(progress);
  EXPECT_EQ(rest, (std::vector<std::string>{"--benchmark_filter=x", "pos"}));
}

TEST(ArgTable, BooleanFlagsMatchExactNameOnly) {
  bool progress = false;
  ArgTable table;
  table.flag("--progress", "narrate", &progress);
  // "--progress=x" must not half-match the boolean flag; it is diagnosed
  // as unknown (with the flag itself as the suggestion).
  try {
    table.parse({"--progress=x"});
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_FALSE(progress);
    EXPECT_NE(std::string{e.what()}.find("--progress"), std::string::npos);
  }
}

TEST(ArgTable, NoFlagVariantAssignsFalse) {
  bool fast_path = true;
  ArgTable table;
  table.flag("--no-fast-path", "pin the naive kernel", &fast_path, false);
  EXPECT_TRUE(table.parse({"--no-fast-path"}).empty());
  EXPECT_FALSE(fast_path);
}

TEST(ArgTable, MissingValueAndBadNumbersThrow) {
  std::uint64_t seed = 0;
  int cases = 0;
  ArgTable table;
  table.u64("--base-seed", "N", "root seed", &seed)
      .int_in("--cases", "N", "fuzz cases", 1, 100, &cases);

  EXPECT_THROW(table.parse({"--base-seed"}), std::invalid_argument);
  EXPECT_THROW(table.parse({"--base-seed", "12abc"}), std::invalid_argument);
  EXPECT_THROW(table.parse({"--cases", "0"}), std::invalid_argument);
  EXPECT_THROW(table.parse({"--cases", "101"}), std::invalid_argument);
  EXPECT_THROW(table.parse({"--cases=x"}), std::invalid_argument);
  EXPECT_NO_THROW(table.parse({"--cases", "100"}));
  EXPECT_EQ(cases, 100);
}

TEST(ArgTable, UsageAndHelpNameEveryFlag) {
  std::uint64_t jobs = 0;
  bool progress = false;
  ArgTable table;
  table.u64("--jobs", "N", "worker threads (0 = hardware)", &jobs)
      .flag("--progress", "narrate per-task progress", &progress);

  EXPECT_EQ(table.usage(), "[--jobs N] [--progress]");
  const std::string help = table.help_text();
  EXPECT_NE(help.find("--jobs N"), std::string::npos);
  EXPECT_NE(help.find("worker threads (0 = hardware)"), std::string::npos);
  EXPECT_NE(help.find("--progress"), std::string::npos);
  EXPECT_NE(help.find("narrate per-task progress"), std::string::npos);
}

TEST(ArgTable, ExtractArgvConsumesFlagsAndCompacts) {
  std::uint64_t jobs = 0;
  bool progress = false;
  ArgTable table;
  table.u64("--jobs", "N", "worker threads", &jobs)
      .flag("--progress", "narrate", &progress);

  Argv a{{"prog", "--jobs", "4", "campaign", "--progress", "exp2",
          "--unknown"}};
  table.extract_argv(a.argc, a.ptrs.data());
  EXPECT_EQ(jobs, 4u);
  EXPECT_TRUE(progress);
  ASSERT_EQ(a.argc, 4);
  EXPECT_STREQ(a.ptrs[0], "prog");
  EXPECT_STREQ(a.ptrs[1], "campaign");
  EXPECT_STREQ(a.ptrs[2], "exp2");
  EXPECT_STREQ(a.ptrs[3], "--unknown");
  EXPECT_EQ(a.ptrs[4], nullptr);
}

TEST(ParseHelpers, NameTheOffendingFlag) {
  EXPECT_EQ(runner::parse_u64_arg("42", "--seeds"), 42u);
  try {
    (void)runner::parse_u64_arg("4x", "--seeds");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string{e.what()}.find("--seeds"), std::string::npos);
  }
  try {
    (void)runner::parse_int_arg("9", 1, 8, "--shards");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string{e.what()}.find("--shards"), std::string::npos);
  }
}

TEST(ParseHelpers, RejectSignsAndWhitespace) {
  // Regression: std::stoull accepts "-1" (wrapping to 2^64-1), "+1", and
  // leading whitespace.  parse_u64_arg must take plain digits only.
  EXPECT_EQ(runner::parse_u64_arg("0", "--seeds"), 0u);
  EXPECT_EQ(runner::parse_u64_arg("18446744073709551615", "--seeds"),
            18446744073709551615ull);
  for (const char* bad : {"-1", "+1", " 1", "1 ", "\t7", "", "0x10"}) {
    EXPECT_THROW((void)runner::parse_u64_arg(bad, "--seeds"),
                 std::invalid_argument)
        << "input: '" << bad << "'";
  }
}

TEST(ParseHelpers, DoubleMustBeWholeAndFinite) {
  // Regression: CLI numbers went through std::atof, which reads "xyz" as 0
  // and "12ms" as 12.  parse_double_arg takes the whole string or throws.
  EXPECT_EQ(runner::parse_double_arg("1248", "bits"), 1248.0);
  EXPECT_EQ(runner::parse_double_arg("1e-4", "--bers rate"), 1e-4);
  EXPECT_EQ(runner::parse_double_arg("-2.5", "x"), -2.5);
  EXPECT_EQ(runner::parse_double_arg("0", "x"), 0.0);
  for (const char* bad : {"", "xyz", "12ms", "1.5.2", " 1", "1 ", "+1",
                          "1,5", "0x10", "inf", "-inf", "nan", "1e999",
                          "--1", "."}) {
    EXPECT_THROW((void)runner::parse_double_arg(bad, "bits"),
                 std::invalid_argument)
        << "input: '" << bad << "'";
  }
  try {
    (void)runner::parse_double_arg("xyz", "attack_blocking_bits");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("attack_blocking_bits"), std::string::npos) << msg;
    EXPECT_NE(msg.find("xyz"), std::string::npos) << msg;
  }
}

TEST(ScenarioSuggestions, TyposAndPrefixesResolveToNearMisses) {
  const auto& reg = analysis::ScenarioRegistry::built_in();
  {
    const auto s = reg.suggest("exp2x");
    ASSERT_FALSE(s.empty());
    EXPECT_NE(std::find(s.begin(), s.end(), "exp2"), s.end());
  }
  {
    const auto s = reg.suggest("gw-spof");
    ASSERT_FALSE(s.empty());
    EXPECT_EQ(s.front(), "gw-spoof");
  }
  EXPECT_TRUE(reg.suggest("zzzzzzzzzz").empty());
}

TEST(ScenarioSuggestions, MakeErrorNamesTheNearMiss) {
  const auto& reg = analysis::ScenarioRegistry::built_in();
  try {
    (void)reg.make("gw-spof");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("gw-spof"), std::string::npos) << msg;
    EXPECT_NE(msg.find("gw-spoof"), std::string::npos) << msg;
  }
}

}  // namespace
}  // namespace mcan
