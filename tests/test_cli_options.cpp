// Tests for the strict CLI option parser used by the cold tools.
#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "util/cli_options.h"

namespace cold {
namespace {

CliOptions demo_options() {
  return {"demo",
          {{"pops", true, "N"},
           {"out", true, "FILE"},
           {"progress", false, "flag"}}};
}

void parse(CliOptions& options, std::vector<const char*> argv) {
  argv.insert(argv.begin(), {"cold", "demo"});
  options.parse(static_cast<int>(argv.size()), argv.data(), 2);
}

TEST(CliOptions, ParsesValuesAndFlags) {
  CliOptions options = demo_options();
  parse(options, {"--pops", "30", "--progress", "--out=x.json"});
  EXPECT_TRUE(options.has("pops"));
  EXPECT_EQ(options.num("pops", 0), 30.0);
  EXPECT_EQ(options.uint("pops", 0), 30u);
  EXPECT_TRUE(options.has("progress"));
  EXPECT_EQ(options.get("out", ""), "x.json");
}

TEST(CliOptions, FallbacksWhenAbsent) {
  CliOptions options = demo_options();
  parse(options, {});
  EXPECT_FALSE(options.has("pops"));
  EXPECT_EQ(options.num("pops", 42.5), 42.5);
  EXPECT_EQ(options.get("out", "fallback"), "fallback");
}

TEST(CliOptions, RejectsUnknownOptionListingValidOnes) {
  CliOptions options = demo_options();
  try {
    parse(options, {"--bogus", "1"});
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string message = e.what();
    EXPECT_NE(message.find("--bogus"), std::string::npos);
    EXPECT_NE(message.find("'demo'"), std::string::npos);
    EXPECT_NE(message.find("--pops"), std::string::npos);
    EXPECT_NE(message.find("--progress"), std::string::npos);
  }
}

TEST(CliOptions, RejectsMissingValue) {
  CliOptions options = demo_options();
  EXPECT_THROW(parse(options, {"--pops"}), std::invalid_argument);
}

TEST(CliOptions, RejectsValueOnFlag) {
  CliOptions options = demo_options();
  EXPECT_THROW(parse(options, {"--progress=yes"}), std::invalid_argument);
}

TEST(CliOptions, RejectsPositionalArguments) {
  CliOptions options = demo_options();
  EXPECT_THROW(parse(options, {"stray"}), std::invalid_argument);
}

TEST(CliOptions, RejectsMalformedNumbers) {
  CliOptions options = demo_options();
  parse(options, {"--pops", "12abc"});
  EXPECT_THROW(options.num("pops", 0), std::invalid_argument);
  // num takes one finite decimal number and nothing else: no padding, sign
  // prefix, hex float, NaN, infinity or overflow.
  for (const char* bad :
       {" 10", "10 ", "+3", "0x1p3", "0x10", "nan", "NaN", "-nan", "inf",
        "-inf", "infinity", "1e400", "", "1e", "--2"}) {
    CliOptions options = demo_options();
    parse(options, {"--pops", bad});
    EXPECT_THROW(options.num("pops", 0), std::invalid_argument)
        << "'" << bad << "'";
  }
  for (const auto& [text, value] :
       std::vector<std::pair<const char*, double>>{
           {"4e-4", 4e-4}, {"1E3", 1000.0}, {".5", 0.5}, {"-2.25", -2.25}}) {
    CliOptions options = demo_options();
    parse(options, {"--pops", text});
    EXPECT_EQ(options.num("pops", 0), value) << text;
  }
  CliOptions negative = demo_options();
  parse(negative, {"--pops", "-3"});
  EXPECT_THROW(negative.uint("pops", 0), std::invalid_argument);
  EXPECT_EQ(negative.num("pops", 0), -3.0);  // num itself allows negatives
  // uint takes plain decimal digits only: no fraction, NaN, sign, exponent,
  // padding or hex, nothing empty, nothing past UINT64_MAX.
  for (const char* bad :
       {"6.9", "6.0", "nan", "NaN", "inf", "+3", "-0", "1e3", "1E3", "",
        " 7", "7 ", "0x10", "18446744073709551616",
        "99999999999999999999999"}) {
    CliOptions options = demo_options();
    parse(options, {"--pops", bad});
    EXPECT_THROW(options.uint("pops", 0), std::invalid_argument)
        << "'" << bad << "'";
  }
}

TEST(CliOptions, UintParsesTheFullUint64RangeExactly) {
  // 2^53 + 1 is the first integer a double cannot hold; through double it
  // collapsed onto 2^53 and replayed a different seed's network.
  CliOptions seed = demo_options();
  parse(seed, {"--pops", "9007199254740993"});
  EXPECT_EQ(seed.uint("pops", 0), 9007199254740993ull);
  CliOptions max = demo_options();
  parse(max, {"--pops", "18446744073709551615"});
  EXPECT_EQ(max.uint("pops", 0), UINT64_MAX);
  CliOptions zero = demo_options();
  parse(zero, {"--pops=0"});
  EXPECT_EQ(zero.uint("pops", 5), 0u);
}

TEST(CliOptions, ValidOptionsRendersSpecOrder) {
  const CliOptions options = demo_options();
  EXPECT_EQ(options.valid_options(), "--pops, --out, --progress");
}

TEST(CliOptions, ConcatSpecsPreservesOrder) {
  const std::vector<OptionSpec> merged =
      concat_specs({{{"a", true, ""}}, {{"b", false, ""}, {"c", true, ""}}});
  ASSERT_EQ(merged.size(), 3u);
  EXPECT_EQ(merged[0].name, "a");
  EXPECT_EQ(merged[1].name, "b");
  EXPECT_EQ(merged[2].name, "c");
  EXPECT_FALSE(merged[1].takes_value);
}

}  // namespace
}  // namespace cold
