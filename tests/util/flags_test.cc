#include "util/flags.h"

#include <cstdint>
#include <string>

#include <gtest/gtest.h>

namespace magicrecs {
namespace {

TEST(FlagValueTest, MatchesOnlyTheExactFlagName) {
  std::string value;
  EXPECT_TRUE(FlagValue("--port=7421", "port", &value));
  EXPECT_EQ(value, "7421");
  EXPECT_TRUE(FlagValue("--port=", "port", &value));
  EXPECT_EQ(value, "");
  EXPECT_FALSE(FlagValue("--port", "port", &value));
  EXPECT_FALSE(FlagValue("--ports=1", "port", &value));
  EXPECT_FALSE(FlagValue("-port=1", "port", &value));
}

TEST(ParseIntegerTest, AcceptsWholeDecimalStringsInRange) {
  uint16_t port = 1;
  EXPECT_TRUE(ParseInteger("0", &port));
  EXPECT_EQ(port, 0);
  EXPECT_TRUE(ParseInteger("65535", &port));
  EXPECT_EQ(port, 65535);

  uint64_t big = 0;
  EXPECT_TRUE(ParseInteger("18446744073709551615", &big));
  EXPECT_EQ(big, UINT64_MAX);

  int64_t signed_value = 0;
  EXPECT_TRUE(ParseInteger("-9223372036854775808", &signed_value));
  EXPECT_EQ(signed_value, INT64_MIN);
  EXPECT_TRUE(ParseInteger("007", &signed_value));
  EXPECT_EQ(signed_value, 7);
}

TEST(ParseIntegerTest, RejectsMalformedTextAndLeavesOutputUntouched) {
  size_t window = 4096;
  for (const char* bad : {"", "abc", "4k", "4 ", " 4", "+4", "-4", "4.0",
                          "0x10", "1e3", "--1"}) {
    EXPECT_FALSE(ParseInteger(bad, &window)) << "'" << bad << "'";
    EXPECT_EQ(window, 4096u) << "'" << bad << "'";
  }
  int signed_value = 5;
  EXPECT_FALSE(ParseInteger("-", &signed_value));
  EXPECT_FALSE(ParseInteger("- 1", &signed_value));
  EXPECT_EQ(signed_value, 5);
}

TEST(ParseIntegerTest, RejectsValuesTheTypeCannotHold) {
  uint16_t port = 7421;
  EXPECT_FALSE(ParseInteger("70000", &port));  // would wrap to 4464
  EXPECT_FALSE(ParseInteger("65536", &port));
  EXPECT_EQ(port, 7421);

  uint32_t users = 1;
  EXPECT_FALSE(ParseInteger("4294967296", &users));
  uint64_t seed = 1;
  EXPECT_FALSE(ParseInteger("18446744073709551616", &seed));
  int interval = 1;
  EXPECT_FALSE(ParseInteger("2147483648", &interval));
  EXPECT_FALSE(ParseInteger("-2147483649", &interval));
  EXPECT_EQ(users, 1u);
  EXPECT_EQ(seed, 1u);
  EXPECT_EQ(interval, 1);
}

TEST(ParseIntegerTest, EnforcesExplicitBounds) {
  int interval_ms = 1000;
  EXPECT_FALSE(ParseInteger("0", &interval_ms, 1));
  EXPECT_FALSE(ParseInteger("-5", &interval_ms, 1));
  EXPECT_TRUE(ParseInteger("1", &interval_ms, 1));
  EXPECT_EQ(interval_ms, 1);

  int64_t secs = 0;
  EXPECT_TRUE(ParseInteger("600", &secs, 0, 1000));
  EXPECT_EQ(secs, 600);
  EXPECT_TRUE(ParseInteger("1000", &secs, 0, 1000));
  EXPECT_FALSE(ParseInteger("1001", &secs, 0, 1000));
  EXPECT_EQ(secs, 1000);
}

TEST(ParseIntegerFlagTest, ReportsTheFlagAndItsText) {
  uint16_t port = 7421;
  testing::internal::CaptureStderr();
  EXPECT_FALSE(ParseIntegerFlag("magicrecsd", "port", "70000", &port));
  EXPECT_EQ(testing::internal::GetCapturedStderr(),
            "magicrecsd: invalid value for --port: '70000'\n");
  EXPECT_EQ(port, 7421);

  testing::internal::CaptureStderr();
  EXPECT_TRUE(ParseIntegerFlag("magicrecsd", "port", "0", &port));
  EXPECT_EQ(testing::internal::GetCapturedStderr(), "");
  EXPECT_EQ(port, 0);
}

TEST(ParseFiniteDoubleTest, AcceptsWholeFiniteNumbers) {
  double mean = 0;
  EXPECT_TRUE(ParseFiniteDouble("30", &mean));
  EXPECT_EQ(mean, 30.0);
  EXPECT_TRUE(ParseFiniteDouble("2.5", &mean));
  EXPECT_EQ(mean, 2.5);
  EXPECT_TRUE(ParseFiniteDouble("1e3", &mean));
  EXPECT_EQ(mean, 1000.0);
  EXPECT_TRUE(ParseFiniteDouble("-0.25", &mean));
  EXPECT_EQ(mean, -0.25);
}

TEST(ParseFiniteDoubleTest, RejectsMalformedAndNonFiniteText) {
  double mean = 30;
  for (const char* bad : {"", "abc", "30x", "3 0", " 30", "30 ", "+30",
                          "nan", "NaN", "inf", "-inf", "infinity", "1e999",
                          "0x1p3", "--1", "."}) {
    EXPECT_FALSE(ParseFiniteDouble(bad, &mean)) << "'" << bad << "'";
    EXPECT_EQ(mean, 30.0) << "'" << bad << "'";
  }
}

TEST(ParseFiniteDoubleFlagTest, ReportsTheFlagAndItsText) {
  double mean = 30;
  testing::internal::CaptureStderr();
  EXPECT_FALSE(
      ParseFiniteDoubleFlag("magicrecsd", "mean-followees", "nan", &mean));
  EXPECT_EQ(testing::internal::GetCapturedStderr(),
            "magicrecsd: invalid value for --mean-followees: 'nan'\n");
  EXPECT_EQ(mean, 30.0);
}

}  // namespace
}  // namespace magicrecs
