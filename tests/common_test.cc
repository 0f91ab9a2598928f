#include <gtest/gtest.h>

#include <string>

#include "common/flags.h"
#include "common/result.h"
#include "common/rng.h"
#include "common/status.h"
#include "common/stopwatch.h"

namespace gir {
namespace {

TEST(StatusTest, OkByDefault) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::InvalidArgument("bad k");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(s.ToString(), "INVALID_ARGUMENT: bad k");
}

TEST(StatusTest, AllCodesHaveNames) {
  EXPECT_EQ(StatusCodeName(StatusCode::kNotFound), "NOT_FOUND");
  EXPECT_EQ(StatusCodeName(StatusCode::kFailedPrecondition),
            "FAILED_PRECONDITION");
  EXPECT_EQ(StatusCodeName(StatusCode::kOutOfRange), "OUT_OF_RANGE");
  EXPECT_EQ(StatusCodeName(StatusCode::kInternal), "INTERNAL");
  EXPECT_EQ(StatusCodeName(StatusCode::kUnimplemented), "UNIMPLEMENTED");
}

TEST(ResultTest, HoldsValue) {
  Result<int> r = 42;
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 42);
}

TEST(ResultTest, HoldsError) {
  Result<int> r = Status::NotFound("nope");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
}

// Reading the value of an error is a bug at the call site; it must stop
// the process with the status in view in every build type, never hand
// back an empty optional's bytes.
TEST(ResultDeathTest, ValueOfAnErrorAbortsWithTheStatus) {
  Result<int> r = Status::NotFound("nope");
  EXPECT_DEATH(
      { [[maybe_unused]] int v = r.value(); },
      "Result::value\\(\\) on an error: NOT_FOUND: nope");
  Result<std::string> moved = Status::DataLoss("torn");
  EXPECT_DEATH(
      { [[maybe_unused]] std::string v = std::move(moved).value(); },
      "DATA_LOSS: torn");
  EXPECT_DEATH({ [[maybe_unused]] size_t n = moved->size(); }, "DATA_LOSS");
}

TEST(RngTest, DeterministicForSeed) {
  Rng a(7);
  Rng b(7);
  for (int i = 0; i < 100; ++i) {
    EXPECT_DOUBLE_EQ(a.Uniform(), b.Uniform());
  }
}

TEST(RngTest, UniformInRange) {
  Rng rng(1);
  for (int i = 0; i < 1000; ++i) {
    double x = rng.Uniform(2.0, 3.0);
    EXPECT_GE(x, 2.0);
    EXPECT_LT(x, 3.0);
  }
}

TEST(RngTest, UniformIntInRange) {
  Rng rng(2);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.UniformInt(10), 10u);
  }
}

TEST(StopwatchTest, Monotone) {
  Stopwatch sw;
  double t1 = sw.ElapsedMillis();
  double t2 = sw.ElapsedMillis();
  EXPECT_GE(t2, t1);
  EXPECT_GE(t1, 0.0);
}

TEST(FlagsTest, ParsesAllKinds) {
  int64_t n = 0;
  double x = 0.0;
  std::string s;
  bool b = false;
  FlagSet flags;
  flags.AddInt("n", &n, "count");
  flags.AddDouble("x", &x, "ratio");
  flags.AddString("name", &s, "label");
  flags.AddBool("verbose", &b, "spam");
  const char* argv[] = {"prog", "--n=42",      "--x", "2.5",
                        "--name=hello", "--verbose"};
  ASSERT_TRUE(flags.Parse(6, const_cast<char**>(argv)).ok());
  EXPECT_EQ(n, 42);
  EXPECT_DOUBLE_EQ(x, 2.5);
  EXPECT_EQ(s, "hello");
  EXPECT_TRUE(b);
}

TEST(FlagsTest, NoPrefixDisablesBool) {
  bool b = true;
  FlagSet flags;
  flags.AddBool("cache", &b, "");
  const char* argv[] = {"prog", "--no-cache"};
  ASSERT_TRUE(flags.Parse(2, const_cast<char**>(argv)).ok());
  EXPECT_FALSE(b);
}

TEST(FlagsTest, RejectsUnknownFlag) {
  FlagSet flags;
  const char* argv[] = {"prog", "--bogus=1"};
  EXPECT_FALSE(flags.Parse(2, const_cast<char**>(argv)).ok());
}

TEST(FlagsTest, RejectsBadInt) {
  int64_t n = 0;
  FlagSet flags;
  flags.AddInt("n", &n, "");
  const char* argv[] = {"prog", "--n=abc"};
  EXPECT_FALSE(flags.Parse(2, const_cast<char**>(argv)).ok());
}

}  // namespace
}  // namespace gir
