#include <gtest/gtest.h>

#include <cmath>
#include <fstream>
#include <set>
#include <sstream>

#include "util/assert.hpp"
#include "util/float_eq.hpp"
#include "util/parse_num.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"

namespace stripack {
namespace {

// ---------------------------------------------------------------- asserts
TEST(Assert, ExpectsThrowsOnFalse) {
  EXPECT_THROW(STRIPACK_EXPECTS(1 == 2), ContractViolation);
}

TEST(Assert, ExpectsPassesOnTrue) {
  EXPECT_NO_THROW(STRIPACK_EXPECTS(1 == 1));
}

TEST(Assert, MessageContainsDetail) {
  try {
    STRIPACK_ASSERT(false, "the detail");
    FAIL() << "should have thrown";
  } catch (const ContractViolation& e) {
    EXPECT_NE(std::string(e.what()).find("the detail"), std::string::npos);
  }
}

// ---------------------------------------------------------------- float_eq
TEST(FloatEq, BasicComparisons) {
  EXPECT_TRUE(approx_eq(1.0, 1.0 + 1e-12));
  EXPECT_FALSE(approx_eq(1.0, 1.0001));
  EXPECT_TRUE(approx_le(1.0, 1.0));
  EXPECT_TRUE(approx_le(1.0 + 1e-12, 1.0));
  EXPECT_FALSE(approx_le(1.1, 1.0));
  EXPECT_TRUE(approx_ge(1.0, 1.0 + 1e-12));
  EXPECT_TRUE(definitely_less(1.0, 1.1));
  EXPECT_FALSE(definitely_less(1.0, 1.0 + 1e-12));
}

TEST(FloatEq, IntervalOverlapIsOpen) {
  // Touching intervals do not overlap.
  EXPECT_FALSE(intervals_overlap(0.0, 1.0, 1.0, 2.0));
  EXPECT_TRUE(intervals_overlap(0.0, 1.0, 0.5, 2.0));
  EXPECT_TRUE(intervals_overlap(0.5, 0.6, 0.0, 1.0));
  EXPECT_FALSE(intervals_overlap(0.0, 0.5, 0.5 + 1e-12, 1.0));
}

// --------------------------------------------------------------------- rng
TEST(Rng, DeterministicAcrossInstances) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 64; ++i) equal += a.next_u64() == b.next_u64();
  EXPECT_LT(equal, 4);
}

TEST(Rng, UniformInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.uniform(2.0, 5.0);
    EXPECT_GE(v, 2.0);
    EXPECT_LT(v, 5.0);
  }
}

TEST(Rng, UniformIntCoversRangeInclusively) {
  Rng rng(9);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 2000; ++i) seen.insert(rng.uniform_int(3, 7));
  EXPECT_EQ(seen.size(), 5u);
  EXPECT_EQ(*seen.begin(), 3);
  EXPECT_EQ(*seen.rbegin(), 7);
}

TEST(Rng, ExponentialMeanApproximatelyInverseRate) {
  Rng rng(11);
  double sum = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) sum += rng.exponential(2.0);
  EXPECT_NEAR(sum / n, 0.5, 0.02);
}

TEST(Rng, PowerLawWithinBounds) {
  Rng rng(13);
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.power_law(0.1, 1.0, 2.5);
    EXPECT_GE(v, 0.1 - 1e-12);
    EXPECT_LE(v, 1.0 + 1e-12);
  }
}

TEST(Rng, ShuffleIsPermutation) {
  Rng rng(17);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
  auto sorted = v;
  rng.shuffle(v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, sorted);
}

TEST(Rng, SplitProducesIndependentStream) {
  Rng a(99);
  Rng child = a.split();
  // The child stream differs from the parent's continued stream.
  int equal = 0;
  for (int i = 0; i < 64; ++i) equal += a.next_u64() == child.next_u64();
  EXPECT_LT(equal, 4);
}

// ------------------------------------------------------------------- table
TEST(Table, PrintsAlignedColumns) {
  Table t({"name", "value"});
  t.row().add("alpha").add(1.25, 2);
  t.row().add("b").add(10.5, 2);
  std::ostringstream os;
  t.print(os, "title");
  const std::string out = os.str();
  EXPECT_NE(out.find("title"), std::string::npos);
  EXPECT_NE(out.find("alpha"), std::string::npos);
  EXPECT_NE(out.find("1.25"), std::string::npos);
  EXPECT_NE(out.find("10.50"), std::string::npos);
}

TEST(Table, RejectsTooManyCells) {
  Table t({"only"});
  t.row().add("x");
  EXPECT_THROW(t.add("y"), ContractViolation);
}

TEST(Table, FormatDoubleHandlesSpecials) {
  EXPECT_EQ(format_double(std::nan(""), 2), "nan");
  EXPECT_EQ(format_double(INFINITY, 2), "inf");
  EXPECT_EQ(format_double(1.005, 2), "1.00");  // bankers-ish via printf
}

TEST(Table, CsvEscapesCommasAndQuotes) {
  Table t({"a", "b"});
  t.row().add("x,y").add("say \"hi\"");
  const std::string path = ::testing::TempDir() + "/stripack_table_test.csv";
  t.write_csv(path);
  std::ifstream in(path);
  std::string header, line;
  std::getline(in, header);
  std::getline(in, line);
  EXPECT_EQ(header, "a,b");
  EXPECT_EQ(line, "\"x,y\",\"say \"\"hi\"\"\"");
}

// ------------------------------------------------------------- parse_num
// The checked parsers behind every CLI numeric flag: whole-token, finite,
// in-range — or false, never an exception or a silent wrap.
TEST(ParseNum, AcceptsWellFormedValues) {
  int i = 0;
  EXPECT_TRUE(util::parse_int("42", i));
  EXPECT_EQ(i, 42);
  EXPECT_TRUE(util::parse_int("-7", i));
  EXPECT_EQ(i, -7);
  long long ll = 0;
  EXPECT_TRUE(util::parse_long_long("123456789012", ll));
  EXPECT_EQ(ll, 123456789012LL);
  double d = 0.0;
  EXPECT_TRUE(util::parse_double("2.5e-3", d));
  EXPECT_DOUBLE_EQ(d, 2.5e-3);
}

TEST(ParseNum, RejectsMalformedTokens) {
  int i = 0;
  EXPECT_FALSE(util::parse_int("", i));
  EXPECT_FALSE(util::parse_int("abc", i));
  EXPECT_FALSE(util::parse_int("12x", i));  // trailing junk
  EXPECT_FALSE(util::parse_int("1.5", i));  // not an integer
  double d = 0.0;
  EXPECT_FALSE(util::parse_double("", d));
  EXPECT_FALSE(util::parse_double("4,2", d));
  EXPECT_FALSE(util::parse_double("1.5banana", d));
}

TEST(ParseNum, RejectsOutOfRangeAndNonFinite) {
  int i = 0;
  EXPECT_FALSE(util::parse_int("99999999999999999999", i));
  EXPECT_FALSE(util::parse_int("-99999999999999999999", i));
  long long ll = 0;
  EXPECT_FALSE(util::parse_long_long("99999999999999999999999", ll));
  double d = 0.0;
  EXPECT_FALSE(util::parse_double("1e999", d));  // overflows to inf
  EXPECT_FALSE(util::parse_double("inf", d));
  EXPECT_FALSE(util::parse_double("nan", d));
}

}  // namespace
}  // namespace stripack
