#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <ostream>
#include <set>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "metrics/metrics.h"
#include "util/check.h"
#include "util/fmt.h"
#include "util/ids.h"
#include "util/pool.h"
#include "util/rng.h"

namespace discs {
namespace {

TEST(Ids, DistinctTagsAreDistinctTypes) {
  static_assert(!std::is_same_v<ProcessId, ObjectId>);
  ProcessId p(3);
  EXPECT_EQ(p.value(), 3u);
  EXPECT_TRUE(p.valid());
  EXPECT_FALSE(ProcessId::invalid().valid());
  EXPECT_EQ(to_string(p), "p3");
  EXPECT_EQ(to_string(ProcessId::invalid()), "-");
}

TEST(Ids, OrderingAndHash) {
  EXPECT_LT(TxId(1), TxId(2));
  std::set<TxId> s{TxId(1), TxId(2), TxId(1)};
  EXPECT_EQ(s.size(), 2u);
  std::hash<TxId> h;
  EXPECT_EQ(h(TxId(5)), h(TxId(5)));
}

TEST(Rng, DeterministicFromSeed) {
  Rng a(123), b(123), c(124);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
  bool differs = false;
  Rng a2(123);
  for (int i = 0; i < 100; ++i) differs |= (a2.next() != c.next());
  EXPECT_TRUE(differs);
}

TEST(Rng, BelowIsInRangeAndCoversValues) {
  Rng rng(7);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    auto v = rng.below(10);
    EXPECT_LT(v, 10u);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 10u);
}

TEST(Rng, Uniform01Bounds) {
  Rng rng(9);
  for (int i = 0; i < 1000; ++i) {
    double v = rng.uniform01();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(Rng, ShuffleIsPermutation) {
  Rng rng(5);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7};
  auto orig = v;
  rng.shuffle(v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, orig);
}

TEST(Rng, SplitGivesIndependentStream) {
  Rng a(1);
  Rng child = a.split();
  EXPECT_NE(a.next(), child.next());
}

TEST(Zipf, SkewsTowardsLowIndices) {
  Rng rng(3);
  Zipf z(100, 0.99);
  std::size_t low = 0, total = 20000;
  for (std::size_t i = 0; i < total; ++i)
    if (z.sample(rng) < 10) ++low;
  // With theta=0.99 the top-10 of 100 keys draw well over a third of mass.
  EXPECT_GT(low, total / 3);
}

TEST(Zipf, UniformWhenThetaZero) {
  Rng rng(4);
  Zipf z(10, 0.0);
  std::vector<std::size_t> counts(10, 0);
  for (std::size_t i = 0; i < 20000; ++i) ++counts[z.sample(rng)];
  for (auto c : counts) EXPECT_GT(c, 20000u / 20);
}

TEST(Check, ThrowsCheckFailure) {
  EXPECT_THROW(DISCS_CHECK(false), CheckFailure);
  EXPECT_NO_THROW(DISCS_CHECK(true));
  try {
    DISCS_CHECK_MSG(1 == 2, "math broke: " << 42);
    FAIL();
  } catch (const CheckFailure& e) {
    EXPECT_NE(std::string(e.what()).find("math broke: 42"),
              std::string::npos);
  }
}

enum Shade { kLight, kDark = 7 };

struct Point {
  int x, y;
};
std::ostream& operator<<(std::ostream& os, const Point& p) {
  return os << "(" << p.x << "," << p.y << ")";
}

TEST(Fmt, CatAndJoin) {
  EXPECT_EQ(cat("a", 1, "b"), "a1b");
  std::vector<int> v{1, 2, 3};
  EXPECT_EQ(join(v, ","), "1,2,3");
  EXPECT_EQ(join(v, "-", [](int x) { return x * 2; }), "2-4-6");

  // The bytes each argument type renders to, as an std::ostream prints it.
  // Integers.
  EXPECT_EQ(cat(0), "0");
  EXPECT_EQ(cat(UINT64_MAX), "18446744073709551615");
  EXPECT_EQ(cat(INT64_MIN), "-9223372036854775808");
  EXPECT_EQ(cat(std::size_t{42}, short{-3}, 5u, -6L), "42-35-6");
  // bool prints as a digit; every character type prints as a character.
  EXPECT_EQ(cat(true, false), "10");
  EXPECT_EQ(cat('x', 'y'), "xy");
  EXPECT_EQ(cat(static_cast<signed char>('A')), "A");
  EXPECT_EQ(cat(std::uint8_t{66}), "B");
  // Floating point keeps the stream's default (6 significant digits).
  EXPECT_EQ(cat(0.1), "0.1");
  EXPECT_EQ(cat(3.0), "3");
  EXPECT_EQ(cat(1e20), "1e+20");
  EXPECT_EQ(cat(1.0 / 3), "0.333333");
  EXPECT_EQ(cat(0.25f, " ", 2.5f), "0.25 2.5");
  // Strings in every spelling.
  const char* cstr = "c";
  std::string_view sv = "view";
  std::string str = "string";
  EXPECT_EQ(cat(cstr, sv, str), "cviewstring");
  EXPECT_EQ(cat("", std::string(), std::string_view()), "");
  // Enums print their value; other types use their operator<<.
  EXPECT_EQ(cat(kLight, kDark), "07");
  EXPECT_EQ(cat("p=", Point{1, -2}), "p=(1,-2)");
  EXPECT_EQ(cat(Point{3, 4}, 5), "(3,4)5");

  // join over every element type, and a render returning std::string.
  EXPECT_EQ(join(std::vector<std::string>{"a", "b"}, ", "), "a, b");
  EXPECT_EQ(join(std::vector<double>{0.5, 1e20}, ";"), "0.5;1e+20");
  EXPECT_EQ(join(std::vector<bool>{true, false}, ""), "10");
  EXPECT_EQ(join(std::vector<Point>{{1, 2}}, ","), "(1,2)");
  EXPECT_EQ(join(std::vector<int>{}, ","), "");
  EXPECT_EQ(join(v, "+", [](int x) { return std::string(x, '*'); }),
            "*+**+***");
}

TEST(Fmt, AsciiTable) {
  auto t = ascii_table({{"h1", "h2"}, {"a", "bbb"}});
  EXPECT_NE(t.find("| h1 | h2  |"), std::string::npos);
  EXPECT_NE(t.find("| a  | bbb |"), std::string::npos);
}

TEST(Fmt, PadAndFixed) {
  EXPECT_EQ(pad("ab", 4), "ab  ");
  EXPECT_EQ(pad("abcd", 2), "abcd");
  EXPECT_EQ(fixed(3.14159, 2), "3.14");
}

TEST(Pool, ReleasedBlocksRecirculateToAFreshThread) {
  // 496-byte blocks: a size class nothing else in this binary allocates.
  // A 64 KiB slab holds 132 of them.
  constexpr std::size_t kBytes = 496, kBlocks = 2000;
  std::vector<void*> blocks;
  std::thread([&] {
    for (std::size_t i = 0; i < kBlocks; ++i)
      blocks.push_back(util::Pool::allocate(kBytes));
  }).join();
  // Freed here, the blocks land on this thread's freelist; released, they
  // go to the orphan store.
  for (void* p : blocks) util::Pool::deallocate(p, kBytes);
  util::Pool::release_thread_cache();

  util::Pool::Stats fresh;
  std::thread([&] {
    for (void*& p : blocks) p = util::Pool::allocate(kBytes);
    fresh = util::Pool::stats();
  }).join();
  EXPECT_EQ(fresh.slab_bytes, 0u);
  // Adopted one slab's worth at a time, not as one whole chain.
  EXPECT_GE(fresh.orphan_refills, kBlocks / 132);

  for (void* p : blocks) util::Pool::deallocate(p, kBytes);
  util::Pool::release_thread_cache();
}

TEST(MetricsSummary, EmptyStatisticsAreNaN) {
  metrics::Summary s;
  EXPECT_TRUE(std::isnan(s.mean()));
  EXPECT_TRUE(std::isnan(s.min()));
  EXPECT_TRUE(std::isnan(s.max()));
  EXPECT_TRUE(std::isnan(s.percentile(0.0)));
  EXPECT_TRUE(std::isnan(s.percentile(0.5)));
  EXPECT_TRUE(std::isnan(s.percentile(1.0)));
  EXPECT_TRUE(std::isnan(s.p50()));
  EXPECT_TRUE(std::isnan(s.p95()));
  EXPECT_TRUE(std::isnan(s.p99()));
}

TEST(MetricsSummary, SingleSampleIsEveryStatistic) {
  metrics::Summary s;
  s.add(42.0);
  EXPECT_DOUBLE_EQ(s.mean(), 42.0);
  EXPECT_DOUBLE_EQ(s.min(), 42.0);
  EXPECT_DOUBLE_EQ(s.max(), 42.0);
  EXPECT_DOUBLE_EQ(s.percentile(0.0), 42.0);
  EXPECT_DOUBLE_EQ(s.percentile(1.0), 42.0);
}

TEST(MetricsSummary, PercentileClampsOutOfRangeQuantiles) {
  metrics::Summary s;
  s.add(1.0);
  s.add(2.0);
  s.add(3.0);
  EXPECT_DOUBLE_EQ(s.percentile(-0.5), 1.0);
  EXPECT_DOUBLE_EQ(s.percentile(1.5), 3.0);
}

TEST(MetricsSummary, EmptyStrDoesNotThrow) {
  metrics::Summary s;
  EXPECT_NO_THROW({ auto str = s.str(); });
  EXPECT_NE(s.str().find("n=0"), std::string::npos);
}

}  // namespace
}  // namespace discs
