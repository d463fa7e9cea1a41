/**
 * @file
 * Tests for the stats package.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "sim/stats.h"

namespace gp::sim {
namespace {

TEST(Counter, IncrementAndAdd)
{
    Counter c;
    c++;
    ++c;
    c += 5;
    EXPECT_EQ(c.value(), 7u);
    c.reset();
    EXPECT_EQ(c.value(), 0u);
}

TEST(Histogram, BucketsAndSummary)
{
    Histogram h(4, 8); // buckets of width 2 over [0,8) + overflow
    h.sample(0);
    h.sample(1);
    h.sample(3);
    h.sample(7);
    h.sample(100); // overflow
    EXPECT_EQ(h.count(), 5u);
    EXPECT_EQ(h.sum(), 111u);
    EXPECT_EQ(h.minValue(), 0u);
    EXPECT_EQ(h.maxValue(), 100u);
    EXPECT_EQ(h.bucket(0), 2u); // 0,1
    EXPECT_EQ(h.bucket(1), 1u); // 3
    EXPECT_EQ(h.bucket(3), 1u); // 7
    EXPECT_EQ(h.bucket(4), 1u); // overflow
    EXPECT_DOUBLE_EQ(h.mean(), 111.0 / 5);
}

TEST(Histogram, BucketWidthMustBeAPowerOfTwo)
{
    // sample() finds the bucket with a shift, so the width
    // max / buckets must be a whole power of two.
    Histogram wide(16, 64);
    for (uint64_t v = 0; v < 70; ++v)
        wide.sample(v);
    for (size_t i = 0; i < 16; ++i)
        EXPECT_EQ(wide.bucket(i), 4u) << i;
    EXPECT_EQ(wide.bucket(16), 6u);
    EXPECT_EXIT(Histogram(3, 8), ::testing::ExitedWithCode(1),
                "power-of-two width");
    EXPECT_EXIT(Histogram(4, 12), ::testing::ExitedWithCode(1),
                "power-of-two width");
    EXPECT_EXIT(Histogram(8, 4), ::testing::ExitedWithCode(1),
                "power-of-two width");
    EXPECT_EXIT(Histogram(0, 8), ::testing::ExitedWithCode(1),
                "power-of-two width");
}

TEST(Histogram, EmptyMinValueIsZero)
{
    // Regression: minValue() used to leak the UINT64_MAX sentinel
    // when no samples had been recorded.
    Histogram h(4, 8);
    EXPECT_EQ(h.minValue(), 0u);
    EXPECT_EQ(h.maxValue(), 0u);
    EXPECT_EQ(h.percentile(50.0), 0u);
}

TEST(Histogram, PercentileApproximation)
{
    Histogram h(4, 8); // buckets [0,2) [2,4) [4,6) [6,8) + overflow
    h.sample(0);
    h.sample(1);
    h.sample(3);
    h.sample(7);
    EXPECT_EQ(h.percentile(0.0), 0u) << "p0 is the minimum";
    EXPECT_EQ(h.percentile(50.0), 1u)
        << "p50 resolves to the upper edge of the bucket holding "
           "the 2nd of 4 samples";
    EXPECT_EQ(h.percentile(100.0), 7u) << "p100 is the maximum";

    h.sample(100); // overflow bucket
    EXPECT_EQ(h.percentile(99.0), 100u)
        << "overflow-bucket percentiles resolve to the observed max";
}

TEST(Histogram, PercentileInterpolatesWithinBucket)
{
    // Regression: percentile() used to return the bucket's upper edge
    // regardless of where the target rank fell inside it, so p50 of
    // {4, 5} (both in bucket [4,6)) came back as 6 — above every
    // sample. Rank interpolation keeps it inside the observed range.
    Histogram h(4, 8);
    h.sample(4);
    h.sample(5);
    EXPECT_EQ(h.percentile(50.0), 4u);
    EXPECT_EQ(h.percentile(100.0), 5u);
    EXPECT_LE(h.percentile(99.0), 5u)
        << "no percentile may exceed the observed maximum";
}

TEST(Histogram, PercentileExactForDegenerateDistribution)
{
    Histogram h(4, 8);
    for (int i = 0; i < 10; ++i)
        h.sample(5);
    for (double p : {1.0, 25.0, 50.0, 90.0, 99.0, 99.9})
        EXPECT_EQ(h.percentile(p), 5u)
            << "all-equal samples must report exactly, p" << p;
}

TEST(Histogram, TailPercentileAccessors)
{
    Histogram h(1024, 1024); // bucket width 1: exact ranks
    for (uint64_t v = 0; v < 1000; ++v)
        h.sample(v);
    EXPECT_EQ(h.p99(), 989u) << "ceil(0.99 * 1000) = rank 990";
    // 0.999 * 1000 rounds up to 999.0000...1, so ceil lands on rank
    // 1000 — the maximum. Either neighbour is a faithful p999; what
    // matters is staying inside the observed range.
    EXPECT_GE(h.p999(), 998u);
    EXPECT_LE(h.p999(), 999u);
    EXPECT_EQ(h.percentile(50.0), 499u);
}

TEST(Histogram, BucketBounds)
{
    Histogram h(4, 8);
    EXPECT_EQ(h.bucketLow(0), 0u);
    EXPECT_EQ(h.bucketHigh(0), 2u);
    EXPECT_EQ(h.bucketLow(3), 6u);
    EXPECT_EQ(h.bucketHigh(3), 8u);
    EXPECT_EQ(h.bucketLow(4), 8u) << "overflow starts at the range";
    EXPECT_EQ(h.bucketHigh(4), UINT64_MAX);
}

TEST(Histogram, ResetClears)
{
    Histogram h(4, 8);
    h.sample(3);
    h.reset();
    EXPECT_EQ(h.count(), 0u);
    EXPECT_EQ(h.mean(), 0.0);
}

TEST(StatGroup, CounterLookupIsStable)
{
    StatGroup g("test");
    g.counter("a")++;
    g.counter("a") += 2;
    EXPECT_EQ(g.get("a"), 3u);
    EXPECT_EQ(g.get("missing"), 0u);
}

TEST(StatGroup, HistogramPersists)
{
    StatGroup g("test");
    g.histogram("lat", 4, 16).sample(3);
    g.histogram("lat").sample(5);
    EXPECT_EQ(g.histogram("lat").count(), 2u);
}

TEST(StatGroup, DumpFormat)
{
    StatGroup g("grp");
    g.counter("hits") += 4;
    std::ostringstream os;
    g.dump(os);
    EXPECT_NE(os.str().find("grp.hits 4"), std::string::npos);
}

TEST(StatGroup, DumpEmitsHistogramSummary)
{
    StatGroup g("grp");
    Histogram &h = g.histogram("lat", 4, 8);
    h.sample(1);
    h.sample(7);
    std::ostringstream os;
    g.dump(os);
    const std::string text = os.str();
    EXPECT_NE(text.find("grp.lat.count 2"), std::string::npos);
    EXPECT_NE(text.find("grp.lat.min 1"), std::string::npos);
    EXPECT_NE(text.find("grp.lat.max 7"), std::string::npos);
    EXPECT_NE(text.find("grp.lat.p50 "), std::string::npos);
    EXPECT_NE(text.find("grp.lat.p99 "), std::string::npos);
    EXPECT_NE(text.find("grp.lat.p999 "), std::string::npos);
}

TEST(StatGroup, GetOnHistogramNamePanics)
{
    // get() silently returning 0 for a histogram name hid real data;
    // it now dies loudly, pointing at the histogram accessors.
    StatGroup g("grp");
    g.histogram("lat", 4, 8).sample(1);
    EXPECT_DEATH(g.get("lat"), "names a histogram");
}

TEST(StatGroup, ResetAll)
{
    StatGroup g("grp");
    g.counter("x") += 9;
    g.histogram("h").sample(1);
    g.resetAll();
    EXPECT_EQ(g.get("x"), 0u);
    EXPECT_EQ(g.histogram("h").count(), 0u);
}

} // namespace
} // namespace gp::sim
