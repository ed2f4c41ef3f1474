/**
 * @file
 * Unit and property tests for the PRNG and the event counter.
 */

#include <gtest/gtest.h>

#include "sim/random.hh"
#include "sim/stats.hh"

using namespace virtsim;

TEST(Random, DeterministicPerSeed)
{
    Random a(123), b(123), c(124);
    bool any_differ = false;
    for (int i = 0; i < 100; ++i) {
        const auto va = a.next();
        EXPECT_EQ(va, b.next());
        if (va != c.next())
            any_differ = true;
    }
    EXPECT_TRUE(any_differ);
}

TEST(Random, UniformInUnitInterval)
{
    Random r(7);
    for (int i = 0; i < 10000; ++i) {
        const double u = r.uniform();
        EXPECT_GE(u, 0.0);
        EXPECT_LT(u, 1.0);
    }
}

TEST(Random, UniformRangeRespectsBounds)
{
    Random r(7);
    for (int i = 0; i < 1000; ++i) {
        const double u = r.uniform(5.0, 9.0);
        EXPECT_GE(u, 5.0);
        EXPECT_LT(u, 9.0);
    }
}

TEST(Random, BelowRespectsBound)
{
    Random r(9);
    for (int i = 0; i < 1000; ++i)
        EXPECT_LT(r.below(17), 17u);
}

TEST(Random, ExponentialMeanRoughlyCorrect)
{
    Random r(11);
    double sum = 0;
    const int n = 200000;
    for (int i = 0; i < n; ++i)
        sum += r.exponential(50.0);
    EXPECT_NEAR(sum / n, 50.0, 1.5);
}

TEST(Random, NormalNeverNegative)
{
    Random r(13);
    for (int i = 0; i < 10000; ++i)
        EXPECT_GE(r.normal(1.0, 5.0), 0.0);
}

TEST(Random, ChanceExtremes)
{
    Random r(15);
    for (int i = 0; i < 100; ++i) {
        EXPECT_FALSE(r.chance(0.0));
        EXPECT_TRUE(r.chance(1.0));
    }
}

TEST(Counter, IncrementAndReset)
{
    Counter c;
    c.inc();
    c.inc(5);
    EXPECT_EQ(c.value(), 6u);
    c.reset();
    EXPECT_EQ(c.value(), 0u);
}
