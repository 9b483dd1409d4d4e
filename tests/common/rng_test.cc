#include <gtest/gtest.h>

#include <vector>

#include "common/rng.h"

namespace overgen {
namespace {

TEST(Rng, DeterministicFromSeed)
{
    Rng a(123);
    Rng b(123);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer)
{
    Rng a(1);
    Rng b(2);
    int same = 0;
    for (int i = 0; i < 64; ++i)
        same += (a.next() == b.next());
    EXPECT_LT(same, 4);
}

TEST(Rng, NextBelowInRange)
{
    Rng rng(7);
    for (int i = 0; i < 1000; ++i)
        EXPECT_LT(rng.nextBelow(13), 13u);
}

TEST(Rng, NextRangeInclusive)
{
    Rng rng(7);
    bool saw_lo = false, saw_hi = false;
    for (int i = 0; i < 2000; ++i) {
        int64_t v = rng.nextRange(-3, 3);
        EXPECT_GE(v, -3);
        EXPECT_LE(v, 3);
        saw_lo |= (v == -3);
        saw_hi |= (v == 3);
    }
    EXPECT_TRUE(saw_lo);
    EXPECT_TRUE(saw_hi);
}

TEST(Rng, DoubleInUnitInterval)
{
    Rng rng(11);
    for (int i = 0; i < 1000; ++i) {
        double d = rng.nextDouble();
        EXPECT_GE(d, 0.0);
        EXPECT_LT(d, 1.0);
    }
}

TEST(Rng, BoolProbabilityRoughlyRespected)
{
    Rng rng(42);
    int hits = 0;
    for (int i = 0; i < 10000; ++i)
        hits += rng.nextBool(0.25);
    EXPECT_NEAR(hits / 10000.0, 0.25, 0.03);
}

TEST(Rng, GaussianMomentsRoughlyStandard)
{
    Rng rng(5);
    double sum = 0.0, sq = 0.0;
    constexpr int n = 20000;
    for (int i = 0; i < n; ++i) {
        double g = rng.nextGaussian();
        sum += g;
        sq += g * g;
    }
    EXPECT_NEAR(sum / n, 0.0, 0.05);
    EXPECT_NEAR(sq / n, 1.0, 0.1);
}

TEST(Rng, NextBelowChiSquareUniform)
{
    // Pearson chi-square goodness-of-fit against the uniform
    // distribution, over several bucket counts including ones where a
    // modulo reduction would be visibly biased (2^64 % bound != 0).
    // df = bound-1; thresholds are the p = 0.001 critical values, so
    // a correct generator fails spuriously ~1 in 1000 per seed (the
    // seeds below are fixed, making the test deterministic).
    struct Case
    {
        uint64_t bound;
        double critical;  //!< chi-square p=0.001 upper tail
    };
    const Case cases[] = {
        { 3, 13.82 }, { 7, 22.46 }, { 10, 27.88 }, { 13, 32.91 }
    };
    for (const Case &c : cases) {
        Rng rng(0xc0ffee ^ c.bound);
        constexpr int samples = 100000;
        std::vector<int> buckets(c.bound, 0);
        for (int i = 0; i < samples; ++i)
            ++buckets[rng.nextBelow(c.bound)];
        double expected =
            static_cast<double>(samples) / static_cast<double>(c.bound);
        double chi2 = 0.0;
        for (int observed : buckets) {
            double d = observed - expected;
            chi2 += d * d / expected;
        }
        EXPECT_LT(chi2, c.critical) << "bound " << c.bound;
    }
}

TEST(Rng, NextBelowHugeBoundTerminatesAndCovers)
{
    // Bounds just above 2^63 reject nearly half the raw draws under
    // naive rejection schemes; Lemire's threshold keeps the expected
    // number of next() calls ~1. Also check values land in range.
    Rng rng(99);
    uint64_t huge = (1ull << 63) + 12345;
    for (int i = 0; i < 1000; ++i)
        EXPECT_LT(rng.nextBelow(huge), huge);
}

TEST(RngDeathTest, NextBelowZeroPanics)
{
    Rng rng(1);
    EXPECT_DEATH(rng.nextBelow(0), "nextBelow");
}

TEST(Hashes, Splitmix64MatchesTheReferenceStream)
{
    // The published splitmix64 outputs from state 0.
    uint64_t state = 0;
    EXPECT_EQ(splitmix64(state), 0xe220a8397b1dcdafull);
    EXPECT_EQ(splitmix64(state), 0x6e789e6aa1b965f4ull);
    EXPECT_EQ(splitmix64(state), 0x06c45d188009454full);
}

TEST(Hashes, FnvWordIsTheStepOfFnv1a)
{
    uint64_t h = kFnvOffset;
    fnvWord(h, 'a');
    fnvWord(h, 'b');
    EXPECT_EQ(h, fnv1a("ab"));
    EXPECT_EQ(fnv1a(""), kFnvOffset);
}

} // namespace
} // namespace overgen
