#include <gtest/gtest.h>

#include "common/hex.h"
#include "common/rng.h"

namespace overgen {
namespace {

TEST(Hex, EncodesFixedWidthLowercase)
{
    EXPECT_EQ(hexU64(0), "0000000000000000");
    EXPECT_EQ(hexU64(1), "0000000000000001");
    EXPECT_EQ(hexU64(0xdeadbeefull), "00000000deadbeef");
    EXPECT_EQ(hexU64(~uint64_t{0}), "ffffffffffffffff");
}

TEST(Hex, RoundTripsValuesAboveDoublePrecision)
{
    // The reason this codec exists: integers above 2^53 that a JSON
    // double would round.
    const uint64_t values[] = {
        (1ull << 53) + 1,
        0x8000000000000001ull,
        0xfedcba9876543210ull,
    };
    for (uint64_t v : values) {
        uint64_t out = 0;
        EXPECT_TRUE(tryParseHexU64(hexU64(v), out));
        EXPECT_EQ(out, v);
    }
}

TEST(Hex, RandomRoundTrip)
{
    Rng rng(13);
    for (int i = 0; i < 1000; ++i) {
        uint64_t v = rng.next();
        uint64_t out = 0;
        EXPECT_TRUE(tryParseHexU64(hexU64(v), out));
        EXPECT_EQ(out, v);
    }
}

TEST(Hex, ShortStringsParseWithoutPadding)
{
    uint64_t out = 0;
    ASSERT_TRUE(tryParseHexU64("f", out));
    EXPECT_EQ(out, 0xfu);
    ASSERT_TRUE(tryParseHexU64("10", out));
    EXPECT_EQ(out, 0x10u);
    ASSERT_TRUE(tryParseHexU64("0000000000000000", out));
    EXPECT_EQ(out, 0u);
}

TEST(Hex, RejectsMalformedInput)
{
    uint64_t out = 0;
    EXPECT_FALSE(tryParseHexU64("", out));
    EXPECT_FALSE(tryParseHexU64("12345678901234567", out)); // 17 digits
    EXPECT_FALSE(tryParseHexU64("DEADBEEF", out)); // uppercase
    EXPECT_FALSE(tryParseHexU64("0x12", out));
    EXPECT_FALSE(tryParseHexU64("12 34", out));
    EXPECT_FALSE(tryParseHexU64("g", out));
    EXPECT_FALSE(tryParseHexU64("-1", out));
}

} // namespace
} // namespace overgen
