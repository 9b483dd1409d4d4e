/**
 * @file
 * Harness flag-parser tests: both spellings of each flag parse, and
 * repeating a flag — in either spelling, boolean or valued — is fatal
 * instead of silently letting the last occurrence win.
 */

#include <gtest/gtest.h>

#include "common.h"

using namespace overgen;

namespace {

/** Run parseCommonFlags over a literal argv. */
bench::CommonFlags
parse(std::vector<std::string> args, bool allowExtra = false)
{
    args.insert(args.begin(), "test-binary");
    std::vector<char *> argv;
    for (std::string &arg : args)
        argv.push_back(arg.data());
    return bench::parseCommonFlags(static_cast<int>(argv.size()),
                                   argv.data(), allowExtra);
}

} // namespace

TEST(BenchFlags, BothSpellingsParse)
{
    bench::CommonFlags flags =
        parse({ "--threads", "3", "--trace=t.json",
                "--no-fast-forward", "--stats-interval", "512" });
    EXPECT_EQ(flags.threads, 3);
    EXPECT_EQ(flags.sink.tracePath, "t.json");
    EXPECT_TRUE(flags.noFastForward);
    EXPECT_EQ(flags.sink.statsInterval, 512u);
    // --stats-interval without --stats-jsonl gets the default path.
    EXPECT_EQ(flags.sink.timelinePath, "timeline.jsonl");
}

TEST(BenchFlags, ExtraFlagsCollectOnlyWhenAllowed)
{
    bench::CommonFlags flags =
        parse({ "--workers=4", "--threads=2" }, /*allowExtra=*/true);
    EXPECT_EQ(flags.threads, 2);
    ASSERT_EQ(flags.extra.size(), 1u);
    EXPECT_EQ(flags.extra[0], "--workers=4");
    std::string workers;
    EXPECT_TRUE(
        bench::takeExtraFlag(flags.extra, "--workers=", workers));
    EXPECT_EQ(workers, "4");
    EXPECT_TRUE(flags.extra.empty());
}

TEST(BenchFlagsDeathTest, RepeatedValueFlagIsFatal)
{
    EXPECT_EXIT(parse({ "--threads=2", "--threads=4" }),
                ::testing::ExitedWithCode(1),
                "'--threads' given twice");
    // Mixing the spellings is still the same flag.
    EXPECT_EXIT(parse({ "--threads", "2", "--threads=4" }),
                ::testing::ExitedWithCode(1),
                "'--threads' given twice");
    EXPECT_EXIT(parse({ "--trace=a.json", "--trace=b.json" }),
                ::testing::ExitedWithCode(1),
                "'--trace' given twice");
}

TEST(BenchFlagsDeathTest, RepeatedBooleanFlagIsFatal)
{
    EXPECT_EXIT(parse({ "--no-fast-forward", "--no-fast-forward" }),
                ::testing::ExitedWithCode(1),
                "'--no-fast-forward' given twice");
    EXPECT_EXIT(parse({ "--trace-detail", "--threads=2",
                        "--trace-detail" }),
                ::testing::ExitedWithCode(1),
                "'--trace-detail' given twice");
}

TEST(BenchFlagsDeathTest, UnknownFlagIsStillFatal)
{
    // `--objective=` is not a flag: the explorer has one scoring rule.
    for (const char *arg : { "--no-such-flag", "--objective=phase" }) {
        EXPECT_EXIT(parse({ arg }), ::testing::ExitedWithCode(1),
                    "unknown argument")
            << arg;
    }
}

TEST(BenchFlagsDeathTest, RetiredSimulationThreadFlagIsUnknown)
{
    // Batched simulation runs on `--threads`; its former separate
    // thread flag is gone, so it is rejected like any other typo.
    EXPECT_EXIT(parse({ "--sim-threads=2" }),
                ::testing::ExitedWithCode(1), "unknown argument");
}
