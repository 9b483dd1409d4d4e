/**
 * @file
 * Deadlock-watchdog coverage for the harness batching path: a
 * PreparedSim whose per-entry overrides make the watchdog fire must
 * come back from runPreparedBatch as a deadlocked row with a
 * diagnostic, without disturbing the sibling rows in the same batch.
 */

#include <gtest/gtest.h>

#include "common.h"

using namespace overgen;

namespace {

/** The engine test's watchdog recipe: a small L2 behind a slow DRAM
 * with an allowance shorter than the round-trip. */
std::shared_ptr<const adg::SysAdg>
tightDesign()
{
    adg::SysAdg design = bench::generalOverlay();
    design.sys.l2CapacityKiB = 16;
    return bench::shareDesign(std::move(design));
}

} // namespace

TEST(PreparedWatchdog, DeadlockedEntryDoesNotPoisonSiblings)
{
    bench::Harness harness{ bench::CommonFlags{} };
    auto design = tightDesign();
    // Stable spec storage: PreparedSim keeps a pointer to its spec.
    std::vector<wl::KernelSpec> specs = {
        wl::smallWorkloadByName("fir"),
        wl::workloadByName("accumulate"),
        wl::smallWorkloadByName("vecmax"),
    };

    std::vector<bench::PreparedSim> prepared;
    prepared.push_back(
        bench::prepareOverlayRun(specs[0], design, true));
    bench::PreparedSim victim =
        bench::prepareOverlayRun(specs[1], design, true);
    ASSERT_TRUE(victim.ok);
    victim.dramLatency = 2000;
    victim.deadlockCycles = 500;
    prepared.push_back(std::move(victim));
    prepared.push_back(
        bench::prepareOverlayRun(specs[2], design, true));
    ASSERT_TRUE(prepared[0].ok);
    ASSERT_TRUE(prepared[2].ok);

    std::vector<sim::SimResult> rows =
        bench::runPreparedBatch(prepared, harness);
    ASSERT_EQ(rows.size(), 3u);

    // The victim hits the watchdog (OG_WARN dump on stderr) ...
    EXPECT_TRUE(rows[1].deadlocked);
    EXPECT_FALSE(rows[1].completed);
    EXPECT_FALSE(rows[1].diagnostic.empty());
    EXPECT_LT(rows[1].cycles, 100'000u);

    // ... while its siblings complete normally.
    EXPECT_TRUE(rows[0].completed);
    EXPECT_FALSE(rows[0].deadlocked);
    EXPECT_TRUE(rows[0].diagnostic.empty());
    EXPECT_TRUE(rows[2].completed);
    EXPECT_FALSE(rows[2].deadlocked);

    // And bit-identically to a batch without the deadlocking entry —
    // the overrides are per-entry, not per-batch.
    std::vector<bench::PreparedSim> clean;
    clean.push_back(bench::prepareOverlayRun(specs[0], design, true));
    clean.push_back(bench::prepareOverlayRun(specs[2], design, true));
    std::vector<sim::SimResult> alone =
        bench::runPreparedBatch(clean, harness);
    ASSERT_EQ(alone.size(), 2u);
    EXPECT_EQ(rows[0].cycles, alone[0].cycles);
    EXPECT_EQ(rows[0].ipc, alone[0].ipc);
    EXPECT_EQ(rows[2].cycles, alone[1].cycles);
    EXPECT_EQ(rows[2].ipc, alone[1].ipc);
}

TEST(PreparedWatchdog, DefaultOverridesKeepStockConfig)
{
    bench::Harness harness{ bench::CommonFlags{} };
    auto design = bench::shareDesign(bench::generalOverlay());
    std::vector<wl::KernelSpec> specs = {
        wl::smallWorkloadByName("fir")
    };
    std::vector<bench::PreparedSim> prepared = {
        bench::prepareOverlayRun(specs[0], design, true)
    };
    std::vector<sim::SimResult> rows =
        bench::runPreparedBatch(prepared, harness);
    ASSERT_EQ(rows.size(), 1u);
    EXPECT_TRUE(rows[0].completed);
    EXPECT_FALSE(rows[0].deadlocked);
}
