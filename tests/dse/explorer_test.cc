#include <gtest/gtest.h>

#include "dse/explorer.h"
#include "sim/batch.h"
#include "sim/simulate.h"
#include "model/resource_model.h"
#include "workloads/suites.h"

namespace overgen::dse {
namespace {

/** Fast-to-train resource model shared by tests in this file. */
const model::FpgaResourceModel &
testModel()
{
    static model::FpgaResourceModel m = [] {
        model::ResourceModelConfig config;
        config.peSamples = 800;
        config.switchSamples = 400;
        config.inPortSamples = 300;
        config.outPortSamples = 300;
        config.train.epochs = 50;
        return model::FpgaResourceModel::train(config);
    }();
    return m;
}

/** Small suite so exploration runs in seconds. */
std::vector<wl::KernelSpec>
smallSuite()
{
    return { wl::makeMm(16), wl::makeAccumulate(16),
             wl::makeFir(128, 16) };
}

DseOptions
fastOptions(int iterations = 12)
{
    DseOptions options;
    options.iterations = iterations;
    options.tileCountGrid = { 1, 2, 4, 8 };
    options.l2BankGrid = { 4, 8 };
    options.nocBytesGrid = { 32 };
    options.l2CapacityGrid = { 512 };
    return options;
}

TEST(SeedTile, CoversDomainCapabilities)
{
    adg::Adg tile = seedTile(smallSuite());
    EXPECT_EQ(tile.validate(), "");
    bool has_f64_mul = false, has_i16_add = false;
    for (adg::NodeId pe : tile.nodeIdsOfKind(adg::NodeKind::Pe)) {
        const auto &caps = tile.node(pe).pe().capabilities;
        has_f64_mul |= caps.count({ Opcode::Mul, DataType::F64 }) > 0;
        has_i16_add |= caps.count({ Opcode::Add, DataType::I16 }) > 0;
    }
    EXPECT_TRUE(has_f64_mul);  // mm / fir
    EXPECT_TRUE(has_i16_add);  // accumulate
}

TEST(SeedTile, IndirectOnlyWhenNeeded)
{
    adg::Adg no_indirect = seedTile(smallSuite());
    for (adg::NodeId id :
         no_indirect.nodeIdsOfKind(adg::NodeKind::Dma)) {
        EXPECT_FALSE(no_indirect.node(id).dma().indirect);
    }
    adg::Adg with_indirect = seedTile({ wl::makeEllpack(32, 4) });
    bool indirect = false;
    for (adg::NodeId id :
         with_indirect.nodeIdsOfKind(adg::NodeKind::Dma)) {
        indirect |= with_indirect.node(id).dma().indirect;
    }
    EXPECT_TRUE(indirect);
}

TEST(Explorer, ProducesValidFittingDesign)
{
    DseResult r =
        exploreOverlay(smallSuite(), fastOptions(), &testModel());
    EXPECT_EQ(r.design.adg.validate(), "");
    EXPECT_GT(r.objective, 0.0);
    EXPECT_LE(r.utilization, 0.97);
    EXPECT_EQ(r.mappings.size(), 3u);
    EXPECT_EQ(r.schedules.size(), 3u);
    for (const auto &schedule : r.schedules)
        EXPECT_TRUE(schedule.valid);
    for (const auto &mapping : r.mappings) {
        EXPECT_GE(mapping.variantIndex, 0);
        EXPECT_GT(mapping.estimatedIpc, 0.0);
    }
}

TEST(Explorer, FinalSchedulesCheckAgainstDesign)
{
    DseResult r =
        exploreOverlay(smallSuite(), fastOptions(), &testModel());
    for (size_t k = 0; k < r.schedules.size(); ++k) {
        EXPECT_EQ(sched::checkSchedule(r.schedules[k], r.design.adg,
                                       r.mdfgs[k]),
                  "")
            << r.mappings[k].kernel;
    }
}

TEST(Explorer, DeterministicForSeed)
{
    DseOptions options = fastOptions(8);
    options.seed = 42;
    DseResult a = exploreOverlay(smallSuite(), options, &testModel());
    DseResult b = exploreOverlay(smallSuite(), options, &testModel());
    EXPECT_DOUBLE_EQ(a.objective, b.objective);
    EXPECT_EQ(a.design.sys, b.design.sys);
    EXPECT_EQ(a.design.adg.numNodes(), b.design.adg.numNodes());
}

TEST(Explorer, ObjectiveNeverRegressesAlongConvergence)
{
    DseResult r =
        exploreOverlay(smallSuite(), fastOptions(16), &testModel());
    ASSERT_GE(r.convergence.size(), 2u);
    for (size_t i = 1; i < r.convergence.size(); ++i) {
        EXPECT_GE(r.convergence[i].estimatedIpc,
                  r.convergence[i - 1].estimatedIpc - 1e-9);
    }
}

TEST(Explorer, MoreIterationsNotWorse)
{
    DseOptions short_run = fastOptions(4);
    DseOptions long_run = fastOptions(24);
    double short_obj =
        exploreOverlay(smallSuite(), short_run, &testModel())
            .objective;
    double long_obj =
        exploreOverlay(smallSuite(), long_run, &testModel()).objective;
    EXPECT_GE(long_obj, short_obj * 0.999);
}

TEST(Explorer, SingleKernelDomainSpecializes)
{
    DseResult r = exploreOverlay({ wl::makeAccumulate(16) },
                                 fastOptions(16), &testModel());
    // An i16 pointwise kernel never needs float dividers; after
    // pruning-driven exploration the total float-div capability count
    // should have dropped versus the seed.
    int seed_divs = 0, final_divs = 0;
    adg::Adg seed = seedTile({ wl::makeAccumulate(16) });
    for (adg::NodeId pe : seed.nodeIdsOfKind(adg::NodeKind::Pe)) {
        seed_divs += static_cast<int>(
            seed.node(pe).pe().capabilities.count(
                { Opcode::Div, DataType::F64 }));
    }
    for (adg::NodeId pe :
         r.design.adg.nodeIdsOfKind(adg::NodeKind::Pe)) {
        final_divs += static_cast<int>(
            r.design.adg.node(pe).pe().capabilities.count(
                { Opcode::Div, DataType::F64 }));
    }
    EXPECT_LE(final_divs, seed_divs);
    EXPECT_GT(r.objective, 0.0);
}

TEST(Explorer, TracksAcceptanceStats)
{
    DseResult r =
        exploreOverlay(smallSuite(), fastOptions(10), &testModel());
    EXPECT_EQ(r.iterationsRun, 10);
    EXPECT_LE(r.accepted + r.abandoned, r.iterationsRun);
    EXPECT_GT(r.elapsedSeconds, 0.0);
}

TEST(Explorer, ValidateFinalSimulatesMappings)
{
    // The explorer never simulates; its result carries everything a
    // caller needs to validate the final mappings in one batch.
    DseOptions options = fastOptions(6);
    options.threads = 4;
    DseResult r = exploreOverlay(smallSuite(), options, &testModel());
    ASSERT_EQ(r.mappings.size(), 3u);
    std::vector<wl::KernelSpec> suite = smallSuite();
    std::vector<sim::SimJob> jobs;
    for (size_t k = 0; k < r.mappings.size(); ++k) {
        sim::SimJob job;
        job.spec = &suite[k];
        job.mdfg = &r.mdfgs[k];
        job.schedule = &r.schedules[k];
        job.design = &r.design;
        jobs.push_back(job);
    }
    sim::BatchOptions batch;
    batch.threads = 4;
    std::vector<sim::SimResult> sims = sim::runBatch(jobs, batch);
    ASSERT_EQ(sims.size(), r.mappings.size());
    for (size_t k = 0; k < r.mappings.size(); ++k) {
        const KernelMapping &mapping = r.mappings[k];
        EXPECT_TRUE(sims[k].completed) << mapping.kernel;
        EXPECT_GT(sims[k].cycles, 0u) << mapping.kernel;
        EXPECT_GT(sims[k].ipc, 0.0) << mapping.kernel;
        // The batched validation matches a direct simulation of the
        // same mapping exactly.
        wl::Memory memory;
        memory.init(suite[k]);
        sim::SimResult direct =
            sim::simulate(suite[k], r.mdfgs[k], r.schedules[k],
                          r.design, memory, {});
        EXPECT_EQ(sims[k].cycles, direct.cycles) << mapping.kernel;
        EXPECT_EQ(sims[k].ipc, direct.ipc) << mapping.kernel;
    }
}

} // namespace
} // namespace overgen::dse
