#include <gtest/gtest.h>

#include <functional>
#include <string>
#include <vector>

#include "common/json.h"
#include "dse/explorer.h"
#include "library/store.h"
#include "model/resource_model.h"
#include "sim/batch.h"
#include "telemetry/sink.h"
#include "workloads/suites.h"

namespace overgen {
namespace {

/**
 * The determinism contract (DESIGN.md "Determinism under
 * parallelism"): `DseOptions::threads` changes wall-clock only. Every
 * thread count must walk the exact same annealing trajectory —
 * per-candidate Rng streams are split off the master seed before any
 * parallel work, and accept decisions are applied in fixed candidate
 * order — so the best design, its objective, and the telemetry record
 * stream are bit-identical across thread counts.
 */

/** Fast-training resource model shared across this file. */
const model::FpgaResourceModel &
testModel()
{
    static model::FpgaResourceModel m = [] {
        model::ResourceModelConfig config;
        config.peSamples = 600;
        config.switchSamples = 300;
        config.inPortSamples = 200;
        config.outPortSamples = 200;
        config.train.epochs = 40;
        return model::FpgaResourceModel::train(config);
    }();
    return m;
}

struct ExploreRun
{
    dse::DseResult result;
    /** The per-iteration JSONL stream with wall-clock fields zeroed
     * — everything else in a record derives from the trajectory. */
    std::vector<std::string> records;
};

std::vector<std::string>
canonicalRecords(const std::vector<std::string> &lines)
{
    std::vector<std::string> out;
    for (const std::string &line : lines) {
        Json record = Json::parse(line);
        record.set("seconds", Json(0.0));
        // The heartbeat rate field is wall-clock-flavored too.
        record.asObject().erase("candidates_per_sec");
        out.push_back(record.dump());
    }
    return out;
}

/** The two-kernel domain every exploration here targets. */
std::vector<wl::KernelSpec>
domain()
{
    return { wl::makeFir(128, 16), wl::makeAccumulate(16) };
}

ExploreRun
explore(int threads, uint64_t seed,
        const std::function<void(dse::DseOptions &)> &adjust = {})
{
    telemetry::Sink sink;
    dse::DseOptions options;
    options.seed = seed;
    options.iterations = 10;
    options.threads = threads;
    options.tileCountGrid = { 1, 2, 4 };
    options.l2BankGrid = { 4, 8 };
    options.nocBytesGrid = { 64 };
    options.l2CapacityGrid = { 512 };
    options.sink = &sink;
    options.telemetryLabel = "determinism";
    if (adjust)
        adjust(options);
    ExploreRun run;
    run.result = dse::exploreOverlay(domain(), options, &testModel());
    run.records = canonicalRecords(sink.dseLines());
    return run;
}

void
expectIdentical(const ExploreRun &a, const ExploreRun &b, const std::string &label)
{
    // Bit-identical design: the full ADG + system-parameter JSON
    // serialization must match byte for byte.
    EXPECT_EQ(a.result.design.toJson().dump(),
              b.result.design.toJson().dump())
        << label;
    // Exact double equality is intentional — the trajectories must be
    // the same computation, not merely close.
    EXPECT_EQ(a.result.objective, b.result.objective) << label;
    EXPECT_EQ(a.result.iterationsRun, b.result.iterationsRun) << label;
    EXPECT_EQ(a.result.accepted, b.result.accepted) << label;
    EXPECT_EQ(a.result.abandoned, b.result.abandoned) << label;
    EXPECT_EQ(a.result.evaluated, b.result.evaluated) << label;
    EXPECT_EQ(a.result.discarded, b.result.discarded) << label;
    // One JSONL record per examined iteration, identical except for
    // wall-clock timestamps.
    EXPECT_EQ(a.records, b.records) << label;

    // Same per-kernel mappings on the final design.
    ASSERT_EQ(a.result.mappings.size(), b.result.mappings.size());
    for (size_t i = 0; i < a.result.mappings.size(); ++i) {
        EXPECT_EQ(a.result.mappings[i].variantIndex,
                  b.result.mappings[i].variantIndex)
            << label;
        EXPECT_EQ(a.result.mappings[i].estimatedIpc,
                  b.result.mappings[i].estimatedIpc)
            << label;
    }

    // Same convergence history (timestamps aside — those are
    // wall-clock, explicitly outside the contract).
    ASSERT_EQ(a.result.convergence.size(), b.result.convergence.size())
        << label;
    for (size_t i = 0; i < a.result.convergence.size(); ++i) {
        EXPECT_EQ(a.result.convergence[i].iteration,
                  b.result.convergence[i].iteration)
            << label;
        EXPECT_EQ(a.result.convergence[i].estimatedIpc,
                  b.result.convergence[i].estimatedIpc)
            << label;
    }
}

TEST(ParallelDeterminism, ThreadCountDoesNotChangeTrajectory)
{
    ExploreRun serial = explore(1, 42);
    ExploreRun two = explore(2, 42);
    ExploreRun eight = explore(8, 42);
    expectIdentical(serial, two, "threads 1 vs 2");
    expectIdentical(serial, eight, "threads 1 vs 8");
}

TEST(ParallelDeterminism, RerunWithSameSeedIsReproducible)
{
    ExploreRun first = explore(4, 7);
    ExploreRun second = explore(4, 7);
    expectIdentical(first, second, "same seed, same threads");
}

TEST(ParallelDeterminism, DifferentSeedsDiverge)
{
    // Sanity check that the comparisons above have teeth: different
    // seeds draw different mutations, so the per-iteration record
    // streams must differ even if both searches end at similar
    // designs.
    ExploreRun a = explore(2, 1);
    ExploreRun b = explore(2, 99);
    EXPECT_NE(a.records, b.records);
}

TEST(ParallelDeterminism, ValidatedFinalIsThreadIndependent)
{
    // Validating the final mappings in one sim::runBatch sweep is part
    // of the same determinism contract — the trajectory, the final
    // mappings, and the simulated cycle counts must be bit-identical
    // across thread counts.
    std::vector<wl::KernelSpec> kernels = domain();
    auto validated_cycles = [&kernels](const dse::DseResult &result,
                                       int threads) {
        std::vector<sim::SimJob> jobs;
        for (size_t k = 0; k < result.mappings.size(); ++k) {
            sim::SimJob job;
            job.spec = &kernels[k];
            job.mdfg = &result.mdfgs[k];
            job.schedule = &result.schedules[k];
            job.design = &result.design;
            jobs.push_back(job);
        }
        sim::BatchOptions batch;
        batch.threads = threads;
        std::vector<uint64_t> cycles;
        for (const sim::SimResult &sim : sim::runBatch(jobs, batch))
            cycles.push_back(sim.cycles);
        return cycles;
    };
    ExploreRun serial = explore(1, 42);
    ExploreRun four = explore(4, 42);
    expectIdentical(serial, four, "validated final threads 1 vs 4");
    ASSERT_EQ(serial.result.mappings.size(),
              four.result.mappings.size());
    std::vector<uint64_t> serial_cycles =
        validated_cycles(serial.result, 1);
    std::vector<uint64_t> four_cycles = validated_cycles(four.result, 4);
    ASSERT_EQ(serial_cycles.size(), serial.result.mappings.size());
    for (size_t i = 0; i < serial_cycles.size(); ++i)
        EXPECT_EQ(serial_cycles[i], four_cycles[i]) << i;
}

TEST(ParallelDeterminism, EvaluationCountIsThreadIndependent)
{
    // The speculation width (not the thread count) fixes how many
    // candidates each round evaluates, so total work is identical at
    // any thread count — measured speedup is pure parallelism.
    ExploreRun serial = explore(1, 5);
    ExploreRun parallel = explore(8, 5);
    EXPECT_EQ(serial.result.evaluated, parallel.result.evaluated);
    EXPECT_EQ(serial.result.discarded, parallel.result.discarded);
    EXPECT_EQ(serial.result.evaluated,
              serial.result.iterationsRun + serial.result.discarded);
}

TEST(ParallelDeterminism, TrajectoryIsPinnedAcrossCommits)
{
    // The tests above compare runs of one build against each other; this
    // one pins the discrete outcome of two explorations to values
    // recorded before the evaluation path was last reworked, so a change
    // that silently alters the trajectory (rather than only its speed)
    // fails here. Only exact counts and the canonical design fingerprint
    // are pinned, never floating-point objectives. At this budget both
    // seeds keep the seed tile as their best design, so the counts are
    // what tells the two trajectories apart.
    struct Pin
    {
        uint64_t seed;
        int evaluated, accepted, abandoned, discarded;
        uint64_t gridPruned;
        std::pair<uint64_t, uint64_t> design;
    };
    const Pin pins[] = {
        { 42, 43, 8, 2, 33, 0,
          { 0x095d06faf09bcd23ull, 0x7eee2e9f5a034e27ull } },
        { 7, 45, 9, 1, 35, 0,
          { 0x095d06faf09bcd23ull, 0x7eee2e9f5a034e27ull } },
    };
    for (const Pin &pin : pins) {
        ExploreRun run = explore(2, pin.seed);
        const dse::DseResult &r = run.result;
        const std::string label = "seed " + std::to_string(pin.seed);
        EXPECT_EQ(r.evaluated, pin.evaluated) << label;
        EXPECT_EQ(r.accepted, pin.accepted) << label;
        EXPECT_EQ(r.abandoned, pin.abandoned) << label;
        EXPECT_EQ(r.discarded, pin.discarded) << label;
        EXPECT_EQ(r.gridPruned, pin.gridPruned) << label;
        auto fp = library::fingerprintDesign(
            library::canonicalDesign(r.design));
        EXPECT_EQ(fp.first, pin.design.first) << label;
        EXPECT_EQ(fp.second, pin.design.second) << label;
    }
}

TEST(ParallelDeterminism, ScoredCountsOnlyExaminedWork)
{
    // Scoring is lazy: the accept scan scores slots in waves of
    // `threads` just before examining them. Serially, no candidate
    // discarded after an accept is ever scored; a wave as wide as the
    // round scores every drawn candidate; in between, host work lies
    // between the two.
    ExploreRun serial = explore(1, 5);
    EXPECT_GT(serial.result.discarded, 0);
    EXPECT_EQ(serial.result.scored, serial.result.iterationsRun);
    ExploreRun eight = explore(8, 5, [](dse::DseOptions &o) {
        o.speculation = 8;
    });
    EXPECT_EQ(eight.result.scored, eight.result.evaluated);
    for (int threads : { 1, 2, 3, 4, 8 }) {
        ExploreRun run = explore(threads, 5);
        const dse::DseResult &r = run.result;
        EXPECT_LE(r.iterationsRun, r.scored) << threads << " threads";
        EXPECT_LE(r.scored, r.evaluated) << threads << " threads";
        EXPECT_EQ(r.evaluated, serial.result.evaluated)
            << threads << " threads";
    }
}

TEST(ParallelDeterminism, GridPrunedIsThreadIndependent)
{
    // The explore() grids fit the budget at every point, so they prune
    // nothing. A tight budget over a wide tile-count axis prunes on
    // almost every candidate, including the speculative ones a wider
    // wave scores and then discards; only examined candidates may
    // count, or the total would grow with the thread count.
    auto pruning = [](dse::DseOptions &o) {
        o.tileCountGrid = { 1, 2, 4, 8, 16, 32 };
        o.l2BankGrid = { 4, 8, 16 };
        o.nocBytesGrid = { 32, 64 };
        o.budgetFraction = 0.35;
    };
    ExploreRun serial = explore(1, 42, pruning);
    EXPECT_GT(serial.result.gridPruned, 0u);
    EXPECT_GT(serial.result.discarded, 0);
    for (int threads : { 2, 8 }) {
        ExploreRun run = explore(threads, 42, pruning);
        const std::string label =
            "threads 1 vs " + std::to_string(threads);
        EXPECT_EQ(serial.result.gridPruned, run.result.gridPruned)
            << label;
        expectIdentical(serial, run, label);
    }
}

} // namespace
} // namespace overgen
