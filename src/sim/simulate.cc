#include "sim/simulate.h"

#include <memory>
#include <string>

#include "common/logging.h"
#include "sim/engine.h"
#include "telemetry/sink.h"

namespace overgen::sim {

namespace {

/** Dump the run's aggregate statistics into the counter registry
 * under "sim/<kernel>/..." (works even for deadlocked runs). */
void
dumpCounters(telemetry::Sink &sink, const std::string &kernel,
             const SimResult &result)
{
    telemetry::Registry &reg = sink.registry();
    const std::string base = "sim/" + kernel + "/";
    reg.counter(base + "runs").inc();
    reg.counter(base + "cycles").add(result.cycles);
    reg.counter(base + "iterations").add(result.totalIterations);
    const std::string mem = base + "memory/";
    reg.counter(mem + "l2_hits").add(result.memory.l2Hits);
    reg.counter(mem + "l2_misses").add(result.memory.l2Misses);
    reg.counter(mem + "dram_bytes_read")
        .add(result.memory.dramBytesRead);
    reg.counter(mem + "dram_bytes_written")
        .add(result.memory.dramBytesWritten);
    reg.counter(mem + "noc_bytes").add(result.memory.nocBytes);
    reg.counter(mem + "mshr_stall_cycles")
        .add(result.memory.mshrStallCycles);
    reg.counter(mem + "peak_outstanding_txns")
        .add(result.memory.peakOutstandingTxns);
    if (result.deadlocked)
        reg.counter(base + "deadlocks").inc();
    for (int c = 0; c < telemetry::kNumCycleCategories; ++c) {
        auto cat = static_cast<telemetry::CycleCategory>(c);
        reg.counter(mem + "cycles/" + telemetry::cycleCategoryName(cat))
            .add(result.memory.ledger[cat]);
    }
    for (size_t t = 0; t < result.tiles.size(); ++t) {
        const TileStats &ts = result.tiles[t];
        const std::string tile =
            base + "tile" + std::to_string(t) + "/";
        reg.counter(tile + "firings").add(ts.firings);
        reg.counter(tile + "iterations").add(ts.iterations);
        reg.counter(tile + "fabric_stall_cycles")
            .add(ts.fabricStallCycles);
        reg.counter(tile + "startup_cycles").add(ts.startupCycles);
        reg.counter(tile + "spad_bytes").add(ts.spadBytes);
        reg.counter(tile + "dma_bytes").add(ts.dmaBytes);
        reg.counter(tile + "recurrence_bytes")
            .add(ts.recurrenceBytes);
        for (int c = 0; c < telemetry::kNumCycleCategories; ++c) {
            auto cat = static_cast<telemetry::CycleCategory>(c);
            reg.counter(tile + "cycles/" +
                        telemetry::cycleCategoryName(cat))
                .add(ts.ledger[cat]);
        }
    }
}

/** The simulated system of one simulate() call. */
struct SimInstance
{
    std::unique_ptr<AddressMap> addresses;
    std::unique_ptr<MemorySystem> memsys;
    std::vector<std::unique_ptr<TileSim>> sims;
    std::vector<int> tileIds;
    telemetry::Sink *sink = nullptr;
    /** This run's timeline row stream (null when not sampling). */
    telemetry::TimelineRun *timelineRun = nullptr;
    bool tracing = false;
    int pid = 0;
    std::string runName;
};

SimInstance
buildInstance(const wl::KernelSpec &spec, const dfg::Mdfg &mdfg,
              const sched::Schedule &schedule,
              const adg::SysAdg &design, wl::Memory &memory,
              const SimConfig &config)
{
    OG_ASSERT(schedule.valid, "simulating an invalid schedule");
    SimInstance inst;
    inst.addresses = std::make_unique<AddressMap>(
        AddressMap::build(spec, config.cacheLineBytes));
    inst.memsys =
        std::make_unique<MemorySystem>(design.sys, config);

    // Telemetry identity for this run: one trace "process", counters
    // under "sim/<kernel>".
    inst.sink = config.sink;
    inst.tracing = inst.sink != nullptr && inst.sink->tracing();
    inst.runName = "simulate:" + spec.name;
    if (inst.sink != nullptr)
        inst.pid = inst.sink->nextRunId();
    if (inst.tracing) {
        telemetry::TraceEmitter &trace = inst.sink->trace();
        trace.processName(inst.pid, inst.runName);
        trace.threadName(inst.pid, 0, "memory-system");
        trace.begin(inst.runName, "sim", inst.pid, 0, 0);
    }

    // Partition the outermost loop across tiles.
    int tiles = std::max(1, design.sys.numTiles);
    int64_t outer = std::max<int64_t>(spec.loops[0].tripBase, 1);
    for (int t = 0; t < tiles; ++t) {
        int64_t lo = outer * t / tiles;
        int64_t hi = outer * (t + 1) / tiles;
        if (lo >= hi)
            continue;
        inst.sims.push_back(std::make_unique<TileSim>(
            spec, mdfg, schedule, design.adg, *inst.addresses, memory,
            *inst.memsys, t, lo, hi, config, inst.pid));
        inst.tileIds.push_back(t);
        if (inst.tracing) {
            std::string name = "tile" + std::to_string(t);
            inst.sink->trace().threadName(inst.pid, t + 1, name);
            inst.sink->trace().begin(name, "tile", inst.pid, t + 1,
                                     0);
        }
    }

    // Interval time-series: one TimelineRun per simulate() call, fed
    // by the memory system and every tile. Rows within a run are
    // appended by the single thread driving this engine; batch
    // drivers give each job a unique runLabel so lines() serializes
    // deterministically for every batch thread count.
    if (inst.sink != nullptr && inst.sink->timelineEnabled()) {
        const std::string label =
            config.runLabel.empty() ? spec.name : config.runLabel;
        telemetry::TimelineRun *run =
            inst.sink->timeline().beginRun(label);
        inst.timelineRun = run;
        uint64_t interval = inst.sink->options().statsInterval;
        inst.memsys->attachTimeline(run, interval);
        for (auto &sim : inst.sims)
            sim->attachTimeline(run, interval);
    }
    return inst;
}

/** Drive @p inst to completion and assemble the SimResult. */
SimResult
runInstance(SimInstance &inst, const wl::KernelSpec &spec,
            const dfg::Mdfg &mdfg, const SimConfig &config)
{
    // The engine ticks the memory system first, then the tiles, in
    // the order the historical loop did.
    SimEngine engine(config);
    engine.add(inst.memsys.get());
    for (auto &sim : inst.sims)
        engine.add(sim.get());
    std::vector<bool> traceEnded(inst.sims.size(), false);
    auto all_done = [&]() {
        bool all = true;
        for (size_t s = 0; s < inst.sims.size(); ++s) {
            bool done = inst.sims[s]->done();
            if (inst.tracing && done && !traceEnded[s]) {
                traceEnded[s] = true;
                inst.sink->trace().end(
                    "tile" + std::to_string(inst.tileIds[s]), "tile",
                    inst.pid, inst.tileIds[s] + 1,
                    inst.sims[s]->stats().finishCycle);
            }
            all &= done;
        }
        return all;
    };
    EngineOutcome outcome = engine.run(all_done);
    uint64_t cycle = outcome.cycles;

    SimResult result;
    result.completed = outcome.completed;
    result.deadlocked = outcome.deadlocked;
    result.diagnostic = outcome.diagnostic;
    result.cycles = cycle;
    result.tickedCycles = outcome.tickedCycles;
    result.skippedCycles = outcome.skippedCycles;
    result.memory = inst.memsys->stats();
    double insts = 0.0;
    for (auto &tile : inst.sims) {
        result.tiles.push_back(tile->stats());
        result.totalIterations += tile->stats().iterations;
        insts += static_cast<double>(tile->stats().firings) *
                 mdfg.instructionBandwidth() /
                 std::max(1, mdfg.vectorization()) *
                 mdfg.unrollFactor;
    }
    result.ipc = cycle > 0 ? insts / static_cast<double>(cycle) : 0.0;
    if (inst.timelineRun != nullptr)
        result.timelineRows = inst.timelineRun->samples();

    if (inst.tracing) {
        // Deadlocked tiles still need their end events matched.
        for (size_t s = 0; s < inst.sims.size(); ++s) {
            if (!traceEnded[s]) {
                inst.sink->trace().end(
                    "tile" + std::to_string(inst.tileIds[s]), "tile",
                    inst.pid, inst.tileIds[s] + 1, cycle);
            }
        }
        inst.sink->trace().end(inst.runName, "sim", inst.pid, 0,
                               cycle);
        // Counter tracks come from the timeline, at its cadence.
        if (inst.timelineRun != nullptr)
            telemetry::renderCounterTracks(*inst.timelineRun,
                                           inst.sink->trace(), inst.pid);
    }
    if (inst.sink != nullptr)
        dumpCounters(*inst.sink, spec.name, result);
    return result;
}

} // namespace

SimResult
simulate(const wl::KernelSpec &spec, const dfg::Mdfg &mdfg,
         const sched::Schedule &schedule, const adg::SysAdg &design,
         wl::Memory &memory, const SimConfig &config)
{
    SimInstance inst =
        buildInstance(spec, mdfg, schedule, design, memory, config);
    return runInstance(inst, spec, mdfg, config);
}

telemetry::PhaseProfile
analyzeRunPhases(const SimResult &result)
{
    std::vector<telemetry::PhaseSample> samples =
        telemetry::foldPhaseSamples(result.timelineRows);
    telemetry::CycleLedger tiles;
    uint64_t iterations = 0;
    uint64_t firings = 0;
    for (const TileStats &ts : result.tiles) {
        for (int c = 0; c < telemetry::kNumCycleCategories; ++c)
            tiles.counts[c] += ts.ledger.counts[c];
        iterations += ts.iterations;
        firings += ts.firings;
    }
    telemetry::appendTerminalSample(samples, result.cycles, tiles,
                                    result.memory.ledger, iterations,
                                    firings);
    // Scale firing deltas to the committed-instruction convention of
    // SimResult::ipc: insts = ipc * cycles, spread over the firings.
    double insts_per_firing =
        firings > 0 ? result.ipc * static_cast<double>(result.cycles) /
                          static_cast<double>(firings)
                    : 0.0;
    return telemetry::analyzePhases(samples, insts_per_firing);
}

uint64_t
reconfigurationCycles(const sched::Schedule &schedule,
                      const adg::Adg &adg)
{
    // Configuration state: per mapped node ~8 bytes, per routed hop
    // ~2 bytes, loaded through the D-cache at 8 bytes/cycle with a
    // small command overhead.
    uint64_t bytes = 0;
    bytes += schedule.placement.size() * 8;
    for (const auto &[edge, route] : schedule.routes)
        bytes += route.size() * 2;
    (void)adg;
    return 32 + bytes / 8;
}

} // namespace overgen::sim
