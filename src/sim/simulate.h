#ifndef OVERGEN_SIM_SIMULATE_H
#define OVERGEN_SIM_SIMULATE_H

/**
 * @file
 * Whole-system simulation entry point: N tiles executing the same
 * scheduled mDFG over a partitioned iteration space, sharing the banked
 * L2 and DRAM (paper Fig. 8, §VI-E execution convention).
 */

#include "sched/schedule.h"
#include "sim/memory_system.h"
#include "sim/tile.h"
#include "telemetry/phases.h"

namespace overgen::sim {

/** Result of one simulated kernel execution. */
struct SimResult
{
    bool completed = false;
    /** The deadlock watchdog aborted the run (implies !completed). */
    bool deadlocked = false;
    /** Watchdog diagnostic: the per-component describeState() dump
     * taken at abort time (empty unless deadlocked). */
    std::string diagnostic;
    uint64_t cycles = 0;
    uint64_t totalIterations = 0;
    /** Committed instructions (compute + memory ops) per cycle. */
    double ipc = 0.0;
    /** @name Wall-clock observability (how the engine spent the run;
     * excluded from the bit-identity contract and the counter dump) */
    /// @{
    /** Cycles executed tick-by-tick. */
    uint64_t tickedCycles = 0;
    /** Cycles elided by event-horizon fast-forward. */
    uint64_t skippedCycles = 0;
    /** Always 0: the simulator no longer has drain-replay windows.
     * Kept only because the benchmark's kernel_sweep still reads
     * both fields; the next change to the benchmark removes them. */
    uint64_t drainedCycles = 0;
    uint64_t drainJumps = 0;
    /// @}
    MemoryStats memory;
    std::vector<TileStats> tiles;
    /** This run's interval time-series samples (a copy of its
     * TimelineRun's, in cycle order; empty unless the sink sampled a
     * timeline). Observability like the ledger: bit-identical across
     * thread counts and engine modes. */
    std::vector<telemetry::TimelineSample> timelineRows;
};

/**
 * Phase decomposition of one simulated run: fold @p result's sampled
 * timeline rows into per-cycle samples, close the series with the
 * run's terminal ledgers so spans sum exactly to result.cycles, and
 * segment (telemetry::analyzePhases). steadyIpc is scaled to the same
 * committed-instruction convention as SimResult::ipc. Works on runs
 * with no sampled rows (single terminal sample, whole run one phase).
 */
telemetry::PhaseProfile
analyzeRunPhases(const SimResult &result);

/**
 * Simulate @p mdfg as scheduled on every tile of @p design, sharing
 * @p memory functionally. The outermost loop is partitioned across
 * tiles. @p memory must have been init()ed for @p spec.
 */
SimResult simulate(const wl::KernelSpec &spec, const dfg::Mdfg &mdfg,
                   const sched::Schedule &schedule,
                   const adg::SysAdg &design, wl::Memory &memory,
                   const SimConfig &config = {});

/**
 * Cycles to reconfigure the fabric with a new spatial bitstream through
 * the D-cache path (paper §VI-B): proportional to the mapped
 * configuration state. Contrast: full-FPGA reflash takes > 1 s.
 */
uint64_t reconfigurationCycles(const sched::Schedule &schedule,
                               const adg::Adg &adg);

} // namespace overgen::sim

#endif // OVERGEN_SIM_SIMULATE_H
