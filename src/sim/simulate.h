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
#include "sim/snapshot.h"
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
    /** This run's interval time-series rows (the exact bytes of its
     * TimelineRun; empty unless the sink sampled a timeline).
     * Observability like the ledger: bit-identical across thread
     * counts and engine modes. A resumeFrom() run holds only the rows
     * of boundaries after the checkpoint — concatenating the
     * interrupted run's earlier rows reconstructs the uninterrupted
     * buffer byte-for-byte (see analyzeRunPhases' prefix_rows). */
    std::string timelineRows;
};

/**
 * Phase decomposition of one simulated run: parse @p result's sampled
 * timeline rows (prepending @p prefix_rows, e.g. the pre-checkpoint
 * rows a resumed run did not re-sample), close the series with the
 * run's terminal ledgers so spans sum exactly to result.cycles, and
 * segment (telemetry::analyzePhases). steadyIpc is scaled to the same
 * committed-instruction convention as SimResult::ipc. Works on runs
 * with no sampled rows (single terminal sample, whole run one phase).
 */
telemetry::PhaseProfile
analyzeRunPhases(const SimResult &result,
                 std::string_view prefix_rows = {});

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
 * Resume a simulation from a checkpoint @p snap captured by an
 * earlier simulate() run (SimConfig::checkpointEvery +
 * SimConfig::checkpointSink) of the *same* (spec, mdfg, schedule,
 * design, config) inputs. The simulated system is rebuilt exactly as
 * simulate() builds it, every component restores its serialized
 * state, and the engine re-enters its loop at the checkpoint cycle —
 * the returned SimResult is bit-identical to the uninterrupted run
 * (cycles, stats, ledgers, watchdog abort cycles; tickedCycles /
 * skippedCycles continue from the checkpoint's counters).
 *
 * @p memory must have been init()ed for @p spec (array contents are
 * overwritten from the snapshot). Fatal when the snapshot fails its
 * digest check or describes different simulation inputs.
 */
SimResult resumeFrom(const Snapshot &snap, const wl::KernelSpec &spec,
                     const dfg::Mdfg &mdfg,
                     const sched::Schedule &schedule,
                     const adg::SysAdg &design, wl::Memory &memory,
                     const SimConfig &config = {});

/**
 * Digest of the SimConfig fields that shape simulated behavior — the
 * compatibility check between a checkpoint and the configuration it
 * resumes under. Excluded on purpose:
 *  - the engine-mode flags (noFastForward / checkFastForward) and all
 *    telemetry plumbing: results are bit-identical across them, so a
 *    snapshot from a fast-forwarding run may resume under the naive
 *    or checked loop and vice versa;
 *  - maxCycles: the budget only bounds the engine's loop, never the
 *    per-cycle evolution, so a checkpoint from a run cut short by
 *    its budget is exactly the state a longer-budget run passes
 *    through — resuming it with more budget simulates only the
 *    unseen suffix.
 */
uint64_t configDigest(const SimConfig &config);

/**
 * Cycles to reconfigure the fabric with a new spatial bitstream through
 * the D-cache path (paper §VI-B): proportional to the mapped
 * configuration state. Contrast: full-FPGA reflash takes > 1 s.
 */
uint64_t reconfigurationCycles(const sched::Schedule &schedule,
                               const adg::Adg &adg);

} // namespace overgen::sim

#endif // OVERGEN_SIM_SIMULATE_H
