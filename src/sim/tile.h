#ifndef OVERGEN_SIM_TILE_H
#define OVERGEN_SIM_TILE_H

/**
 * @file
 * Cycle-level model of one OverGen tile (paper Fig. 8-10): the control
 * core / stream dispatcher startup, stream engines with stream-table
 * issue (one-hot bypass), port FIFOs, and the dataflow compute fabric.
 * Values move functionally (the fabric evaluates real iterations), so
 * simulation results are verified against the interpreter.
 */

#include <memory>

#include "sched/schedule.h"
#include "sim/exec.h"
#include "sim/memory_system.h"
#include "telemetry/ledger.h"

namespace overgen::telemetry {
class TimelineRun;
} // namespace overgen::telemetry

namespace overgen::sim {

/** Per-tile statistics. */
struct TileStats
{
    uint64_t firings = 0;
    uint64_t iterations = 0;
    uint64_t fabricStallCycles = 0;
    uint64_t startupCycles = 0;
    uint64_t spadBytes = 0;
    uint64_t dmaBytes = 0;
    uint64_t recurrenceBytes = 0;
    uint64_t finishCycle = 0;
    /** Where every clocked cycle went (always on; bit-identical with
     * fast-forward on or off — see telemetry/ledger.h). */
    telemetry::CycleLedger ledger;
};

/** One tile executing a scheduled mDFG over an outer-loop partition. */
class TileSim : public ClockedComponent
{
  public:
    /** @p trace_pid identifies the enclosing simulate() run in the
     * trace when `config.sink` is live (see telemetry/trace.h). */
    TileSim(const wl::KernelSpec &spec, const dfg::Mdfg &mdfg,
            const sched::Schedule &schedule, const adg::Adg &adg,
            const AddressMap &addresses, wl::Memory &memory,
            MemorySystem &memsys, int tile_index, int64_t outer_lo,
            int64_t outer_hi, const SimConfig &config,
            int trace_pid = 0);
    ~TileSim();

    /** Advance one cycle. @p cycle is the global cycle count. */
    void tick(uint64_t cycle) override;

    /** @name ClockedComponent (see src/sim/engine.h) */
    /// @{
    uint64_t nextEventCycle(uint64_t now) const override;
    void fastForward(uint64_t from, uint64_t to) override;
    uint64_t progressCount() const override;
    uint64_t quiescenceFingerprint() const override;
    void describeState(std::string &out) const override;
    /// @}

    /** @return whether all work (including drains) has retired. */
    bool done() const;

    /**
     * Stream interval time-series rows for this tile into @p run
     * every @p interval cycles. Each sample cycle is a horizon event
     * (nextEventCycle), so fast-forward stops on it instead of
     * stepping over it, and the rows are the same with fast-forward
     * on or off.
     */
    void attachTimeline(telemetry::TimelineRun *run,
                        uint64_t interval);

    /** @return statistics. */
    const TileStats &stats() const;

  private:
    struct Impl;
    std::unique_ptr<Impl> impl;
};

} // namespace overgen::sim

#endif // OVERGEN_SIM_TILE_H
