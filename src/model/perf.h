#ifndef OVERGEN_MODEL_PERF_H
#define OVERGEN_MODEL_PERF_H

/**
 * @file
 * Bottleneck-based performance model (paper §V-C, Eq. 1-2): estimated
 * IPC of an mDFG on a design point is its instruction bandwidth times
 * the tile count, scaled by the most-bottlenecked
 * production/consumption ratio over the memory hierarchy (scratchpad,
 * L2, DRAM) and the fabric port interfaces. Stream reuse factors from
 * the compiler's reuse analysis reduce consumption at each level.
 *
 * The model is factored in two halves (see DESIGN.md "Model split"):
 * precomputeTilePerf() summarizes everything that depends only on
 * (mDFG, backing, tile) once, and combineSystemPerf() evaluates one
 * system point against that summary with a handful of multiplies and
 * compares — the DSE's nested system grid pays only the second half.
 * estimateIpc() is the composition of the two for one-shot callers.
 */

#include <string>
#include <vector>

#include "adg/adg.h"
#include "dfg/mdfg.h"

namespace overgen::model {

/** Which hardware backs a memory stream after placement. */
enum class Backing : uint8_t {
    Dma,         //!< shared L2 / DRAM via the DMA engine
    Scratchpad,  //!< private on-tile scratchpad
    Recurrence,  //!< recurrence engine (no memory traffic in steady state)
    Generate,    //!< value generation (no memory traffic)
    Register,    //!< scalar collection (negligible)
};

/**
 * Flat backing table indexed by dfg::NodeId (hot-path replacement for
 * the former std::map: the DSE queries it per stream per candidate).
 * Entries exist for every node of the mDFG; only stream-node slots
 * are meaningful, the rest stay at the Dma default. An empty vector
 * means "no placement information" — the model derives the backing
 * itself.
 */
using BackingVec = std::vector<Backing>;

/** @return the backing of @p id; Dma when the table has no entry. */
inline Backing
backingOf(const BackingVec &backing, dfg::NodeId id)
{
    return id >= 0 && static_cast<size_t>(id) < backing.size()
               ? backing[static_cast<size_t>(id)]
               : Backing::Dma;
}

/** Technology constants of the memory system (bytes/cycle). */
struct PerfConfig
{
    double l2BankBandwidthBytes = 32.0;
    /** At the overlay clock (DDR4 ~18 GB/s at ~93 MHz). */
    double dramChannelBandwidthBytes = 192.0;
};

/** One mDFG plus its stream placements. */
struct PerfInput
{
    const dfg::Mdfg *mdfg = nullptr;
    /** Backing per node (see BackingVec); empty derives the backing
     * from the stream sources and the arrays' preferred placement. */
    BackingVec backing;
};

/** IPC estimate with the limiting factor decomposition. */
struct PerfBreakdown
{
    double ipc = 0.0;
    double instBandwidth = 0.0;
    double fabricFactor = 1.0;  //!< in/out port interface
    double spadFactor = 1.0;
    double l2Factor = 1.0;
    double dramFactor = 1.0;
    std::string bottleneck;     //!< name of the limiting level
};

/**
 * The design-dependent half of the performance model: every quantity
 * of the estimate that depends only on (mDFG, backing, tile) and not
 * on the system parameters. Computed once per (candidate, kernel) by
 * precomputeTilePerf(); the nested system DSE then evaluates each
 * grid point with combineSystemPerf() without re-walking the ADG or
 * the mDFG's streams.
 */
struct TilePerfSummary
{
    double instBandwidth = 0.0;
    /** Port-interface and scratchpad factors are system-independent
     * and carried over verbatim. */
    double fabricFactor = 1.0;
    double spadFactor = 1.0;
    /** Per-tile bytes/cycle demanded of the L2 (DMA-backed streams). */
    double l2Demand = 0.0;
    /** Aggregate DMA-engine bandwidth of the tile (bytes/cycle). */
    double dmaBytes = 0.0;

    /**
     * One DRAM-demand term per memory-backed stream, input streams
     * then output streams; combineSystemPerf() sums them in this
     * order once the system's L2 share is known.
     */
    struct DramTerm
    {
        /** Bytes/cycle after captured reuse and efficiency derating. */
        double demand = 0.0;
        /** Stream footprint; only meaningful when l2Filtered. */
        double footprintBytes = 0.0;
        /** General reuse factor, clamped to >= 1. */
        double generalReuse = 1.0;
        /** true: DMA-backed — the L2 filters the traffic when the
         * footprint fits its per-tile share (system-dependent);
         * false: scratchpad fill/drain — always divided by the
         * general reuse. */
        bool l2Filtered = false;
    };
    std::vector<DramTerm> dramTerms;
};

/** @return the default backing of each memory stream of @p mdfg given
 * the engines available in @p tile (spad capacity honored greedily in
 * array-size order; recurrence requires a recurrence engine). */
BackingVec deriveBacking(const dfg::Mdfg &mdfg, const adg::Adg &tile);

/** Estimate the IPC of one mDFG on the design point (Eq. 1):
 * combineSystemPerf(precomputeTilePerf(*input.mdfg, input.backing,
 * tile), sys, config). */
PerfBreakdown estimateIpc(const PerfInput &input, const adg::Adg &tile,
                          const adg::SystemParams &sys,
                          const PerfConfig &config = {});

/**
 * Precompute the system-independent half of the model for one mDFG on
 * one tile. An empty @p backing is derived with deriveBacking().
 */
TilePerfSummary precomputeTilePerf(const dfg::Mdfg &mdfg,
                                   const BackingVec &backing,
                                   const adg::Adg &tile);

/** Evaluate one system point against a precomputed tile summary. */
PerfBreakdown combineSystemPerf(const TilePerfSummary &summary,
                                const adg::SystemParams &sys,
                                const PerfConfig &config = {});

/**
 * Overall DSE performance objective: weighted geometric mean of the
 * best per-workload IPC estimates (paper §III-A).
 */
double performanceObjective(const std::vector<PerfBreakdown> &per_workload,
                            const std::vector<double> &weights);

} // namespace overgen::model

#endif // OVERGEN_MODEL_PERF_H
