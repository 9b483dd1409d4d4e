#ifndef OVERGEN_TELEMETRY_TIMELINE_H
#define OVERGEN_TELEMETRY_TIMELINE_H

/**
 * @file
 * Interval time-series sampling. A Timeline collects TimelineRuns —
 * one per simulate() call — each a stream of TimelineSamples
 * snapshotting the run's CycleLedgers and key gauges every
 * `SinkOptions::statsInterval` cycles (`--stats-interval` on the
 * bench harnesses). Components append fixed-layout numeric samples;
 * this file is the only place that renders them — as JSONL text when
 * lines() or writeTo() asks for bytes, and as a traced run's counter
 * tracks (renderCounterTracks) when the run ends.
 *
 * Concurrency contract (mirrors Sink::logDse): beginRun() is
 * mutex-guarded so concurrent sim::runBatch jobs can open runs in any
 * completion order, while each TimelineRun is appended to by exactly
 * one simulation thread (a simulation is single-threaded), so
 * add() takes no lock. lines() and writeTo() serialize runs sorted
 * by (label, rendered content) — byte-identical output for every
 * batch thread count — and require the batch to have completed
 * (no concurrent add), like Sink::dseLines().
 */

#include <array>
#include <cstdint>
#include <deque>
#include <mutex>
#include <string>
#include <vector>

#include "telemetry/ledger.h"

namespace overgen::telemetry {

class TraceEmitter;

/** One row of a timeline: a component's cumulative ledger and gauges
 * at a sampled cycle. Rendered as compact JSON with sorted keys:
 * "comp", "cycle", "ledger", "run" and one key per gauge. */
struct TimelineSample
{
    /** Gauge slots of a tile row, in rendered key order. */
    enum TileGauge : int
    {
        DmaBytes,           //!< "dma_bytes"
        FabricStallCycles,  //!< "fabric_stall_cycles"
        Firings,            //!< "firings"
        Iterations,         //!< "iterations"
        SpadBytes,          //!< "spad_bytes"
        kTileGauges
    };
    /** Gauge slots of a memory-system row, in rendered key order. */
    enum MemoryGauge : int
    {
        BankQueueDepth,    //!< "bank_queue_depth"
        DramBytesRead,     //!< "dram_bytes_read"
        DramBytesWritten,  //!< "dram_bytes_written"
        L2Hits,            //!< "l2_hits"
        L2Misses,          //!< "l2_misses"
        MshrStallCycles,   //!< "mshr_stall_cycles"
        MshrsInUse,        //!< "mshrs_in_use"
        NocBytes,          //!< "noc_bytes"
        Outstanding,       //!< "outstanding"
        kMemoryGauges
    };
    /** `component` of the memory system's rows ("memory"). */
    static constexpr int kMemory = -1;

    uint64_t cycle = 0;
    /** Tile index ("tileN"), or kMemory. */
    int component = kMemory;
    /** The component's cumulative ledger at `cycle`. */
    CycleLedger ledger;
    /** TileGauge or MemoryGauge slots; a tile row leaves the tail 0. */
    std::array<uint64_t, kMemoryGauges> gauges{};

    bool isMemory() const { return component == kMemory; }

    bool operator==(const TimelineSample &other) const = default;
};

/** The sample stream of one simulated run (single-writer). */
class TimelineRun
{
  public:
    explicit TimelineRun(std::string label) : tag(std::move(label)) {}

    /** Run label stamped into each row ("run"). */
    const std::string &label() const { return tag; }

    /** Append one sample (rows of a run arrive in cycle order). */
    void add(const TimelineSample &sample) { rows.push_back(sample); }

    /** The samples in the order they were added. */
    const std::vector<TimelineSample> &samples() const { return rows; }

    /** The samples rendered as JSONL lines (cold path: reports and
     * tests). */
    std::vector<std::string> lines() const;

  private:
    std::string tag;
    std::vector<TimelineSample> rows;
};

/**
 * Render @p run's samples as the Chrome-trace counter tracks of trace
 * process @p pid, one point per sample: "l2.mshrs_in_use",
 * "noc.bytes_per_interval" and "dram.bytes_per_interval" on the
 * memory system's thread (tid 0), "tileN.firings_per_interval" and
 * "tileN.stall_cycles_per_interval" on tile N's (tid 1+N). A
 * per-interval point is the difference of its component's consecutive
 * cumulative gauges, so each such track sums to the last sample.
 */
void renderCounterTracks(const TimelineRun &run, TraceEmitter &trace,
                         int pid);

/** See file comment. */
class Timeline
{
  public:
    /**
     * Open the sample stream for one run. The returned pointer is
     * stable for the Timeline's lifetime and owned by it. Safe to call
     * concurrently (one call per runBatch job).
     */
    TimelineRun *beginRun(const std::string &label);

    /** @return total rows sampled so far (requires no concurrent
     * add; test/report convenience). */
    size_t rowCount() const;

    /**
     * All rows as JSONL lines, runs ordered by (label, rendered
     * content) — a pure function of the sampled data, independent of
     * the thread count or completion order that produced it.
     */
    std::vector<std::string> lines() const;

    /** Write lines() to @p path (one row per line). */
    void writeTo(const std::string &path) const;

  private:
    mutable std::mutex mutex;
    /** deque: stable element addresses across beginRun() growth. */
    std::deque<TimelineRun> runs;
};

} // namespace overgen::telemetry

#endif // OVERGEN_TELEMETRY_TIMELINE_H
