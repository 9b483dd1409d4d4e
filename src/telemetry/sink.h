#ifndef OVERGEN_TELEMETRY_SINK_H
#define OVERGEN_TELEMETRY_SINK_H

/**
 * @file
 * The telemetry sink: the one object instrumented code talks to. A
 * `Sink *` is threaded through `sim::SimConfig` and `dse::DseOptions`
 * with a null default — instrumentation sites guard on the pointer,
 * so a disabled sink costs one predictable branch and changes no
 * simulated behavior (observation only, never actuation).
 *
 * A live sink bundles:
 *  - a counter Registry (always on),
 *  - a Chrome trace_event emitter (on when a trace path is configured
 *    or explicitly enabled; see trace.h for the pid/tid convention),
 *  - an interval Timeline (on when `statsInterval` > 0): the
 *    simulator's one periodic sampler. Its sample cycles are ordinary
 *    fast-forward horizon events, so attaching a sink never changes
 *    how the engine ticks a run; a traced run's counter tracks are
 *    rendered from these samples (renderCounterTracks),
 *  - a JSONL log for per-iteration DSE records.
 *
 * flush() writes the configured output files; in-memory accessors
 * exist so tests can inspect everything without touching disk.
 */

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "telemetry/registry.h"
#include "telemetry/timeline.h"
#include "telemetry/trace.h"

namespace overgen::telemetry {

/** Sink configuration. */
struct SinkOptions
{
    /** Chrome trace output; tracing is enabled when non-empty. */
    std::string tracePath;
    /** DSE per-iteration JSONL output. */
    std::string dseLogPath;
    /** Record the trace in memory even without a tracePath (tests). */
    bool enableTrace = false;
    /** Also emit per-issue instant events (large traces). */
    bool traceDetail = false;
    /** Interval time-series JSONL output (`--stats-jsonl`); rows are
     * kept in memory (Timeline) when empty. */
    std::string timelinePath;
    /** Cycles between timeline samples (`--stats-interval`), which
     * are also the cycles of a trace's counter tracks; 0 disables
     * interval sampling and counter tracks entirely. */
    uint64_t statsInterval = 0;
};

/** See file comment. */
class Sink
{
  public:
    Sink() = default;
    explicit Sink(SinkOptions options) : opts(std::move(options)) {}

    const SinkOptions &options() const { return opts; }

    Registry &registry() { return reg; }
    const Registry &registry() const { return reg; }

    /** @return whether trace events should be recorded. */
    bool
    tracing() const
    {
        return opts.enableTrace || !opts.tracePath.empty();
    }

    /** @return whether fine-grained per-issue events are wanted. */
    bool traceDetail() const { return tracing() && opts.traceDetail; }

    TraceEmitter &trace() { return emitter; }
    const TraceEmitter &trace() const { return emitter; }

    /** @return whether interval time-series sampling is on. */
    bool timelineEnabled() const { return opts.statsInterval > 0; }

    Timeline &timeline() { return series; }
    const Timeline &timeline() const { return series; }

    /**
     * @return a fresh id for one traced activity (one simulate() call
     * maps to one trace "process"). Safe to call concurrently — ids
     * stay unique across threads.
     */
    int
    nextRunId()
    {
        return lastRunId.fetch_add(1, std::memory_order_relaxed) + 1;
    }

    /**
     * Append one DSE iteration record (serialized as a JSONL line).
     * Mutex-guarded: concurrent explorations may share one sink, and
     * each exploration emits its records in iteration order (the
     * explorer logs from its sequential accept scan, never from
     * worker threads).
     */
    void logDse(const Json &record);

    /** @return the buffered JSONL lines (tests, in-memory use);
     * requires no concurrent logDse. */
    const std::vector<std::string> &dseLines() const { return dseLog; }

    /** Write the configured trace / DSE-log files. Idempotent. */
    void flush();

  private:
    SinkOptions opts;
    Registry reg;
    TraceEmitter emitter;
    Timeline series;
    std::mutex dseMutex;
    std::vector<std::string> dseLog;
    std::atomic<int> lastRunId{ 0 };
};

} // namespace overgen::telemetry

#endif // OVERGEN_TELEMETRY_SINK_H
