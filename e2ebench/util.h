#ifndef OVERGEN_E2EBENCH_UTIL_H
#define OVERGEN_E2EBENCH_UTIL_H

/**
 * @file
 * The benchmark's own helpers, independent of the OverGen libraries so
 * the self-test links only this: argument parsing, the seeded request
 * trace and its admission windows, percentile selection, the span
 * recorder with its self-time report, and metric output.
 */

#include <chrono>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace e2e {

/** @name Arguments */
/// @{
struct Args
{
    std::string workload;
    uint64_t seed = 0;
    int seconds = 0;
    bool trace = false;
};

/**
 * Parse `--workload <name> --seed <n> --seconds <n> --trace <0|1>`
 * (also `--flag=value`). Workload and seed are required; seconds
 * defaults to 10 and trace to 0. Returns an error message for an
 * unknown flag or workload, a non-numeric value, a missing value or a
 * repeated flag (both spellings count as one flag).
 */
std::optional<std::string> parseArgs(const std::vector<std::string> &argv,
                                     const std::vector<std::string> &workloads,
                                     Args &out);
/// @}

/** @name Seeded request trace */
/// @{
/** splitmix64: the benchmark's own deterministic stream. */
uint64_t nextRand(uint64_t &state);
/** Uniform in [0, 1). */
double nextUnit(uint64_t &state);

struct Request
{
    /** When the request arrives, in ms from the start of the trace. */
    double dueMs = 0.0;
    /** Index into the kernel-name list the trace was drawn over. */
    int kernel = 0;
};

/**
 * @p count Poisson arrivals at @p ratePerSec whose kernel follows a
 * Zipf(@p alpha) popularity over @p kernels names. The rank -> kernel
 * mapping is shuffled by the seed and re-drawn every @p epoch requests
 * (0: never), so the popular set drifts over the trace. A pure function
 * of its arguments.
 */
std::vector<Request> makeTrace(size_t kernels, size_t count,
                               double ratePerSec, double alpha, size_t epoch,
                               uint64_t seed);

/** One admission window: the requests that arrived in it, admitted
 * together when it closes. */
struct Batch
{
    /** Window close, ms from the start of the trace. */
    double dueMs = 0.0;
    /** Indices into the trace, in arrival order. */
    std::vector<size_t> requests;
};

/** Group @p trace into fixed @p windowMs windows (empty windows are
 * dropped), so batch composition is a pure function of the trace. */
std::vector<Batch> admissionWindows(const std::vector<Request> &trace,
                                    double windowMs);
/// @}

/** @name Statistics */
/// @{
/** Median (mean of the middle pair for an even count); 0 when empty. */
double median(std::vector<double> values);

/**
 * Nearest-rank percentile @p p (0-100] of @p values, only when at
 * least @p minBeyond samples lie above its rank; nullopt otherwise
 * (or when empty).
 */
std::optional<double> percentile(std::vector<double> values, double p,
                                 size_t minBeyond = 10);

/// @}

/** @name Spans */
/// @{
using Clock = std::chrono::steady_clock;

struct Span
{
    std::string name;
    int64_t startNs = 0;
    int64_t endNs = 0;
    /** Index of the enclosing span in the recorder, -1 at the root. */
    int parent = -1;
    /** Shared by every span of one request batch, -1 elsewhere. */
    int64_t batch = -1;
};

/**
 * In-memory span store for the traced run. Spans nest on one thread
 * (the benchmark's own); they are written out once, at exit. A
 * disabled recorder records nothing and costs one branch per span.
 */
class SpanRecorder
{
  public:
    explicit SpanRecorder(bool enabled) : on(enabled) {}

    bool enabled() const { return on; }
    /** Open a span under the innermost open one; @return its index
     * (-1 when disabled). */
    int begin(const std::string &name, int64_t batch = -1);
    void end(int index);

    const std::vector<Span> &spans() const { return all; }
    /** Append closed spans recorded elsewhere (their roots stay
     * roots; parent indices are relative to @p spans). */
    void absorb(const std::vector<Span> &spans);

    /** Chrome trace_event JSON ("X" events; args carry id, parent and
     * batch). @return false when the file cannot be written. */
    bool writeChromeTrace(const std::string &path) const;

  private:
    bool on;
    std::vector<Span> all;
    std::vector<int> open;
};

/** RAII span; a null or disabled recorder makes it a no-op. */
class ScopedSpan
{
  public:
    ScopedSpan(SpanRecorder *recorder, const std::string &name,
               int64_t batch = -1)
        : rec(recorder != nullptr && recorder->enabled() ? recorder
                                                          : nullptr),
          index(rec != nullptr ? rec->begin(name, batch) : -1)
    {
    }
    ~ScopedSpan()
    {
        if (rec != nullptr)
            rec->end(index);
    }
    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

  private:
    SpanRecorder *rec;
    int index;
};

/** Self time of each span in ns: its duration minus the part of its
 * interval that its direct children cover. */
std::vector<int64_t> selfTimesNs(const std::vector<Span> &spans);

/** The layer of a span: its name up to the first '.'. */
std::string layerOf(const std::string &spanName);

/** Per-layer sums of self time, in seconds. */
std::map<std::string, double> layerSelfSeconds(const std::vector<Span> &spans);

/** Total duration of the spans named @p name, in seconds. */
double spanSeconds(const std::vector<Span> &spans, const std::string &name);
/// @}

/** @name Process */
/// @{
double secondsSince(Clock::time_point start);
/** Peak resident set of this process, MiB. */
double peakRssMb();
/** CPU seconds (user + system) of this process plus its reaped
 * children. */
double cpuSeconds();
/// @}

/** A metric as the result line carries it. */
struct Metric
{
    double value = 0.0;
    std::string unit;
};
using Metrics = std::map<std::string, Metric>;

/** The result line: {"correct": .., "attempted": .., "failed": ..,
 * "metrics": {name: {"value": v, "unit": u}}}. */
std::string resultJson(bool correct, uint64_t attempted, uint64_t failed,
                       const Metrics &metrics);

} // namespace e2e

#endif // OVERGEN_E2EBENCH_UTIL_H
