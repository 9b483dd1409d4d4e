#ifndef OVERGEN_E2EBENCH_WORKLOADS_H
#define OVERGEN_E2EBENCH_WORKLOADS_H

/**
 * @file
 * The three benchmark workloads. Each builds its inputs from the seed,
 * runs one complete pass of its user task per pass() call, checks the
 * outputs, and derives its per-layer numbers from the spans the pass
 * recorded around its calls into the program.
 */

#include <memory>
#include <string>
#include <vector>

#include "util.h"

namespace e2e {

/** What one pass produced. */
struct PassResult
{
    /** User-visible seconds of the pass (the workload's job, without
     * the benchmark's own checks). */
    double wallS = 0.0;
    /** CPU seconds of the same section (this process and its reaped
     * workers). */
    double cpuS = 0.0;
    /** Checked operations and the ones that failed their check. */
    uint64_t attempted = 0;
    uint64_t failed = 0;
    /** Results that are a pure function of the seed; every pass of a
     * run must repeat them exactly. */
    std::map<std::string, double> exact;
    /** Per-layer metrics (filled on traced passes). */
    Metrics layers;
};

class Workload
{
  public:
    virtual ~Workload() = default;

    /** Build this workload's inputs from @p seed. Part of set-up; may
     * run more than once (set-up is timed several times). */
    virtual void prepare(uint64_t seed) = 0;

    /** Untimed work between set-up and the first pass (reference
     * outputs for the checks). */
    virtual void reference() {}

    /** Run one pass, recording spans into @p spans (disabled on
     * untraced passes). */
    virtual PassResult pass(SpanRecorder &spans) = 0;
};

std::unique_ptr<Workload> makeOverlayGen();
std::unique_ptr<Workload> makeKernelSweep();
std::unique_ptr<Workload> makeRequestTrace();

/** Workload names, in BENCHMARK.json order. */
const std::vector<std::string> &workloadNames();

} // namespace e2e

#endif // OVERGEN_E2EBENCH_WORKLOADS_H
