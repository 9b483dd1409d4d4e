#ifndef OVERGEN_SIM_BATCH_H
#define OVERGEN_SIM_BATCH_H

/**
 * @file
 * Batched simulation: run many (design, workload) simulations
 * concurrently on a common/parallel.h pool with index-ordered,
 * thread-count-invariant results. Each simulate() call is
 * single-threaded and deterministic, touches only its own job state
 * (plus the thread-safe telemetry sink), and writes its result at its
 * own index — so runBatch(jobs, 1 thread) == runBatch(jobs, N
 * threads) == a serial loop of simulate() calls, bit for bit (see
 * DESIGN.md "SimEngine and event-horizon fast-forward").
 */

#include <vector>

#include "common/parallel.h"
#include "sim/simulate.h"

namespace overgen::sim {

/**
 * One element of a batch. The pointees must stay alive until
 * runBatch returns; distinct jobs may share them (simulation only
 * reads spec/mdfg/schedule/design).
 */
struct SimJob
{
    const wl::KernelSpec *spec = nullptr;
    const dfg::Mdfg *mdfg = nullptr;
    const sched::Schedule *schedule = nullptr;
    const adg::SysAdg *design = nullptr;
    /**
     * Simulated memory image. Null (the common case) makes runBatch
     * init() a private image and discard it after the run; tests that
     * inspect the produced arrays pass their own. A non-null image
     * must not be shared with a concurrent job.
     */
    wl::Memory *memory = nullptr;
    SimConfig config;
};

/** Execution knobs for runBatch. */
struct BatchOptions
{
    /** Worker threads: 0 = hardware concurrency, 1 = inline serial. */
    int threads = 1;
};

/** Simulate every job; results are index-ordered (result[i] is
 * jobs[i]) and identical for every thread count. */
std::vector<SimResult> runBatch(const std::vector<SimJob> &jobs,
                                const BatchOptions &options = {});

} // namespace overgen::sim

#endif // OVERGEN_SIM_BATCH_H
