#ifndef OVERGEN_DSE_EXPLORER_H
#define OVERGEN_DSE_EXPLORER_H

/**
 * @file
 * The unified system + accelerator design space explorer (paper §V):
 * an outer simulated-annealing loop mutates the per-tile ADG (with
 * schedule-preserving transformations) and repairs the pre-generated
 * mDFG variants' schedules; a nested exhaustive system DSE picks tile
 * count, L2 banking/capacity and NoC width under the FPGA resource
 * budget; the objective is the weighted geomean of estimated IPC,
 * with estimated resources-per-accelerator as a pruning secondary.
 * Candidates are scored by the models alone: the explorer never
 * simulates, and running the chosen overlay is the caller's step
 * (sim::runBatch over DseResult::mdfgs/schedules).
 */

#include <vector>

#include "model/perf.h"
#include "model/resource_model.h"
#include "sched/scheduler.h"
#include "workloads/kernelspec.h"

namespace overgen::telemetry {
class Sink;
} // namespace overgen::telemetry

namespace overgen::dse {

/**
 * Candidate scoring rule. The explorer has one: the weighted geomean
 * of estimated IPC (paper Eq. 1). The explorer reads neither this
 * one-value enum nor DseOptions::objective; they remain only because
 * `e2ebench/overlay_gen.cc` assigns `DseObjective::Scalar`, their
 * only user.
 */
enum class DseObjective : int
{
    Scalar = 0,
};

/** Explorer options. */
struct DseOptions
{
    uint64_t seed = 1;
    /** Spatial DSE iterations (the paper runs hours; benches minutes). */
    int iterations = 60;
    double initialTemperature = 0.6;
    /**
     * Worker threads for speculative candidate scoring: 0 selects the
     * hardware concurrency, 1 is the serial path (no threads spawned).
     * The accept scan scores a round's candidates in waves of this
     * many, so at 1 each candidate is scored only when the scan
     * reaches it. The explored trajectory is bit-identical for every
     * value — per-candidate Rng streams are split off the master seed
     * before any scoring and accept decisions are applied in fixed
     * candidate order, so threads only change wall-clock and
     * DseResult::scored (see DESIGN.md "Determinism under
     * parallelism").
     */
    int threads = 1;
    /**
     * Speculation width: candidates drawn from the current design per
     * annealing round. Part of the seeded algorithm (changing it
     * changes the trajectory; changing `threads` does not).
     * Candidates after an accepted one in a round are discarded
     * unexamined — their mutations were drawn against a stale base.
     * Scoring is lazy, so at `threads` = 1 a discarded candidate is
     * never scored and wider speculation costs no serial work; with
     * more threads only the accepting wave's later slots are scored
     * in vain.
     */
    int speculation = 8;
    /** Resource budget fraction of the device. */
    double budgetFraction = 0.97;
    /** Enable schedule-preserving transformations (Fig. 20 ablation). */
    bool schedulePreserving = true;
    /** Apply OverGen source tuning when compiling variants. */
    bool applyTuning = false;
    /** Nested system-DSE grids (paper §III-B). Each axis is iterated
     * in ascending order; resources are monotone per axis, so the
     * explorer prunes whole over-budget subtrees instead of visiting
     * every point (see DESIGN.md "Model split"). */
    std::vector<int> tileCountGrid{ 1, 2, 3, 4, 6, 8, 10, 13, 16 };
    std::vector<int> l2BankGrid{ 4, 8, 16 };
    std::vector<int> nocBytesGrid{ 32, 64 };
    std::vector<int> l2CapacityGrid{ 256, 512, 1024 };
    std::vector<int> dramChannelGrid{ 1 };
    model::PerfConfig perf;
    /** Always Scalar; see DseObjective. */
    DseObjective objective = DseObjective::Scalar;

    /**
     * Telemetry sink: when live, the explorer appends one JSONL
     * record per iteration (iteration, temperature, objective,
     * accept/reject, mutation kinds, resource slack, seconds) and
     * counts mutations/acceptances in the registry. Null disables
     * all DSE telemetry.
     */
    telemetry::Sink *sink = nullptr;
    /** Tag stamped into each JSONL record ("run"), distinguishing
     * multiple explorations sharing one sink. */
    std::string telemetryLabel;
    /**
     * Emit one `"type":"heartbeat"` progress record on the sink every
     * N annealing rounds (candidates/sec, best-so-far objective;
     * 0 disables). Heartbeats ride the same
     * JSONL stream as iteration records — consumers filter on the
     * "type" key — and are deterministic in count and content except
     * for the wall-clock rate fields.
     */
    int heartbeatEvery = 4;
};

/** One point of the DSE convergence trace (Fig. 20). */
struct ConvergencePoint
{
    double seconds = 0.0;
    int iteration = 0;
    double estimatedIpc = 0.0;
};

/** Per-kernel outcome on the final design. */
struct KernelMapping
{
    std::string kernel;
    int variantIndex = -1;          //!< into the kernel's variant list
    std::string variantName;
    double estimatedIpc = 0.0;
    std::string bottleneck;
};

/** Explorer result. */
struct DseResult
{
    adg::SysAdg design;
    double objective = 0.0;  //!< weighted geomean estimated IPC
    model::Resources resources;
    double utilization = 0.0;
    std::vector<KernelMapping> mappings;
    /** Final schedules + chosen variants, index-aligned to mappings. */
    std::vector<sched::Schedule> schedules;
    std::vector<dfg::Mdfg> mdfgs;
    std::vector<ConvergencePoint> convergence;
    int iterationsRun = 0;
    int accepted = 0;
    int abandoned = 0;  //!< candidates with an unschedulable kernel
    /** Candidates drawn, including speculative ones discarded after
     * an in-round acceptance (== iterationsRun + discarded). A
     * function of the trajectory, independent of the thread count. */
    int evaluated = 0;
    /** Speculative candidates discarded unexamined (never scored at
     * `threads` = 1). */
    int discarded = 0;
    /** Candidates actually scored (mutation + schedule repair +
     * system DSE) — the host work. Depends on the thread count:
     * == iterationsRun at `threads` = 1, up to `evaluated` when a
     * wave spans a whole round. */
    int scored = 0;
    /** Always 0: candidate evaluation is not memoized (DESIGN.md
     * "Model split"). Kept only for existing readers. */
    uint64_t cacheHits = 0;
    uint64_t cacheMisses = 0;
    /** System-grid points skipped by monotone budget pruning while
     * scoring the seed and every examined candidate (a deterministic
     * function of the trajectory; discarded candidates add nothing,
     * even when a wave scored them). */
    uint64_t gridPruned = 0;
    double elapsedSeconds = 0.0;
};

/**
 * Run the unified DSE for @p kernels (the "domain"). The resource
 * model prices candidates; the returned design is the best accepted
 * sysADG.
 */
DseResult exploreOverlay(const std::vector<wl::KernelSpec> &kernels,
                         const DseOptions &options = {},
                         const model::FpgaResourceModel *resource_model =
                             nullptr);

/** Build the seed ADG the DSE starts from (a capability-complete mesh
 * over the kernels' needs). */
adg::Adg seedTile(const std::vector<wl::KernelSpec> &kernels);

} // namespace overgen::dse

#endif // OVERGEN_DSE_EXPLORER_H
