#ifndef OVERGEN_TELEMETRY_PHASES_H
#define OVERGEN_TELEMETRY_PHASES_H

/**
 * @file
 * Phase segmentation over the interval time-series (timeline.h): turn
 * one run's sampled ledger rows into a startup / ramp / steady / drain
 * decomposition with per-phase stall attribution.
 *
 * The pipeline is a pure function of the sampled rows plus the run's
 * terminal totals: foldPhaseSamples() sums a run's TimelineSamples
 * into per-cycle aggregates, appendTerminalSample() closes the series
 * with the run's final ledgers (so per-phase spans sum exactly to the
 * run's cycles even when the run ends between boundaries), and
 * analyzePhases() segments with hysteresis thresholds on the
 * per-interval busy fraction. Because the timeline rows themselves are
 * bit-identical across batch thread counts and engine modes (naive /
 * fast-forward / check), so is the PhaseProfile
 * — the determinism argument is inherited wholesale, see DESIGN.md
 * "Phase-aware analysis".
 */

#include <cstdint>
#include <vector>

#include "common/json.h"
#include "telemetry/ledger.h"
#include "telemetry/timeline.h"

namespace overgen::telemetry {

/** One sampled point of a run: cumulative ledgers and gauges at a
 * cycle boundary, tiles summed into one ledger (phase structure is a
 * whole-run property; per-tile skew shows up as non-busy categories in
 * the sum). */
struct PhaseSample
{
    uint64_t cycle = 0;
    /** Sum of every tile's cumulative ledger at this cycle. */
    CycleLedger tiles;
    /** The memory system's cumulative ledger at this cycle. */
    CycleLedger memory;
    /** Sum of tile iteration counters (cumulative). */
    uint64_t iterations = 0;
    /** Sum of tile firing counters (cumulative). */
    uint64_t firings = 0;

    bool operator==(const PhaseSample &other) const = default;
};

/** The four execution regimes (paper framing: nested-loop kernels
 * have sharply distinct ramp/steady weights set by trip counts). */
enum class PhaseKind : int
{
    /** Stream configuration + dispatch pipeline (tiles report the
     * Startup category). */
    Startup = 0,
    /** Pipelines and the memory hierarchy filling; busy fraction still
     * climbing toward its peak. */
    Ramp,
    /** At (hysteresis-held) peak busy fraction. */
    Steady,
    /** Trailing off: tiles at the end-of-kernel barrier, queues
     * draining. */
    Drain,
};

/** Number of PhaseKind values. */
inline constexpr int kNumPhaseKinds =
    static_cast<int>(PhaseKind::Drain) + 1;

/** @return the lowercase name of @p kind ("startup", ...). */
const char *phaseKindName(PhaseKind kind);

/** One contiguous phase of a run: the half-open cycle span
 * (beginCycle, endCycle] and the ledger deltas accrued inside it. */
struct PhaseSpan
{
    PhaseKind kind = PhaseKind::Startup;
    uint64_t beginCycle = 0;  //!< exclusive
    uint64_t endCycle = 0;    //!< inclusive
    /** Tile-ledger delta over the span (sums to span * numTiles). */
    CycleLedger tiles;
    /** Memory-ledger delta over the span. */
    CycleLedger memory;
    /** Tile busy cycles / tile total cycles inside the span. */
    double busyFraction = 0.0;
    /** Dominant non-busy tile category in the span (Busy when nothing
     * stalls) — the per-phase bottleneck flag. */
    CycleCategory bottleneck = CycleCategory::Busy;

    uint64_t cycles() const { return endCycle - beginCycle; }

    bool operator==(const PhaseSpan &other) const = default;
};

/** The phase decomposition of one run. */
struct PhaseProfile
{
    /** Total cycles covered (== the run's cycle count once the
     * terminal sample is appended). */
    uint64_t cycles = 0;
    /** Contiguous, non-overlapping spans covering (0, cycles]. */
    std::vector<PhaseSpan> spans;
    /** Cycles before steady state begins (startup + ramp); equals
     * `cycles` when the run never reaches steady state. */
    uint64_t rampCycles = 0;
    /** Whether a steady phase exists (short kernels may never settle). */
    bool reachedSteady = false;
    /** Committed instructions per cycle inside the steady span(s)
     * (0 when no steady phase, or when no scale was supplied). */
    double steadyIpc = 0.0;
    /** Tile busy fraction per sampled interval, in cycle order — the
     * segmentation input, kept for reports and spread statistics. */
    std::vector<double> busyFractions;

    bool operator==(const PhaseProfile &other) const = default;

    /** @return the total cycles attributed to @p kind. */
    uint64_t cyclesIn(PhaseKind kind) const;

    /** Compact JSON: cycles, ramp_cycles, steady_ipc, and one object
     * per span (phase, cycles, share, busy, bottleneck). */
    Json toJson() const;
};

/**
 * Fold one run's timeline rows (TimelineRun::samples(), in the cycle
 * order the run added them) into one sample per sampled cycle: tile
 * ledgers, iterations and firings are summed, the memory system keeps
 * its own ledger.
 */
std::vector<PhaseSample>
foldPhaseSamples(const std::vector<TimelineSample> &rows);

/**
 * Append the run-final sample at @p cycles from the terminal ledgers,
 * unless the last sample already sits at @p cycles. Keeps per-phase
 * spans summing exactly to the run's cycle count when the run ends
 * between interval boundaries.
 */
void appendTerminalSample(std::vector<PhaseSample> &samples,
                          uint64_t cycles, const CycleLedger &tiles,
                          const CycleLedger &memory,
                          uint64_t iterations, uint64_t firings);

/**
 * Segment @p samples (cycle-sorted cumulative series, e.g. from
 * foldPhaseSamples + appendTerminalSample) into phases:
 *
 *  - *startup*: maximal prefix of intervals whose tile-ledger delta is
 *    majority Startup;
 *  - the peak busy fraction over all intervals sets a hysteresis
 *    threshold pair (enter 0.85 x peak, exit 0.70 x peak);
 *  - *steady*: from the first non-startup interval at or above the
 *    enter threshold through the last interval at or above the exit
 *    threshold — dips between the thresholds do not break the phase;
 *  - *ramp*: between startup and steady; *drain*: the suffix after
 *    steady. A run that never reaches the enter threshold has no
 *    steady phase: everything after startup is ramp (rampCycles then
 *    spans the whole run, as on many short kernels).
 *
 * @p instsPerFiring scales firing deltas to instructions for
 * steadyIpc (pass the run's insts/firings ratio; 0 leaves steadyIpc
 * at 0). Deterministic: a pure function of its arguments.
 */
PhaseProfile analyzePhases(const std::vector<PhaseSample> &samples,
                           double instsPerFiring = 0.0);

} // namespace overgen::telemetry

#endif // OVERGEN_TELEMETRY_PHASES_H
