#ifndef OVERGEN_SIM_ENGINE_H
#define OVERGEN_SIM_ENGINE_H

/**
 * @file
 * The componentized simulator core. A simulation is a set of
 * ClockedComponents (tiles, the shared memory system) advanced in
 * lockstep by a SimEngine. Beyond the plain per-cycle tick loop the
 * engine supports *event-horizon fast-forward*: every component
 * reports the earliest future cycle at which its tick could change
 * observable state, and the engine jumps over the provably dead
 * cycles in O(components) instead of executing them, applying each
 * component's closed-form aggregate effect (budget saturation, stall
 * accounting) for the skipped range. Results are bit-identical with
 * fast-forward on or off — see DESIGN.md "SimEngine and event-horizon
 * fast-forward" for the safety argument.
 */

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "sim/config.h"

namespace overgen::sim {

class Snapshot;

/** nextEventCycle() sentinel: this component never acts again. */
inline constexpr uint64_t kNoEventCycle = ~uint64_t{ 0 };

/**
 * One clocked piece of the simulated system. The contract binding
 * tick() to the horizon hints:
 *
 *  - nextEventCycle(now) returns the earliest cycle > now at which
 *    tick() could change observable state *given that no other
 *    component acts first*. Returning a too-early cycle only costs a
 *    no-op tick; returning a too-late one corrupts the simulation, so
 *    implementations must be conservative.
 *  - fastForward(from, to) applies the aggregate effect of the ticks
 *    at cycles (from, to] under the guarantee that every one of them
 *    was quiescent: only saturating bandwidth budgets, cycle-gated
 *    stall counters, and the component's own clock may change.
 *  - progressCount() is a monotone counter of forward-progress events
 *    (issues, retirements, firings); the engine's deadlock watchdog
 *    trips when it stalls across every component. Quiescent ticks
 *    must not bump it, or fast-forward and the reference loop would
 *    disagree on the watchdog's firing cycle.
 *  - quiescenceFingerprint() hashes all state that must stay frozen
 *    across a skipped range. State whose update fast-forward is
 *    allowed to defer or batch (budgets, MSHR expiry, stall counters)
 *    is excluded. Only evaluated under SimConfig::checkFastForward.
 */
class ClockedComponent
{
  public:
    virtual ~ClockedComponent() = default;

    /** Advance one cycle. @p cycle is the global cycle count. */
    virtual void tick(uint64_t cycle) = 0;

    /** See class comment. @return earliest possibly-active cycle
     * (> @p now), or kNoEventCycle. */
    virtual uint64_t nextEventCycle(uint64_t now) const = 0;

    /** Apply the skipped quiescent ticks at cycles (@p from, @p to]. */
    virtual void fastForward(uint64_t from, uint64_t to) = 0;

    /** Monotone count of forward-progress events. */
    virtual uint64_t progressCount() const = 0;

    /** Hash of the state a quiescent tick must leave untouched. */
    virtual uint64_t quiescenceFingerprint() const = 0;

    /** Append a human-readable state dump (deadlock diagnostics). */
    virtual void describeState(std::string &out) const = 0;

    /**
     * Append this component's complete mutable state to @p snap —
     * everything a later restore() needs to make the component
     * bit-identical to one that never stopped: queues and rings,
     * saturating byte budgets, deferred fill expiry, stall counters,
     * the cycle ledger, and the component's own clock. Structural
     * state fixed at construction (capacities, wiring, latencies) is
     * not written; restore() runs on a freshly built twin.
     */
    virtual void save(Snapshot &snap) const = 0;

    /** Read back the state written by save(), in the same order. The
     * component must have been constructed with the same inputs. */
    virtual void restore(const Snapshot &snap) = 0;
};

/** Outcome of one SimEngine::run(). */
struct EngineOutcome
{
    /** Final cycle count (the last executed or skipped cycle). */
    uint64_t cycles = 0;
    /** Cycles actually ticked (== cycles when fast-forward is off).
     * Wall-clock observability: excluded from the bit-identity
     * contract, like trace pids. */
    uint64_t tickedCycles = 0;
    /** Cycles skipped by event-horizon fast-forward. */
    uint64_t skippedCycles = 0;
    /** Number of multi-cycle horizon jumps taken. */
    uint64_t horizonJumps = 0;
    /** All components reported done before maxCycles. */
    bool completed = false;
    /** The deadlock watchdog aborted the run. */
    bool deadlocked = false;
    /** Per-component diagnostic dump (non-empty iff deadlocked). */
    std::string diagnostic;
};

/**
 * The engine's own loop state at a checkpoint site: the cycle the
 * snapshot describes the start of, the watchdog's bookkeeping, and
 * the outcome counters accumulated so far (so a resumed run's final
 * EngineOutcome equals the uninterrupted one field for field).
 * Component state is serialized separately (ClockedComponent::save).
 */
struct EngineCheckpoint
{
    uint64_t cycle = 0;
    uint64_t lastProgressCycle = 0;
    /** One unproductive tick has gone by (the loop's fast-forward
     * arming flag — part of the loop state, so a resume takes the
     * same horizon jumps the uninterrupted run would). */
    bool stalled = false;
    uint64_t tickedCycles = 0;
    uint64_t skippedCycles = 0;
    uint64_t horizonJumps = 0;

    void save(Snapshot &snap) const;
    void restore(const Snapshot &snap);
};

/**
 * Lockstep driver over a set of components. Components tick in the
 * order they were added (the memory system must be added before the
 * tiles that retire its completions, mirroring the historical loop).
 */
class SimEngine
{
  public:
    explicit SimEngine(const SimConfig &config) : config(config) {}

    /** Register @p component; not owned, must outlive the engine. */
    void add(ClockedComponent *component);

    /**
     * Run until @p all_done returns true, the deadlock watchdog
     * fires, or SimConfig::maxCycles is reached. @p all_done is
     * evaluated after every executed tick (never inside a skipped
     * range: a completion is always preceded by a progress event,
     * which bounds the horizon).
     */
    EngineOutcome run(const std::function<bool()> &all_done);

    /**
     * run() from a restored checkpoint: the components have already
     * been restore()d to @p from's cycle, and the loop re-enters with
     * the checkpoint's watchdog state and outcome counters. The
     * continuation is bit-identical to the uninterrupted run.
     */
    EngineOutcome resume(const std::function<bool()> &all_done,
                         const EngineCheckpoint &from);

    /**
     * Invoke @p hook at checkpoint sites: at the top of the loop,
     * whenever at least @p every cycles have elapsed since the last
     * checkpoint (so sites always fall on executed-tick or
     * post-horizon-jump boundaries, where every component's state is
     * start-of-cycle consistent — never inside a skipped range). The
     * hook must only read component state. 0 disables.
     */
    void setCheckpointHook(
        uint64_t every,
        std::function<void(const EngineCheckpoint &)> hook);

  private:
    EngineOutcome runLoop(const std::function<bool()> &all_done,
                          const EngineCheckpoint *from);
    uint64_t horizon(uint64_t now) const;
    uint64_t totalProgress() const;
    std::string dumpComponents() const;
    /** checkFastForward: execute (from, to] anyway, asserting every
     * cycle was quiescent under the contract. */
    void verifyQuiescent(uint64_t from, uint64_t to,
                         const std::function<bool()> &all_done);

    SimConfig config;
    std::vector<ClockedComponent *> components;
    uint64_t checkpointEvery = 0;
    std::function<void(const EngineCheckpoint &)> checkpointHook;
};

} // namespace overgen::sim

#endif // OVERGEN_SIM_ENGINE_H
