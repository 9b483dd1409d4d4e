#include "sim/engine.h"

#include <algorithm>

#include "common/logging.h"
#include "sim/snapshot.h"

namespace overgen::sim {

void
EngineCheckpoint::save(Snapshot &snap) const
{
    snap.beginSection("engine");
    snap.putU64(cycle);
    snap.putU64(lastProgressCycle);
    snap.putBool(stalled);
    snap.putU64(tickedCycles);
    snap.putU64(skippedCycles);
    snap.putU64(horizonJumps);
    snap.putU64(drainedCycles);
    snap.putU64(drainJumps);
}

void
EngineCheckpoint::restore(const Snapshot &snap)
{
    snap.expectSection("engine");
    cycle = snap.getU64();
    lastProgressCycle = snap.getU64();
    stalled = snap.getBool();
    tickedCycles = snap.getU64();
    skippedCycles = snap.getU64();
    horizonJumps = snap.getU64();
    drainedCycles = snap.getU64();
    drainJumps = snap.getU64();
}

void
SimEngine::add(ClockedComponent *component)
{
    OG_ASSERT(component != nullptr, "null ClockedComponent");
    components.push_back(component);
}

uint64_t
SimEngine::horizon(uint64_t now) const
{
    uint64_t h = kNoEventCycle;
    for (const ClockedComponent *c : components)
        h = std::min(h, c->nextEventCycle(now));
    return h;
}

uint64_t
SimEngine::totalProgress() const
{
    uint64_t total = 0;
    for (const ClockedComponent *c : components)
        total += c->progressCount();
    return total;
}

std::string
SimEngine::dumpComponents() const
{
    std::string out;
    for (const ClockedComponent *c : components)
        c->describeState(out);
    return out;
}

void
SimEngine::verifyQuiescent(uint64_t from, uint64_t to,
                           const std::function<bool()> &all_done)
{
    std::vector<uint64_t> prints(components.size());
    for (size_t i = 0; i < components.size(); ++i)
        prints[i] = components[i]->quiescenceFingerprint();
    uint64_t progress = totalProgress();
    for (uint64_t cycle = from + 1; cycle <= to; ++cycle) {
        for (ClockedComponent *c : components)
            c->tick(cycle);
        OG_ASSERT(!all_done(),
                  "fast-forward would have skipped the completion "
                  "at cycle ",
                  cycle, " (horizon ", to + 1, ")");
    }
    OG_ASSERT(totalProgress() == progress,
              "fast-forward would have skipped progress in cycles (",
              from, ", ", to, "]");
    for (size_t i = 0; i < components.size(); ++i) {
        OG_ASSERT(components[i]->quiescenceFingerprint() == prints[i],
                  "component ", i,
                  " mutated frozen state in skipped cycles (", from,
                  ", ", to, "]");
    }
}

void
SimEngine::verifyDrainWindow(uint64_t from, uint64_t to,
                             size_t drainer,
                             const std::function<bool()> &all_done)
{
    // The drainer checked its closed-form replay against a per-cycle
    // ghost inside drainReplay(); here the other components execute
    // the window for real (their ticks are the authoritative
    // accounting in check mode) while we assert they stay quiescent.
    // Ticking them against the drainer's end-of-window state is valid
    // because the coupling surface is invariant across the window by
    // construction of the window stops: no completion becomes
    // due and no full queue reopens before `to`.
    std::vector<uint64_t> prints(components.size());
    uint64_t progress = 0;
    for (size_t i = 0; i < components.size(); ++i) {
        if (i == drainer)
            continue;
        prints[i] = components[i]->quiescenceFingerprint();
        progress += components[i]->progressCount();
    }
    for (uint64_t cycle = from + 1; cycle <= to; ++cycle) {
        for (size_t i = 0; i < components.size(); ++i)
            if (i != drainer)
                components[i]->tick(cycle);
        OG_ASSERT(!all_done(),
                  "drain window would have skipped the completion "
                  "at cycle ",
                  cycle, " (window (", from, ", ", to, "])");
    }
    uint64_t progress_after = 0;
    for (size_t i = 0; i < components.size(); ++i)
        if (i != drainer)
            progress_after += components[i]->progressCount();
    OG_ASSERT(progress_after == progress,
              "drain window would have skipped non-drainer progress "
              "in cycles (",
              from, ", ", to, "]");
    for (size_t i = 0; i < components.size(); ++i) {
        if (i == drainer)
            continue;
        OG_ASSERT(components[i]->quiescenceFingerprint() == prints[i],
                  "component ", i,
                  " mutated frozen state in drain window (", from,
                  ", ", to, "]");
    }
}

EngineOutcome
SimEngine::run(const std::function<bool()> &all_done)
{
    return runLoop(all_done, nullptr);
}

EngineOutcome
SimEngine::resume(const std::function<bool()> &all_done,
                  const EngineCheckpoint &from)
{
    return runLoop(all_done, &from);
}

void
SimEngine::setCheckpointHook(
    uint64_t every, std::function<void(const EngineCheckpoint &)> hook)
{
    checkpointEvery = every;
    checkpointHook = std::move(hook);
}

EngineOutcome
SimEngine::runLoop(const std::function<bool()> &all_done,
                   const EngineCheckpoint *from)
{
    OG_ASSERT(!components.empty(), "SimEngine has no components");
    EngineOutcome out;
    uint64_t cycle = 0;
    // Per-component progress snapshots: the drain fast path needs to
    // know *which* components progressed, not just whether any did.
    std::vector<uint64_t> prev(components.size());
    size_t drainer = components.size();
    uint64_t progress = 0;
    for (size_t i = 0; i < components.size(); ++i) {
        prev[i] = components[i]->progressCount();
        progress += prev[i];
        if (drainer == components.size() &&
            components[i]->supportsDrainReplay()) {
            drainer = i;
        }
    }
    uint64_t last_progress_cycle = 0;
    // Horizons are only worth computing once a tick goes by without
    // progress: an active system ticks at full speed with zero
    // overhead, and a stall window begins with exactly one
    // unproductive tick before the jump.
    bool stalled = false;
    if (from != nullptr) {
        // Re-enter the loop exactly where the checkpoint left it: the
        // components were restore()d to start-of-cycle state, and the
        // loop's own variables (watchdog bookkeeping, the stall flag,
        // the outcome counters) come from the checkpoint, so every
        // branch below decides as the uninterrupted run did.
        cycle = from->cycle;
        last_progress_cycle = from->lastProgressCycle;
        stalled = from->stalled;
        out.tickedCycles = from->tickedCycles;
        out.skippedCycles = from->skippedCycles;
        out.horizonJumps = from->horizonJumps;
        out.drainedCycles = from->drainedCycles;
        out.drainJumps = from->drainJumps;
    }
    bool done = false;
    const uint64_t deadlock = config.deadlockCycles;
    // First checkpoint one cadence past the entry cycle: a resumed
    // run keeps checkpointing on its own cadence without re-emitting
    // the state it was restored from.
    uint64_t next_ckpt = kNoEventCycle;
    if (checkpointEvery > 0 && checkpointHook)
        next_ckpt = cycle + checkpointEvery;
    while (cycle < config.maxCycles) {
        if (cycle >= next_ckpt) {
            // Loop-top state is start-of-cycle consistent for every
            // component: the previous iteration's tick (or verified
            // jump) fully completed, and no skipped range is open.
            EngineCheckpoint ck;
            ck.cycle = cycle;
            ck.lastProgressCycle = last_progress_cycle;
            ck.stalled = stalled;
            ck.tickedCycles = out.tickedCycles;
            ck.skippedCycles = out.skippedCycles;
            ck.horizonJumps = out.horizonJumps;
            ck.drainedCycles = out.drainedCycles;
            ck.drainJumps = out.drainJumps;
            checkpointHook(ck);
            next_ckpt = cycle + checkpointEvery;
        }
        if (stalled && !config.noFastForward) {
            uint64_t stop = config.maxCycles;
            if (deadlock > 0)
                stop = std::min(stop, last_progress_cycle + deadlock);
            uint64_t target = std::min(horizon(cycle), stop);
            if (target > cycle + 1) {
                uint64_t skipped = target - 1 - cycle;
                if (config.checkFastForward) {
                    verifyQuiescent(cycle, target - 1, all_done);
                    out.tickedCycles += skipped;
                } else {
                    for (ClockedComponent *c : components)
                        c->fastForward(cycle, target - 1);
                    out.skippedCycles += skipped;
                }
                ++out.horizonJumps;
                cycle = target - 1;
            }
        }
        ++cycle;
        for (ClockedComponent *c : components)
            c->tick(cycle);
        ++out.tickedCycles;
        if (all_done()) {
            done = true;
            break;
        }
        uint64_t p = 0;
        bool drain_only = drainer < components.size();
        for (size_t i = 0; i < components.size(); ++i) {
            uint64_t pc = components[i]->progressCount();
            if (pc != prev[i] && i != drainer)
                drain_only = false;
            prev[i] = pc;
            p += pc;
        }
        if (p != progress) {
            progress = p;
            last_progress_cycle = cycle;
            stalled = false;
            // Drain fast path: only the drain-capable component moved
            // this tick. Ask the others how long they stay frozen and
            // let the drainer replay its internal drain events in
            // closed form across that window — the horizon never
            // opens here (the drainer progresses nearly every cycle),
            // but the *external* horizon does.
            if (drain_only && !config.noFastForward &&
                cycle < config.maxCycles) {
                uint64_t limit = config.maxCycles;
                for (size_t i = 0; i < components.size(); ++i) {
                    if (i == drainer)
                        continue;
                    uint64_t n = components[i]->nextEventCycle(cycle);
                    if (n != kNoEventCycle)
                        limit = std::min(limit, n - 1);
                }
                if (limit > cycle) {
                    uint64_t lp = last_progress_cycle;
                    uint64_t to = components[drainer]->drainReplay(
                        cycle, limit, deadlock, &lp,
                        config.checkFastForward);
                    if (to > cycle) {
                        if (config.checkFastForward) {
                            verifyDrainWindow(cycle, to, drainer,
                                              all_done);
                            out.tickedCycles += to - cycle;
                        } else {
                            for (size_t i = 0;
                                 i < components.size(); ++i) {
                                if (i != drainer)
                                    components[i]->fastForward(cycle,
                                                               to);
                            }
                            out.skippedCycles += to - cycle;
                        }
                        out.drainedCycles += to - cycle;
                        ++out.drainJumps;
                        cycle = to;
                        last_progress_cycle = lp;
                        // Re-snapshot: the replay bumped the
                        // drainer's progress counter.
                        progress = 0;
                        for (size_t i = 0; i < components.size();
                             ++i) {
                            prev[i] = components[i]->progressCount();
                            progress += prev[i];
                        }
                    }
                }
            }
        } else {
            stalled = true;
            if (deadlock > 0 &&
                cycle - last_progress_cycle >= deadlock) {
                out.deadlocked = true;
                out.diagnostic = dumpComponents();
                OG_WARN("simulation watchdog: no forward progress "
                        "for ",
                        deadlock, " cycles (at cycle ", cycle,
                        "); aborting\n", out.diagnostic);
                break;
            }
        }
    }
    out.cycles = cycle;
    // Preserving the historical loop's edge case: finishing exactly
    // at maxCycles still reports an incomplete run.
    out.completed = done && cycle < config.maxCycles;
    return out;
}

} // namespace overgen::sim
