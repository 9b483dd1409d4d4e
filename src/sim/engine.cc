#include "sim/engine.h"

#include <algorithm>

#include "common/logging.h"

namespace overgen::sim {

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

EngineOutcome
SimEngine::run(const std::function<bool()> &all_done)
{
    OG_ASSERT(!components.empty(), "SimEngine has no components");
    EngineOutcome out;
    uint64_t cycle = 0;
    uint64_t progress = totalProgress();
    uint64_t last_progress_cycle = 0;
    // Horizons are only worth computing once a tick goes by without
    // progress: an active system ticks at full speed with zero
    // overhead, and a stall window begins with exactly one
    // unproductive tick before the jump.
    bool stalled = false;
    bool done = false;
    const uint64_t deadlock = config.deadlockCycles;
    while (cycle < config.maxCycles) {
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
        uint64_t p = totalProgress();
        if (p != progress) {
            progress = p;
            last_progress_cycle = cycle;
            stalled = false;
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
