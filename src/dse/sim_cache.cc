#include "dse/sim_cache.h"

#include "common/logging.h"

namespace overgen::dse {

namespace {

/** Salts of the double-fingerprint (Adg::fingerprintPair) ADG key. */
constexpr uint64_t kAdgSaltA = 0x5bf03635d1c2b9f3ull;
constexpr uint64_t kAdgSaltB = 0xa24baed4963ee407ull;

class Fnv
{
  public:
    void
    mix(uint64_t v)
    {
        h ^= v;
        h *= 1099511628211ull;
    }

    void
    mixString(const std::string &s)
    {
        mix(s.size());
        for (char c : s)
            mix(static_cast<uint8_t>(c));
    }

    uint64_t value() const { return h; }

  private:
    uint64_t h = 1469598103934665603ull;
};

} // namespace

std::optional<WarmSimEntry>
WarmSimCache::find(uint64_t key) const
{
    std::lock_guard<std::mutex> lock(mutex);
    auto it = entries.find(key);
    if (it == entries.end())
        return std::nullopt;
    return it->second;
}

void
WarmSimCache::store(uint64_t key, WarmSimEntry entry)
{
    std::lock_guard<std::mutex> lock(mutex);
    entries[key] = std::move(entry);
}

void
WarmSimCache::recordOutcome(WarmSimOutcome how,
                            uint64_t cycles_skipped)
{
    std::lock_guard<std::mutex> lock(mutex);
    switch (how) {
    case WarmSimOutcome::Miss:
        ++counts.misses;
        break;
    case WarmSimOutcome::TerminalHit:
        ++counts.terminalHits;
        break;
    case WarmSimOutcome::Resumed:
        ++counts.resumes;
        counts.cyclesSkipped += cycles_skipped;
        break;
    }
}

WarmSimStats
WarmSimCache::stats() const
{
    std::lock_guard<std::mutex> lock(mutex);
    return counts;
}

uint64_t
simKeyDigest(const wl::KernelSpec &spec, const dfg::Mdfg &mdfg,
             const sched::Schedule &schedule,
             const adg::SysAdg &design,
             const sim::SimConfig &config)
{
    Fnv f;
    // Workload shape: the name alone does not pin trip counts or
    // array sizes (suites build the same kernel at many sizes).
    f.mixString(spec.name);
    f.mix(spec.loops.size());
    for (const auto &loop : spec.loops) {
        f.mix(static_cast<uint64_t>(loop.tripBase));
        f.mix(loop.tripCoeff.size());
        for (int64_t c : loop.tripCoeff)
            f.mix(static_cast<uint64_t>(c));
    }
    f.mix(spec.arrays.size());
    for (const auto &array : spec.arrays) {
        f.mixString(array.name);
        f.mix(static_cast<uint64_t>(array.type));
        f.mix(static_cast<uint64_t>(array.elements));
    }
    // Chosen variant.
    f.mixString(mdfg.name);
    f.mixString(schedule.mdfgName);
    // Design: double-salted tile fingerprint + system parameters.
    auto fp = design.adg.fingerprintPair(kAdgSaltA, kAdgSaltB);
    f.mix(fp.first);
    f.mix(fp.second);
    f.mix(static_cast<uint64_t>(design.sys.numTiles));
    f.mix(static_cast<uint64_t>(design.sys.l2Banks));
    f.mix(static_cast<uint64_t>(design.sys.l2CapacityKiB));
    f.mix(static_cast<uint64_t>(design.sys.nocBytes));
    f.mix(static_cast<uint64_t>(design.sys.dramChannels));
    // The schedule itself: equal fingerprints do not imply equal
    // schedules (the repair path depends on the annealing base), so
    // placements, routes, and FIFO settings are all part of the key.
    f.mix(schedule.placement.size());
    for (auto [node, site] : schedule.placement) {
        f.mix(static_cast<uint64_t>(node));
        f.mix(static_cast<uint64_t>(site));
    }
    f.mix(schedule.routes.size());
    for (auto [edge, route] : schedule.routes) {
        f.mix(static_cast<uint64_t>(edge));
        f.mix(route.size());
        for (auto hop : route)
            f.mix(static_cast<uint64_t>(hop));
    }
    f.mix(schedule.delayFifos.size());
    for (const auto &[node, fifos] : schedule.delayFifos) {
        f.mix(static_cast<uint64_t>(node));
        f.mix(fifos.size());
        for (const auto &[operand, depth] : fifos) {
            f.mix(static_cast<uint64_t>(operand));
            f.mix(static_cast<uint64_t>(depth));
        }
    }
    f.mix(static_cast<uint64_t>(schedule.maxImbalance));
    f.mix(sim::configDigest(config));
    return f.value();
}

sim::SimResult
warmSimulate(WarmSimCache *cache, const wl::KernelSpec &spec,
             const dfg::Mdfg &mdfg, const sched::Schedule &schedule,
             const adg::SysAdg &design, const sim::SimConfig &config,
             uint64_t checkpoint_every, WarmSimReport *out)
{
    auto report = [&](WarmSimOutcome outcome,
                      uint64_t cycles_skipped) {
        if (out != nullptr)
            *out = { outcome, cycles_skipped };
        if (cache != nullptr)
            cache->recordOutcome(outcome, cycles_skipped);
    };
    if (cache == nullptr) {
        wl::Memory memory;
        memory.init(spec);
        report(WarmSimOutcome::Miss, 0);
        return sim::simulate(spec, mdfg, schedule, design, memory,
                             config);
    }

    const uint64_t key =
        simKeyDigest(spec, mdfg, schedule, design, config);
    std::optional<WarmSimEntry> entry = cache->find(key);
    if (entry.has_value() && entry->terminal) {
        report(WarmSimOutcome::TerminalHit, 0);
        return entry->result;
    }

    // Resumable only when the stored run was truncated strictly below
    // this request's budget and actually left a checkpoint. (A prior
    // run with MORE budget that still truncated is not reusable for a
    // smaller budget — the small-budget result is a different prefix
    // than the stored endpoint.)
    sim::Snapshot resume_point;
    bool resumable = entry.has_value() && !entry->checkpoint.empty() &&
                     entry->probeCycles < config.maxCycles &&
                     sim::Snapshot::decode(entry->checkpoint,
                                           resume_point);

    if (checkpoint_every == 0)
        checkpoint_every = std::max<uint64_t>(1, config.maxCycles / 16);
    sim::LatestSnapshotSink sink;
    sim::SimConfig run_config = config;
    run_config.checkpointEvery = checkpoint_every;
    run_config.checkpointSink = &sink;

    wl::Memory memory;
    memory.init(spec);
    sim::SimResult result;
    if (resumable) {
        result = sim::resumeFrom(resume_point, spec, mdfg, schedule,
                                 design, memory, run_config);
        report(WarmSimOutcome::Resumed, entry->checkpointCycle);
    } else {
        result = sim::simulate(spec, mdfg, schedule, design, memory,
                               run_config);
        report(WarmSimOutcome::Miss, 0);
    }

    WarmSimEntry next;
    next.terminal = result.completed || result.deadlocked;
    next.result = result;
    if (!next.terminal) {
        next.probeCycles = config.maxCycles;
        if (sink.hasSnapshot()) {
            next.checkpoint = sink.latest.encode();
            next.checkpointCycle = sink.cycle;
        } else if (resumable) {
            // The suffix finished before its first checkpoint cadence
            // fired; the old checkpoint is still the best restart.
            next.checkpoint = entry->checkpoint;
            next.checkpointCycle = entry->checkpointCycle;
        }
    }
    cache->store(key, std::move(next));
    return result;
}

} // namespace overgen::dse
