#ifndef OVERGEN_TELEMETRY_REGISTRY_H
#define OVERGEN_TELEMETRY_REGISTRY_H

/**
 * @file
 * Hierarchical counter registry: named u64 counters addressed by
 * '/'-separated paths (e.g. "sim/fir/tile0/firings"), and nothing
 * else — periodic gauges (MSHR occupancy, queue depths) live in the
 * simulator's timeline samples (timeline.h), not here. Lookup interns
 * the path once; callers cache the returned reference, so per-cycle
 * increments are a single add on a stable address. The registry nests
 * by path segment when serialized, giving a browsable JSON tree of
 * everything the simulator and DSE observed.
 */

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>

#include "common/json.h"

namespace overgen::telemetry {

/**
 * A monotonically increasing event count. Increments are relaxed
 * atomics: concurrent instrumented code (parallel DSE candidate
 * evaluation, bench harness fan-out) may bump the same counter from
 * several threads without external locking; relaxed ordering is
 * enough because counters carry no inter-thread control flow.
 */
class Counter
{
  public:
    void inc() { val.fetch_add(1, std::memory_order_relaxed); }
    void add(uint64_t n) { val.fetch_add(n, std::memory_order_relaxed); }
    uint64_t value() const { return val.load(std::memory_order_relaxed); }

  private:
    std::atomic<uint64_t> val{ 0 };
};

/**
 * The registry. std::map guarantees node stability, so references
 * returned by counter() stay valid for the registry's lifetime
 * regardless of later insertions; interning itself is mutex-guarded,
 * so threads may look up paths concurrently. Callers cache the
 * returned reference and pay no lock on the increment.
 */
class Registry
{
  public:
    /** @return the counter at @p path, creating it at zero. */
    Counter &counter(const std::string &path);

    /** Direct map access; callers must be quiescent (no concurrent
     * interning) — serialization and tests, not instrumentation. */
    const std::map<std::string, Counter> &counters() const
    {
        return counterMap;
    }

    /** Serialize as a tree nested by '/'-separated path segments. */
    Json toJson() const;

    /** Drop every counter. */
    void clear();

  private:
    mutable std::mutex mutex;  //!< guards map interning, not updates
    std::map<std::string, Counter> counterMap;
};

} // namespace overgen::telemetry

#endif // OVERGEN_TELEMETRY_REGISTRY_H
