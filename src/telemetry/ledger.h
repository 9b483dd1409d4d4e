#ifndef OVERGEN_TELEMETRY_LEDGER_H
#define OVERGEN_TELEMETRY_LEDGER_H

/**
 * @file
 * Per-component cycle accounting. Every ClockedComponent classifies
 * each simulated cycle into exactly one CycleCategory — a small fixed
 * stall taxonomy in the spirit of top-down microarchitectural
 * analysis — and accrues it in a CycleLedger. Fast-forwarded windows
 * are attributed in closed form from the frozen quiescent state, so a
 * ledger is bit-identical with fast-forward on or off (see DESIGN.md
 * "Cycle accounting and timelines" for the invariant and the
 * per-component classification rules).
 *
 * The ledger is always on: classification reads only state that is
 * frozen across skipped windows (never bandwidth budgets), costs a
 * handful of comparisons per executed cycle, and is excluded from the
 * quiescence fingerprints exactly like the stall counters it
 * generalizes.
 */

#include <array>
#include <charconv>
#include <cstdint>
#include <string>

#include "common/json.h"

namespace overgen::telemetry {

/** Append @p value in decimal to @p out, without the temporary of
 * std::to_string (timeline row rendering, telemetry/timeline.cc). */
inline void
appendDecimal(std::string &out, uint64_t value)
{
    char buf[20];
    auto res = std::to_chars(buf, buf + sizeof buf, value);
    out.append(buf, res.ptr);
}

/** Where one simulated cycle went. Exactly one per cycle. */
enum class CycleCategory : int
{
    /** The component made forward progress this cycle. */
    Busy = 0,
    /** Dispatcher startup: stream configuration + dispatch pipeline. */
    Startup,
    /** Fabric ports ready but the II/pipeline timing gate not due. */
    IiGate,
    /** Waiting on port FIFOs (missing inputs, full outputs, drains). */
    PortStall,
    /** Waiting on the DRAM path (fills in flight, MSHR-blocked
     * service, DRAM queues/writebacks pending). */
    DramFill,
    /** Waiting on NoC/L2 service bandwidth (queued requests, no DRAM
     * involvement). */
    NocContention,
    /** Finished; idling at the end-of-kernel barrier for peers. */
    Barrier,
    /** Nothing queued and nothing to do. */
    Idle,
};

/** Number of CycleCategory values (array size for CycleLedger). */
inline constexpr int kNumCycleCategories =
    static_cast<int>(CycleCategory::Idle) + 1;

/** @return the snake_case name of @p category ("port_stall", ...). */
const char *cycleCategoryName(CycleCategory category);

/** A per-component histogram over CycleCategory. POD, comparable,
 * and cheap: add() is one array increment. */
struct CycleLedger
{
    std::array<uint64_t, kNumCycleCategories> counts{};

    /** Attribute @p n cycles to @p category. */
    void
    add(CycleCategory category, uint64_t n = 1)
    {
        counts[static_cast<int>(category)] += n;
    }

    uint64_t
    operator[](CycleCategory category) const
    {
        return counts[static_cast<int>(category)];
    }

    /** Sum over all categories — must equal the cycles the component
     * was clocked for (executed + fast-forwarded). */
    uint64_t
    total() const
    {
        uint64_t sum = 0;
        for (uint64_t c : counts)
            sum += c;
        return sum;
    }

    bool operator==(const CycleLedger &other) const = default;

    /** {"busy": n, "port_stall": n, ...} with every category present
     * (deterministic key set, zero counts included). */
    Json toJson() const;

    /** Append the compact serialization of toJson() — same bytes,
     * sorted keys — to @p out without building the object (used to
     * render every timeline row, telemetry/timeline.cc). */
    void appendCompact(std::string &out) const;
};

} // namespace overgen::telemetry

#endif // OVERGEN_TELEMETRY_LEDGER_H
