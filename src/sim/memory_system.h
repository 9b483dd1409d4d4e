#ifndef OVERGEN_SIM_MEMORY_SYSTEM_H
#define OVERGEN_SIM_MEMORY_SYSTEM_H

/**
 * @file
 * Cycle-level shared memory system: crossbar NoC with per-tile link
 * bandwidth, a banked set-associative inclusive L2 with MSHRs, and a
 * channel-interleaved DRAM bandwidth/latency model (paper Fig. 8).
 */

#include <cstdint>
#include <string>
#include <vector>

#include "adg/adg.h"
#include "common/ring.h"
#include "sim/config.h"
#include "sim/engine.h"
#include "telemetry/ledger.h"

namespace overgen::telemetry {
class TimelineRun;
} // namespace overgen::telemetry

namespace overgen::sim {

/** Aggregate memory-system statistics. */
struct MemoryStats
{
    uint64_t l2Hits = 0;
    uint64_t l2Misses = 0;
    uint64_t dramBytesRead = 0;
    uint64_t dramBytesWritten = 0;
    uint64_t nocBytes = 0;
    uint64_t mshrStallCycles = 0;
    /** High-water mark of submitted-but-not-yet-retired transactions
     * (queued + in service + completed-awaiting-retire): the
     * worst-case live footprint of the transaction tables. */
    uint64_t peakOutstandingTxns = 0;
    /** Where every clocked cycle went (always on; bit-identical with
     * fast-forward on or off — see telemetry/ledger.h). */
    telemetry::CycleLedger ledger;
};

/**
 * The shared memory system. Each memory engine registers once for a
 * completion slot and submits line-granular transactions through it,
 * each with an opaque tag; completions are pushed into the slot's
 * due-time ring and the engine pops the tags of the ones that are due.
 * The engine keeps no record of its own for an in-flight transaction. Contention is modeled with
 * per-cycle byte budgets on each tile link, L2 bank, and DRAM channel.
 */
class MemorySystem : public ClockedComponent
{
  public:
    MemorySystem(const adg::SystemParams &sys, const SimConfig &config);
    /** Not copyable: the timeline pointer is non-owning, and a copy
     * would append rows to the original's run. Moving hands it
     * over. */
    MemorySystem(const MemorySystem &) = delete;
    MemorySystem &operator=(const MemorySystem &) = delete;
    MemorySystem(MemorySystem &&) = default;

    /**
     * Register a memory engine of @p tile whose reorder buffer holds
     * @p rob_entries transactions. @return its completion slot. Slots
     * are numbered in registration order.
     */
    int registerEngine(int tile, int rob_entries);

    /**
     * Submit a line transaction through completion slot @p slot (its
     * tile's link must canAccept()). @p addr is a byte address in the
     * simulated flat address space. @p tag is opaque to the memory
     * system: popCompleted() hands it back on @p slot when the
     * transaction retires.
     */
    void submit(int slot, uint64_t addr, int bytes, bool write,
                uint64_t tag);

    /** @return whether @p tile may submit a transaction this cycle. */
    bool canAccept(int tile) const;

    /**
     * Move the tags of every completion of @p slot that is due
     * (ready <= now()) into @p tags, in ring order: by ready cycle,
     * then by completion order. @p tags is cleared first. O(1) when
     * nothing is due — the per-cycle common case.
     */
    void
    popCompleted(int slot, std::vector<uint64_t> &tags)
    {
        tags.clear();
        CompletionRing &ring = rings[static_cast<size_t>(slot)];
        while (ring.count > 0 && ring.at(0).ready <= cycle) {
            tags.push_back(ring.at(0).tag);
            ring.head = (ring.head + 1) & ring.mask;
            --ring.count;
        }
        pendingCompletions -= tags.size();
    }

    /** Advance one cycle. */
    void tick();

    /** @name ClockedComponent */
    /// @{
    void tick(uint64_t engine_cycle) override;
    /** Next completion becoming due, the next internal drain or
     * fill-expiry event (queues drain with per-cycle budgets whose
     * next service cycle is solved in closed form), or the next
     * timeline sample. */
    uint64_t nextEventCycle(uint64_t now) const override;
    /** Saturate the per-link/bank/channel byte budgets in closed form
     * and jump the clock; deferred fill expiry is re-done lazily by
     * the next real tick. */
    void fastForward(uint64_t from, uint64_t to) override;
    uint64_t progressCount() const override { return progressEvents; }
    uint64_t quiescenceFingerprint() const override;
    void describeState(std::string &out) const override;
    /// @}

    /** @return current cycle count. */
    uint64_t now() const { return cycle; }

    /** @return statistics gathered so far. */
    const MemoryStats &stats() const { return memStats; }

    /** @return whether any transaction is still in flight. */
    bool busy() const;

    /**
     * Stream interval time-series rows into @p run every @p interval
     * cycles. Each sample cycle is a horizon event (nextEventCycle),
     * so fast-forward stops on it instead of stepping over it, and
     * the rows are the same with fast-forward on or off.
     */
    void attachTimeline(telemetry::TimelineRun *run,
                        uint64_t interval);

  private:
    /**
     * SoA ring of queued transactions. The hot loops touch one field
     * at a time — bytes for budget checks, addresses for bank/channel
     * hashing — so each field lives in its own contiguous array
     * instead of striding over whole transaction records.
     */
    class TxnQueue
    {
      public:
        size_t size() const { return count; }
        bool empty() const { return count == 0; }
        uint64_t frontTag() const { return tags[head]; }
        int frontSlot() const { return slots[head]; }
        uint64_t frontAddr() const { return addrs[head]; }
        int frontBytes() const { return bytes[head]; }
        bool frontWrite() const { return writes[head] != 0; }

        void
        push(int slot, uint64_t tag, uint64_t addr, int txn_bytes,
             bool write)
        {
            if (count == slots.size())
                grow();
            size_t s = (head + count) & mask;
            slots[s] = slot;
            tags[s] = tag;
            addrs[s] = addr;
            bytes[s] = txn_bytes;
            writes[s] = write ? 1 : 0;
            ++count;
        }

        void
        pop()
        {
            head = (head + 1) & mask;
            --count;
        }

      private:
        void grow();

        std::vector<int> slots;  //!< submitting completion slot
        std::vector<uint64_t> tags;  //!< the submitter's tag
        std::vector<uint64_t> addrs;
        std::vector<int> bytes;
        std::vector<uint8_t> writes;
        size_t head = 0;
        size_t count = 0;
        size_t mask = 0;
    };

    struct CacheLine
    {
        uint64_t tag = 0;
        bool dirty = false;
    };

    /** One in-flight DRAM fill (an MSHR held until the fill lands). */
    struct FillEntry
    {
        uint64_t line = 0;
        uint64_t ready = 0;
    };

    struct Bank
    {
        /** Tag store: set -> lines, MRU first. */
        std::vector<std::vector<CacheLine>> sets;
        TxnQueue queue;      //!< waiting for bank bandwidth
        TxnQueue dramQueue;  //!< read misses waiting for DRAM
        /** Lines being filled from DRAM, expiry-ordered: every fill
         * completes a fixed latency after dispatch, so ready cycles
         * are monotone and expired entries are exactly the front run
         * — O(expired) per tick instead of a full-map sweep. Later
         * requests to a filling line merge. */
        common::RingBuffer<FillEntry> fillReady;
        /** Dirty eviction bytes pending DRAM write bandwidth. */
        int64_t writebackBytes = 0;
        int mshrsInUse = 0;
        double byteBudget = 0.0;
    };

    /** A completed transaction awaiting retire by its engine. */
    struct Completion
    {
        uint64_t ready = 0;
        uint64_t tag = 0;
    };

    /**
     * One engine's pending completions, sorted by ready cycle (equal
     * ready cycles in completion order) so the due ones are a front
     * run. The engine's ROB bounds the ring
     * (every entry is still one of its outstanding transactions), so
     * storage is allocated once at registration. Ready cycles are not
     * monotone per engine — MSHR merges complete with their fill, L2
     * hits after the hit latency, DRAM fills later — so inserts walk
     * back from the tail, usually zero or one step.
     */
    struct CompletionRing
    {
        std::vector<Completion> buf;  //!< power-of-two >= capacity
        size_t head = 0;
        size_t count = 0;
        size_t mask = 0;
        size_t capacity = 0;  //!< the engine's ROB entries
        int tile = 0;

        Completion &at(size_t i) { return buf[(head + i) & mask]; }
        const Completion &
        at(size_t i) const
        {
            return buf[(head + i) & mask];
        }
    };

    struct LookupResult
    {
        bool hit = false;
        bool evictedDirty = false;
    };

    int bankOf(uint64_t addr) const;
    int channelOf(uint64_t addr) const;
    /**
     * @return the first cycle > now at which a budget accruing @p inc
     * per tick (from @p budget) covers @p bytes — when a queue head
     * blocked only on bandwidth gets serviced.
     */
    static uint64_t budgetReadyCycle(uint64_t now, double budget,
                                     double inc, double bytes);
    /** Probe and update the tag store (allocates on miss). */
    LookupResult lookup(Bank &bank, uint64_t addr, bool write);
    /** Find the in-flight fill for @p line (linear over <= MSHRs
     * entries). @return its ready cycle, or 0 when absent. */
    static const FillEntry *findFill(const Bank &bank, uint64_t line);
    /** Record a dispatched fill, replacing any entry for the same
     * line (the map-overwrite semantics the expiry queue inherits). */
    static void setFill(Bank &bank, uint64_t line, uint64_t ready);
    /** Push a completion into the ring of the slot that submitted
     * it (queues carry the slot and tag alongside each transaction),
     * after every entry due no later than @p ready. */
    void insertCompleted(int slot, uint64_t tag, uint64_t ready);
    /** Earliest ready cycle over the ring fronts, or kNoEventCycle. */
    uint64_t completedFloor() const;

    /** Internal queue-service/expiry events only — nextEventCycle
     * minus the completion part. */
    uint64_t queueEventCycle(uint64_t now) const;

    /**
     * Classify one quiescent (no-progress) cycle for the ledger. Reads
     * only window-frozen state (queue occupancies, in-flight fills,
     * MSHR merge windows) — never byte budgets — so one classification
     * holds for a whole skipped window (see DESIGN.md "Cycle
     * accounting and timelines" for why expiry deferral is safe).
     */
    telemetry::CycleCategory classifyStall() const;

    adg::SystemParams sys;
    SimConfig config;
    std::vector<Bank> banks;
    std::vector<double> channelBudget;
    std::vector<TxnQueue> tileLink;  //!< per-tile request queue
    std::vector<double> tileLinkBudget;
    /** Per-slot completion rings (registration order). */
    std::vector<CompletionRing> rings;
    /** Completions pushed but not yet popped, over all rings. */
    uint64_t pendingCompletions = 0;
    /** Submitted-but-not-completed transactions (txn payloads live in
     * the SoA queues; only the count is observable). */
    uint64_t inFlightCount = 0;
    int setsPerBank = 0;
    uint64_t cycle = 0;
    uint64_t progressEvents = 0;
    MemoryStats memStats;

    /** @name Interval time-series (null when sampling is off) */
    /// @{
    void sampleTimeline();
    telemetry::TimelineRun *timelineRun = nullptr;
    uint64_t timelineInterval = 0;
    /** The next sampled cycle, reported as a horizon event so no
     * boundary is stepped over. */
    uint64_t nextTimelineSample = 0;
    /// @}
};

} // namespace overgen::sim

#endif // OVERGEN_SIM_MEMORY_SYSTEM_H
