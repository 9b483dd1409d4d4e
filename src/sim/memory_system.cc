#include "sim/memory_system.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>

#include "common/logging.h"
#include "sim/snapshot.h"
#include "telemetry/sink.h"
#include "telemetry/timeline.h"

namespace overgen::sim {

void
MemorySystem::TxnQueue::grow()
{
    size_t new_cap = ids.empty() ? 8 : ids.size() * 2;
    std::vector<TxnId> nids(new_cap);
    std::vector<int> nslots(new_cap);
    std::vector<uint64_t> naddrs(new_cap);
    std::vector<int> nbytes(new_cap);
    std::vector<uint8_t> nwrites(new_cap);
    for (size_t i = 0; i < count; ++i) {
        size_t s = pos(i);
        nids[i] = ids[s];
        nslots[i] = slots[s];
        naddrs[i] = addrs[s];
        nbytes[i] = bytes[s];
        nwrites[i] = writes[s];
    }
    ids = std::move(nids);
    slots = std::move(nslots);
    addrs = std::move(naddrs);
    bytes = std::move(nbytes);
    writes = std::move(nwrites);
    head = 0;
    mask = new_cap - 1;
}

MemorySystem::MemorySystem(const adg::SystemParams &sys,
                           const SimConfig &config)
    : sys(sys), config(config)
{
    OG_ASSERT(sys.l2Banks >= 1, "no L2 banks");
    int64_t bank_bytes =
        static_cast<int64_t>(sys.l2CapacityKiB) * 1024 / sys.l2Banks;
    setsPerBank = std::max<int>(
        1, static_cast<int>(bank_bytes /
                            (config.cacheLineBytes * config.l2Ways)));
    banks.resize(sys.l2Banks);
    for (Bank &bank : banks)
        bank.sets.resize(setsPerBank);
    channelBudget.assign(std::max(1, sys.dramChannels), 0.0);
    tileLink.resize(std::max(1, sys.numTiles));
    tileLinkBudget.assign(tileLink.size(), 0.0);
}

void
MemorySystem::attachTelemetry(int trace_pid, const std::string &prefix)
{
    telemetry::Sink *sink = config.sink;
    if (sink == nullptr)
        return;
    tracePid = trace_pid;
    mshrOccupancy =
        &sink->registry().distribution(prefix + "/mshr_occupancy");
    bankQueueDepth =
        &sink->registry().distribution(prefix + "/bank_queue_depth");
}

void
MemorySystem::attachTimeline(telemetry::TimelineRun *run,
                             uint64_t interval)
{
    OG_ASSERT(run == nullptr || interval > 0,
              "timeline sampling needs a positive interval");
    timelineRun = run;
    timelineInterval = interval;
}

void
MemorySystem::sampleTelemetry()
{
    telemetry::Sink *sink = config.sink;
    // Distributions and counters sample on the same interval: a
    // per-cycle mutex-guarded record would dominate simulation cost
    // (the micro_sim overhead guard holds instrumentation under 3%).
    if (cycle % sink->options().counterSampleInterval != 0)
        return;
    int mshrs = 0;
    int64_t queued = 0;
    for (const Bank &bank : banks) {
        mshrs += bank.mshrsInUse;
        queued += static_cast<int64_t>(bank.queue.size());
    }
    mshrOccupancy->record(static_cast<double>(mshrs));
    bankQueueDepth->record(static_cast<double>(queued) /
                           static_cast<double>(banks.size()));
    if (sink->tracing()) {
        telemetry::TraceEmitter &trace = sink->trace();
        trace.counter("l2.mshrs_in_use", tracePid, 0, cycle,
                      static_cast<double>(mshrs));
        uint64_t noc = memStats.nocBytes;
        uint64_t dram =
            memStats.dramBytesRead + memStats.dramBytesWritten;
        trace.counter("noc.bytes_per_interval", tracePid, 0, cycle,
                      static_cast<double>(noc - lastNocBytes));
        trace.counter("dram.bytes_per_interval", tracePid, 0, cycle,
                      static_cast<double>(dram - lastDramBytes));
        lastNocBytes = noc;
        lastDramBytes = dram;
    }
}

int
MemorySystem::bankOf(uint64_t addr) const
{
    return static_cast<int>((addr / config.cacheLineBytes) %
                            banks.size());
}

int
MemorySystem::channelOf(uint64_t addr) const
{
    return static_cast<int>((addr / config.cacheLineBytes) %
                            channelBudget.size());
}

MemorySystem::LookupResult
MemorySystem::lookup(Bank &bank, uint64_t addr, bool write)
{
    uint64_t line = addr / config.cacheLineBytes;
    uint64_t set_index = (line / banks.size()) % setsPerBank;
    auto &set = bank.sets[set_index];
    auto it = std::find_if(set.begin(), set.end(),
                           [line](const CacheLine &cl) {
                               return cl.tag == line;
                           });
    LookupResult result;
    if (it != set.end()) {
        result.hit = true;
        CacheLine cl = *it;
        cl.dirty |= write;
        set.erase(it);
        set.insert(set.begin(), cl);  // move to MRU
        return result;
    }
    // Allocate; evict LRU, writing back if dirty.
    set.insert(set.begin(), CacheLine{ line, write });
    if (static_cast<int>(set.size()) > config.l2Ways) {
        if (set.back().dirty)
            result.evictedDirty = true;
        set.pop_back();
    }
    return result;
}

const MemorySystem::FillEntry *
MemorySystem::findFill(const Bank &bank, uint64_t line)
{
    for (size_t i = 0; i < bank.fillReady.size(); ++i)
        if (bank.fillReady[i].line == line)
            return &bank.fillReady[i];
    return nullptr;
}

void
MemorySystem::setFill(Bank &bank, uint64_t line, uint64_t ready)
{
    // Replace any existing entry for the line (the historical map's
    // operator[] overwrite — leaves exactly one entry, and thus one
    // MSHR release at expiry, however often the line was dispatched).
    // The new ready cycle is >= every queued one (fixed fill latency,
    // monotone dispatch cycles), so expiry order is preserved.
    for (size_t i = 0; i < bank.fillReady.size(); ++i) {
        if (bank.fillReady[i].line == line) {
            bank.fillReady.erase(i);
            break;
        }
    }
    bank.fillReady.push_back(FillEntry{ line, ready });
}

void
MemorySystem::insertCompleted(int slot, TxnId id, uint64_t ready)
{
    CompletionRing &ring = rings[static_cast<size_t>(slot)];
    OG_ASSERT(ring.count < ring.capacity, "completion ring of slot ",
              slot, " overflows its ROB (", ring.capacity, " entries)");
    Completion entry{ ready, id };
    size_t i = ring.count;
    for (; i > 0 && entry < ring.at(i - 1); --i)
        ring.at(i) = ring.at(i - 1);
    ring.at(i) = entry;
    ++ring.count;
    ++pendingCompletions;
}

uint64_t
MemorySystem::completedFloor() const
{
    uint64_t floor = kNoEventCycle;
    if (pendingCompletions == 0)
        return floor;
    for (const CompletionRing &ring : rings)
        if (ring.count > 0)
            floor = std::min(floor, ring.at(0).ready);
    return floor;
}

int
MemorySystem::registerEngine(int tile, int rob_entries)
{
    OG_ASSERT(tile >= 0 && tile < static_cast<int>(tileLink.size()),
              "bad tile ", tile);
    OG_ASSERT(rob_entries >= 1, "engine ROB needs at least one entry");
    CompletionRing ring;
    ring.capacity = static_cast<size_t>(rob_entries);
    ring.buf.resize(std::bit_ceil(ring.capacity));
    ring.mask = ring.buf.size() - 1;
    ring.tile = tile;
    rings.push_back(std::move(ring));
    return static_cast<int>(rings.size()) - 1;
}

bool
MemorySystem::canAccept(int tile) const
{
    OG_ASSERT(tile >= 0 && tile < static_cast<int>(tileLink.size()),
              "bad tile ", tile);
    // Bounded per-tile queue so engines self-throttle.
    return tileLink[tile].size() < 64;
}

TxnId
MemorySystem::submit(int slot, uint64_t addr, int bytes, bool write)
{
    OG_ASSERT(slot >= 0 && slot < static_cast<int>(rings.size()),
              "submit through unregistered slot ", slot);
    int tile = rings[static_cast<size_t>(slot)].tile;
    OG_ASSERT(canAccept(tile), "submit to a full tile link");
    TxnId id = nextId++;
    ++inFlightCount;
    tileLink[tile].push(id, slot, addr, bytes, write);
    memStats.peakOutstandingTxns = std::max(
        memStats.peakOutstandingTxns, inFlightCount + pendingCompletions);
    return id;
}

bool
MemorySystem::busy() const
{
    return inFlightCount > 0;
}

void
MemorySystem::tick()
{
    ++cycle;
    uint64_t progress_before = progressEvents;
    if (mshrOccupancy != nullptr)
        sampleTelemetry();

    // Tile links: move requests to their bank queues within the NoC
    // byte budget of each tile's link.
    for (size_t t = 0; t < tileLink.size(); ++t) {
        tileLinkBudget[t] += sys.nocBytes;
        TxnQueue &link = tileLink[t];
        while (!link.empty()) {
            int txn_bytes = link.frontBytes();
            if (tileLinkBudget[t] < txn_bytes)
                break;
            tileLinkBudget[t] -= txn_bytes;
            memStats.nocBytes += txn_bytes;
            uint64_t addr = link.frontAddr();
            banks[bankOf(addr)].queue.push(link.frontId(),
                                           link.frontSlot(), addr,
                                           txn_bytes,
                                           link.frontWrite());
            link.pop();
            ++progressEvents;
        }
        // The cap must admit at least one full line even on narrow
        // links, or sub-line bandwidths could never accumulate enough
        // budget to move a transaction.
        tileLinkBudget[t] = std::min(
            tileLinkBudget[t],
            std::max(static_cast<double>(sys.nocBytes),
                     static_cast<double>(config.cacheLineBytes)));
    }

    // L2 banks: service requests within bank bandwidth.
    for (Bank &bank : banks) {
        bank.byteBudget += config.l2BankBandwidthBytes;
        // Expire finished fills so merged requests stop matching.
        // Expiry-ordered queue: expired entries are exactly the
        // front run (ready cycles are monotone in dispatch order).
        while (!bank.fillReady.empty() &&
               bank.fillReady.front().ready <= cycle) {
            bank.fillReady.pop_front();
            --bank.mshrsInUse;
        }
        while (!bank.queue.empty()) {
            int txn_bytes = bank.queue.frontBytes();
            if (bank.byteBudget < txn_bytes)
                break;
            uint64_t addr = bank.queue.frontAddr();
            TxnId id = bank.queue.frontId();
            int slot = bank.queue.frontSlot();
            bool write = bank.queue.frontWrite();
            uint64_t line = addr / config.cacheLineBytes;
            if (const FillEntry *fill = findFill(bank, line)) {
                // MSHR merge: complete with the in-flight fill; the
                // line is already tagged, no extra DRAM traffic.
                ++memStats.l2Hits;
                bank.byteBudget -= txn_bytes;
                insertCompleted(slot, id, fill->ready);
                if (write)
                    lookup(bank, addr, true);  // set dirty
                --inFlightCount;
                bank.queue.pop();
                ++progressEvents;
                continue;
            }
            if (bank.mshrsInUse >= config.l2MshrsPerBank) {
                ++memStats.mshrStallCycles;
                break;
            }
            LookupResult result = lookup(bank, addr, write);
            bank.byteBudget -= txn_bytes;
            if (result.evictedDirty) {
                bank.writebackBytes += config.cacheLineBytes;
            }
            if (result.hit) {
                ++memStats.l2Hits;
                insertCompleted(slot, id, cycle + config.l2HitLatency);
                --inFlightCount;
            } else if (write) {
                // Write-allocate, no fetch: the line is established
                // and dirtied; data arrives from the tile.
                ++memStats.l2Misses;
                insertCompleted(slot, id, cycle + config.l2HitLatency);
                --inFlightCount;
            } else {
                // Read miss: fetch the line from DRAM.
                ++memStats.l2Misses;
                ++bank.mshrsInUse;
                bank.dramQueue.push(id, slot, addr, txn_bytes, write);
            }
            bank.queue.pop();
            ++progressEvents;
        }
        bank.byteBudget = std::min(
            bank.byteBudget,
            std::max(static_cast<double>(config.l2BankBandwidthBytes),
                     static_cast<double>(config.cacheLineBytes)));
    }

    // DRAM channels: drain read fills and dirty writebacks within
    // channel bandwidth.
    for (double &budget : channelBudget)
        budget += config.dramChannelBandwidthBytes;
    for (Bank &bank : banks) {
        while (!bank.dramQueue.empty()) {
            uint64_t addr = bank.dramQueue.frontAddr();
            double &budget = channelBudget[channelOf(addr)];
            if (budget < config.cacheLineBytes)
                break;
            budget -= config.cacheLineBytes;
            memStats.dramBytesRead += config.cacheLineBytes;
            uint64_t ready =
                cycle + config.l2HitLatency + config.dramLatency;
            insertCompleted(bank.dramQueue.frontSlot(),
                            bank.dramQueue.frontId(), ready);
            uint64_t line = addr / config.cacheLineBytes;
            setFill(bank, line, ready);  // MSHR held until fill
            --inFlightCount;
            bank.dramQueue.pop();
            ++progressEvents;
        }
        // Writebacks share the channel bandwidth (channel 0 slice for
        // simplicity of attribution).
        while (bank.writebackBytes > 0) {
            double &budget = channelBudget[bankOf(
                static_cast<uint64_t>(bank.writebackBytes)) %
                                           channelBudget.size()];
            if (budget < config.cacheLineBytes)
                break;
            budget -= config.cacheLineBytes;
            bank.writebackBytes -= config.cacheLineBytes;
            memStats.dramBytesWritten += config.cacheLineBytes;
            ++progressEvents;
        }
    }
    for (double &budget : channelBudget) {
        budget = std::min(
            budget,
            std::max(
                static_cast<double>(config.dramChannelBandwidthBytes),
                static_cast<double>(config.cacheLineBytes)));
    }

    if (progressEvents != progress_before)
        memStats.ledger.add(telemetry::CycleCategory::Busy);
    else
        memStats.ledger.add(classifyStall());
    if (timelineRun != nullptr && cycle % timelineInterval == 0)
        emitTimelineRow();
}

telemetry::CycleCategory
MemorySystem::classifyStall() const
{
    using C = telemetry::CycleCategory;
    // DRAM involvement: fills in flight toward completion (fills and
    // their completion entries are created together, and the rings
    // are frozen across skipped windows), queued read misses, or
    // pending writebacks — and MSHR-blocked service, which is waiting
    // on a fill to free an MSHR.
    bool dram_work = pendingCompletions > 0;
    bool queued = false;
    for (const auto &link : tileLink)
        queued |= !link.empty();
    for (const Bank &bank : banks) {
        if (!bank.dramQueue.empty() || bank.writebackBytes > 0)
            dram_work = true;
        if (!bank.queue.empty()) {
            queued = true;
            // Safe under fast-forward: with a non-empty queue the
            // horizon stops at every fill expiry, so mshrsInUse and
            // the merge window are frozen across the window.
            if (bank.mshrsInUse >= config.l2MshrsPerBank &&
                findFill(bank, bank.queue.frontAddr() /
                                   config.cacheLineBytes) == nullptr) {
                dram_work = true;
            }
        }
    }
    if (dram_work)
        return C::DramFill;
    // Requests queued with no DRAM path involvement are waiting on
    // NoC-link or L2-bank service bandwidth.
    if (queued)
        return C::NocContention;
    return C::Idle;
}

void
MemorySystem::emitTimelineRow()
{
    int mshrs = 0;
    int64_t queued = 0;
    for (const Bank &bank : banks) {
        mshrs += bank.mshrsInUse;
        queued += static_cast<int64_t>(bank.queue.size());
    }
    // Hand-formatted compact JSON, keys sorted — same bytes as a
    // Json::dump of the equivalent object, minus the map allocations
    // and snprintf format parsing (per-cycle hot path; see the
    // bench/micro_sim instrumentation-overhead guard).
    std::string &row = timelineRun->beginRow();
    row += "{\"bank_queue_depth\":";
    telemetry::appendDecimal(row, static_cast<uint64_t>(queued));
    row += ",\"comp\":\"memory\",\"cycle\":";
    telemetry::appendDecimal(row, cycle);
    row += ",\"dram_bytes_read\":";
    telemetry::appendDecimal(row, memStats.dramBytesRead);
    row += ",\"dram_bytes_written\":";
    telemetry::appendDecimal(row, memStats.dramBytesWritten);
    row += ",\"l2_hits\":";
    telemetry::appendDecimal(row, memStats.l2Hits);
    row += ",\"l2_misses\":";
    telemetry::appendDecimal(row, memStats.l2Misses);
    row += ",\"ledger\":";
    memStats.ledger.appendCompact(row);
    row += ",\"mshr_stall_cycles\":";
    telemetry::appendDecimal(row, memStats.mshrStallCycles);
    row += ",\"mshrs_in_use\":";
    telemetry::appendDecimal(row, static_cast<uint64_t>(mshrs));
    row += ",\"noc_bytes\":";
    telemetry::appendDecimal(row, memStats.nocBytes);
    row += ",\"outstanding\":";
    telemetry::appendDecimal(row, inFlightCount + pendingCompletions);
    row += ",\"run\":\"";
    row += timelineRun->label();
    row += "\"}";
    timelineRun->endRow();
}

void
MemorySystem::tick(uint64_t engine_cycle)
{
    tick();
    OG_ASSERT(cycle == engine_cycle, "memory system clock skew: ",
              cycle, " vs engine ", engine_cycle);
}

uint64_t
MemorySystem::budgetReadyCycle(uint64_t now, double budget, double inc,
                               double bytes)
{
    // tick() accrues inc before processing, so the budget visible at
    // cycle now+k is budget + k*inc (the cap never binds below a head
    // that fits under it). First k >= 1 with budget + k*inc >= bytes.
    if (inc <= 0.0)
        return kNoEventCycle;  // starved pipe: never self-wakes
    double deficit = bytes - budget;
    uint64_t k = 1;
    if (deficit > inc)
        k = static_cast<uint64_t>(std::ceil(deficit / inc));
    return now + k;
}

uint64_t
MemorySystem::queueEventCycle(uint64_t now) const
{
    uint64_t ev = kNoEventCycle;
    auto at = [&ev](uint64_t c) { ev = std::min(ev, c); };
    // Tile links: the head moves once the link budget covers it.
    for (size_t t = 0; t < tileLink.size(); ++t)
        if (!tileLink[t].empty())
            at(budgetReadyCycle(now, tileLinkBudget[t], sys.nocBytes,
                                tileLink[t].frontBytes()));
    for (const Bank &bank : banks) {
        if (!bank.queue.empty()) {
            uint64_t line =
                bank.queue.frontAddr() / config.cacheLineBytes;
            bool mergeable = findFill(bank, line) != nullptr;
            // Service happens at the budget-ready cycle unless the
            // head is MSHR-blocked; an MSHR-blocked head instead
            // waits on a fill expiry (below) while accruing
            // mshrStallCycles, which fastForward replays.
            if (mergeable ||
                bank.mshrsInUse < config.l2MshrsPerBank) {
                at(budgetReadyCycle(now, bank.byteBudget,
                                    config.l2BankBandwidthBytes,
                                    bank.queue.frontBytes()));
            }
            // Any fill expiry can change what happens at this bank's
            // head (merge window closing, MSHR freeing): stop at the
            // earliest — the front of the expiry-ordered queue.
            if (!bank.fillReady.empty())
                at(std::max(bank.fillReady.front().ready, now + 1));
        }
        // DRAM fills dispatch when the head's channel budget covers a
        // line; writebacks likewise on their (frozen) channel.
        if (!bank.dramQueue.empty()) {
            int chan = channelOf(bank.dramQueue.frontAddr());
            at(budgetReadyCycle(now, channelBudget[chan],
                                config.dramChannelBandwidthBytes,
                                config.cacheLineBytes));
        }
        if (bank.writebackBytes > 0) {
            int chan = bankOf(static_cast<uint64_t>(
                           bank.writebackBytes)) %
                       static_cast<int>(channelBudget.size());
            at(budgetReadyCycle(now, channelBudget[chan],
                                config.dramChannelBandwidthBytes,
                                config.cacheLineBytes));
        }
    }
    return ev;
}

uint64_t
MemorySystem::nextEventCycle(uint64_t now) const
{
    // Interval telemetry sampling (distributions, timeline rows)
    // cannot be replayed in closed form; with a sink or timeline
    // attached, observation degrades to per-cycle ticking.
    if (mshrOccupancy != nullptr || timelineRun != nullptr)
        return now + 1;
    uint64_t ev = queueEventCycle(now);
    // Completions become due at their ready cycle: the earliest is
    // one of the ring fronts.
    uint64_t floor = completedFloor();
    if (floor != kNoEventCycle)
        ev = std::min(ev, std::max(floor, now + 1));
    return ev;
}

void
MemorySystem::fastForward(uint64_t from, uint64_t to)
{
    // Skipped windows are quiescent by construction: one closed-form
    // classification of the frozen state covers every skipped cycle
    // (classifyStall never reads the byte budgets updated below).
    memStats.ledger.add(classifyStall(), to - from);
    double k = static_cast<double>(to - from);
    double line = static_cast<double>(config.cacheLineBytes);
    // An MSHR-blocked head counts one stall per skipped tick whose
    // accrued budget would have covered it — exactly what per-cycle
    // ticking does (the break happens before any budget deduction).
    for (Bank &bank : banks) {
        if (bank.queue.empty() ||
            bank.mshrsInUse < config.l2MshrsPerBank)
            continue;
        if (findFill(bank, bank.queue.frontAddr() /
                               config.cacheLineBytes) != nullptr)
            continue;  // merge path: no stall accrual
        double inc = config.l2BankBandwidthBytes;
        double bytes = bank.queue.frontBytes();
        uint64_t k0 = 1;
        if (bank.byteBudget < bytes) {
            if (inc <= 0.0)
                continue;  // budget never covers the head: no stalls
            double deficit = bytes - bank.byteBudget;
            if (deficit > inc)
                k0 = static_cast<uint64_t>(std::ceil(deficit / inc));
        }
        uint64_t ticks = to - from;
        if (ticks >= k0)
            memStats.mshrStallCycles += ticks - k0 + 1;
    }
    // Each budget follows b = min(b + inc, cap) per idle tick, so k
    // ticks collapse to min(b + k*inc, cap) — the caps mirror tick().
    for (double &budget : tileLinkBudget)
        budget = std::min(
            budget + k * sys.nocBytes,
            std::max(static_cast<double>(sys.nocBytes), line));
    for (Bank &bank : banks)
        bank.byteBudget = std::min(
            bank.byteBudget + k * config.l2BankBandwidthBytes,
            std::max(static_cast<double>(config.l2BankBandwidthBytes),
                     line));
    for (double &budget : channelBudget)
        budget = std::min(
            budget + k * config.dramChannelBandwidthBytes,
            std::max(
                static_cast<double>(config.dramChannelBandwidthBytes),
                line));
    cycle = to;
}

uint64_t
MemorySystem::quiescenceFingerprint() const
{
    // Excluded on purpose: byte budgets, fillReady/mshrsInUse (expiry
    // is deferred under fast-forward), mshrStallCycles and the cycle
    // ledger (both replayed in closed form by fastForward), and the
    // clock itself.
    uint64_t h = 1469598103934665603ull;
    auto mix = [&h](uint64_t v) {
        h ^= v;
        h *= 1099511628211ull;
    };
    for (const auto &link : tileLink)
        mix(link.size());
    for (const Bank &bank : banks) {
        mix(bank.queue.size());
        mix(bank.dramQueue.size());
        mix(static_cast<uint64_t>(bank.writebackBytes));
    }
    mix(inFlightCount);
    mix(pendingCompletions);
    mix(static_cast<uint64_t>(nextId));
    mix(memStats.l2Hits);
    mix(memStats.l2Misses);
    mix(memStats.dramBytesRead);
    mix(memStats.dramBytesWritten);
    mix(memStats.nocBytes);
    mix(memStats.peakOutstandingTxns);
    return h;
}

void
MemorySystem::save(Snapshot &snap) const
{
    auto save_queue = [&snap](const TxnQueue &q) {
        snap.putU64(q.size());
        for (size_t i = 0; i < q.size(); ++i) {
            snap.putI64(q.idAt(i));
            snap.putI64(q.slotAt(i));
            snap.putU64(q.addrAt(i));
            snap.putI64(q.bytesAt(i));
            snap.putBool(q.writeAt(i));
        }
    };
    snap.beginSection("memsys");
    snap.putU64(cycle);
    snap.putI64(nextId);
    snap.putU64(progressEvents);
    snap.putU64(inFlightCount);
    snap.putU64(tileLink.size());
    for (size_t t = 0; t < tileLink.size(); ++t) {
        save_queue(tileLink[t]);
        snap.putDouble(tileLinkBudget[t]);
    }
    snap.putU64(channelBudget.size());
    for (double budget : channelBudget)
        snap.putDouble(budget);
    snap.putU64(banks.size());
    for (const Bank &bank : banks) {
        // Tag store (MRU-ordered sets): a restore must rebuild
        // hit/miss/eviction behavior, so the whole store is
        // serialized.
        snap.putU64(bank.sets.size());
        for (const auto &set : bank.sets) {
            snap.putU64(set.size());
            for (const CacheLine &cl : set) {
                snap.putU64(cl.tag);
                snap.putBool(cl.dirty);
            }
        }
        save_queue(bank.queue);
        save_queue(bank.dramQueue);
        snap.putU64(bank.fillReady.size());
        for (size_t i = 0; i < bank.fillReady.size(); ++i) {
            snap.putU64(bank.fillReady[i].line);
            snap.putU64(bank.fillReady[i].ready);
        }
        snap.putI64(bank.writebackBytes);
        snap.putI64(bank.mshrsInUse);
        snap.putDouble(bank.byteBudget);
    }
    snap.putU64(memStats.l2Hits);
    snap.putU64(memStats.l2Misses);
    snap.putU64(memStats.dramBytesRead);
    snap.putU64(memStats.dramBytesWritten);
    snap.putU64(memStats.nocBytes);
    snap.putU64(memStats.mshrStallCycles);
    snap.putU64(memStats.peakOutstandingTxns);
    for (uint64_t c : memStats.ledger.counts)
        snap.putU64(c);
    // Completion rings get their own section: only non-empty rings,
    // each under its slot index, entries in (ready, id) order.
    snap.beginSection("memsys.completions");
    snap.putU64(pendingCompletions);
    uint64_t nonempty = 0;
    for (const CompletionRing &ring : rings)
        nonempty += ring.count > 0;
    snap.putU64(nonempty);
    for (size_t slot = 0; slot < rings.size(); ++slot) {
        const CompletionRing &ring = rings[slot];
        if (ring.count == 0)
            continue;
        snap.putU64(slot);
        snap.putU64(ring.count);
        for (size_t i = 0; i < ring.count; ++i) {
            snap.putI64(ring.at(i).id);
            snap.putU64(ring.at(i).ready);
        }
    }
}

void
MemorySystem::restore(const Snapshot &snap)
{
    auto restore_queue = [this, &snap](TxnQueue &q) {
        q.clear();
        uint64_t n = snap.getU64();
        for (uint64_t i = 0; i < n; ++i) {
            TxnId id = snap.getI64();
            int64_t slot = snap.getI64();
            OG_ASSERT(slot >= 0 && slot < static_cast<int64_t>(
                                              rings.size()),
                      "snapshot queued txn ", id, " names slot ", slot,
                      ", out of range ", rings.size());
            uint64_t addr = snap.getU64();
            int bytes = static_cast<int>(snap.getI64());
            bool write = snap.getBool();
            q.push(id, static_cast<int>(slot), addr, bytes, write);
        }
    };
    snap.expectSection("memsys");
    cycle = snap.getU64();
    nextId = snap.getI64();
    progressEvents = snap.getU64();
    inFlightCount = snap.getU64();
    uint64_t links = snap.getU64();
    OG_ASSERT(links == tileLink.size(),
              "snapshot tile-link count mismatch: ", links, " vs ",
              tileLink.size());
    for (size_t t = 0; t < tileLink.size(); ++t) {
        restore_queue(tileLink[t]);
        tileLinkBudget[t] = snap.getDouble();
    }
    uint64_t channels = snap.getU64();
    OG_ASSERT(channels == channelBudget.size(),
              "snapshot channel count mismatch: ", channels, " vs ",
              channelBudget.size());
    for (double &budget : channelBudget)
        budget = snap.getDouble();
    uint64_t nbanks = snap.getU64();
    OG_ASSERT(nbanks == banks.size(), "snapshot bank count mismatch: ",
              nbanks, " vs ", banks.size());
    for (Bank &bank : banks) {
        uint64_t nsets = snap.getU64();
        OG_ASSERT(nsets == bank.sets.size(),
                  "snapshot set count mismatch: ", nsets, " vs ",
                  bank.sets.size());
        for (auto &set : bank.sets) {
            set.resize(snap.getU64());
            for (CacheLine &cl : set) {
                cl.tag = snap.getU64();
                cl.dirty = snap.getBool();
            }
        }
        restore_queue(bank.queue);
        restore_queue(bank.dramQueue);
        bank.fillReady.clear();
        uint64_t fills = snap.getU64();
        for (uint64_t i = 0; i < fills; ++i) {
            FillEntry entry;
            entry.line = snap.getU64();
            entry.ready = snap.getU64();
            bank.fillReady.push_back(entry);
        }
        bank.writebackBytes = snap.getI64();
        bank.mshrsInUse = static_cast<int>(snap.getI64());
        bank.byteBudget = snap.getDouble();
    }
    memStats.l2Hits = snap.getU64();
    memStats.l2Misses = snap.getU64();
    memStats.dramBytesRead = snap.getU64();
    memStats.dramBytesWritten = snap.getU64();
    memStats.nocBytes = snap.getU64();
    memStats.mshrStallCycles = snap.getU64();
    memStats.peakOutstandingTxns = snap.getU64();
    for (uint64_t &c : memStats.ledger.counts)
        c = snap.getU64();

    // Ring state is validated as it is read: the engines trust it to
    // hand back only their own outstanding ids, in due order.
    snap.expectSection("memsys.completions");
    for (CompletionRing &ring : rings) {
        ring.head = 0;
        ring.count = 0;
    }
    uint64_t pending = snap.getU64();
    uint64_t nonempty = snap.getU64();
    uint64_t total = 0;
    uint64_t next_slot = 0;
    for (uint64_t r = 0; r < nonempty; ++r) {
        uint64_t slot = snap.getU64();
        OG_ASSERT(slot < rings.size(), "snapshot completion slot ", slot,
                  " out of range ", rings.size());
        OG_ASSERT(slot >= next_slot, "snapshot completion slot ", slot,
                  " repeated or out of order");
        next_slot = slot + 1;
        CompletionRing &ring = rings[slot];
        uint64_t n = snap.getU64();
        OG_ASSERT(n <= ring.capacity, "snapshot completion ring of slot ",
                  slot, " holds ", n, " entries, more than its ROB (",
                  ring.capacity, ")");
        for (uint64_t i = 0; i < n; ++i) {
            Completion entry;
            entry.id = snap.getI64();
            entry.ready = snap.getU64();
            OG_ASSERT(i == 0 || ring.at(i - 1) < entry,
                      "snapshot completion ring of slot ", slot,
                      " is not sorted by (ready, id) at entry ", i);
            ring.at(i) = entry;
            ++ring.count;
        }
        total += n;
    }
    OG_ASSERT(pending == total, "snapshot pending completion count ",
              pending, " disagrees with its ring sizes (", total, ")");
    pendingCompletions = pending;
}

void
MemorySystem::describeState(std::string &out) const
{
    out += "memory-system @cycle " + std::to_string(cycle) + ":";
    out += " in_flight=" + std::to_string(inFlightCount);
    out += " awaiting_retire=" + std::to_string(pendingCompletions);
    out += "\n  tile links:";
    for (size_t t = 0; t < tileLink.size(); ++t)
        out += " [" + std::to_string(t) + "]=" +
               std::to_string(tileLink[t].size());
    out += "\n";
    out += "  completion rings:";
    for (size_t slot = 0; slot < rings.size(); ++slot)
        out += " [" + std::to_string(slot) + "]=" +
               std::to_string(rings[slot].count) + "/" +
               std::to_string(rings[slot].capacity);
    out += "\n";
    for (size_t b = 0; b < banks.size(); ++b) {
        const Bank &bank = banks[b];
        out += "  bank" + std::to_string(b) +
               ": queue=" + std::to_string(bank.queue.size()) +
               " dram_queue=" + std::to_string(bank.dramQueue.size()) +
               " mshrs=" + std::to_string(bank.mshrsInUse) + "/" +
               std::to_string(config.l2MshrsPerBank) +
               " writeback_bytes=" +
               std::to_string(bank.writebackBytes) + "\n";
    }
}

} // namespace overgen::sim
