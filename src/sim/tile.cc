#include "sim/tile.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "common/logging.h"
#include "common/ring.h"
#include "common/rng.h"
#include "telemetry/sink.h"
#include "telemetry/timeline.h"
#include "workloads/program.h"

namespace overgen::sim {

namespace {

/** A port FIFO carrying element credits with delivery latency. */
struct PortFifo
{
    int64_t capacity = 4;
    int64_t available = 0;
    int64_t pending = 0;
    /** (ready_at, elems) in delivery order. */
    common::RingBuffer<std::pair<uint64_t, int64_t>> arrivals;

    int64_t
    space() const
    {
        return std::max<int64_t>(0, capacity - available - pending);
    }

    void
    deliver(uint64_t ready_at, int64_t elems)
    {
        pending += elems;
        arrivals.push_back({ ready_at, elems });
    }

    void
    tick(uint64_t now)
    {
        while (!arrivals.empty() && arrivals.front().first <= now) {
            available += arrivals.front().second;
            pending -= arrivals.front().second;
            arrivals.pop_front();
        }
    }

    bool
    drained() const
    {
        return available == 0 && pending == 0;
    }
};

} // namespace

/** Full tile state. */
struct TileSim::Impl
{
    /** Runtime state of one mDFG stream. */
    struct StreamRt
    {
        dfg::NodeId id = dfg::invalidNode;
        StreamKind kind = StreamKind::Vector;
        bool input = true;
        int elemBytes = 8;
        int members = 1;
        /** Values per iteration in the firing demand (firingMembers). */
        int firingMembers = 1;
        /** Indirect gathers issue one element per transaction. */
        bool indirect = false;
        /** Representative spec accesses for address generation
         * (indices into `bound`). */
        std::vector<int> accesses;
        PortFifo port;
        /** Engine-side cursor over the demand schedule. */
        std::unique_ptr<IterationWalker> walker;
        int64_t firingRemaining = 0;
        bool tapsDelivered = false;
        bool engineDone = false;
        uint64_t activeAt = 0;
        /** Read-after-write throttle (memory-variant reductions). */
        StreamRt *hazardPeer = nullptr;
        int64_t hazardWindow = 0;
        int64_t issuedElems = 0;
        int64_t drainedElems = 0;
        /** Indirect-access coupling. */
        StreamRt *indexPeer = nullptr;
        int64_t indexAvail = 0;
        bool isIndexFeed = false;
        StreamRt *indexConsumer = nullptr;
        /** Synthetic access for index feeds (reads the index array
         * affinely with the consumer's coefficients). */
        std::optional<wl::BoundAccess> syntheticAccess;
        /** One access whose elements a memory engine gathers. */
        struct AddrMember
        {
            const wl::BoundAccess *access = nullptr;
            int64_t stride = 0;
            uint64_t base = 0;
            int64_t elemBytes = 8;
        };
        /** Address members of a memory-engine stream: the synthetic
         * access of an index feed, else `accesses` in order (empty
         * for constant taps and non-memory engines). */
        std::vector<AddrMember> addrMembers;
        /** @name Derived state, rebuilt on every firing change from
         * the walkers and counters it follows from. */
        /// @{
        /** elemsForFiring at the engine cursor's firing. */
        int64_t firingTotal = 0;
        /** The cursor's firing walks all members lane-major. */
        bool coalescedFiring = false;
        /** Affine index of each address member at the firing's first
         * lane (member 0 only unless coalescedFiring). */
        std::vector<int64_t> memberStart;
        /** The fabric's current firing: elements an input port must
         * hold (all members for constant taps) or an output produces. */
        int64_t fabricNeed = 0;
        /// @}
        /** Recurrence pairing (on the in-stream). */
        StreamRt *recurrenceOut = nullptr;
        int64_t recInitialRemaining = 0;
        int64_t recPool = 0;
        adg::NodeId engine = adg::invalidNode;
    };

    /** Stream-engine runtime (one per ADG engine with mapped work). */
    struct EngineRt
    {
        adg::NodeKind kind = adg::NodeKind::Dma;
        double bandwidthBytes = 8.0;
        double budget = 0.0;
        bool issueToggle = false;
        std::vector<StreamRt *> streams;
        /** Line transactions submitted and not yet retired. The
         * memory system holds each one with the tag the engine gave
         * it: the issuing stream's index in `streams` (high 32 bits)
         * and the line's element count (low 32 bits). */
        int inFlight = 0;
        int robEntries = 16;
        /** Memory-system completion slot (DMA engines only). */
        int slot = -1;
        size_t rrNext = 0;
    };

    Impl(const wl::KernelSpec &spec, const dfg::Mdfg &mdfg,
         const sched::Schedule &schedule, const adg::Adg &adg,
         const AddressMap &addresses, wl::Memory &memory,
         MemorySystem &memsys, int tile_index, int64_t outer_lo,
         int64_t outer_hi, const SimConfig &config, int trace_pid)
        : spec(spec), mdfg(mdfg), schedule(schedule), adg(adg),
          addresses(addresses), memory(memory), memsys(memsys),
          tileIndex(tile_index), config(config),
          bound(wl::bindAccesses(spec)), program(spec),
          fabricWalker(spec, mdfg.unrollFactor *
                                 (mdfg.tuned && spec.tuning.unroll2d
                                      ? 2
                                      : 1),
                       outer_lo, outer_hi),
          tracePid(trace_pid)
    {
        buildStreams(outer_lo, outer_hi);
        refreshFabricDemand();
        // DMA engines submit transactions: each gets a completion
        // slot, in engine-id order.
        for (auto &[engine_id, engine] : engines)
            if (engine.kind == adg::NodeKind::Dma)
                engine.slot =
                    memsys.registerEngine(tile_index, engine.robEntries);
        // Dispatcher startup: parameter configuration + dispatch.
        int num_streams = static_cast<int>(streams.size());
        stats.startupCycles = num_streams * config.configCyclesPerStream +
                              config.dispatchLatency +
                              config.dispatchBusStages;
        int k = 0;
        for (auto &rt : streams)
            rt->activeAt = stats.startupCycles + k++;
        telemetry::Sink *sink = config.sink;
        if (sink != nullptr && sink->tracing()) {
            // The dispatcher/startup phase is known up front; its
            // begin/end pair brackets cycle 0..startupCycles.
            std::string cat = "tile";
            std::string label =
                "startup:" + std::to_string(num_streams) + "streams";
            sink->trace().begin(label, cat, tracePid, traceTid(), 0);
            sink->trace().end(label, cat, tracePid, traceTid(),
                              stats.startupCycles);
        }
        // Fabric pipeline characteristics.
        iiInterval = 1.0 / schedule.throughputFactor();
        pipelineDepth = 4 + schedule.routeCost /
                                std::max<int>(1,
                                              static_cast<int>(
                                                  schedule.routes.size()));
    }

    void buildStreams(int64_t outer_lo, int64_t outer_hi);
    void tick(uint64_t cycle);
    bool done() const;

    /** @name ClockedComponent backing (see sim/engine.h) */
    /// @{
    uint64_t nextEventCycle(uint64_t now) const;
    void fastForward(uint64_t from, uint64_t to);
    uint64_t fingerprint() const;
    void describe(std::string &out) const;
    /** First cycle the fabric's timing gates would let it fire. */
    uint64_t fireReadyCycle() const;
    /** Whether the fabric's port checks pass right now. */
    bool fabricPortsReady() const;
    /// @}

    /** @name Cycle accounting (telemetry/ledger.h). The conditions
     * read only window-frozen state (port FIFOs, outstanding
     * transactions, walker position, timing gates) — never bandwidth
     * budgets — so one classification holds for a whole skipped
     * window and the ledger is bit-identical with fast-forward on or
     * off. */
    /// @{
    /** Whether any engine has memory transactions in flight. */
    bool anyOutstanding() const;
    /** Closed-form attribution of the no-progress window (from, to]
     * of an unfinished tile: a skipped window, or (cycle - 1, cycle]
     * for one ticked cycle that made no progress. */
    void accountWindow(uint64_t from, uint64_t to);
    /// @}

    void engineTick(adg::NodeId engine_id, EngineRt &engine,
                    uint64_t cycle);
    /** Deliver the transactions whose tags are in `retired`. */
    void retire(EngineRt &engine, uint64_t cycle);
    /** Land @p elems of @p rt's data from its engine: input elements
     * reach the port (or the consumer's index buffer) at @p ready,
     * output elements are drained. */
    void land(StreamRt &rt, uint64_t ready, int64_t elems);
    void memoryEngineIssue(EngineRt &engine, uint64_t cycle);
    void recurrenceTick(EngineRt &engine, uint64_t cycle);
    void generateTick(EngineRt &engine, uint64_t cycle);
    void registerTick(EngineRt &engine, uint64_t cycle);
    void fabricTick(uint64_t cycle);

    /** Advance a stream's engine-side cursor past zero-demand firings. */
    void settleDemand(StreamRt &rt);
    /** Rebuild the per-firing address state of the cursor's firing,
     * whose demand is `firingTotal`. */
    void refreshFiring(StreamRt &rt);
    /** Rebuild every stream's `fabricNeed` for the fabric's firing. */
    void refreshFabricDemand();
    /** Next element addresses sharing one cache line (<= space).
     * Returns a reference to `lineScratch`, valid until the next
     * call. */
    const std::vector<uint64_t> &gatherLine(StreamRt &rt,
                                            int64_t max_elems);
    bool readReady(const StreamRt &rt, uint64_t cycle) const;
    bool writeReady(const StreamRt &rt, uint64_t cycle) const;

    const wl::KernelSpec &spec;
    const dfg::Mdfg &mdfg;
    const sched::Schedule &schedule;
    const adg::Adg &adg;
    const AddressMap &addresses;
    wl::Memory &memory;
    MemorySystem &memsys;
    int tileIndex;
    SimConfig config;
    /** The kernel's accesses with array names resolved to ids, bound
     * once here so the tick loop never looks a name up. */
    std::vector<wl::BoundAccess> bound;
    /** The kernel's op DAG, lowered once per tile; every firing runs
     * it over the firing's lanes. */
    wl::Program program;

    std::vector<std::unique_ptr<StreamRt>> streams;
    std::map<dfg::NodeId, StreamRt *> byNode;
    /** Engines sorted by ADG node id — the per-cycle loops walk a
     * contiguous array, and the order matches the historical
     * std::map iteration (engine tick order is observable). */
    std::vector<std::pair<adg::NodeId, EngineRt>> engines;
    /** Find-or-insert keeping `engines` sorted (build time only). */
    EngineRt &engineFor(adg::NodeId id);
    /** Scratch for gatherLine (reused across calls — the per-issue
     * vector allocation showed up in the issue-loop profile). */
    std::vector<uint64_t> lineScratch;
    /** Scratch for the txn tags an engine pops each cycle. */
    std::vector<uint64_t> retired;

    IterationWalker fabricWalker;
    double iiInterval = 1.0;
    double nextFire = 0.0;
    int pipelineDepth = 4;
    TileStats stats;
    bool finished = false;
    /** Monotone forward-progress events (issues, retires, drains,
     * firings); quiescent ticks never bump it. */
    uint64_t progressEvents = 0;

    /** @name Telemetry (trace tid 0 is the memory system) */
    /// @{
    int traceTid() const { return tileIndex + 1; }
    int tracePid = 0;
    /// @}

    /** @name Interval time-series (null when sampling is off) */
    /// @{
    void sampleTimeline(uint64_t cycle);
    telemetry::TimelineRun *timelineRun = nullptr;
    uint64_t timelineInterval = 0;
    /** The next sampled cycle, reported as a horizon event so no
     * boundary is stepped over. */
    uint64_t nextTimelineSample = 0;
    /// @}
};

TileSim::Impl::EngineRt &
TileSim::Impl::engineFor(adg::NodeId id)
{
    auto it = std::lower_bound(
        engines.begin(), engines.end(), id,
        [](const std::pair<adg::NodeId, EngineRt> &entry,
           adg::NodeId key) { return entry.first < key; });
    if (it == engines.end() || it->first != id)
        it = engines.insert(it, { id, EngineRt{} });
    return it->second;
}

void
TileSim::Impl::buildStreams(int64_t outer_lo, int64_t outer_hi)
{
    int unroll = mdfg.unrollFactor;
    auto make_stream = [&](dfg::NodeId id, bool input) {
        const dfg::StreamNode &node = mdfg.node(id).stream;
        auto rt = std::make_unique<StreamRt>();
        rt->id = id;
        rt->input = input;
        rt->kind = classifyStream(mdfg, id);
        rt->elemBytes = dataTypeBytes(node.type);
        rt->members = std::max<int>(
            1, static_cast<int>(node.specAccesses.size()));
        rt->firingMembers = firingMembers(mdfg, id);
        rt->indirect = node.indirect;
        rt->accesses = node.specAccesses;
        rt->walker = std::make_unique<IterationWalker>(
            spec, unroll, outer_lo, outer_hi);
        // Port capacity from the placed port's spec.
        if (schedule.isPlaced(id)) {
            adg::NodeId target = schedule.placedOn(id);
            const adg::Node &an = adg.node(target);
            if (an.kind == adg::NodeKind::InPort ||
                an.kind == adg::NodeKind::OutPort) {
                rt->port.capacity = std::max<int64_t>(
                    2, static_cast<int64_t>(an.port().fifoDepth) *
                           an.port().widthBytes / rt->elemBytes);
            }
        }
        // Keep taps and stationary values resident.
        if (rt->kind == StreamKind::ConstantTaps) {
            rt->port.capacity =
                std::max<int64_t>(rt->port.capacity, rt->members);
        }
        settleDemand(*rt);
        byNode[id] = rt.get();
        streams.push_back(std::move(rt));
        return streams.back().get();
    };

    for (dfg::NodeId id :
         mdfg.nodeIdsOfKind(dfg::NodeKind::InputStream)) {
        make_stream(id, true);
    }
    for (dfg::NodeId id :
         mdfg.nodeIdsOfKind(dfg::NodeKind::OutputStream)) {
        make_stream(id, false);
    }

    // Engine assignment: port-placed streams find their engine through
    // the array placement (or the engine kind for rec/gen/register);
    // index streams are placed directly on engines.
    auto engine_of = [&](StreamRt &rt) -> adg::NodeId {
        const dfg::StreamNode &node = mdfg.node(rt.id).stream;
        switch (node.source) {
          case dfg::StreamSource::Memory:
            if (node.array != dfg::invalidNode &&
                schedule.isPlaced(node.array)) {
                return schedule.placedOn(node.array);
            }
            return adg::invalidNode;
          case dfg::StreamSource::Recurrence: {
            auto recs = adg.nodeIdsOfKind(adg::NodeKind::Recurrence);
            return recs.empty() ? adg::invalidNode : recs[0];
          }
          case dfg::StreamSource::Generated: {
            auto gens = adg.nodeIdsOfKind(adg::NodeKind::Generate);
            return gens.empty() ? adg::invalidNode : gens[0];
          }
          case dfg::StreamSource::Register: {
            auto regs = adg.nodeIdsOfKind(adg::NodeKind::Register);
            return regs.empty() ? adg::invalidNode : regs[0];
          }
        }
        return adg::invalidNode;
    };

    for (auto &rt : streams) {
        rt->engine = engine_of(*rt);
        OG_ASSERT(rt->engine != adg::invalidNode,
                  "stream without an engine in ", mdfg.name);
        EngineRt &engine = engineFor(rt->engine);
        const adg::Node &an = adg.node(rt->engine);
        engine.kind = an.kind;
        switch (an.kind) {
          case adg::NodeKind::Dma:
            engine.bandwidthBytes = an.dma().bandwidthBytes;
            engine.robEntries = an.dma().robEntries;
            break;
          case adg::NodeKind::Scratchpad:
            engine.bandwidthBytes = an.spad().readBandwidthBytes +
                                    an.spad().writeBandwidthBytes;
            break;
          case adg::NodeKind::Recurrence:
            engine.bandwidthBytes = an.rec().bandwidthBytes;
            break;
          case adg::NodeKind::Generate:
            engine.bandwidthBytes = an.gen().bandwidthBytes;
            break;
          case adg::NodeKind::Register:
            engine.bandwidthBytes = an.reg().bandwidthBytes;
            break;
          default:
            OG_PANIC("stream on non-engine node");
        }
        engine.streams.push_back(rt.get());
    }

    // Indirect-access coupling: the index stream feeds its consumer,
    // reading the index array with the consumer's affine function.
    for (auto &rt : streams) {
        const dfg::StreamNode &node = mdfg.node(rt->id).stream;
        if (node.indexStream != dfg::invalidNode) {
            StreamRt *index = byNode.at(node.indexStream);
            rt->indexPeer = index;
            index->isIndexFeed = true;
            index->indexConsumer = rt.get();
            OG_ASSERT(!rt->accesses.empty(),
                      "indirect stream without accesses");
            const wl::BoundAccess &consumer = bound[rt->accesses[0]];
            OG_ASSERT(consumer.indexArray >= 0,
                      "indirect stream over a direct access in ",
                      mdfg.name);
            // The consumer's affine function, aimed at its index array.
            wl::BoundAccess synth = consumer;
            synth.array = consumer.indexArray;
            synth.elements = consumer.indexElements;
            synth.indexArray = -1;
            synth.indexElements = 0;
            index->syntheticAccess = synth;
        }
    }

    // Read-after-write hazards: a memory read with a recurrent peer in
    // the same array throttles behind the write stream's drain.
    for (auto &rt : streams) {
        if (!rt->input || rt->kind != StreamKind::Vector)
            continue;
        const dfg::StreamNode &node = mdfg.node(rt->id).stream;
        if (node.source != dfg::StreamSource::Memory ||
            node.reuse.recurrentConcurrency <= 0) {
            continue;
        }
        for (auto &other : streams) {
            if (other->input)
                continue;
            const dfg::StreamNode &on = mdfg.node(other->id).stream;
            if (on.source == dfg::StreamSource::Memory &&
                on.array == node.array) {
                rt->hazardPeer = other.get();
                rt->hazardWindow = node.reuse.recurrentConcurrency;
            }
        }
    }

    // Address members of the streams memory engines gather for.
    for (auto &rt : streams) {
        adg::NodeKind kind = adg.node(rt->engine).kind;
        if ((kind != adg::NodeKind::Dma &&
             kind != adg::NodeKind::Scratchpad) ||
            rt->kind == StreamKind::ConstantTaps) {
            continue;
        }
        auto add = [&](const wl::BoundAccess &access) {
            rt->addrMembers.push_back(
                { &access, wl::innerStride(*access.spec, spec.loops.size()),
                  addresses.base(access.array),
                  addresses.elementBytes(access.array) });
        };
        if (rt->syntheticAccess) {
            add(*rt->syntheticAccess);
        } else {
            for (int access : rt->accesses)
                add(bound[access]);
        }
        rt->memberStart.assign(rt->addrMembers.size(), 0);
        refreshFiring(*rt);
    }

    // Recurrence pairing: each in-stream tracks its own out-peer,
    // initial window, and forwarding pool.
    for (auto &rt : streams) {
        if (rt->kind != StreamKind::RecurrenceIn)
            continue;
        const dfg::StreamNode &node = mdfg.node(rt->id).stream;
        OG_ASSERT(node.recurrencePeer != dfg::invalidNode,
                  "recurrence stream without a peer in ", mdfg.name);
        rt->recurrenceOut = byNode.at(node.recurrencePeer);
        rt->recInitialRemaining =
            std::max<int64_t>(1, node.reuse.recurrentConcurrency);
    }
}

void
TileSim::Impl::settleDemand(StreamRt &rt)
{
    if (!rt.walker->done() && rt.firingRemaining == 0) {
        do {
            rt.firingRemaining =
                elemsForFiring(rt.kind, rt.firingMembers, *rt.walker);
            if (rt.firingRemaining == 0)
                rt.walker->advance();
        } while (!rt.walker->done() && rt.firingRemaining == 0);
        rt.firingTotal = rt.firingRemaining;
        refreshFiring(rt);
    }
    if (rt.walker->done() && rt.firingRemaining == 0) {
        if (rt.kind != StreamKind::ConstantTaps || rt.tapsDelivered)
            rt.engineDone = true;
    }
}

void
TileSim::Impl::refreshFiring(StreamRt &rt)
{
    if (rt.addrMembers.empty() || rt.walker->done())
        return;
    rt.coalescedFiring = !rt.syntheticAccess && rt.members > 1 &&
                         rt.firingTotal == rt.walker->count() * rt.members;
    const std::vector<int64_t> &ivs = rt.walker->indices();
    size_t n = rt.coalescedFiring ? rt.addrMembers.size() : 1;
    for (size_t m = 0; m < n; ++m)
        rt.memberStart[m] = wl::affineIndex(*rt.addrMembers[m].access->spec,
                                            ivs.data(), ivs.size());
}

void
TileSim::Impl::refreshFabricDemand()
{
    if (fabricWalker.done())
        return;
    for (auto &rt : streams)
        rt->fabricNeed =
            rt->kind == StreamKind::ConstantTaps
                ? rt->members
                : elemsForFiring(rt->kind, rt->firingMembers, fabricWalker);
}

const std::vector<uint64_t> &
TileSim::Impl::gatherLine(StreamRt &rt, int64_t max_elems)
{
    std::vector<uint64_t> &out = lineScratch;
    out.clear();
    if (rt.kind == StreamKind::ConstantTaps) {
        const std::vector<int64_t> &ivs = rt.walker->indices();
        for (int access : rt.accesses) {
            int64_t idx = wl::resolveIndex(bound[access], ivs.data(),
                                           ivs.size(), memory);
            out.push_back(
                addresses.elementAddress(bound[access].array, idx));
        }
        return out;
    }
    if (rt.walker->done() || rt.addrMembers.empty())
        return out;
    const int64_t line = config.cacheLineBytes;
    while (static_cast<int64_t>(out.size()) < max_elems &&
           rt.firingRemaining > 0) {
        int64_t flat = rt.firingTotal - rt.firingRemaining;
        int64_t limit =
            std::min(max_elems - static_cast<int64_t>(out.size()),
                     rt.firingRemaining);
        const StreamRt::AddrMember &first = rt.addrMembers[0];
        bool affine = !rt.coalescedFiring && first.access->indexArray < 0;
        int64_t taken = 0;
        if (affine) {
            // Direct: the firing's remaining elements are affine.
            AffineRun run{ rt.memberStart[0] + first.stride * flat,
                           first.stride, first.access->elements,
                           first.base, first.elemBytes };
            taken = appendLineRun(run, limit, line, out);
        } else {
            // Coalesced (lane-major over members) or indirect: one
            // element at a time.
            int64_t m = rt.coalescedFiring ? flat % rt.members : 0;
            int64_t lane = rt.coalescedFiring ? flat / rt.members : flat;
            const StreamRt::AddrMember &am = rt.addrMembers[m];
            int64_t idx = wl::elementIndex(
                *am.access, rt.memberStart[m] + am.stride * lane, memory);
            uint64_t addr =
                am.base + static_cast<uint64_t>(idx * am.elemBytes);
            if (out.empty() ||
                addr / line == out.front() / static_cast<uint64_t>(line)) {
                out.push_back(addr);
                taken = 1;
            }
        }
        rt.firingRemaining -= taken;
        if (rt.firingRemaining == 0) {
            rt.walker->advance();
            settleDemand(rt);
        }
        // Stop at a line change (an affine run short of its limit
        // ended at one); indirect gathers issue one element per
        // transaction.
        if (taken == 0 || (affine && taken < limit) || rt.indirect)
            break;
    }
    return out;
}

bool
TileSim::Impl::readReady(const StreamRt &rt, uint64_t cycle) const
{
    if (!rt.input || rt.engineDone || cycle < rt.activeAt)
        return false;
    if (rt.kind == StreamKind::ConstantTaps)
        return !rt.tapsDelivered;
    if (rt.isIndexFeed) {
        // Deliver into the consumer's index buffer (bounded).
        return rt.indexConsumer->indexAvail < 64;
    }
    if (rt.port.space() <= 0)
        return false;
    if (rt.indexPeer && rt.indexAvail <= 0)
        return false;
    if (rt.hazardPeer) {
        int64_t horizon =
            (rt.issuedElems / std::max<int64_t>(1, rt.hazardWindow)) *
            rt.hazardWindow;
        if (horizon > rt.hazardPeer->drainedElems)
            return false;
    }
    return true;
}

bool
TileSim::Impl::writeReady(const StreamRt &rt, uint64_t cycle) const
{
    return !rt.input && !rt.engineDone && cycle >= rt.activeAt &&
           rt.port.available > 0;
}

void
TileSim::Impl::memoryEngineIssue(EngineRt &engine, uint64_t cycle)
{
    bool is_spad = engine.kind == adg::NodeKind::Scratchpad;
    // Stream-table issue: one stream per cycle; without the one-hot
    // bypass a single active stream issues every other cycle (Fig 11).
    int active = 0;
    for (StreamRt *rt : engine.streams)
        active += !rt->engineDone;
    if (active == 0)
        return;
    if (!config.oneHotBypass && active == 1) {
        engine.issueToggle = !engine.issueToggle;
        if (!engine.issueToggle)
            return;
    }
    if (!is_spad &&
        (engine.inFlight >= engine.robEntries ||
         !memsys.canAccept(tileIndex))) {
        return;
    }

    // Round-robin stream selection.
    for (size_t probe = 0; probe < engine.streams.size(); ++probe) {
        size_t index = (engine.rrNext + probe) % engine.streams.size();
        StreamRt &rt = *engine.streams[index];
        bool ready = rt.input ? readReady(rt, cycle)
                              : writeReady(rt, cycle);
        if (!ready)
            continue;
        if (engine.budget < rt.elemBytes)
            return;  // accumulate bandwidth before issuing
        engine.rrNext = (index + 1) % engine.streams.size();

        int64_t max_elems;
        if (rt.input) {
            max_elems = rt.kind == StreamKind::ConstantTaps
                            ? rt.members
                            : rt.port.space();
            if (rt.isIndexFeed)
                max_elems = 64 - rt.indexConsumer->indexAvail;
            if (rt.indexPeer)
                max_elems = std::min<int64_t>(max_elems, rt.indexAvail);
        } else {
            max_elems = rt.port.available;
        }
        max_elems = std::min<int64_t>(
            max_elems,
            std::max<int64_t>(1, static_cast<int64_t>(engine.budget) /
                                     rt.elemBytes));
        if (max_elems <= 0)
            continue;

        const std::vector<uint64_t> &addrs = gatherLine(rt, max_elems);
        if (addrs.empty()) {
            settleDemand(rt);
            continue;
        }
        int64_t elems = static_cast<int64_t>(addrs.size());
        double bytes = static_cast<double>(elems) * rt.elemBytes;

        if (rt.kind == StreamKind::ConstantTaps)
            rt.tapsDelivered = true;
        if (rt.input) {
            rt.issuedElems += elems;
            if (rt.indexPeer)
                rt.indexAvail -= elems;
        } else {
            rt.port.available -= elems;
        }

        if (config.sink != nullptr && config.sink->traceDetail()) {
            config.sink->trace().instant(
                is_spad ? "spad.issue" : "dma.issue", "engine",
                tracePid, traceTid(), cycle);
        }
        if (is_spad) {
            engine.budget -= bytes;
            stats.spadBytes += static_cast<uint64_t>(bytes);
            land(rt, cycle + config.spadLatency, elems);
        } else {
            // DMA: one line transaction covering the gathered elems.
            engine.budget -= config.cacheLineBytes;
            stats.dmaBytes += config.cacheLineBytes;
            memsys.submit(engine.slot, addrs.front(),
                          config.cacheLineBytes, !rt.input,
                          index << 32 | static_cast<uint64_t>(elems));
            ++engine.inFlight;
        }
        ++progressEvents;
        return;  // one issue per cycle
    }
}

void
TileSim::Impl::recurrenceTick(EngineRt &engine, uint64_t cycle)
{
    // Bandwidth is shared over all pairs mapped to this engine.
    double budget = engine.bandwidthBytes;
    for (StreamRt *in : engine.streams) {
        if (in->kind != StreamKind::RecurrenceIn)
            continue;
        StreamRt *out = in->recurrenceOut;
        int64_t budget_elems = std::max<int64_t>(
            1, static_cast<int64_t>(budget) / in->elemBytes);

        // Drain the peer out-port into this pair's forwarding pool.
        if (out && cycle >= out->activeAt && !out->engineDone &&
            out->port.available > 0) {
            int64_t n = std::min(out->port.available, budget_elems);
            out->port.available -= n;
            out->drainedElems += n;
            in->recPool += n;
            ++progressEvents;
            stats.recurrenceBytes +=
                static_cast<uint64_t>(n) * out->elemBytes;
            int64_t left = n;
            while (left > 0 && !out->engineDone) {
                int64_t take = std::min(left, out->firingRemaining);
                if (take <= 0)
                    break;
                out->firingRemaining -= take;
                left -= take;
                if (out->firingRemaining == 0) {
                    out->walker->advance();
                    settleDemand(*out);
                }
            }
        }

        // Feed the in-port from the initial window, then the pool.
        if (cycle >= in->activeAt && !in->engineDone &&
            in->port.space() > 0) {
            int64_t want = std::min(in->port.space(), budget_elems);
            int64_t supplied = 0;
            while (want > 0 && !in->engineDone) {
                int64_t take = std::min(want, in->firingRemaining);
                if (take <= 0)
                    break;
                int64_t from_initial =
                    std::min(take, in->recInitialRemaining);
                int64_t from_pool =
                    std::min(take - from_initial, in->recPool);
                int64_t got = from_initial + from_pool;
                if (got == 0)
                    break;
                in->recInitialRemaining -= from_initial;
                in->recPool -= from_pool;
                in->firingRemaining -= got;
                supplied += got;
                want -= got;
                if (in->firingRemaining == 0) {
                    in->walker->advance();
                    settleDemand(*in);
                }
            }
            if (supplied > 0) {
                in->port.deliver(cycle + config.recurrenceLatency,
                                 supplied);
                ++progressEvents;
            }
        }
    }
}

void
TileSim::Impl::generateTick(EngineRt &engine, uint64_t cycle)
{
    for (StreamRt *rt : engine.streams) {
        if (rt->engineDone || cycle < rt->activeAt)
            continue;
        int64_t budget_elems = std::max<int64_t>(
            1, static_cast<int64_t>(engine.bandwidthBytes) /
                   rt->elemBytes);
        int64_t n = std::min(rt->port.space(), budget_elems);
        while (n > 0 && !rt->engineDone) {
            int64_t take = std::min(n, rt->firingRemaining);
            if (take <= 0)
                break;
            rt->firingRemaining -= take;
            rt->port.deliver(cycle + 1, take);
            ++progressEvents;
            n -= take;
            if (rt->firingRemaining == 0) {
                rt->walker->advance();
                settleDemand(*rt);
            }
        }
    }
}

void
TileSim::Impl::registerTick(EngineRt &engine, uint64_t cycle)
{
    for (StreamRt *rt : engine.streams) {
        if (rt->input || rt->engineDone || cycle < rt->activeAt)
            continue;
        if (rt->port.available > 0) {
            --rt->port.available;
            ++rt->drainedElems;
            ++progressEvents;
            if (--rt->firingRemaining == 0) {
                rt->walker->advance();
                settleDemand(*rt);
            }
        }
    }
}

void
TileSim::Impl::engineTick(adg::NodeId engine_id, EngineRt &engine,
                          uint64_t cycle)
{
    (void)engine_id;
    engine.budget =
        std::min(engine.budget + engine.bandwidthBytes,
                 engine.bandwidthBytes +
                     static_cast<double>(config.cacheLineBytes));

    // Retire the completions the memory system pushed to this
    // engine's slot that are due this cycle.
    if (engine.slot >= 0) {
        memsys.popCompleted(engine.slot, retired);
        if (!retired.empty())
            retire(engine, cycle);
    }

    switch (engine.kind) {
      case adg::NodeKind::Dma:
      case adg::NodeKind::Scratchpad:
        memoryEngineIssue(engine, cycle);
        break;
      case adg::NodeKind::Recurrence:
        recurrenceTick(engine, cycle);
        break;
      case adg::NodeKind::Generate:
        generateTick(engine, cycle);
        break;
      case adg::NodeKind::Register:
        registerTick(engine, cycle);
        break;
      default:
        OG_PANIC("engine of wrong kind");
    }
}

void
TileSim::Impl::retire(EngineRt &engine, uint64_t cycle)
{
    // Within one batch the delivery order is unobservable: same-cycle
    // port arrivals are summed at one tick, the index and drain
    // counters are sums, and settleDemand is idempotent.
    for (uint64_t tag : retired)
        land(*engine.streams[tag >> 32], cycle,
             static_cast<int64_t>(tag & 0xffffffffu));
    engine.inFlight -= static_cast<int>(retired.size());
    progressEvents += retired.size();
}

void
TileSim::Impl::land(StreamRt &rt, uint64_t ready, int64_t elems)
{
    if (rt.input) {
        if (rt.isIndexFeed)
            rt.indexConsumer->indexAvail += elems;
        else
            rt.port.deliver(ready, elems);
    } else {
        rt.drainedElems += elems;
    }
    if (rt.walker->done() && rt.firingRemaining == 0)
        settleDemand(rt);
}

void
TileSim::Impl::fabricTick(uint64_t cycle)
{
    if (fabricWalker.done())
        return;
    if (cycle < stats.startupCycles ||
        static_cast<double>(cycle) < nextFire) {
        return;
    }

    // All port-fed input streams must have this firing's elements, all
    // output ports space.
    if (!fabricPortsReady()) {
        ++stats.fabricStallCycles;
        return;
    }

    // Consume inputs, evaluate functionally, produce outputs.
    for (auto &rt : streams) {
        if (rt->isIndexFeed || !rt->input)
            continue;
        if (rt->kind == StreamKind::ConstantTaps)
            continue;  // held resident
        rt->port.available -= rt->fabricNeed;
    }
    int count = fabricWalker.count();
    program.run(fabricWalker.indices().data(), count, memory);
    for (auto &rt : streams) {
        if (!rt->input)
            rt->port.deliver(cycle + pipelineDepth, rt->fabricNeed);
    }
    stats.iterations += count;
    ++stats.firings;
    ++progressEvents;
    fabricWalker.advance();
    refreshFabricDemand();
    nextFire = static_cast<double>(cycle) + iiInterval;
}

void
TileSim::Impl::tick(uint64_t cycle)
{
    if (finished) {
        stats.ledger.add(telemetry::CycleCategory::Barrier);
        if (timelineRun != nullptr && cycle == nextTimelineSample)
            sampleTimeline(cycle);
        return;
    }
    uint64_t progress_before = progressEvents;
    for (auto &rt : streams)
        rt->port.tick(cycle);
    for (auto &[engine_id, engine] : engines)
        engineTick(engine_id, engine, cycle);
    fabricTick(cycle);

    if (fabricWalker.done()) {
        bool drained = true;
        for (auto &rt : streams) {
            if (!rt->input) {
                drained &= rt->port.drained();
            }
        }
        for (auto &[engine_id, engine] : engines)
            drained &= engine.inFlight == 0;
        if (drained) {
            finished = true;
            stats.finishCycle = cycle;
            ++progressEvents;
        }
    }
    if (progressEvents != progress_before)
        stats.ledger.add(telemetry::CycleCategory::Busy);
    else
        accountWindow(cycle - 1, cycle);
    if (timelineRun != nullptr && cycle == nextTimelineSample)
        sampleTimeline(cycle);
}

bool
TileSim::Impl::done() const
{
    return finished;
}

uint64_t
TileSim::Impl::fireReadyCycle() const
{
    double nf = std::max(0.0, nextFire);
    auto ceiled = static_cast<uint64_t>(nf);
    if (static_cast<double>(ceiled) < nf)
        ++ceiled;
    return std::max<uint64_t>(ceiled, stats.startupCycles);
}

bool
TileSim::Impl::fabricPortsReady() const
{
    for (const auto &rt : streams) {
        if (rt->isIndexFeed)
            continue;
        if (rt->input) {
            if (rt->port.available < rt->fabricNeed)
                return false;
        } else if (rt->port.available >= rt->port.capacity) {
            // Out-port FIFO full: values in the fabric pipeline live in
            // pipeline registers, so only the arrived-but-undrained
            // backlog exerts backpressure.
            return false;
        }
    }
    return true;
}

bool
TileSim::Impl::anyOutstanding() const
{
    for (const auto &[engine_id, engine] : engines)
        if (engine.inFlight > 0)
            return true;
    return false;
}

void
TileSim::Impl::accountWindow(uint64_t from, uint64_t to)
{
    using C = telemetry::CycleCategory;
    uint64_t lo = from + 1;
    if (lo < stats.startupCycles) {
        uint64_t n = std::min(to + 1, stats.startupCycles) - lo;
        stats.ledger.add(C::Startup, n);
        lo += n;
    }
    if (lo > to)
        return;
    uint64_t n = to - lo + 1;
    if (anyOutstanding()) {
        stats.ledger.add(C::DramFill, n);
    } else if (!fabricWalker.done()) {
        if (!fabricPortsReady()) {
            stats.ledger.add(C::PortStall, n);
        } else {
            // The only cycle-dependent condition past startup is the
            // timing gate: IiGate before it, Idle (defensively) after.
            uint64_t gate = fireReadyCycle();
            uint64_t ii =
                lo < gate ? std::min(to, gate - 1) - lo + 1 : 0;
            if (ii > 0)
                stats.ledger.add(C::IiGate, ii);
            if (n > ii)
                stats.ledger.add(C::Idle, n - ii);
        }
    } else {
        // Fabric done but not drained: retiring output ports and
        // in-flight stores.
        stats.ledger.add(C::PortStall, n);
    }
}

void
TileSim::Impl::sampleTimeline(uint64_t cycle)
{
    using S = telemetry::TimelineSample;
    S sample{ cycle, tileIndex, stats.ledger };
    sample.gauges[S::DmaBytes] = stats.dmaBytes;
    sample.gauges[S::FabricStallCycles] = stats.fabricStallCycles;
    sample.gauges[S::Firings] = stats.firings;
    sample.gauges[S::Iterations] = stats.iterations;
    sample.gauges[S::SpadBytes] = stats.spadBytes;
    timelineRun->add(sample);
    nextTimelineSample += timelineInterval;
}

uint64_t
TileSim::Impl::nextEventCycle(uint64_t now) const
{
    // A timeline sample reads state at the end of its cycle's tick
    // (finished tiles sample too), so that cycle is ticked, never
    // skipped.
    uint64_t ev =
        timelineRun != nullptr ? nextTimelineSample : kNoEventCycle;
    if (finished)
        return ev;
    auto at = [&ev, now](uint64_t cycle) {
        ev = std::min(ev, std::max(cycle, now + 1));
    };
    // Port deliveries landing in the future wake the tile.
    for (const auto &rt : streams)
        for (size_t i = 0; i < rt->port.arrivals.size(); ++i)
            at(rt->port.arrivals[i].first);
    for (const auto &[engine_id, engine] : engines) {
        switch (engine.kind) {
          case adg::NodeKind::Dma:
            // ROB full: the next issue waits on a retirement, and
            // retirements are completions — the memory system's
            // horizon covers them. (A full tile link likewise keeps
            // the memory system ticking.)
            if (engine.inFlight >= engine.robEntries)
                break;
            // Link full: the next issue waits on the link head
            // popping — a memory-system progress event, so its
            // horizon covers the wake-up. Without this the tile
            // reports now + 1 forever under bandwidth saturation, and
            // no jump can cross the gaps in which the link budget
            // accrues toward the head's bytes.
            if (!memsys.canAccept(tileIndex))
                break;
            [[fallthrough]];
          case adg::NodeKind::Scratchpad:
            // A stream that is ready apart from its activation cycle
            // issues then; readiness only changes through events
            // tracked elsewhere (drains, retirements, deliveries).
            for (const StreamRt *rt : engine.streams) {
                uint64_t active = std::max(now + 1, rt->activeAt);
                bool ready = rt->input ? readReady(*rt, active)
                                       : writeReady(*rt, active);
                if (ready)
                    at(active);
            }
            break;
          case adg::NodeKind::Recurrence:
            for (const StreamRt *in : engine.streams) {
                if (in->kind != StreamKind::RecurrenceIn)
                    continue;
                const StreamRt *out = in->recurrenceOut;
                if (out != nullptr && !out->engineDone &&
                    out->port.available > 0)
                    at(std::max(now + 1, out->activeAt));
                if (!in->engineDone && in->port.space() > 0 &&
                    (in->recInitialRemaining > 0 || in->recPool > 0))
                    at(std::max(now + 1, in->activeAt));
            }
            break;
          case adg::NodeKind::Generate:
            for (const StreamRt *rt : engine.streams)
                if (!rt->engineDone && rt->port.space() > 0)
                    at(std::max(now + 1, rt->activeAt));
            break;
          case adg::NodeKind::Register:
            for (const StreamRt *rt : engine.streams)
                if (!rt->input && !rt->engineDone &&
                    rt->port.available > 0)
                    at(std::max(now + 1, rt->activeAt));
            break;
          default:
            at(now + 1);  // unknown engine: never skip over it
            break;
        }
    }
    // The fabric fires at its timing gate if the port state (frozen
    // while we skip) already admits the firing; otherwise the firing
    // waits on a port event accounted above.
    if (!fabricWalker.done() && fabricPortsReady())
        at(fireReadyCycle());
    return ev;
}

void
TileSim::Impl::fastForward(uint64_t from, uint64_t to)
{
    if (finished) {
        stats.ledger.add(telemetry::CycleCategory::Barrier,
                         to - from);
        return;
    }
    // Attribute the window before the budget/toggle updates below so
    // the classification sees the same pre-window state a per-cycle
    // run would (it never reads budgets, but keep the ordering tight).
    accountWindow(from, to);
    uint64_t k = to - from;
    for (auto &[engine_id, engine] : engines) {
        // Budget saturation: b = min(b + inc, cap) per tick collapses
        // to min(b + k*inc, cap) over k ticks (cap as in engineTick).
        engine.budget =
            std::min(engine.budget + static_cast<double>(k) *
                                         engine.bandwidthBytes,
                     engine.bandwidthBytes +
                         static_cast<double>(config.cacheLineBytes));
        // Without the one-hot bypass a lone active stream flips the
        // issue toggle every tick it is polled, issued or not.
        if (!config.oneHotBypass &&
            (engine.kind == adg::NodeKind::Dma ||
             engine.kind == adg::NodeKind::Scratchpad)) {
            int active = 0;
            for (const StreamRt *rt : engine.streams)
                active += !rt->engineDone;
            if (active == 1 && (k & 1) != 0)
                engine.issueToggle = !engine.issueToggle;
        }
    }
    // Every skipped cycle past the fabric's timing gate would have
    // counted a stall (had the ports admitted a firing, the horizon
    // would have stopped at the gate instead of skipping it).
    if (!fabricWalker.done()) {
        uint64_t first = std::max(from + 1, fireReadyCycle());
        if (first <= to)
            stats.fabricStallCycles += to - first + 1;
    }
}

uint64_t
TileSim::Impl::fingerprint() const
{
    // Excluded on purpose (legal drift in a skipped range): engine
    // byte budgets, the issue toggle, fabric stall counts, and the
    // cycle ledger (accrued in closed form over skipped windows).
    uint64_t h = kFnvOffset;
    auto mix = [&h](uint64_t v) { fnvWord(h, v); };
    mix(stats.firings);
    mix(stats.iterations);
    mix(stats.spadBytes);
    mix(stats.dmaBytes);
    mix(stats.recurrenceBytes);
    mix(stats.finishCycle);
    mix(static_cast<uint64_t>(finished));
    mix(static_cast<uint64_t>(fabricWalker.done()));
    for (const auto &rt : streams) {
        mix(static_cast<uint64_t>(rt->port.available));
        mix(static_cast<uint64_t>(rt->port.pending));
        mix(rt->port.arrivals.size());
        mix(static_cast<uint64_t>(rt->firingRemaining));
        mix(static_cast<uint64_t>(rt->issuedElems));
        mix(static_cast<uint64_t>(rt->drainedElems));
        mix(static_cast<uint64_t>(rt->indexAvail));
        mix(static_cast<uint64_t>(rt->recPool));
        mix(static_cast<uint64_t>(rt->recInitialRemaining));
        mix(static_cast<uint64_t>(rt->tapsDelivered));
        mix(static_cast<uint64_t>(rt->engineDone));
    }
    for (const auto &[engine_id, engine] : engines) {
        mix(static_cast<uint64_t>(engine.inFlight));
        mix(engine.rrNext);
    }
    return h;
}

void
TileSim::Impl::describe(std::string &out) const
{
    out += "tile" + std::to_string(tileIndex) + ": " +
           (finished ? "finished" : "running");
    out += " firings=" + std::to_string(stats.firings);
    out += " fabric=" +
           std::string(fabricWalker.done() ? "done" : "pending");
    out += " dispatcher startup=" +
           std::to_string(stats.startupCycles) + "\n";
    for (const auto &[engine_id, engine] : engines) {
        out += "  engine" + std::to_string(engine_id) + ": rob=" +
               std::to_string(engine.inFlight) + "/" +
               std::to_string(engine.robEntries) + "\n";
        for (const StreamRt *rt : engine.streams) {
            out += "    stream" + std::to_string(rt->id) +
                   (rt->input ? " in" : " out") +
                   ": port=" + std::to_string(rt->port.available) +
                   "+" + std::to_string(rt->port.pending) + "/" +
                   std::to_string(rt->port.capacity) +
                   " firing_remaining=" +
                   std::to_string(rt->firingRemaining) +
                   " issued=" + std::to_string(rt->issuedElems) +
                   " drained=" + std::to_string(rt->drainedElems) +
                   (rt->engineDone ? " done" : "") + "\n";
        }
    }
}

TileSim::TileSim(const wl::KernelSpec &spec, const dfg::Mdfg &mdfg,
                 const sched::Schedule &schedule, const adg::Adg &adg,
                 const AddressMap &addresses, wl::Memory &memory,
                 MemorySystem &memsys, int tile_index, int64_t outer_lo,
                 int64_t outer_hi, const SimConfig &config,
                 int trace_pid)
    : impl(std::make_unique<Impl>(spec, mdfg, schedule, adg, addresses,
                                  memory, memsys, tile_index, outer_lo,
                                  outer_hi, config, trace_pid))
{
}

TileSim::~TileSim() = default;

void
TileSim::tick(uint64_t cycle)
{
    impl->tick(cycle);
}

bool
TileSim::done() const
{
    return impl->done();
}

uint64_t
TileSim::nextEventCycle(uint64_t now) const
{
    return impl->nextEventCycle(now);
}

void
TileSim::fastForward(uint64_t from, uint64_t to)
{
    impl->fastForward(from, to);
}

uint64_t
TileSim::progressCount() const
{
    return impl->progressEvents;
}

uint64_t
TileSim::quiescenceFingerprint() const
{
    return impl->fingerprint();
}

void
TileSim::describeState(std::string &out) const
{
    impl->describe(out);
}

void
TileSim::attachTimeline(telemetry::TimelineRun *run,
                        uint64_t interval)
{
    OG_ASSERT(run == nullptr || interval > 0,
              "timeline sampling needs a positive interval");
    impl->timelineRun = run;
    impl->timelineInterval = interval;
    impl->nextTimelineSample = interval;
}

const TileStats &
TileSim::stats() const
{
    return impl->stats;
}

} // namespace overgen::sim
