#include "model/perf.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"
#include "common/stats.h"

namespace overgen::model {

namespace {

using dfg::Mdfg;
using dfg::NodeKind;
using dfg::StreamSource;

/** Aggregate hardware bandwidths of one tile's memory system. */
struct TileBandwidths
{
    double inPortBytes = 0.0;
    double outPortBytes = 0.0;
    double spadReadBytes = 0.0;
    double spadWriteBytes = 0.0;
    double spadCapacityBytes = 0.0;
    double dmaBytes = 0.0;
    bool hasRecurrence = false;
    bool hasSpad = false;
};

TileBandwidths
tileBandwidths(const adg::Adg &tile)
{
    TileBandwidths bw;
    for (adg::NodeId id : tile.nodeIds()) {
        const adg::Node &node = tile.node(id);
        switch (node.kind) {
          case adg::NodeKind::InPort:
            bw.inPortBytes += node.port().widthBytes;
            break;
          case adg::NodeKind::OutPort:
            bw.outPortBytes += node.port().widthBytes;
            break;
          case adg::NodeKind::Scratchpad:
            bw.spadReadBytes += node.spad().readBandwidthBytes;
            bw.spadWriteBytes += node.spad().writeBandwidthBytes;
            bw.spadCapacityBytes += node.spad().capacityKiB * 1024.0;
            bw.hasSpad = true;
            break;
          case adg::NodeKind::Dma:
            bw.dmaBytes += node.dma().bandwidthBytes;
            break;
          case adg::NodeKind::Recurrence:
            bw.hasRecurrence = true;
            break;
          default:
            break;
        }
    }
    return bw;
}

/** Ratio clamped to [epsilon, 1]: a level can only slow execution. */
double
bottleneck(double production, double consumption)
{
    if (consumption <= 1e-12)
        return 1.0;
    return std::clamp(production / consumption, 1e-6, 1.0);
}

} // namespace

BackingVec
deriveBacking(const Mdfg &mdfg, const adg::Adg &tile)
{
    TileBandwidths bw = tileBandwidths(tile);
    BackingVec backing(static_cast<size_t>(mdfg.numNodes()),
                       Backing::Dma);

    // Scratchpad allocation: prefer arrays the compiler marked, largest
    // general reuse first, while capacity lasts.
    std::vector<bool> array_in_spad(
        static_cast<size_t>(mdfg.numNodes()), false);
    double remaining = bw.spadCapacityBytes;
    std::vector<dfg::NodeId> arrays =
        mdfg.nodeIdsOfKind(NodeKind::Array);
    std::sort(arrays.begin(), arrays.end(),
              [&](dfg::NodeId a, dfg::NodeId b) {
                  return mdfg.node(a).array.sizeBytes <
                         mdfg.node(b).array.sizeBytes;
              });
    for (dfg::NodeId id : arrays) {
        const dfg::ArrayNode &arr = mdfg.node(id).array;
        bool wants_spad =
            arr.preferred == dfg::ArrayPlacement::Scratchpad;
        bool fits = static_cast<double>(arr.sizeBytes) <= remaining;
        bool supported = bw.hasSpad;
        if (arr.indirectIndexed) {
            supported = false;
            for (adg::NodeId sid :
                 tile.nodeIdsOfKind(adg::NodeKind::Scratchpad)) {
                supported |= tile.node(sid).spad().indirect;
            }
        }
        if (wants_spad && fits && supported) {
            array_in_spad[id] = true;
            remaining -= static_cast<double>(arr.sizeBytes);
        }
    }

    auto classify = [&](dfg::NodeId id) {
        const dfg::StreamNode &stream = mdfg.node(id).stream;
        switch (stream.source) {
          case StreamSource::Generated:
            return Backing::Generate;
          case StreamSource::Register:
            return Backing::Register;
          case StreamSource::Recurrence:
            return bw.hasRecurrence ? Backing::Recurrence : Backing::Dma;
          case StreamSource::Memory:
            break;
        }
        if (stream.array != dfg::invalidNode &&
            array_in_spad[stream.array]) {
            return Backing::Scratchpad;
        }
        return Backing::Dma;
    };
    for (dfg::NodeId id : mdfg.nodeIdsOfKind(NodeKind::InputStream))
        backing[id] = classify(id);
    for (dfg::NodeId id : mdfg.nodeIdsOfKind(NodeKind::OutputStream))
        backing[id] = classify(id);
    return backing;
}

PerfBreakdown
estimateIpc(const PerfInput &input, const adg::Adg &tile,
            const adg::SystemParams &sys, const PerfConfig &config)
{
    OG_ASSERT(input.mdfg != nullptr, "perf input without mDFG");
    return combineSystemPerf(
        precomputeTilePerf(*input.mdfg, input.backing, tile), sys, config);
}

TilePerfSummary
precomputeTilePerf(const Mdfg &mdfg, const BackingVec &backing_in,
                   const adg::Adg &tile)
{
    TileBandwidths bw = tileBandwidths(tile);

    const BackingVec *backing = &backing_in;
    BackingVec derived;
    if (backing_in.empty()) {
        derived = deriveBacking(mdfg, tile);
        backing = &derived;
    }

    TilePerfSummary s;
    s.instBandwidth = mdfg.instructionBandwidth();
    s.dmaBytes = bw.dmaBytes;

    // Consumption accumulators (bytes/cycle demanded per tile), input
    // streams then output streams. The DRAM demand depends on the
    // system's L2 share, so each memory-backed stream leaves one term
    // that combineSystemPerf sums in this order.
    double in_port_demand = 0.0, out_port_demand = 0.0;
    double spad_read = 0.0, spad_write = 0.0;

    auto add_stream = [&](dfg::NodeId id, bool is_input) {
        const dfg::StreamNode &stream = mdfg.node(id).stream;
        double bytes = stream.bytesPerFiring();
        if (is_input)
            in_port_demand += bytes;
        else
            out_port_demand += bytes;

        Backing b = backingOf(*backing, id);
        double captured = std::max(stream.reuse.capturedFactor(), 1.0);
        double demand =
            bytes / captured / std::max(stream.bandwidthEfficiency,
                                        1e-3);
        switch (b) {
          case Backing::Scratchpad: {
            if (is_input)
                spad_read += demand;
            else
                spad_write += demand;
            // Fill/drain traffic reaches DRAM once per general reuse.
            TilePerfSummary::DramTerm term;
            term.demand = demand;
            term.generalReuse =
                std::max(stream.reuse.generalReuse(), 1.0);
            term.l2Filtered = false;
            s.dramTerms.push_back(term);
            break;
          }
          case Backing::Dma: {
            s.l2Demand += demand;
            TilePerfSummary::DramTerm term;
            term.demand = demand;
            term.footprintBytes = stream.reuse.footprintBytes;
            term.generalReuse =
                std::max(stream.reuse.generalReuse(), 1.0);
            term.l2Filtered = true;
            s.dramTerms.push_back(term);
            break;
          }
          case Backing::Recurrence:
          case Backing::Generate:
          case Backing::Register:
            break;  // no memory-system traffic in steady state
        }
    };

    for (dfg::NodeId id : mdfg.nodeIdsOfKind(NodeKind::InputStream))
        add_stream(id, true);
    for (dfg::NodeId id : mdfg.nodeIdsOfKind(NodeKind::OutputStream))
        add_stream(id, false);

    // Fabric interface: ports must sustain every firing.
    s.fabricFactor =
        std::min(bottleneck(bw.inPortBytes, in_port_demand),
                 bottleneck(bw.outPortBytes, out_port_demand));
    // L1: scratchpad, private per tile (paper: # shared tiles = 1);
    // read and write ports are provisioned separately.
    s.spadFactor =
        std::min(bottleneck(bw.spadReadBytes, spad_read),
                 bottleneck(bw.spadWriteBytes, spad_write));
    return s;
}

PerfBreakdown
combineSystemPerf(const TilePerfSummary &summary,
                  const adg::SystemParams &sys,
                  const PerfConfig &config)
{
    PerfBreakdown out;
    out.instBandwidth = summary.instBandwidth;
    out.fabricFactor = summary.fabricFactor;
    out.spadFactor = summary.spadFactor;

    double l2_share_bytes =
        sys.l2CapacityKiB * 1024.0 /
        std::max(1, sys.numTiles);

    // DRAM demand: each term divides by the general reuse (scratchpad
    // fill/drain, or DMA traffic whose footprint fits the L2 share) or
    // by 1.0 (DMA traffic the L2 cannot filter).
    double dram_demand = 0.0;
    for (const TilePerfSummary::DramTerm &term : summary.dramTerms) {
        double reuse = term.generalReuse;
        if (term.l2Filtered && term.footprintBytes > l2_share_bytes)
            reuse = 1.0;
        dram_demand += term.demand / reuse;
    }

    // L2: banks shared by all tiles over the NoC; each tile's link and
    // DMA engine also cap its slice.
    double tiles = static_cast<double>(sys.numTiles);
    double l2_production =
        config.l2BankBandwidthBytes * sys.l2Banks;
    double tile_link = std::min(summary.dmaBytes,
                                static_cast<double>(sys.nocBytes));
    out.l2Factor =
        std::min(bottleneck(l2_production, summary.l2Demand * tiles),
                 bottleneck(tile_link, summary.l2Demand));

    // L3: DRAM, fixed total board bandwidth.
    double dram_production =
        config.dramChannelBandwidthBytes * sys.dramChannels;
    out.dramFactor = bottleneck(dram_production, dram_demand * tiles);

    // The tightest level limits; ties name the level nearest the
    // fabric, and a limit of 1 means nothing does.
    double limit = std::min({ out.fabricFactor, out.spadFactor,
                              out.l2Factor, out.dramFactor });
    if (limit == out.dramFactor)
        out.bottleneck = "dram";
    if (limit == out.l2Factor)
        out.bottleneck = "l2";
    if (limit == out.spadFactor)
        out.bottleneck = "spad";
    if (limit == out.fabricFactor)
        out.bottleneck = "fabric";
    if (limit >= 1.0 - 1e-12)
        out.bottleneck = "compute";

    out.ipc = summary.instBandwidth * tiles * limit;
    return out;
}

double
performanceObjective(const std::vector<PerfBreakdown> &per_workload,
                     const std::vector<double> &weights)
{
    OG_ASSERT(per_workload.size() == weights.size(), "size mismatch");
    std::vector<double> ipcs;
    ipcs.reserve(per_workload.size());
    for (const PerfBreakdown &b : per_workload)
        ipcs.push_back(std::max(b.ipc, 1e-9));
    return weightedGeometricMean(ipcs, weights);
}

} // namespace overgen::model
