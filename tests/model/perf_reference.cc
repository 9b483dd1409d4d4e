#include "perf_reference.h"

#include <algorithm>

#include "common/logging.h"

namespace overgen::model {

namespace {

using dfg::Mdfg;
using dfg::NodeKind;

/** Aggregate hardware bandwidths of one tile's memory system. */
struct TileBandwidths
{
    double inPortBytes = 0.0;
    double outPortBytes = 0.0;
    double spadReadBytes = 0.0;
    double spadWriteBytes = 0.0;
    double dmaBytes = 0.0;
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
            break;
          case adg::NodeKind::Dma:
            bw.dmaBytes += node.dma().bandwidthBytes;
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

PerfBreakdown
referenceEstimateIpc(const PerfInput &input, const adg::Adg &tile,
                     const adg::SystemParams &sys,
                     const PerfConfig &config)
{
    OG_ASSERT(input.mdfg != nullptr, "perf input without mDFG");
    const Mdfg &mdfg = *input.mdfg;
    TileBandwidths bw = tileBandwidths(tile);

    BackingVec backing = input.backing;
    if (backing.empty())
        backing = deriveBacking(mdfg, tile);

    PerfBreakdown out;
    out.instBandwidth = mdfg.instructionBandwidth();

    // Consumption accumulators (bytes/cycle demanded per tile).
    double in_port_demand = 0.0, out_port_demand = 0.0;
    double spad_read = 0.0, spad_write = 0.0;
    double l2_demand = 0.0;
    double dram_demand = 0.0;

    double l2_share_bytes =
        sys.l2CapacityKiB * 1024.0 /
        std::max(1, sys.numTiles);

    auto add_stream = [&](dfg::NodeId id, bool is_input) {
        const dfg::StreamNode &stream = mdfg.node(id).stream;
        double bytes = stream.bytesPerFiring();
        if (is_input)
            in_port_demand += bytes;
        else
            out_port_demand += bytes;

        Backing b = backingOf(backing, id);
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
            double general = std::max(stream.reuse.generalReuse(), 1.0);
            dram_demand += demand / general;
            break;
          }
          case Backing::Dma: {
            l2_demand += demand;
            // The L2 filters traffic whose footprint fits its share.
            double l2_reuse = 1.0;
            if (stream.reuse.footprintBytes <= l2_share_bytes)
                l2_reuse = std::max(stream.reuse.generalReuse(), 1.0);
            dram_demand += demand / l2_reuse;
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
    out.fabricFactor =
        std::min(bottleneck(bw.inPortBytes, in_port_demand),
                 bottleneck(bw.outPortBytes, out_port_demand));

    // L1: scratchpad, private per tile (paper: # shared tiles = 1);
    // read and write ports are provisioned separately.
    out.spadFactor =
        std::min(bottleneck(bw.spadReadBytes, spad_read),
                 bottleneck(bw.spadWriteBytes, spad_write));

    // L2: banks shared by all tiles over the NoC; each tile's link and
    // DMA engine also cap its slice.
    double tiles = static_cast<double>(sys.numTiles);
    double l2_production =
        config.l2BankBandwidthBytes * sys.l2Banks;
    double tile_link = std::min(bw.dmaBytes,
                                static_cast<double>(sys.nocBytes));
    out.l2Factor =
        std::min(bottleneck(l2_production, l2_demand * tiles),
                 bottleneck(tile_link, l2_demand));

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

    out.ipc = out.instBandwidth * tiles * limit;
    return out;
}

} // namespace overgen::model
