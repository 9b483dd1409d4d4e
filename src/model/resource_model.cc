#include "model/resource_model.h"

#include <algorithm>
#include <mutex>
#include <utility>

#include "common/logging.h"
#include "common/parallel.h"
#include "model/oracle.h"

namespace overgen::model {

namespace {

std::vector<double>
resourcesToTargets(const Resources &r)
{
    return { r.lut, r.ff, r.bram, r.dsp };
}

Resources
targetsToResources(const std::vector<double> &t)
{
    OG_ASSERT(t.size() == 4, "bad target vector");
    return { t[0], t[1], t[2], t[3] };
}

/** Random PE spec sampler covering the DSE design space. */
adg::PeSpec
samplePe(Rng &rng)
{
    adg::PeSpec pe;
    const int widths[] = { 8, 16, 32, 64 };
    pe.datapathBytes = widths[rng.nextBelow(4)];
    pe.maxDelayFifoDepth = static_cast<int>(rng.nextRange(2, 16));
    pe.controlLut = rng.nextBool(0.3);
    const DataType types[] = { DataType::I8,  DataType::I16,
                               DataType::I32, DataType::I64,
                               DataType::F32, DataType::F64 };
    int cap_count = static_cast<int>(rng.nextRange(1, 20));
    const auto &ops = allOpcodes();
    for (int c = 0; c < cap_count; ++c) {
        Opcode op = ops[rng.nextBelow(ops.size())];
        DataType type = types[rng.nextBelow(6)];
        if (dataTypeIsFloat(type) &&
            (op == Opcode::Shl || op == Opcode::Shr ||
             op == Opcode::And || op == Opcode::Or ||
             op == Opcode::Xor)) {
            continue;
        }
        if (!dataTypeIsFloat(type) && op == Opcode::Sqrt)
            continue;
        pe.capabilities.insert({ op, type });
    }
    if (pe.capabilities.empty())
        pe.capabilities.insert({ Opcode::Add, DataType::I64 });
    return pe;
}

adg::PortSpec
samplePort(Rng &rng)
{
    adg::PortSpec port;
    const int widths[] = { 4, 8, 16, 32, 64 };
    port.widthBytes = widths[rng.nextBelow(5)];
    port.fifoDepth = static_cast<int>(rng.nextRange(2, 32));
    port.padding = rng.nextBool();
    port.statedStream = rng.nextBool();
    return port;
}

} // namespace

std::vector<double>
peFeatures(const adg::PeSpec &pe)
{
    double int_caps = 0, flt_caps = 0, div_sqrt = 0, mul = 0;
    double max_latency = 0;
    for (const FuCapability &cap : pe.capabilities) {
        if (dataTypeIsFloat(cap.type))
            flt_caps += 1;
        else
            int_caps += 1;
        if (cap.op == Opcode::Div || cap.op == Opcode::Sqrt)
            div_sqrt += 1;
        if (cap.op == Opcode::Mul)
            mul += 1;
        max_latency = std::max(
            max_latency,
            static_cast<double>(opProperties(cap.op, cap.type).latency));
        // Total FU byte-width drives the dominant cost.
    }
    double total_lanes = 0;
    for (const FuCapability &cap : pe.capabilities)
        total_lanes += subwordLanes(pe.datapathBytes, cap.type);
    return { static_cast<double>(pe.datapathBytes),
             int_caps,
             flt_caps,
             div_sqrt,
             mul,
             total_lanes,
             max_latency,
             static_cast<double>(pe.maxDelayFifoDepth),
             pe.controlLut ? 1.0 : 0.0 };
}

std::vector<double>
switchFeatures(const adg::SwitchSpec &sw, int radix)
{
    return { static_cast<double>(sw.datapathBytes),
             static_cast<double>(radix),
             static_cast<double>(sw.datapathBytes) * radix * radix };
}

std::vector<double>
portFeatures(const adg::PortSpec &port)
{
    return { static_cast<double>(port.widthBytes),
             static_cast<double>(port.fifoDepth),
             port.padding ? 1.0 : 0.0,
             port.statedStream ? 1.0 : 0.0,
             static_cast<double>(port.widthBytes) * port.fifoDepth };
}

FpgaResourceModel
FpgaResourceModel::train(const ResourceModelConfig &config)
{
    FpgaResourceModel model;
    model.pessimism = config.pessimism;
    Rng rng(config.seed);

    // Sample all four training sets from the one Rng, in component
    // order, before any training: the MLPs never draw from it.
    struct Samples
    {
        std::vector<std::vector<double>> x, y;
    };
    Samples pe, sw, in_port, out_port;
    for (int i = 0; i < config.peSamples; ++i) {
        adg::Node node;
        node.kind = adg::NodeKind::Pe;
        node.spec = samplePe(rng);
        pe.x.push_back(peFeatures(node.pe()));
        pe.y.push_back(resourcesToTargets(synthesizeNode(node, 3)));
    }
    for (int i = 0; i < config.switchSamples; ++i) {
        adg::Node node;
        node.kind = adg::NodeKind::Switch;
        const int widths[] = { 8, 16, 32, 64 };
        node.spec = adg::SwitchSpec{ widths[rng.nextBelow(4)] };
        int radix = static_cast<int>(rng.nextRange(2, 10));
        sw.x.push_back(switchFeatures(node.sw(), radix));
        sw.y.push_back(resourcesToTargets(synthesizeNode(node, radix)));
    }
    // Ports (input and output trained separately, as in Table I).
    auto sample_ports = [&](Samples &port, int samples,
                            adg::NodeKind kind) {
        for (int i = 0; i < samples; ++i) {
            adg::Node node;
            node.kind = kind;
            node.spec = samplePort(rng);
            port.x.push_back(portFeatures(node.port()));
            port.y.push_back(resourcesToTargets(synthesizeNode(node, 2)));
        }
    };
    sample_ports(in_port, config.inPortSamples, adg::NodeKind::InPort);
    sample_ports(out_port, config.outPortSamples, adg::NodeKind::OutPort);

    auto make_mlp = [](const Samples &samples, std::vector<int> hidden,
                       uint64_t seed) {
        return std::make_unique<Mlp>(static_cast<int>(samples.x[0].size()),
                                     std::move(hidden), 4, seed);
    };
    model.peMlp = make_mlp(pe, { 48, 24 }, config.seed + 1);
    model.switchMlp = make_mlp(sw, { 24, 12 }, config.seed + 2);
    model.inPortMlp = make_mlp(in_port, { 24, 12 }, config.seed + 3);
    model.outPortMlp = make_mlp(out_port, { 24, 12 }, config.seed + 4);

    // Each MLP trains on its own samples with its own Rng, so the four
    // train concurrently to the same weights as one after another. The
    // pool's threads are joined at the end of this scope, before
    // train() returns, so a caller may fork afterwards.
    {
        const std::pair<Mlp *, const Samples *> jobs[] = {
            { model.peMlp.get(), &pe },
            { model.switchMlp.get(), &sw },
            { model.inPortMlp.get(), &in_port },
            { model.outPortMlp.get(), &out_port },
        };
        ThreadPool pool(std::min(4, ThreadPool::hardwareThreads()));
        pool.parallelFor(4, [&](size_t i) {
            jobs[i].first->train(jobs[i].second->x, jobs[i].second->y,
                                 config.train);
        });
    }
    return model;
}

const FpgaResourceModel &
FpgaResourceModel::defaultModel()
{
    static std::once_flag once;
    static std::unique_ptr<FpgaResourceModel> instance;
    std::call_once(once, [] {
        instance = std::make_unique<FpgaResourceModel>(
            FpgaResourceModel::train());
    });
    return *instance;
}

Resources
FpgaResourceModel::predict(const Mlp &mlp, int kind_key,
                           const std::vector<double> &features) const
{
    {
        std::lock_guard<std::mutex> lock(memo->mutex);
        auto it = memo->cache.find({ kind_key, features });
        if (it != memo->cache.end())
            return it->second;
    }
    Resources r = targetsToResources(mlp.predict(features)) * pessimism;
    std::lock_guard<std::mutex> lock(memo->mutex);
    // The mutation grids keep the reachable key space small; the cap
    // is insurance against pathological callers, not a working set.
    if (memo->cache.size() < 65536)
        memo->cache.emplace(std::make_pair(kind_key, features), r);
    return r;
}

Resources
FpgaResourceModel::nodeResources(const adg::Node &node, int radix) const
{
    switch (node.kind) {
      case adg::NodeKind::Pe:
        return predict(*peMlp, static_cast<int>(node.kind),
                       peFeatures(node.pe()));
      case adg::NodeKind::Switch:
        return predict(*switchMlp, static_cast<int>(node.kind),
                       switchFeatures(node.sw(), radix));
      case adg::NodeKind::InPort:
        return predict(*inPortMlp, static_cast<int>(node.kind),
                       portFeatures(node.port()));
      case adg::NodeKind::OutPort:
        return predict(*outPortMlp, static_cast<int>(node.kind),
                       portFeatures(node.port()));
      default:
        // Few-parameter engines are exhaustively characterized: use
        // the synthesis result directly.
        return synthesizeNode(node, radix) * pessimism;
    }
}

Resources
FpgaResourceModel::tileResources(const adg::Adg &adg) const
{
    Resources total;
    for (adg::NodeId id : adg.nodeIds())
        total += nodeResources(adg.node(id), adg.radix(id));
    return total;
}

FpgaResourceModel::TileBreakdown
FpgaResourceModel::tileBreakdown(const adg::Adg &adg) const
{
    TileBreakdown breakdown;
    for (adg::NodeId id : adg.nodeIds()) {
        const adg::Node &node = adg.node(id);
        Resources r = nodeResources(node, adg.radix(id));
        switch (node.kind) {
          case adg::NodeKind::Pe:
            breakdown.pe += r;
            break;
          case adg::NodeKind::Switch:
            breakdown.network += r;
            break;
          case adg::NodeKind::InPort:
          case adg::NodeKind::OutPort:
            breakdown.ports += r;
            break;
          case adg::NodeKind::Scratchpad:
            breakdown.spad += r;
            break;
          default:
            breakdown.dma += r;
            break;
        }
    }
    return breakdown;
}

Resources
FpgaResourceModel::systemResources(const adg::SysAdg &design) const
{
    Resources tile = tileResources(design.adg);
    tile += synthesizeControlCore() * pessimism;
    Resources total = tile * static_cast<double>(design.sys.numTiles);
    total += synthesizeUncore(design.sys) * pessimism;
    return total;
}

double
FpgaResourceModel::peError() const
{
    return peMlp->validationRelativeError();
}

double
FpgaResourceModel::switchError() const
{
    return switchMlp->validationRelativeError();
}

double
FpgaResourceModel::inPortError() const
{
    return inPortMlp->validationRelativeError();
}

double
FpgaResourceModel::outPortError() const
{
    return outPortMlp->validationRelativeError();
}

} // namespace overgen::model
