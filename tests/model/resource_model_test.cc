#include <gtest/gtest.h>

#include <bit>
#include <vector>

#include "adg/builders.h"
#include "common/parallel.h"
#include "model/oracle.h"
#include "model/resource_model.h"

namespace overgen::model {
namespace {

/** A small, fast-to-train model shared by the tests in this file. */
const FpgaResourceModel &
testModel()
{
    static FpgaResourceModel model = [] {
        ResourceModelConfig config;
        config.peSamples = 1200;
        config.switchSamples = 600;
        config.inPortSamples = 400;
        config.outPortSamples = 400;
        config.train.epochs = 60;
        return FpgaResourceModel::train(config);
    }();
    return model;
}

TEST(ResourceModel, ValidationErrorsReasonable)
{
    const auto &model = testModel();
    EXPECT_LT(model.peError(), 0.35);
    EXPECT_LT(model.switchError(), 0.35);
    EXPECT_LT(model.inPortError(), 0.35);
    EXPECT_LT(model.outPortError(), 0.35);
}

TEST(ResourceModel, PePredictionTracksOracle)
{
    const auto &model = testModel();
    adg::Node node;
    node.kind = adg::NodeKind::Pe;
    adg::PeSpec pe;
    pe.capabilities = adg::intCapabilities(DataType::I64);
    pe.datapathBytes = 32;
    node.spec = pe;
    Resources truth = synthesizeNode(node, 3);
    Resources pred = model.nodeResources(node, 3);
    EXPECT_NEAR(pred.lut, truth.lut, truth.lut * 0.5);
    EXPECT_GT(pred.lut, 0.0);
}

TEST(ResourceModel, ModelIsPessimisticOnAverage)
{
    // §V-D: the OOC-trained model overestimates post-PnR results.
    const auto &model = testModel();
    Rng rng(77);
    double pred_sum = 0.0, truth_sum = 0.0;
    for (int i = 0; i < 50; ++i) {
        adg::Node node;
        node.kind = adg::NodeKind::Switch;
        node.spec = adg::SwitchSpec{ 8 << rng.nextBelow(4) };
        int radix = static_cast<int>(rng.nextRange(2, 8));
        pred_sum += model.nodeResources(node, radix).lut;
        truth_sum += synthesizeNode(node, radix).lut;
    }
    EXPECT_GT(pred_sum, truth_sum);
}

TEST(ResourceModel, EnginesUseExactCharacterization)
{
    const auto &model = testModel();
    adg::Node node;
    node.kind = adg::NodeKind::Dma;
    node.spec = adg::DmaSpec{ 32, true, 16 };
    Resources pred = model.nodeResources(node, 2);
    Resources truth = synthesizeNode(node, 2);
    // Exhaustively characterized: exact up to the pessimism factor.
    EXPECT_NEAR(pred.lut, truth.lut * 1.06, 1e-6);
}

TEST(ResourceModel, TileResourcesSumNodes)
{
    const auto &model = testModel();
    adg::MeshConfig config;
    config.rows = 2;
    config.cols = 2;
    config.numPes = 2;
    config.numInPorts = 2;
    config.numOutPorts = 1;
    config.peCapabilities = adg::intCapabilities(DataType::I64);
    adg::Adg tile = adg::buildMeshTile(config);
    Resources total = model.tileResources(tile);
    EXPECT_GT(total.lut, 0.0);
    auto breakdown = model.tileBreakdown(tile);
    double sum = breakdown.pe.lut + breakdown.network.lut +
                 breakdown.ports.lut + breakdown.spad.lut +
                 breakdown.dma.lut;
    EXPECT_NEAR(sum, total.lut, total.lut * 1e-9);
}

TEST(ResourceModel, SystemAddsCoresAndUncore)
{
    const auto &model = testModel();
    adg::SysAdg design;
    adg::MeshConfig config;
    config.rows = 2;
    config.cols = 2;
    config.numPes = 2;
    config.numInPorts = 2;
    config.numOutPorts = 1;
    config.peCapabilities = adg::intCapabilities(DataType::I64);
    design.adg = adg::buildMeshTile(config);
    design.sys.numTiles = 2;
    Resources two_tiles = model.systemResources(design);
    design.sys.numTiles = 4;
    Resources four_tiles = model.systemResources(design);
    EXPECT_GT(four_tiles.lut, two_tiles.lut * 1.5);
    EXPECT_GT(two_tiles.lut, 2.0 * model.tileResources(design.adg).lut);
}

TEST(ResourceModel, GeneralSystemNearlyFillsDevice)
{
    // Paper Q1: the general overlay fits at most 4 tiles on the VCU9P.
    const auto &model = testModel();
    adg::SysAdg design;
    design.adg = adg::buildGeneralOverlayTile();
    design.sys.numTiles = 4;
    design.sys.l2Banks = 4;
    design.sys.nocBytes = 32;
    FpgaDevice device = FpgaDevice::xcvu9p();
    double util =
        device.worstUtilization(model.systemResources(design));
    EXPECT_GT(util, 0.7);
    design.sys.numTiles = 6;
    EXPECT_GT(device.worstUtilization(model.systemResources(design)),
              1.0);
}

TEST(ResourceModel, DefaultModelIsPinned)
{
    // Pins the default-config model bit for bit: an FNV-1a digest of
    // the bit patterns of nodeResources over a seeded mix of PEs,
    // switches and ports, followed by the four validation errors.
    // Recorded on a Release build before the training loop learned to
    // skip stuck subnormal momentum updates; any change to the trained
    // weights, the standardization statistics or the validation split
    // moves it.
    const FpgaResourceModel &model = FpgaResourceModel::defaultModel();
    uint64_t digest = 0xcbf29ce484222325ull;
    auto mix = [&](double value) {
        uint64_t bits = std::bit_cast<uint64_t>(value);
        for (int byte = 0; byte < 8; ++byte) {
            digest ^= (bits >> (8 * byte)) & 0xff;
            digest *= 0x100000001b3ull;
        }
    };
    auto mix_node = [&](const adg::Node &node, int radix) {
        Resources r = model.nodeResources(node, radix);
        mix(r.lut);
        mix(r.ff);
        mix(r.bram);
        mix(r.dsp);
    };

    Rng rng(2024);
    const int widths[] = { 4, 8, 16, 32, 64 };
    const DataType types[] = { DataType::I16, DataType::I32,
                               DataType::I64, DataType::F32,
                               DataType::F64 };
    const Opcode ops[] = { Opcode::Add, Opcode::Mul, Opcode::Div,
                           Opcode::Sqrt, Opcode::Shl };
    for (int i = 0; i < 24; ++i) {
        adg::Node pe;
        pe.kind = adg::NodeKind::Pe;
        adg::PeSpec spec;
        spec.datapathBytes = widths[1 + rng.nextBelow(4)];
        spec.maxDelayFifoDepth = static_cast<int>(rng.nextRange(2, 16));
        spec.controlLut = rng.nextBool(0.3);
        int caps = static_cast<int>(rng.nextRange(1, 8));
        for (int c = 0; c < caps; ++c)
            spec.capabilities.insert(
                { ops[rng.nextBelow(5)], types[rng.nextBelow(5)] });
        pe.spec = spec;
        mix_node(pe, 3);

        adg::Node sw;
        sw.kind = adg::NodeKind::Switch;
        sw.spec = adg::SwitchSpec{ widths[1 + rng.nextBelow(4)] };
        mix_node(sw, static_cast<int>(rng.nextRange(2, 10)));

        for (adg::NodeKind kind :
             { adg::NodeKind::InPort, adg::NodeKind::OutPort }) {
            adg::Node port;
            port.kind = kind;
            adg::PortSpec ps;
            ps.widthBytes = widths[rng.nextBelow(5)];
            ps.fifoDepth = static_cast<int>(rng.nextRange(2, 32));
            ps.padding = rng.nextBool();
            ps.statedStream = rng.nextBool();
            port.spec = ps;
            mix_node(port, 2);
        }
    }
    mix(model.peError());
    mix(model.switchError());
    mix(model.inPortError());
    mix(model.outPortError());

    EXPECT_EQ(digest, 0x84dc145b3da64b6eull)
        << "digest 0x" << std::hex << digest;
}

/** Small enough to train twice under ThreadSanitizer. */
ResourceModelConfig
tinyConfig()
{
    ResourceModelConfig config;
    config.peSamples = 200;
    config.switchSamples = 120;
    config.inPortSamples = 80;
    config.outPortSamples = 80;
    config.train.epochs = 6;
    return config;
}

/**
 * Bit patterns of @p model's four validation errors and of its
 * predictions for a seeded mix of PEs, switches and ports.
 */
std::vector<uint64_t>
predictionBits(const FpgaResourceModel &model)
{
    std::vector<uint64_t> bits;
    auto add = [&](double value) {
        bits.push_back(std::bit_cast<uint64_t>(value));
    };
    auto add_node = [&](const adg::Node &node, int radix) {
        Resources r = model.nodeResources(node, radix);
        for (double value : { r.lut, r.ff, r.bram, r.dsp })
            add(value);
    };
    add(model.peError());
    add(model.switchError());
    add(model.inPortError());
    add(model.outPortError());
    Rng rng(9);
    for (int i = 0; i < 8; ++i) {
        adg::Node pe;
        pe.kind = adg::NodeKind::Pe;
        adg::PeSpec spec;
        spec.datapathBytes = 8 << rng.nextBelow(4);
        spec.capabilities = adg::intCapabilities(DataType::I32);
        spec.maxDelayFifoDepth = static_cast<int>(rng.nextRange(2, 16));
        pe.spec = spec;
        add_node(pe, 3);

        adg::Node sw;
        sw.kind = adg::NodeKind::Switch;
        sw.spec = adg::SwitchSpec{ 8 << rng.nextBelow(4) };
        add_node(sw, static_cast<int>(rng.nextRange(2, 10)));

        for (adg::NodeKind kind :
             { adg::NodeKind::InPort, adg::NodeKind::OutPort }) {
            adg::Node port;
            port.kind = kind;
            adg::PortSpec ps;
            ps.widthBytes = 4 << rng.nextBelow(5);
            ps.fifoDepth = static_cast<int>(rng.nextRange(2, 32));
            port.spec = ps;
            add_node(port, 2);
        }
    }
    return bits;
}

TEST(ResourceModelTraining, LeavesNoThreadPoolAlive)
{
    // train() fits the four MLPs on a thread pool of its own. The pool
    // must be gone when train() returns: the serve layer forks workers
    // after set-up and asserts that no pool is alive when it does.
    ASSERT_EQ(liveThreadPools(), 0);
    FpgaResourceModel model = FpgaResourceModel::train(tinyConfig());
    EXPECT_EQ(liveThreadPools(), 0);
}

TEST(ResourceModelTraining, ConcurrentTrainingIsDeterministic)
{
    // The MLPs train concurrently, each on its own data and Rng: two
    // trainings give the same model bit for bit, whatever the
    // scheduling.
    FpgaResourceModel first = FpgaResourceModel::train(tinyConfig());
    FpgaResourceModel second = FpgaResourceModel::train(tinyConfig());
    EXPECT_EQ(predictionBits(first), predictionBits(second));
}

TEST(ResourceModel, FeatureExtraction)
{
    adg::PeSpec pe;
    pe.capabilities = { { Opcode::Mul, DataType::F32 },
                        { Opcode::Add, DataType::I64 },
                        { Opcode::Div, DataType::F64 } };
    pe.datapathBytes = 16;
    auto features = peFeatures(pe);
    EXPECT_EQ(features[0], 16.0);  // datapath
    EXPECT_EQ(features[1], 1.0);   // int caps
    EXPECT_EQ(features[2], 2.0);   // float caps
    EXPECT_EQ(features[3], 1.0);   // div/sqrt caps
    EXPECT_EQ(features[4], 1.0);   // mul caps
}

TEST(Resources, ArithmeticOperators)
{
    Resources a{ 10, 20, 1, 2 };
    Resources b{ 5, 10, 1, 0 };
    Resources sum = a + b;
    EXPECT_EQ(sum.lut, 15.0);
    EXPECT_EQ(sum.ff, 30.0);
    Resources scaled = a * 2.0;
    EXPECT_EQ(scaled.dsp, 4.0);
}

TEST(Resources, DeviceFitChecks)
{
    FpgaDevice device = FpgaDevice::xcvu9p();
    Resources half = device.total * 0.5;
    EXPECT_TRUE(device.fits(half));
    EXPECT_FALSE(device.fits(device.total * 1.01));
    EXPECT_NEAR(device.worstUtilization(half), 0.5, 1e-9);
}

} // namespace
} // namespace overgen::model
