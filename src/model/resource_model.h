#ifndef OVERGEN_MODEL_RESOURCE_MODEL_H
#define OVERGEN_MODEL_RESOURCE_MODEL_H

/**
 * @file
 * ML-based FPGA resource model (paper §V-D): per-component MLPs trained
 * on (oracle) synthesis samples for the many-parameter units — PEs,
 * switches, input/output ports — and exhaustive characterization for
 * the few-parameter units (engines, core, NoC, L2). Used by the DSE to
 * price every candidate design without running synthesis.
 */

#include <map>
#include <memory>
#include <mutex>
#include <utility>
#include <vector>

#include "adg/adg.h"
#include "model/mlp.h"
#include "model/resources.h"

namespace overgen::model {

/** Training-set sizes per component (paper Table I, scaled down). */
struct ResourceModelConfig
{
    int peSamples = 3000;
    int switchSamples = 1500;
    int inPortSamples = 1000;
    int outPortSamples = 1000;
    MlpTrainConfig train;
    uint64_t seed = 1;
    /**
     * Out-of-context training data has no cross-module optimization, so
     * the model is pessimistic (paper: "projected design point is
     * larger than the actual post-PnR result").
     */
    double pessimism = 1.06;
};

/** The trained component-level resource model. */
class FpgaResourceModel
{
  public:
    /**
     * Sample the component design spaces and train the MLPs: the four
     * concurrently, on a thread pool that is gone when this returns.
     */
    static FpgaResourceModel train(const ResourceModelConfig &config = {});

    /**
     * A shared, lazily-trained default instance (training takes a
     * moment; benches and the DSE reuse it).
     */
    static const FpgaResourceModel &defaultModel();

    /** Predicted resources of one ADG node at the given radix. */
    Resources nodeResources(const adg::Node &node, int radix) const;

    /** Predicted resources of one accelerator tile (no control core). */
    Resources tileResources(const adg::Adg &adg) const;

    /**
     * Predicted whole-system resources: tiles x (accelerator + control
     * core) + NoC + L2 + DRAM controller.
     */
    Resources systemResources(const adg::SysAdg &design) const;

    /** Per-category tile breakdown for Fig. 16 (pe/n-w/vp/spad/dma). */
    struct TileBreakdown
    {
        Resources pe;
        Resources network;  //!< switches
        Resources ports;    //!< vector ports
        Resources spad;
        Resources dma;      //!< DMA + other stream engines
    };
    TileBreakdown tileBreakdown(const adg::Adg &adg) const;

    /** Validation relative errors of the trained MLPs. */
    double peError() const;
    double switchError() const;
    double inPortError() const;
    double outPortError() const;

  private:
    FpgaResourceModel() = default;

    Resources predict(const Mlp &mlp, int kind_key,
                      const std::vector<double> &features) const;

    /**
     * Thread-safe memo of MLP predictions keyed by (node kind,
     * feature vector). A trained MLP is a pure function, so the
     * memoized value is bit-identical to a fresh forward pass — this
     * only removes redundant arithmetic, never changes a price. The
     * DSE re-prices near-identical tiles thousands of times, so the
     * hit rate is high. Behind a unique_ptr because std::mutex is not
     * movable and the model is returned by value from train().
     */
    struct PredictionMemo
    {
        std::mutex mutex;
        std::map<std::pair<int, std::vector<double>>, Resources> cache;
    };
    mutable std::unique_ptr<PredictionMemo> memo =
        std::make_unique<PredictionMemo>();

    std::unique_ptr<Mlp> peMlp;
    std::unique_ptr<Mlp> switchMlp;
    std::unique_ptr<Mlp> inPortMlp;
    std::unique_ptr<Mlp> outPortMlp;
    double pessimism = 1.0;
};

/** Feature extraction (exposed for tests). */
std::vector<double> peFeatures(const adg::PeSpec &pe);
std::vector<double> switchFeatures(const adg::SwitchSpec &sw, int radix);
std::vector<double> portFeatures(const adg::PortSpec &port);

} // namespace overgen::model

#endif // OVERGEN_MODEL_RESOURCE_MODEL_H
