#ifndef OVERGEN_MODEL_MLP_H
#define OVERGEN_MODEL_MLP_H

/**
 * @file
 * A small multi-layer perceptron with SGD + momentum training, used by
 * the component-level FPGA resource model (paper §V-D: a 3-layer MLP
 * trained on out-of-context synthesis results). Self-contained: feature
 * standardization and log-scaled targets are handled internally.
 */

#include <cstdint>
#include <span>
#include <vector>

#include "common/rng.h"

namespace overgen::model {

/** Training hyperparameters. */
struct MlpTrainConfig
{
    int epochs = 160;
    double learningRate = 0.004;
    double momentum = 0.9;
    /** Fraction of data held out for validation (paper: 80/10/10). */
    double validationFraction = 0.1;
};

/**
 * Momentum fixed point of the velocity update: the largest K (capped
 * at kMaxStuckVelocity) such that momentum * (k * denorm_min) rounds
 * back to k * denorm_min for every 1 <= k <= K. A velocity that small
 * whose gradient is zero is left unchanged by an SGD step, and so is
 * any weight of magnitude at least 2^-1000. 0 when no such k exists
 * (momentum 0, 0.5, >= 1.5, negative or NaN).
 */
int64_t stuckVelocityBound(double momentum);

/**
 * Cap on stuckVelocityBound (reached at momentum 1): far below the
 * 2^20 * denorm_min that a weight of magnitude 2^-1000 absorbs.
 */
inline constexpr int64_t kMaxStuckVelocity = 1024;

/** A dense feed-forward network with ReLU hidden activations. */
class Mlp
{
  public:
    /**
     * @param input_dim   feature dimensionality
     * @param hidden      hidden-layer widths (the paper's 3-layer MLP
     *                    corresponds to two hidden layers)
     * @param output_dim  target dimensionality
     * @param seed        deterministic weight initialization
     */
    Mlp(int input_dim, std::vector<int> hidden, int output_dim,
        uint64_t seed = 1);

    /**
     * Fit on @p features / @p targets. Targets are trained in
     * log1p-space internally (resource counts span orders of
     * magnitude). @return final validation RMSE in target space
     * (relative, see validationRelativeError()).
     */
    double train(const std::vector<std::vector<double>> &features,
                 const std::vector<std::vector<double>> &targets,
                 const MlpTrainConfig &config = {});

    /** Predict targets (inverse-transformed to resource space). */
    std::vector<double> predict(std::span<const double> features) const;

    /** Mean relative |pred-true|/(true+1) over the validation split. */
    double validationRelativeError() const { return valError; }

    /** @return number of trainable parameters. */
    int parameterCount() const;

  private:
    struct Layer
    {
        int in = 0;
        int out = 0;
        std::vector<double> weight;    //!< out x in, row-major
        std::vector<double> bias;      //!< out
        std::vector<double> weightVel; //!< momentum buffers
        std::vector<double> biasVel;
    };

    /** @return length of the activation buffer forward() fills. */
    size_t activationCount() const;
    /**
     * Forward pass over @p acts: the first layers.front().in entries
     * hold the standardized input, and each layer's output is written
     * right after its input; the last output_dim entries are the
     * prediction.
     */
    void forward(std::span<double> acts) const;
    void standardize(std::span<const double> features,
                     double *out) const;

    std::vector<Layer> layers;
    std::vector<double> featMean;
    std::vector<double> featStd;
    std::vector<double> targetMean;  //!< in log1p space
    std::vector<double> targetStd;
    double valError = 0.0;
    Rng rng;
};

} // namespace overgen::model

#endif // OVERGEN_MODEL_MLP_H
