#include "model/mlp.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/logging.h"

namespace overgen::model {

namespace {

/** Smallest weight magnitude the stuck-update skip applies to. */
constexpr double kMinAbsorbingWeight = 0x1p-1000;

// A weight of magnitude 2^-1000 absorbs any velocity below half its
// smallest neighbour spacing, 2^-1054 = 2^20 * denorm_min.
static_assert(kMaxStuckVelocity < (int64_t{1} << 20));

/**
 * sums[r] = bias[r] + dot(row r of @p weight, x) for Rows consecutive
 * rows. Each sum accumulates in input order, so it is bit-identical to
 * a one-row loop; the Rows independent add chains overlap instead of
 * each add waiting on the previous one.
 */
template <int Rows>
void
affineRows(const double *weight, const double *bias, size_t in,
           const double *x, double *sums)
{
    double acc[Rows];
    for (int r = 0; r < Rows; ++r)
        acc[r] = bias[r];
    for (size_t i = 0; i < in; ++i) {
        for (int r = 0; r < Rows; ++r)
            acc[r] += weight[r * in + i] * x[i];
    }
    for (int r = 0; r < Rows; ++r)
        sums[r] = acc[r];
}

} // namespace

int64_t
stuckVelocityBound(double momentum)
{
    const double dmin = std::numeric_limits<double>::denorm_min();
    int64_t bound = 0;
    while (bound < kMaxStuckVelocity) {
        // Exact: every integer multiple of denorm_min below 2^52 is a
        // representable subnormal.
        double velocity = static_cast<double>(bound + 1) * dmin;
        if (momentum * velocity != velocity)
            break;
        ++bound;
    }
    return bound;
}

Mlp::Mlp(int input_dim, std::vector<int> hidden, int output_dim,
         uint64_t seed)
    : rng(seed)
{
    OG_ASSERT(input_dim > 0 && output_dim > 0, "bad MLP shape");
    std::vector<int> dims;
    dims.push_back(input_dim);
    for (int h : hidden)
        dims.push_back(h);
    dims.push_back(output_dim);
    for (size_t i = 0; i + 1 < dims.size(); ++i) {
        Layer layer;
        layer.in = dims[i];
        layer.out = dims[i + 1];
        layer.weight.resize(static_cast<size_t>(layer.in) * layer.out);
        layer.bias.assign(layer.out, 0.0);
        layer.weightVel.assign(layer.weight.size(), 0.0);
        layer.biasVel.assign(layer.out, 0.0);
        // He initialization for ReLU layers.
        double scale = std::sqrt(2.0 / layer.in);
        for (double &w : layer.weight)
            w = rng.nextGaussian() * scale;
        layers.push_back(std::move(layer));
    }
}

int
Mlp::parameterCount() const
{
    int count = 0;
    for (const Layer &layer : layers)
        count += static_cast<int>(layer.weight.size() +
                                  layer.bias.size());
    return count;
}

size_t
Mlp::activationCount() const
{
    size_t count = static_cast<size_t>(layers.front().in);
    for (const Layer &layer : layers)
        count += static_cast<size_t>(layer.out);
    return count;
}

void
Mlp::standardize(std::span<const double> features, double *out) const
{
    for (size_t i = 0; i < features.size(); ++i)
        out[i] = (features[i] - featMean[i]) / featStd[i];
}

void
Mlp::forward(std::span<double> acts) const
{
    const double *current = acts.data();
    double *next = acts.data() + layers.front().in;
    for (size_t l = 0; l < layers.size(); ++l) {
        const Layer &layer = layers[l];
        const size_t in = static_cast<size_t>(layer.in);
        int o = 0;
        for (; o + 4 <= layer.out; o += 4)
            affineRows<4>(&layer.weight[o * in], &layer.bias[o], in,
                          current, &next[o]);
        for (; o < layer.out; ++o)
            affineRows<1>(&layer.weight[o * in], &layer.bias[o], in,
                          current, &next[o]);
        if (l + 1 < layers.size()) {
            for (o = 0; o < layer.out; ++o)
                next[o] = std::max(next[o], 0.0);  // ReLU
        }
        current = next;
        next += layer.out;
    }
}

double
Mlp::train(const std::vector<std::vector<double>> &features,
           const std::vector<std::vector<double>> &targets,
           const MlpTrainConfig &config)
{
    OG_ASSERT(features.size() == targets.size(), "feature/target size");
    OG_ASSERT(!features.empty(), "empty training set");
    size_t n = features.size();
    size_t input_dim = features[0].size();
    OG_ASSERT(input_dim == static_cast<size_t>(layers.front().in),
              "feature dim mismatch");
    size_t output_dim = targets[0].size();
    OG_ASSERT(output_dim == static_cast<size_t>(layers.back().out),
              "target dim mismatch");

    // Standardization statistics over the full set.
    featMean.assign(input_dim, 0.0);
    featStd.assign(input_dim, 0.0);
    for (const auto &f : features) {
        for (size_t i = 0; i < input_dim; ++i)
            featMean[i] += f[i];
    }
    for (size_t i = 0; i < input_dim; ++i)
        featMean[i] /= static_cast<double>(n);
    for (const auto &f : features) {
        for (size_t i = 0; i < input_dim; ++i) {
            double d = f[i] - featMean[i];
            featStd[i] += d * d;
        }
    }
    for (size_t i = 0; i < input_dim; ++i) {
        featStd[i] = std::sqrt(featStd[i] / static_cast<double>(n));
        if (featStd[i] < 1e-9)
            featStd[i] = 1.0;
    }

    // Target statistics in log1p space (resource counts span orders of
    // magnitude; standardized log targets keep gradients balanced).
    targetMean.assign(output_dim, 0.0);
    targetStd.assign(output_dim, 0.0);
    for (const auto &t : targets) {
        for (size_t o = 0; o < output_dim; ++o)
            targetMean[o] += std::log1p(std::max(t[o], 0.0));
    }
    for (size_t o = 0; o < output_dim; ++o)
        targetMean[o] /= static_cast<double>(n);
    for (const auto &t : targets) {
        for (size_t o = 0; o < output_dim; ++o) {
            double d = std::log1p(std::max(t[o], 0.0)) - targetMean[o];
            targetStd[o] += d * d;
        }
    }
    for (size_t o = 0; o < output_dim; ++o) {
        targetStd[o] =
            std::sqrt(targetStd[o] / static_cast<double>(n));
        if (targetStd[o] < 1e-9)
            targetStd[o] = 1.0;
    }

    // Shuffle and split train/validation.
    std::vector<size_t> order(n);
    for (size_t i = 0; i < n; ++i)
        order[i] = i;
    for (size_t i = n; i > 1; --i)
        std::swap(order[i - 1], order[rng.nextBelow(i)]);
    size_t val_count = static_cast<size_t>(
        static_cast<double>(n) * config.validationFraction);
    val_count = std::min(val_count, n - 1);
    size_t train_count = n - val_count;

    // The training split in visiting order, standardized inputs and
    // log-space targets computed once rather than on every epoch.
    std::vector<double> train_x(train_count * input_dim);
    std::vector<double> train_y(train_count * output_dim);
    for (size_t idx = 0; idx < train_count; ++idx) {
        standardize(features[order[idx]], &train_x[idx * input_dim]);
        const std::vector<double> &t = targets[order[idx]];
        for (size_t o = 0; o < output_dim; ++o) {
            train_y[idx * output_dim + o] =
                (std::log1p(std::max(t[o], 0.0)) - targetMean[o]) /
                targetStd[o];
        }
    }

    // Flat per-step buffers: acts holds every layer's activations
    // (layer l reads from act_offset[l]), grad/next_grad the gradient
    // flowing backwards through one layer.
    std::vector<size_t> act_offset(layers.size() + 1, 0);
    size_t width = output_dim;
    for (size_t l = 0; l < layers.size(); ++l) {
        act_offset[l + 1] = act_offset[l] + layers[l].in;
        width = std::max(width, static_cast<size_t>(layers[l].in));
    }
    std::vector<double> acts(activationCount());
    std::vector<double> grad(width), next_grad(width);
    const double *pred = &acts[act_offset.back()];

    // Stuck-update skip. Once a unit is ReLU-dead (or its input is
    // zero) its weight gradient dw is +-0 and the update degenerates
    // to vel = m * vel; row += vel. The velocity decays into the
    // subnormals and stops on a fixed point k * denorm_min, where every
    // later step pays the subnormal-arithmetic penalty to change
    // nothing. An element is skipped only when the step provably
    // leaves both vel and row bit-identical:
    //  - dw == +-0 (lr is finite, so lr * dw == +-0);
    //  - vel != 0 and |vel| <= stuck = K * denorm_min, K from
    //    stuckVelocityBound(m): vel is +-k * denorm_min with
    //    1 <= k <= K, so m * vel == vel (K > 0 implies m > 0, and
    //    round-to-nearest is sign-symmetric), and a nonzero vel minus
    //    +-0 is vel itself. Zero velocities take the full step: there
    //    m * (-0) - (-0) is +0, which flips the sign of the zero;
    //  - |row| >= 2^-1000: doubles that large are spaced at least
    //    2^-1053 apart, and |vel| <= kMaxStuckVelocity * 2^-1074 is
    //    under half that spacing, so row + vel rounds back to row. A
    //    NaN row fails the test and takes the full step.
    // The bias update follows the same rule with g in place of dw.
    const double momentum = config.momentum;
    const double stuck = static_cast<double>(stuckVelocityBound(momentum)) *
                         std::numeric_limits<double>::denorm_min();
    // The velocity test comes first: it is false for nearly every live
    // weight, so its branch predicts well, while dw == 0 follows the
    // per-sample ReLU pattern of the layer's input.
    auto unchanged = [stuck](double vel, double dw, double weight) {
        return std::abs(vel) <= stuck && vel != 0.0 && dw == 0.0 &&
               std::abs(weight) >= kMinAbsorbingWeight;
    };

    for (int epoch = 0; epoch < config.epochs; ++epoch) {
        // Decaying learning rate.
        double lr = config.learningRate /
                    (1.0 + 0.02 * static_cast<double>(epoch));
        for (size_t idx = 0; idx < train_count; ++idx) {
            std::copy_n(&train_x[idx * input_dim], input_dim,
                        acts.begin());
            forward(acts);

            // Backward pass: MSE gradient, clipped for stability.
            const double *y = &train_y[idx * output_dim];
            for (size_t o = 0; o < output_dim; ++o) {
                grad[o] = 2.0 * (pred[o] - y[o]) /
                          static_cast<double>(output_dim);
                grad[o] = std::clamp(grad[o], -4.0, 4.0);
            }

            for (int l = static_cast<int>(layers.size()) - 1; l >= 0;
                 --l) {
                Layer &layer = layers[l];
                const double *in_act = &acts[act_offset[l]];
                const double *out_act = &acts[act_offset[l + 1]];
                bool last = (l + 1 == static_cast<int>(layers.size()));
                // The input layer's gradient would be discarded.
                bool propagate = l > 0;
                if (propagate)
                    std::fill_n(next_grad.begin(), layer.in, 0.0);
                for (int o = 0; o < layer.out; ++o) {
                    double g = grad[o];
                    if (!last && out_act[o] <= 0.0)
                        g = 0.0;  // ReLU gate
                    double *row =
                        &layer.weight[static_cast<size_t>(o) * layer.in];
                    double *vel = &layer.weightVel[
                        static_cast<size_t>(o) * layer.in];
                    // Reads row before this step updates it.
                    if (propagate) {
                        for (int i = 0; i < layer.in; ++i)
                            next_grad[i] += g * row[i];
                    }
                    for (int i = 0; i < layer.in; ++i) {
                        double dw = g * in_act[i];
                        if (unchanged(vel[i], dw, row[i]))
                            continue;
                        vel[i] = momentum * vel[i] - lr * dw;
                        row[i] += vel[i];
                    }
                    if (!unchanged(layer.biasVel[o], g, layer.bias[o])) {
                        layer.biasVel[o] =
                            momentum * layer.biasVel[o] - lr * g;
                        layer.bias[o] += layer.biasVel[o];
                    }
                }
                std::swap(grad, next_grad);
            }
        }
    }

    // Validation: mean relative error in resource space.
    double rel_sum = 0.0;
    int rel_count = 0;
    for (size_t idx = train_count; idx < n; ++idx) {
        const std::vector<double> &raw = features[order[idx]];
        std::vector<double> pred = predict(raw);
        const std::vector<double> &truth = targets[order[idx]];
        for (size_t o = 0; o < pred.size(); ++o) {
            rel_sum += std::abs(pred[o] - truth[o]) / (truth[o] + 1.0);
            ++rel_count;
        }
    }
    valError = rel_count > 0 ? rel_sum / rel_count : 0.0;
    return valError;
}

std::vector<double>
Mlp::predict(std::span<const double> features) const
{
    OG_ASSERT(!featMean.empty(), "predict before train");
    OG_ASSERT(features.size() == featMean.size(), "feature dim mismatch");
    std::vector<double> acts(activationCount());
    standardize(features, acts.data());
    forward(acts);
    std::vector<double> pred(acts.end() - layers.back().out, acts.end());
    for (size_t o = 0; o < pred.size(); ++o) {
        double log_val = pred[o] * targetStd[o] + targetMean[o];
        pred[o] = std::max(0.0, std::expm1(log_val));
    }
    return pred;
}

} // namespace overgen::model
