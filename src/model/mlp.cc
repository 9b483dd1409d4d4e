#include "model/mlp.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/logging.h"
#include "model/layer_step.h"

namespace overgen::model {

namespace {

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

    const LayerStepFn layer_step = layerStepKernel();
    LayerStep step;
    step.momentum = config.momentum;
    step.stuckBound = stuckVelocityBound(config.momentum);
    for (int epoch = 0; epoch < config.epochs; ++epoch) {
        // Decaying learning rate.
        step.learningRate = config.learningRate /
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

            for (size_t l = layers.size(); l-- > 0;) {
                Layer &layer = layers[l];
                if (l + 1 < layers.size()) {
                    const double *out_act = &acts[act_offset[l + 1]];
                    for (int o = 0; o < layer.out; ++o) {
                        if (out_act[o] <= 0.0)
                            grad[o] = 0.0;  // ReLU gate
                    }
                }
                step.in = static_cast<size_t>(layer.in);
                step.out = static_cast<size_t>(layer.out);
                step.weight = layer.weight.data();
                step.weightVel = layer.weightVel.data();
                step.bias = layer.bias.data();
                step.biasVel = layer.biasVel.data();
                step.input = &acts[act_offset[l]];
                step.grad = grad.data();
                // The input layer's gradient would be discarded.
                step.nextGrad = l > 0 ? next_grad.data() : nullptr;
                layer_step(step);
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
