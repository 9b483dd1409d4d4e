#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include "model/layer_step.h"
#include "model/mlp.h"

namespace overgen::model {
namespace {

/**
 * Reference trainer: the plain per-sample SGD + momentum loop Mlp::train
 * ran before it skipped stuck updates, with the same Rng draws for the
 * He initialization and the shuffle. Mlp must match it bit for bit.
 * Also counts the updates that ran on a stuck velocity, a nonzero
 * subnormal vel with momentum * vel == vel: with dw == +-0 (the step
 * changes nothing) and with dw != 0 (a dead unit revived; the step must
 * run).
 */
class ReferenceMlp
{
  public:
    ReferenceMlp(int input_dim, std::vector<int> hidden, int output_dim,
                 uint64_t seed)
        : rng(seed)
    {
        std::vector<int> dims{ input_dim };
        dims.insert(dims.end(), hidden.begin(), hidden.end());
        dims.push_back(output_dim);
        for (size_t i = 0; i + 1 < dims.size(); ++i) {
            Layer layer;
            layer.in = dims[i];
            layer.out = dims[i + 1];
            layer.weight.resize(static_cast<size_t>(layer.in) *
                                layer.out);
            layer.bias.assign(layer.out, 0.0);
            layer.weightVel.assign(layer.weight.size(), 0.0);
            layer.biasVel.assign(layer.out, 0.0);
            double scale = std::sqrt(2.0 / layer.in);
            for (double &w : layer.weight)
                w = rng.nextGaussian() * scale;
            layers.push_back(std::move(layer));
        }
    }

    void
    train(const std::vector<std::vector<double>> &features,
          const std::vector<std::vector<double>> &targets,
          const MlpTrainConfig &config)
    {
        size_t n = features.size();
        size_t input_dim = features[0].size();
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
        size_t output_dim = targets[0].size();
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
                double d =
                    std::log1p(std::max(t[o], 0.0)) - targetMean[o];
                targetStd[o] += d * d;
            }
        }
        for (size_t o = 0; o < output_dim; ++o) {
            targetStd[o] =
                std::sqrt(targetStd[o] / static_cast<double>(n));
            if (targetStd[o] < 1e-9)
                targetStd[o] = 1.0;
        }

        std::vector<size_t> order(n);
        for (size_t i = 0; i < n; ++i)
            order[i] = i;
        for (size_t i = n; i > 1; --i)
            std::swap(order[i - 1], order[rng.nextBelow(i)]);
        size_t val_count = static_cast<size_t>(
            static_cast<double>(n) * config.validationFraction);
        val_count = std::min(val_count, n - 1);
        size_t train_count = n - val_count;

        for (int epoch = 0; epoch < config.epochs; ++epoch) {
            double lr = config.learningRate /
                        (1.0 + 0.02 * static_cast<double>(epoch));
            for (size_t idx = 0; idx < train_count; ++idx) {
                std::vector<double> x = features[order[idx]];
                standardize(x);
                std::vector<double> y = targets[order[idx]];
                for (size_t o = 0; o < y.size(); ++o) {
                    y[o] = (std::log1p(std::max(y[o], 0.0)) -
                            targetMean[o]) /
                           targetStd[o];
                }
                std::vector<std::vector<double>> acts;
                std::vector<double> pred = forward(x, &acts);
                std::vector<double> grad(pred.size());
                for (size_t o = 0; o < pred.size(); ++o) {
                    grad[o] = 2.0 * (pred[o] - y[o]) /
                              static_cast<double>(pred.size());
                    grad[o] = std::clamp(grad[o], -4.0, 4.0);
                }
                for (int l = static_cast<int>(layers.size()) - 1; l >= 0;
                     --l) {
                    Layer &layer = layers[l];
                    const std::vector<double> &in_act = acts[l];
                    const std::vector<double> &out_act = acts[l + 1];
                    std::vector<double> next_grad(layer.in, 0.0);
                    bool last =
                        (l + 1 == static_cast<int>(layers.size()));
                    for (int o = 0; o < layer.out; ++o) {
                        double g = grad[o];
                        if (!last && out_act[o] <= 0.0)
                            g = 0.0;
                        double *row = &layer.weight[
                            static_cast<size_t>(o) * layer.in];
                        double *vel = &layer.weightVel[
                            static_cast<size_t>(o) * layer.in];
                        for (int i = 0; i < layer.in; ++i) {
                            next_grad[i] += g * row[i];
                            double dw = g * in_act[i];
                            if (vel[i] != 0.0 &&
                                std::abs(vel[i]) < 0x1p-1022 &&
                                config.momentum * vel[i] == vel[i])
                                ++(dw == 0.0 ? stuckUpdates : revivals);
                            vel[i] = config.momentum * vel[i] - lr * dw;
                            row[i] += vel[i];
                        }
                        layer.biasVel[o] =
                            config.momentum * layer.biasVel[o] - lr * g;
                        layer.bias[o] += layer.biasVel[o];
                    }
                    grad = std::move(next_grad);
                }
            }
        }

        double rel_sum = 0.0;
        int rel_count = 0;
        for (size_t idx = train_count; idx < n; ++idx) {
            std::vector<double> pred = predict(features[order[idx]]);
            const std::vector<double> &truth = targets[order[idx]];
            for (size_t o = 0; o < pred.size(); ++o) {
                rel_sum +=
                    std::abs(pred[o] - truth[o]) / (truth[o] + 1.0);
                ++rel_count;
            }
        }
        valError = rel_count > 0 ? rel_sum / rel_count : 0.0;
    }

    std::vector<double>
    predict(std::span<const double> features) const
    {
        std::vector<double> x(features.begin(), features.end());
        standardize(x);
        std::vector<double> pred = forward(x, nullptr);
        for (size_t o = 0; o < pred.size(); ++o) {
            double log_val = pred[o] * targetStd[o] + targetMean[o];
            pred[o] = std::max(0.0, std::expm1(log_val));
        }
        return pred;
    }

    double valError = 0.0;
    long stuckUpdates = 0;
    long revivals = 0;

  private:
    struct Layer
    {
        int in = 0;
        int out = 0;
        std::vector<double> weight, bias, weightVel, biasVel;
    };

    std::vector<double>
    forward(std::span<const double> input,
            std::vector<std::vector<double>> *activations) const
    {
        std::vector<double> current(input.begin(), input.end());
        if (activations)
            activations->push_back(current);
        for (size_t l = 0; l < layers.size(); ++l) {
            const Layer &layer = layers[l];
            std::vector<double> next(layer.out, 0.0);
            for (int o = 0; o < layer.out; ++o) {
                double sum = layer.bias[o];
                const double *row =
                    &layer.weight[static_cast<size_t>(o) * layer.in];
                for (int i = 0; i < layer.in; ++i)
                    sum += row[i] * current[i];
                bool last = (l + 1 == layers.size());
                next[o] = last ? sum : std::max(sum, 0.0);
            }
            current = std::move(next);
            if (activations)
                activations->push_back(current);
        }
        return current;
    }

    void
    standardize(std::vector<double> &features) const
    {
        for (size_t i = 0; i < features.size(); ++i)
            features[i] = (features[i] - featMean[i]) / featStd[i];
    }

    std::vector<Layer> layers;
    std::vector<double> featMean, featStd, targetMean, targetStd;
    Rng rng;
};

struct Dataset
{
    std::vector<std::vector<double>> x, y;
};

/** Two features, two nonlinear targets spanning orders of magnitude. */
Dataset
nonlinearData(int samples, uint64_t seed)
{
    Rng rng(seed);
    Dataset data;
    for (int i = 0; i < samples; ++i) {
        double a = rng.nextDouble() * 8.0;
        double b = rng.nextDouble() * 8.0;
        data.x.push_back({ a, b });
        data.y.push_back({ a * b + a * a, 50.0 * b + 3.0 });
    }
    return data;
}

/**
 * Trains an Mlp and the reference on @p data and expects bit-identical
 * validation error and predictions on every sample. @return the
 * trained reference.
 */
ReferenceMlp
expectMatchesReference(const Dataset &data, std::vector<int> hidden,
                       const MlpTrainConfig &config, uint64_t seed)
{
    int in = static_cast<int>(data.x[0].size());
    int out = static_cast<int>(data.y[0].size());
    Mlp mlp(in, hidden, out, seed);
    ReferenceMlp ref(in, hidden, out, seed);
    double err = mlp.train(data.x, data.y, config);
    ref.train(data.x, data.y, config);
    EXPECT_EQ(std::bit_cast<uint64_t>(err),
              std::bit_cast<uint64_t>(ref.valError))
        << err << " vs " << ref.valError;
    EXPECT_EQ(std::bit_cast<uint64_t>(mlp.validationRelativeError()),
              std::bit_cast<uint64_t>(ref.valError));
    int mismatches = 0;
    for (const auto &x : data.x) {
        std::vector<double> got = mlp.predict(x);
        std::vector<double> want = ref.predict(x);
        for (size_t o = 0; o < want.size(); ++o) {
            if (std::bit_cast<uint64_t>(got[o]) !=
                std::bit_cast<uint64_t>(want[o]))
                ++mismatches;
        }
    }
    EXPECT_EQ(mismatches, 0);
    return ref;
}

TEST(MlpReference, BitIdenticalAcrossMomenta)
{
    Dataset data = nonlinearData(300, 21);
    for (double momentum : { 0.0, 0.5, 0.9, 0.99 }) {
        SCOPED_TRACE("momentum " + std::to_string(momentum));
        MlpTrainConfig config;
        config.epochs = 40;
        config.momentum = momentum;
        expectMatchesReference(data, { 16, 8 }, config, 5);
    }
}

TEST(MlpReference, BitIdenticalWithStuckSubnormalVelocities)
{
    // Small and trained long, so ReLUs die and stay dead for far longer
    // than the ~7000 steps a velocity needs to decay from ~1e-3 to its
    // subnormal fixed point at momentum 0.9. The reference counts the
    // updates it ran on such a velocity: about 900 thousand with a
    // zero gradient, which the skip must treat as no-ops, and a few
    // where a second-layer unit revived, which it must not skip.
    Dataset data = nonlinearData(64, 10);
    MlpTrainConfig config;
    config.epochs = 400;
    config.learningRate = 0.02;
    config.momentum = 0.9;
    ReferenceMlp ref = expectMatchesReference(data, { 12, 6 }, config, 2);
    EXPECT_GT(ref.stuckUpdates, 0);
    EXPECT_GT(ref.revivals, 0);
}

TEST(MlpReference, StuckVelocityBound)
{
    const double dmin = std::numeric_limits<double>::denorm_min();
    const double m = 0.9;
    int64_t bound = stuckVelocityBound(m);
    EXPECT_EQ(bound, 5);
    for (int64_t k = 1; k <= bound; ++k)
        EXPECT_EQ(m * (static_cast<double>(k) * dmin),
                  static_cast<double>(k) * dmin)
            << k;
    EXPECT_NE(m * (static_cast<double>(bound + 1) * dmin),
              static_cast<double>(bound + 1) * dmin);
    EXPECT_EQ(stuckVelocityBound(0.99), 49);
    // No fixed point: every nonzero subnormal moves.
    EXPECT_EQ(stuckVelocityBound(0.0), 0);
    EXPECT_EQ(stuckVelocityBound(0.5), 0);
    EXPECT_EQ(stuckVelocityBound(-0.9), 0);
    EXPECT_EQ(stuckVelocityBound(std::nan("")), 0);

    // m >= 1 never exceeds the cap, and a velocity at the cap leaves the
    // smallest weight the skip applies to (2^-1000) unchanged.
    EXPECT_EQ(stuckVelocityBound(1.0), kMaxStuckVelocity);
    for (double big : { 1.0, std::nextafter(1.0, 2.0), 1.5, 2.0, 1e300 })
        EXPECT_LE(stuckVelocityBound(big), kMaxStuckVelocity) << big;
    const double cap = static_cast<double>(kMaxStuckVelocity) * dmin;
    for (double w : { 0x1p-1000, -0x1p-1000 }) {
        EXPECT_EQ(w + cap, w);
        EXPECT_EQ(w - cap, w);
    }
}

/**
 * One layer step as Mlp::train ran it before the layer-step kernels,
 * row by row: the row's next-grad terms, then its weights with the
 * stuck-update skip, then its bias. The kernels must match it bit for
 * bit.
 */
void
scalarLayerStep(const LayerStep &s)
{
    const double stuck = static_cast<double>(s.stuckBound) *
                         std::numeric_limits<double>::denorm_min();
    auto unchanged = [stuck](double vel, double dw, double weight) {
        return std::abs(vel) <= stuck && vel != 0.0 && dw == 0.0 &&
               std::abs(weight) >= 0x1p-1000;
    };
    const double m = s.momentum;
    const double lr = s.learningRate;
    if (s.nextGrad)
        std::fill_n(s.nextGrad, s.in, 0.0);
    for (size_t o = 0; o < s.out; ++o) {
        double g = s.grad[o];
        double *row = &s.weight[o * s.in];
        double *vel = &s.weightVel[o * s.in];
        if (s.nextGrad) {
            for (size_t i = 0; i < s.in; ++i)
                s.nextGrad[i] += g * row[i];
        }
        for (size_t i = 0; i < s.in; ++i) {
            double dw = g * s.input[i];
            if (unchanged(vel[i], dw, row[i]))
                continue;
            vel[i] = m * vel[i] - lr * dw;
            row[i] += vel[i];
        }
        if (!unchanged(s.biasVel[o], g, s.bias[o])) {
            s.biasVel[o] = m * s.biasVel[o] - lr * g;
            s.bias[o] += s.biasVel[o];
        }
    }
}

/** The buffers of one LayerStep. */
struct LayerCase
{
    size_t in = 0;
    size_t out = 0;
    std::vector<double> weight, weightVel, bias, biasVel, input, grad,
        nextGrad;
    double momentum = 0.9;
    double learningRate = 0.004;

    LayerStep
    step(bool propagate)
    {
        LayerStep s;
        s.in = in;
        s.out = out;
        s.weight = weight.data();
        s.weightVel = weightVel.data();
        s.bias = bias.data();
        s.biasVel = biasVel.data();
        s.input = input.data();
        s.grad = grad.data();
        s.nextGrad = propagate ? nextGrad.data() : nullptr;
        s.momentum = momentum;
        s.learningRate = learningRate;
        s.stuckBound = stuckVelocityBound(momentum);
        return s;
    }
};

/** Counts of the lanes a set of cases exercises. */
struct LaneMix
{
    long frozen = 0;        //!< stuck velocity, dw == +-0
    long revived = 0;       //!< stuck velocity, dw != 0
    long zeroVel = 0;       //!< vel == +-0
    long nonfinite = 0;     //!< inf or NaN weight
};

/**
 * A layer whose chunks mix stuck subnormal velocities, +-0 velocities,
 * decaying subnormal and normal ones, revivals (a stuck velocity with a
 * nonzero gradient) and, with @p specials, inf, NaN, +-0 and tiny
 * weights and inputs. Every NaN is the one the hardware produces
 * (0 * inf), so which operand's NaN an operation returns cannot tell
 * two correct results apart.
 */
LayerCase
makeLayerCase(size_t in, size_t out, double momentum, bool specials,
              uint64_t seed, LaneMix &mix)
{
    volatile double zero = 0.0;
    const double inf = std::numeric_limits<double>::infinity();
    const double nan = zero * inf;
    const double dmin = std::numeric_limits<double>::denorm_min();
    const int64_t bound = stuckVelocityBound(momentum);
    Rng rng(seed);
    auto sign = [&] { return rng.nextBool() ? 1.0 : -1.0; };
    auto velocity = [&] {
        switch (rng.nextBelow(6)) {
          case 0:
          case 1:  // stuck, or (bound 0) the smallest subnormal
            return sign() * dmin *
                   static_cast<double>(
                       1 + rng.nextBelow(std::max<int64_t>(bound, 1)));
          case 2:
            return sign() * 0.0;
          case 3:  // subnormal, still decaying
            return sign() * dmin *
                   static_cast<double>(bound + 1 + rng.nextBelow(4000));
          default:
            return rng.nextGaussian() * 1e-3;
        }
    };
    auto weight = [&] {
        if (!specials || rng.nextBelow(3) != 0)
            return rng.nextGaussian();
        switch (rng.nextBelow(6)) {
          case 0:
            return sign() * inf;
          case 1:
            return nan;
          case 2:
            return sign() * 0.0;
          case 3:  // subnormal
            return sign() * 0x1p-1060;
          case 4:  // normal, below the 2^-1000 the old skip required
            return sign() * 0x1p-1010;
          default:
            return sign() * 0x1p-1000;
        }
    };
    auto activation = [&] {
        if (rng.nextBelow(4) == 0)
            return sign() * 0.0;
        if (specials && rng.nextBelow(16) == 0)
            return rng.nextBool() ? inf : nan;
        return rng.nextGaussian();
    };

    LayerCase c;
    c.in = in;
    c.out = out;
    c.momentum = momentum;
    for (size_t k = 0; k < in * out; ++k) {
        c.weight.push_back(weight());
        c.weightVel.push_back(velocity());
    }
    for (size_t o = 0; o < out; ++o) {
        c.bias.push_back(weight());
        c.biasVel.push_back(velocity());
        // A third of the rows are ReLU-dead.
        c.grad.push_back(rng.nextBelow(3) == 0 ? sign() * 0.0
                                                : rng.nextGaussian());
    }
    for (size_t i = 0; i < in; ++i)
        c.input.push_back(activation());
    c.nextGrad.assign(in, 12345.0);  // the kernel must overwrite it

    const double stuck = static_cast<double>(bound) * dmin;
    auto count = [&](double vel, double dw) {
        bool is_stuck = std::abs(vel) <= stuck && vel != 0.0;
        mix.frozen += is_stuck && dw == 0.0;
        mix.revived += is_stuck && dw != 0.0;
        mix.zeroVel += vel == 0.0;
    };
    for (size_t o = 0; o < out; ++o) {
        for (size_t i = 0; i < in; ++i) {
            mix.nonfinite += !std::isfinite(c.weight[o * in + i]);
            count(c.weightVel[o * in + i], c.grad[o] * c.input[i]);
        }
        count(c.biasVel[o], c.grad[o]);
    }
    return c;
}

/** @return how many entries of @p got differ bitwise from @p want. */
int
bitMismatches(const std::vector<double> &got,
              const std::vector<double> &want, const std::string &what)
{
    int mismatches = 0;
    for (size_t k = 0; k < want.size(); ++k) {
        if (std::bit_cast<uint64_t>(got[k]) !=
            std::bit_cast<uint64_t>(want[k])) {
            if (mismatches == 0)
                ADD_FAILURE() << what << "[" << k << "]: " << got[k]
                              << " vs scalar " << want[k];
            ++mismatches;
        }
    }
    return mismatches;
}

/**
 * Runs @p kernel and the scalar loop on layers of every row length from
 * 1 to 9, plus 24 and 48, a few row counts, three momenta, with and
 * without special values and with and without next-grad, and expects
 * bit-identical buffers.
 */
void
expectKernelMatchesScalarLoop(LayerStepFn kernel)
{
    LaneMix mix;
    uint64_t seed = 1;
    std::vector<size_t> lengths{ 1, 2, 3, 4, 5, 6, 7, 8, 9, 24, 48 };
    for (size_t in : lengths) {
        for (size_t out : { 1, 3, 4, 7 }) {
            for (double momentum : { 0.9, 0.99, 0.0 }) {
                for (bool specials : { false, true }) {
                    for (bool propagate : { false, true }) {
                        SCOPED_TRACE("in " + std::to_string(in) + " out " +
                                     std::to_string(out) + " momentum " +
                                     std::to_string(momentum) +
                                     (specials ? " specials" : "") +
                                     (propagate ? " next-grad" : ""));
                        LayerCase got = makeLayerCase(
                            in, out, momentum, specials, seed++, mix);
                        LayerCase want = got;
                        kernel(got.step(propagate));
                        scalarLayerStep(want.step(propagate));
                        int bad =
                            bitMismatches(got.weight, want.weight,
                                          "weight") +
                            bitMismatches(got.weightVel, want.weightVel,
                                          "weightVel") +
                            bitMismatches(got.bias, want.bias, "bias") +
                            bitMismatches(got.biasVel, want.biasVel,
                                          "biasVel");
                        if (propagate)
                            bad += bitMismatches(got.nextGrad,
                                                 want.nextGrad, "nextGrad");
                        ASSERT_EQ(bad, 0);
                    }
                }
            }
        }
    }
    // The cases must reach every kind of lane the kernels special-case.
    EXPECT_GT(mix.frozen, 1000);
    EXPECT_GT(mix.revived, 1000);
    EXPECT_GT(mix.zeroVel, 1000);
    EXPECT_GT(mix.nonfinite, 100);
}

TEST(MlpKernel, BaselineMatchesScalarLoop)
{
    expectKernelMatchesScalarLoop(layerStepBaseline);
}

TEST(MlpKernel, Avx2MatchesScalarLoop)
{
#if defined(__x86_64__) || defined(__i386__)
    if (!__builtin_cpu_supports("avx2"))
        GTEST_SKIP() << "no AVX2 on this CPU";
    expectKernelMatchesScalarLoop(layerStepAvx2);
#else
    GTEST_SKIP() << "AVX2 build exists on x86 only";
#endif
}

TEST(MlpKernel, DispatchPicksABuild)
{
    LayerStepFn kernel = layerStepKernel();
#if defined(__x86_64__) || defined(__i386__)
    EXPECT_EQ(kernel, __builtin_cpu_supports("avx2") ? layerStepAvx2
                                                      : layerStepBaseline);
#else
    EXPECT_EQ(kernel, layerStepBaseline);
#endif
}

TEST(Mlp, LearnsLinearFunction)
{
    Rng rng(3);
    std::vector<std::vector<double>> x, y;
    for (int i = 0; i < 600; ++i) {
        double a = rng.nextDouble() * 10.0;
        double b = rng.nextDouble() * 10.0;
        x.push_back({ a, b });
        y.push_back({ 3.0 * a + 2.0 * b + 5.0 });
    }
    Mlp mlp(2, { 16, 8 }, 1, 7);
    double err = mlp.train(x, y);
    EXPECT_LT(err, 0.1);
    auto pred = mlp.predict(std::vector<double>{ 4.0, 2.0 });
    EXPECT_NEAR(pred[0], 21.0, 3.0);
}

TEST(Mlp, LearnsNonlinearFunction)
{
    Rng rng(5);
    std::vector<std::vector<double>> x, y;
    for (int i = 0; i < 1200; ++i) {
        double a = rng.nextDouble() * 8.0;
        double b = rng.nextDouble() * 8.0;
        x.push_back({ a, b });
        y.push_back({ a * b + a * a });
    }
    Mlp mlp(2, { 32, 16 }, 1, 11);
    double err = mlp.train(x, y);
    EXPECT_LT(err, 0.15);
}

TEST(Mlp, MultiOutput)
{
    Rng rng(9);
    std::vector<std::vector<double>> x, y;
    for (int i = 0; i < 600; ++i) {
        double a = rng.nextDouble() * 5.0 + 1.0;
        x.push_back({ a });
        y.push_back({ 10.0 * a, 100.0 * a });
    }
    Mlp mlp(1, { 16, 8 }, 2, 3);
    mlp.train(x, y);
    auto pred = mlp.predict(std::vector<double>{ 3.0 });
    ASSERT_EQ(pred.size(), 2u);
    EXPECT_NEAR(pred[0], 30.0, 8.0);
    EXPECT_NEAR(pred[1], 300.0, 60.0);
}

TEST(Mlp, DeterministicTraining)
{
    std::vector<std::vector<double>> x, y;
    for (int i = 0; i < 100; ++i) {
        x.push_back({ static_cast<double>(i) });
        y.push_back({ 2.0 * i });
    }
    Mlp a(1, { 8 }, 1, 42);
    Mlp b(1, { 8 }, 1, 42);
    a.train(x, y);
    b.train(x, y);
    auto pa = a.predict(std::vector<double>{ 50.0 });
    auto pb = b.predict(std::vector<double>{ 50.0 });
    EXPECT_DOUBLE_EQ(pa[0], pb[0]);
}

TEST(Mlp, PredictionsNonNegative)
{
    // Resource counts cannot be negative: predictions are clamped by
    // the log1p/expm1 transform.
    std::vector<std::vector<double>> x, y;
    for (int i = 0; i < 200; ++i) {
        x.push_back({ static_cast<double>(i % 10) });
        y.push_back({ 0.1 });
    }
    Mlp mlp(1, { 8 }, 1, 1);
    mlp.train(x, y);
    for (double v = -5.0; v < 20.0; v += 1.0) {
        auto pred = mlp.predict(std::vector<double>{ v });
        EXPECT_GE(pred[0], 0.0);
    }
}

TEST(Mlp, ParameterCount)
{
    Mlp mlp(3, { 4, 2 }, 1, 1);
    // (3*4+4) + (4*2+2) + (2*1+1) = 16 + 10 + 3 = 29.
    EXPECT_EQ(mlp.parameterCount(), 29);
}

TEST(MlpDeathTest, PredictBeforeTrainPanics)
{
    Mlp mlp(2, { 4 }, 1, 1);
    EXPECT_DEATH(mlp.predict(std::vector<double>{ 1.0, 2.0 }),
                 "predict before train");
}

TEST(MlpDeathTest, DimensionMismatchPanics)
{
    Mlp mlp(2, { 4 }, 1, 1);
    std::vector<std::vector<double>> x{ { 1.0 } };
    std::vector<std::vector<double>> y{ { 1.0 } };
    EXPECT_DEATH(mlp.train(x, y), "feature dim mismatch");
}

} // namespace
} // namespace overgen::model
