#include "model/layer_step.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>

namespace overgen::model {

namespace {

/**
 * Lanes doubles (and their bit patterns), loaded and stored unaligned
 * through memcpy. layerStepAvx2 works on four lanes, one AVX2
 * instruction per operation; layerStepBaseline on two, one SSE2
 * instruction per operation (GCC would split wider vectors into scalar
 * code there). Every lane computes the scalar operation bit for bit.
 */
template <int Lanes>
struct Vec;
template <>
struct Vec<2>
{
    typedef double D __attribute__((vector_size(16)));
    typedef uint64_t U __attribute__((vector_size(16)));
};
template <>
struct Vec<4>
{
    typedef double D __attribute__((vector_size(32)));
    typedef uint64_t U __attribute__((vector_size(32)));
};

/** Constants of one layer step's weight updates. */
struct Sgd
{
    double momentum;
    double lr;
    double stuck;  //!< stuckVelocityBound(momentum) * denorm_min
};

/**
 * vel = momentum * vel - lr * dw; weight += vel on Lanes consecutive
 * weights, with the product momentum * vel replaced by vel itself on a
 * frozen lane: one whose vel is stuck (0 < |vel| <= stuck) and whose
 * dw is +-0. Such a vel is +-k * denorm_min with 1 <= k <= K, so
 * momentum * vel == vel (stuckVelocityBound), lr * dw is +-0, and a
 * nonzero vel minus +-0 is vel: the step leaves vel as it is, bit for
 * bit. Computing it anyway is a multiply with a subnormal result,
 * which takes a microcode assist some thirty times slower than a normal
 * multiply, so a frozen lane multiplies a masked-out +0 instead and
 * keeps its vel. weight += vel is computed on every lane: adding a
 * subnormal to a normal weight costs nothing extra. Zero velocities are never frozen:
 * momentum * (-0) - (-0) is +0, which flips the sign of the zero.
 * Unfrozen lanes compute exactly the scalar step.
 *
 * Reads weight[0, Lanes) and vel[0, Lanes) and leaves the results in
 * @p new_weight and @p new_vel; the caller stores them.
 */
template <int Lanes, typename D = typename Vec<Lanes>::D,
          typename U = typename Vec<Lanes>::U>
[[gnu::always_inline]] inline void
sgdChunk(const double *weight, const double *vel, const D &dw,
         const Sgd &sgd, D &new_weight, D &new_vel)
{
    D v, w;
    std::memcpy(&v, vel, sizeof v);
    std::memcpy(&w, weight, sizeof w);
    const U abs_mask = U{} + (~uint64_t{ 0 } >> 1);
    const D mag = reinterpret_cast<D>(reinterpret_cast<U>(v) & abs_mask);
    const auto frozen = (mag <= sgd.stuck) & (mag > 0.0) & (dw == 0.0);
    const D live_v = frozen ? D{} : v;
    const D stepped = sgd.momentum * live_v - sgd.lr * dw;
    new_vel = frozen ? v : stepped;
    new_weight = w + new_vel;
}

/** The scalar step of sgdChunk, for runs shorter than one chunk. */
[[gnu::always_inline]] inline void
sgdOne(double &weight, double &vel, double dw, const Sgd &sgd)
{
    const bool frozen =
        std::abs(vel) <= sgd.stuck && vel != 0.0 && dw == 0.0;
    if (!frozen)
        vel = sgd.momentum * vel - sgd.lr * dw;
    weight += vel;
}

/**
 * Steps @p n consecutive weights whose gradients are scale * x[i],
 * Lanes at a time. A tail of n % Lanes weights is covered by one more
 * chunk, the last Lanes weights, computed from the values before any
 * store: on the weights it shares with the chunk before it, it
 * computes from the same inputs and so stores the same results. Runs
 * shorter than one chunk go one weight at a time.
 */
template <int Lanes, typename D = typename Vec<Lanes>::D>
[[gnu::always_inline]] inline void
sgdRun(double *weight, double *vel, const double *x, double scale,
       size_t n, const Sgd &sgd)
{
    if (n < Lanes) {
        for (size_t i = 0; i < n; ++i)
            sgdOne(weight[i], vel[i], scale * x[i], sgd);
        return;
    }
    const size_t last = n - Lanes;
    D tail_w{}, tail_v{}, xs{};
    if (n % Lanes != 0) {
        std::memcpy(&xs, x + last, sizeof xs);
        sgdChunk<Lanes>(weight + last, vel + last, scale * xs, sgd,
                        tail_w, tail_v);
    }
    for (size_t i = 0; i + Lanes <= n; i += Lanes) {
        D w, v;
        std::memcpy(&xs, x + i, sizeof xs);
        sgdChunk<Lanes>(weight + i, vel + i, scale * xs, sgd, w, v);
        std::memcpy(vel + i, &v, sizeof v);
        std::memcpy(weight + i, &w, sizeof w);
    }
    if (n % Lanes != 0) {
        std::memcpy(vel + last, &tail_v, sizeof tail_v);
        std::memcpy(weight + last, &tail_w, sizeof tail_w);
    }
}

/**
 * The body of layerStepBaseline and layerStepAvx2, inlined into each
 * so that each compiles it for its own target.
 *
 * Next-grad pass: every row adds grad[o] * row to nextGrad, in row
 * order, before any row is updated: the gradient flows back through
 * the weights the forward pass used.
 *
 * Update pass: each row, then the biases, through sgdRun.
 */
template <int Lanes>
[[gnu::always_inline]] inline void
layerStepBody(const LayerStep &s)
{
    const size_t in = s.in;
    const size_t out = s.out;
    const double *__restrict x = s.input;
    const double *__restrict grad = s.grad;
    if (s.nextGrad) {
        double *__restrict next = s.nextGrad;
        std::fill_n(next, in, 0.0);
        for (size_t o = 0; o < out; ++o) {
            const double g = grad[o];
            const double *__restrict row = s.weight + o * in;
            for (size_t i = 0; i < in; ++i)
                next[i] += g * row[i];
        }
    }

    const Sgd sgd{ s.momentum, s.learningRate,
                   static_cast<double>(s.stuckBound) *
                       std::numeric_limits<double>::denorm_min() };
    for (size_t o = 0; o < out; ++o)
        sgdRun<Lanes>(s.weight + o * in, s.weightVel + o * in, x, grad[o],
                      in, sgd);
    // The bias gradient is grad[o] itself: 1.0 * grad[o] is exact.
    sgdRun<Lanes>(s.bias, s.biasVel, grad, 1.0, out, sgd);
}

} // namespace

void
layerStepBaseline(const LayerStep &step)
{
    layerStepBody<2>(step);
}

#if defined(__x86_64__) || defined(__i386__)
__attribute__((target("avx2"))) void
layerStepAvx2(const LayerStep &step)
{
    layerStepBody<4>(step);
}
#endif

LayerStepFn
layerStepKernel()
{
#if defined(__x86_64__) || defined(__i386__)
    __builtin_cpu_init();
    if (__builtin_cpu_supports("avx2"))
        return layerStepAvx2;
#endif
    return layerStepBaseline;
}

} // namespace overgen::model
