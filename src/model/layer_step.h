#ifndef OVERGEN_MODEL_LAYER_STEP_H
#define OVERGEN_MODEL_LAYER_STEP_H

/**
 * @file
 * The SGD + momentum step of one dense layer of an Mlp: the gradient
 * handed to the layer below, then the weight and bias updates. One
 * kernel body, built for the baseline target and for AVX2; Mlp::train
 * runs the build layerStepKernel() picks. Both are bit-identical to
 * the plain scalar loop (DESIGN.md "Resource model training").
 */

#include <cstddef>
#include <cstdint>

namespace overgen::model {

/**
 * One training step's work on one dense layer, given the gradient of
 * the loss with respect to the layer's outputs (ReLU gate applied).
 * Mlp::train runs one per layer per sample; tests drive the kernels
 * directly.
 */
struct LayerStep
{
    size_t in = 0;
    size_t out = 0;
    double *weight = nullptr;     //!< out x in, row-major
    double *weightVel = nullptr;  //!< momentum buffer of weight
    double *bias = nullptr;       //!< out
    double *biasVel = nullptr;    //!< momentum buffer of bias
    const double *input = nullptr;  //!< the layer's in input activations
    const double *grad = nullptr;   //!< out gated output gradients
    /**
     * When set, receives the in-entry gradient with respect to the
     * layer's input, computed from the weights before this step
     * updates them.
     */
    double *nextGrad = nullptr;
    double momentum = 0.0;
    double learningRate = 0.0;
    int64_t stuckBound = 0;  //!< stuckVelocityBound(momentum)
};

/**
 * Run @p step: fill nextGrad (if set), then apply one SGD + momentum
 * update, vel = momentum * vel - learningRate * dw; weight += vel, to
 * every weight (dw = grad[o] * input[i]) and every bias (dw =
 * grad[o]). The two builds compute the same IEEE operations in the
 * same order; layerStepAvx2 exists only on x86 and needs a CPU with
 * AVX2.
 */
void layerStepBaseline(const LayerStep &step);
#if defined(__x86_64__) || defined(__i386__)
__attribute__((target("avx2"))) void layerStepAvx2(const LayerStep &step);
#endif

/** @return the fastest layer-step build this CPU runs. */
using LayerStepFn = void (*)(const LayerStep &);
LayerStepFn layerStepKernel();

} // namespace overgen::model

#endif // OVERGEN_MODEL_LAYER_STEP_H
