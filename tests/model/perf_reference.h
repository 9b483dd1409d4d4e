#ifndef OVERGEN_TESTS_MODEL_PERF_REFERENCE_H
#define OVERGEN_TESTS_MODEL_PERF_REFERENCE_H

/**
 * @file
 * Test-only reference oracle for the bottleneck performance model
 * (paper Eq. 1-2): the one-shot form that walks the tile and the
 * mDFG's streams for every system point. Production code computes the
 * same estimate through precomputeTilePerf() + combineSystemPerf();
 * the PerfSplit tests hold the two equal to the last bit, so the
 * factored model is always checked against an independent
 * implementation.
 */

#include "model/perf.h"

namespace overgen::model {

/** Reference Eq. 1 estimate; bit-identical to estimateIpc(). */
PerfBreakdown referenceEstimateIpc(const PerfInput &input,
                                   const adg::Adg &tile,
                                   const adg::SystemParams &sys,
                                   const PerfConfig &config = {});

} // namespace overgen::model

#endif // OVERGEN_TESTS_MODEL_PERF_REFERENCE_H
