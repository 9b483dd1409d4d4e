#ifndef OVERGEN_WORKLOADS_SUITES_H
#define OVERGEN_WORKLOADS_SUITES_H

/**
 * @file
 * The 19 evaluation workloads (paper Table II): 5 DSP kernels (REVEL),
 * 5 MachSuite kernels, and 9 Vitis Vision kernels, encoded as
 * KernelSpecs at the paper's data sizes. Each builder defaults to the
 * paper size. One catalogue table in suites.cc holds all 19 (name,
 * suite, paper-size and test-size makers): the listings iterate it,
 * and a by-name lookup builds only the named kernel.
 */

#include <vector>

#include "workloads/kernelspec.h"

namespace overgen::wl {

/** @name DSP suite (sizes per Table II) */
/// @{
KernelSpec makeFir(int n = 1024, int taps = 199);
KernelSpec makeMm(int n = 32);
KernelSpec makeCholesky(int n = 48);
KernelSpec makeSolver(int n = 48);
KernelSpec makeFft(int log2n = 12);
/// @}

/** @name MachSuite */
/// @{
KernelSpec makeStencil3d(int n = 32, int steps = 8);
KernelSpec makeCrs(int rows = 494, int nnz_per_row = 4);
KernelSpec makeGemm(int n = 64);
KernelSpec makeStencil2d(int n = 64, int steps = 32);
KernelSpec makeEllpack(int rows = 494, int nnz_per_row = 4);
/// @}

/** @name Vitis Vision (image edge @p n, 4 channels) */
/// @{
KernelSpec makeChannelExtract(int n = 128);
KernelSpec makeBgr2Grey(int n = 128);
KernelSpec makeBlur(int n = 128);
KernelSpec makeAccumulate(int n = 128);
KernelSpec makeAccSqr(int n = 128);
KernelSpec makeVecMax(int n = 128);
KernelSpec makeAccWeight(int n = 128);
KernelSpec makeConvertBit(int n = 128);
KernelSpec makeDerivative(int n = 130);
/// @}

/** @return the 5 DSP workloads at paper sizes. */
std::vector<KernelSpec> dspSuite();
/** @return the 5 MachSuite workloads at paper sizes. */
std::vector<KernelSpec> machSuite();
/** @return the 9 Vision workloads at paper sizes. */
std::vector<KernelSpec> visionSuite();
/** @return all 19 workloads, DSP then MachSuite then Vision. */
std::vector<KernelSpec> allWorkloads();
/** @return the named suite. */
std::vector<KernelSpec> suiteWorkloads(Suite suite);

/** @return workload by name at paper size; fatal when unknown. */
KernelSpec workloadByName(const std::string &name);

/**
 * @return workload by name at the catalogue's test size (every kernel
 * finishes in milliseconds); fatal when unknown. The serve wire's
 * `smallSize` jobs resolve through this, so multi-process tests stay
 * fast.
 */
KernelSpec smallWorkloadByName(const std::string &name);

/**
 * @return the manually kernel-tuned HLS variant (paper Q2): variable
 * trip counts replaced by guarded max-trip loops, strided accesses
 * strength-reduced. Identity for workloads with no HLS tuning headroom.
 */
KernelSpec hlsTunedVariant(const KernelSpec &spec);

} // namespace overgen::wl

#endif // OVERGEN_WORKLOADS_SUITES_H
