#ifndef OVERGEN_E2EBENCH_SIM_CHECK_H
#define OVERGEN_E2EBENCH_SIM_CHECK_H

/**
 * @file
 * Output checks shared by the workloads that simulate: the arrays a
 * multi-tile simulation leaves behind must equal the sequential
 * reference interpreter's for every kernel EXPERIMENTS.md lists as
 * exact when partitioned across tiles.
 */

#include <string>
#include <vector>

#include "workloads/interpreter.h"
#include "workloads/kernelspec.h"

namespace e2e {

/** cholesky and solver carry outer-loop dependences: their multi-tile
 * runs are timing-only, so their arrays are not compared. */
inline bool
exactWhenPartitioned(const std::string &kernel)
{
    return kernel != "cholesky" && kernel != "solver";
}

/** The reference interpreter's arrays for @p input. */
inline overgen::wl::Memory
referenceOutputs(const overgen::wl::KernelSpec &spec,
                 const overgen::wl::Memory &input)
{
    overgen::wl::Memory out = input;
    overgen::wl::interpret(spec, out);
    return out;
}

/** Whether every array of @p spec in @p got equals @p want. */
inline bool
arraysMatch(const overgen::wl::KernelSpec &spec,
            const overgen::wl::Memory &got, const overgen::wl::Memory &want)
{
    for (const auto &array : spec.arrays)
        if (got.array(array.name) != want.array(array.name))
            return false;
    return true;
}

} // namespace e2e

#endif // OVERGEN_E2EBENCH_SIM_CHECK_H
