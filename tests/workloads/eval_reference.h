#ifndef OVERGEN_TESTS_WORKLOADS_EVAL_REFERENCE_H
#define OVERGEN_TESTS_WORKLOADS_EVAL_REFERENCE_H

/**
 * @file
 * Test-only oracle for wl::Program: the evaluator as it stood before
 * kernels were lowered. It re-walks the spec's op list for every
 * iteration, resolving each operand from its kind and each element
 * index from the access spec, so it shares no lowering with the
 * library; only the scalar arithmetic (evalScalarOp) and resolveIndex.
 */

#include <cstdint>
#include <vector>

#include "workloads/interpreter.h"

namespace overgen::wl::reference {

/** Evaluate the op DAG of @p spec once at the @p depth loop indices
 * @p ivs; @p op_values is caller-owned scratch. */
void evalIteration(const KernelSpec &spec,
                   const std::vector<BoundAccess> &accesses,
                   const int64_t *ivs, size_t depth, Memory &mem,
                   std::vector<double> &op_values);

/** Execute @p spec over @p mem one iteration at a time. */
void interpret(const KernelSpec &spec, Memory &mem);

} // namespace overgen::wl::reference

#endif // OVERGEN_TESTS_WORKLOADS_EVAL_REFERENCE_H
