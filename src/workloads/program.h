#ifndef OVERGEN_WORKLOADS_PROGRAM_H
#define OVERGEN_WORKLOADS_PROGRAM_H

/**
 * @file
 * A KernelSpec's per-iteration op DAG lowered once into a flat program:
 * the one evaluator both interpret() and the simulator's compute fabric
 * run. Lowering validates the DAG (fatal, named errors), resolves every
 * operand to a frame slot or an access slot, and picks each op's
 * (Opcode, DataType) handler, so evaluating a lane is a straight walk
 * over the instructions with no per-lane checks. See DESIGN.md "Firing
 * cost: lowered programs and line runs".
 */

#include <cstdint>
#include <vector>

#include "workloads/interpreter.h"
#include "workloads/kernelspec.h"

namespace overgen::wl {

/** One kernel's lowered op DAG plus its evaluation frame; not
 * thread-safe (run() reuses the frame), so each user owns one. */
class Program
{
  public:
    /**
     * Lower @p spec. Fatal when an access names an unknown array, an
     * Op operand names no earlier op, an Index operand's depth is not
     * below the loop count, an Access operand or writeAccess is out of
     * range, or a writeAccess names a read access.
     */
    explicit Program(const KernelSpec &spec);

    /**
     * Evaluate @p lanes consecutive iterations of the innermost loop
     * over @p mem: lane l at the loop indices @p ivs (one per loop,
     * outermost first) with the innermost index advanced by l. Lanes
     * run in order, each to completion before the next, so the result
     * is that of sequential execution.
     */
    void run(const int64_t *ivs, int64_t lanes, Memory &mem);

  private:
    /** One op. Operands >= 0 are frame slots; ~slot < 0 names an
     * access slot read at evaluation time. */
    struct Instr
    {
        ScalarOpFn fn;
        int32_t lhs;
        int32_t rhs;
        int32_t dst;
        /** Access slot the result is stored through, or -1. */
        int32_t write;
    };

    /** One access the ops read or write. */
    struct AccessSlot
    {
        int array;
        int64_t elements;
        int indexArray;
        int64_t indexElements;
        int64_t offset;
        /** Affine coefficient of each loop (zero past the spec's). */
        std::vector<int64_t> coeffs;
        int64_t stride;
        /** @name Bound per run */
        /// @{
        double *data = nullptr;
        const double *index = nullptr;
        int64_t start = 0;
        /// @}
    };

    /** @return the element access slot @p slot reaches in lane
     * @p lane of the current run. */
    double *
    element(int32_t slot, int64_t lane)
    {
        const AccessSlot &acc = slots[static_cast<size_t>(slot)];
        int64_t idx = acc.start + acc.stride * lane;
        if (acc.index != nullptr)
            idx = static_cast<int64_t>(
                acc.index[wrapIndex(idx, acc.indexElements)]);
        return acc.data + wrapIndex(idx, acc.elements);
    }

    double
    operand(int32_t ref, int64_t lane)
    {
        return ref >= 0 ? frame[static_cast<size_t>(ref)]
                        : *element(~ref, lane);
    }

    size_t depth;
    std::vector<Instr> code;
    std::vector<AccessSlot> slots;
    /** [immediates][loop indices][op results]; op results need no
     * clearing since an op only reads earlier ops of its lane. */
    std::vector<double> frame;
    /** Frame slot of loop 0's index. */
    size_t indexBase = 0;
};

} // namespace overgen::wl

#endif // OVERGEN_WORKLOADS_PROGRAM_H
