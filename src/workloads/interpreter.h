#ifndef OVERGEN_WORKLOADS_INTERPRETER_H
#define OVERGEN_WORKLOADS_INTERPRETER_H

/**
 * @file
 * Golden reference execution of a KernelSpec: a direct interpreter of the
 * loop nest with sequential semantics. The functional simulator must
 * reproduce these results exactly (both run the kernel's lowered
 * Program), which is how end-to-end compilation + scheduling +
 * simulation is verified.
 */

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "common/logging.h"
#include "workloads/kernelspec.h"

namespace overgen::wl {

/**
 * Array storage for one kernel run, one vector per array in
 * `spec.arrays` order: an array's id is its index there. Values are
 * carried as doubles; integer types operate on exactly-representable
 * small integers (the deterministic initializer guarantees magnitudes
 * far below 2^53), and bitwise ops round-trip through int64.
 */
class Memory
{
  public:
    /** Allocate and deterministically initialize all arrays; fatal
     * on duplicate array names or an unknown index target. */
    void init(const KernelSpec &spec, uint64_t seed = 1);

    /** @return backing store of array @p id; fatal when out of range. */
    std::vector<double> &
    array(int id)
    {
        checkId(id);
        return arrays[static_cast<size_t>(id)];
    }
    const std::vector<double> &
    array(int id) const
    {
        checkId(id);
        return arrays[static_cast<size_t>(id)];
    }

    /** @return backing store of @p name; fatal when unknown. */
    std::vector<double> &array(const std::string &name);
    const std::vector<double> &array(const std::string &name) const;

    /** @return number of arrays. */
    size_t size() const { return arrays.size(); }
    /** @return name of array @p id. */
    const std::string &name(int id) const;

  private:
    void
    checkId(int id) const
    {
        OG_ASSERT(id >= 0 && static_cast<size_t>(id) < size(),
                  "array id ", id, " out of range: memory holds ",
                  size(), " arrays");
    }
    /** @return id of @p name; fatal when unknown. */
    int idOf(const std::string &name) const;

    std::vector<std::string> names;
    std::vector<std::vector<double>> arrays;
    std::vector<int> byName;
};

/**
 * One access of a kernel with its array names resolved to ids: the
 * simulator's tick loop and the interpreter subscript Memory by these
 * ids instead of looking names up per element.
 */
struct BoundAccess
{
    const AccessSpec *spec = nullptr;
    int array = -1;
    int64_t elements = 0;
    /** Index array of an indirect access (-1 and 0 when direct). */
    int indexArray = -1;
    int64_t indexElements = 0;
};

/** Bind every access of @p spec, in `spec.accesses` order; fatal when
 * an access names an unknown array. */
std::vector<BoundAccess> bindAccesses(const KernelSpec &spec);

/** One (Opcode, DataType) pair's arithmetic: a handler of the
 * evaluator's dispatch table. */
using ScalarOpFn = double (*)(double a, double b);

/**
 * @return the handler evaluating @p op at @p type. Every handler is an
 * instance of the one templated body in interpreter.cc that defines
 * the overlay's arithmetic semantics; fatal on an undefined pair.
 */
ScalarOpFn scalarOpHandler(Opcode op, DataType type);

/**
 * Evaluate one scalar op with the overlay's arithmetic semantics.
 * Integer types truncate division and round results to integers.
 */
inline double
evalScalarOp(Opcode op, DataType type, double a, double b)
{
    return scalarOpHandler(op, type)(a, b);
}

/** Execute @p spec over @p mem with sequential semantics, through the
 * kernel's lowered Program (workloads/program.h). */
void interpret(const KernelSpec &spec, Memory &mem);

/** @return @p index wrapped into [0, elements): unchanged when already
 * inside, else the non-negative remainder. */
inline int64_t
wrapIndex(int64_t index, int64_t elements)
{
    if (static_cast<uint64_t>(index) < static_cast<uint64_t>(elements))
        return index;
    int64_t wrapped = index % elements;
    return wrapped < 0 ? wrapped + elements : wrapped;
}

/** @return the affine index of @p spec at the @p depth loop indices
 * @p ivs (loops past the access's coefficients contribute nothing). */
inline int64_t
affineIndex(const AccessSpec &spec, const int64_t *ivs, size_t depth)
{
    int64_t affine = spec.offset;
    size_t terms = std::min(spec.coeffs.size(), depth);
    for (size_t d = 0; d < terms; ++d)
        affine += spec.coeffs[d] * ivs[d];
    return affine;
}

/** @return the innermost-loop coefficient of @p spec in a nest of
 * @p depth loops: how far its affine index moves per inner iteration. */
inline int64_t
innerStride(const AccessSpec &spec, size_t depth)
{
    return depth > 0 && spec.coeffs.size() >= depth
               ? spec.coeffs[depth - 1]
               : 0;
}

/**
 * The flat element index @p access reaches at affine index @p affine:
 * indirect accesses read the index array at the wrapped affine index.
 * The result is wrapped into the target array (mirrors the paper's
 * "no memory access will overflow" assumption, §IV-B).
 */
inline int64_t
elementIndex(const BoundAccess &access, int64_t affine, const Memory &mem)
{
    int64_t index = affine;
    if (access.indexArray >= 0) {
        int64_t pos = wrapIndex(affine, access.indexElements);
        index = static_cast<int64_t>(
            mem.array(access.indexArray)[static_cast<size_t>(pos)]);
    }
    return wrapIndex(index, access.elements);
}

/**
 * Resolve the flat element index of @p access at the @p depth loop
 * indices @p ivs (elementIndex of affineIndex). Inline because the
 * simulator calls it per element of constant-tap streams.
 */
inline int64_t
resolveIndex(const BoundAccess &access, const int64_t *ivs, size_t depth,
             const Memory &mem)
{
    return elementIndex(access, affineIndex(*access.spec, ivs, depth),
                        mem);
}

/** @return trip count of loop @p depth at the given outer indices. */
int64_t loopTrip(const KernelSpec &spec, size_t depth,
                 const std::vector<int64_t> &ivs);

} // namespace overgen::wl

#endif // OVERGEN_WORKLOADS_INTERPRETER_H
