#ifndef OVERGEN_WORKLOADS_INTERPRETER_H
#define OVERGEN_WORKLOADS_INTERPRETER_H

/**
 * @file
 * Golden reference execution of a KernelSpec: a direct interpreter of the
 * loop nest with sequential semantics. The functional simulator must
 * reproduce these results exactly (both use evalScalarOp), which is how
 * end-to-end compilation + scheduling + simulation is verified.
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

    /** @return array ids in name order (snapshot serialization — the
     * simulator saves and restores functional memory contents
     * alongside its own clocked state, name-ordered). */
    const std::vector<int> &nameOrder() const { return byName; }

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

/**
 * Evaluate one scalar op with the overlay's arithmetic semantics.
 * Integer types truncate division and round results to integers.
 */
double evalScalarOp(Opcode op, DataType type, double a, double b);

/** Execute @p spec over @p mem with sequential semantics. */
void interpret(const KernelSpec &spec, Memory &mem);

/**
 * Resolve the flat element index of @p access at the @p depth loop
 * indices @p ivs. Handles indirect accesses by reading the index array
 * from @p mem. The result is clamped into the target array (mirrors
 * the paper's "no memory access will overflow" assumption, §IV-B).
 * Inline because the simulator calls it once per element.
 */
inline int64_t
resolveIndex(const BoundAccess &access, const int64_t *ivs, size_t depth,
             const Memory &mem)
{
    const AccessSpec &spec = *access.spec;
    int64_t affine = spec.offset;
    size_t terms = std::min(spec.coeffs.size(), depth);
    for (size_t d = 0; d < terms; ++d)
        affine += spec.coeffs[d] * ivs[d];

    int64_t index = affine;
    if (access.indexArray >= 0) {
        int64_t pos = affine % access.indexElements;
        if (pos < 0)
            pos += access.indexElements;
        index = static_cast<int64_t>(
            mem.array(access.indexArray)[static_cast<size_t>(pos)]);
    }
    // Paper assumption: no access overflows; clamp defensively anyway.
    int64_t wrapped = index % access.elements;
    if (wrapped < 0)
        wrapped += access.elements;
    return wrapped;
}

/** @return trip count of loop @p depth at the given outer indices. */
int64_t loopTrip(const KernelSpec &spec, size_t depth,
                 const std::vector<int64_t> &ivs);

/**
 * Evaluate the per-iteration op DAG once at the @p depth loop indices
 * @p ivs, reading and writing @p mem with sequential semantics.
 * @p accesses is bindAccesses(spec); @p op_values is caller-owned
 * scratch (resized here, so one buffer serves every call). The
 * simulator's compute fabric calls this per fabric firing lane, which
 * is how simulated results stay bit-identical to interpret().
 */
void evalIteration(const KernelSpec &spec,
                   const std::vector<BoundAccess> &accesses,
                   const int64_t *ivs, size_t depth, Memory &mem,
                   std::vector<double> &op_values);

} // namespace overgen::wl

#endif // OVERGEN_WORKLOADS_INTERPRETER_H
