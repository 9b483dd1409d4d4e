#ifndef OVERGEN_SIM_EXEC_H
#define OVERGEN_SIM_EXEC_H

/**
 * @file
 * Execution-support structures of the simulator: the flat address map
 * of a kernel's arrays, the vectorized iteration walker both the
 * compute fabric and the stream engines advance through, and the
 * runtime classification of mDFG streams into delivery disciplines.
 */

#include <cstdint>
#include <vector>

#include "common/logging.h"
#include "dfg/mdfg.h"
#include "workloads/interpreter.h"
#include "workloads/kernelspec.h"

namespace overgen::sim {

/** Flat byte-address layout of a kernel's arrays, indexed by array id
 * (the array's index in `spec.arrays`, as in wl::BoundAccess). */
class AddressMap
{
  public:
    /** Lay out all arrays of @p spec, line-aligned. */
    static AddressMap build(const wl::KernelSpec &spec,
                            int line_bytes = 64);

    /** @return base address of array @p id. */
    uint64_t
    base(int id) const
    {
        checkId(id);
        return bases[static_cast<size_t>(id)];
    }
    /** @return byte address of element @p index of array @p id. */
    uint64_t
    elementAddress(int id, int64_t index) const
    {
        checkId(id);
        return bases[static_cast<size_t>(id)] +
               static_cast<uint64_t>(index) *
                   elemBytes[static_cast<size_t>(id)];
    }
    /** @return bytes per element of array @p id. */
    int64_t
    elementBytes(int id) const
    {
        checkId(id);
        return static_cast<int64_t>(elemBytes[static_cast<size_t>(id)]);
    }
    /** @return total mapped bytes. */
    uint64_t totalBytes() const { return top; }

  private:
    void
    checkId(int id) const
    {
        OG_ASSERT(id >= 0 && static_cast<size_t>(id) < bases.size(),
                  "array id ", id, " out of range: address map holds ",
                  bases.size(), " arrays");
    }

    std::vector<uint64_t> bases;
    std::vector<uint64_t> elemBytes;
    uint64_t top = 0;
};

/**
 * Walks a kernel's iteration space in order, vectorized over the
 * innermost loop in chunks of @p unroll, restricted to an outer-loop
 * range [outer_lo, outer_hi) — the per-tile partition (paper §VI-E:
 * all tiles parallelize the same region).
 */
class IterationWalker
{
  public:
    IterationWalker(const wl::KernelSpec &spec, int unroll,
                    int64_t outer_lo, int64_t outer_hi);

    /** @return whether all firings have been consumed. */
    bool done() const { return finished; }
    /** Current firing's loop indices (innermost = chunk start). */
    const std::vector<int64_t> &indices() const { return ivs; }
    /** Iterations covered by the current firing (<= unroll). */
    int count() const { return chunk; }
    /** @return whether this firing starts a new innermost loop pass. */
    bool innerStart() const { return ivs.back() == 0; }
    /** Number of firings consumed so far. */
    int64_t firingIndex() const { return firings; }
    /** Advance to the next firing. */
    void advance();

  private:
    void settle();  //!< skip zero-trip positions, compute chunk

    const wl::KernelSpec &spec;
    int unroll;
    int64_t outerHi;
    std::vector<int64_t> ivs;
    int chunk = 0;
    int64_t firings = 0;
    bool finished = false;
};

/** Delivery discipline of a runtime stream. */
enum class StreamKind : uint8_t
{
    Vector,       //!< count (x members) fresh elements per firing
    Stationary,   //!< one fresh element per innermost-loop pass
    ConstantTaps, //!< all elements once, before the first firing
    RecurrenceIn, //!< fed by the recurrence engine
    RecurrenceOut,//!< drained into the recurrence engine
    Generated,    //!< affine value generator
    Register,     //!< scalar drain to the control core
    WriteVector,  //!< count fresh results per firing
    WriteOnce,    //!< one result per firing (reduction store)
};

/** Classify an mDFG stream for the simulator. */
StreamKind classifyStream(const dfg::Mdfg &mdfg, dfg::NodeId id);

/**
 * Values a Vector or Generated stream carries per iteration: its
 * coalesced members, except that overlap-merged streams deliver one
 * fresh element per iteration (window reuse holds the rest). Computed
 * once per stream at build time.
 */
int firingMembers(const dfg::Mdfg &mdfg, dfg::NodeId id);

/**
 * Elements a stream of @p kind (carrying @p members values per
 * iteration, see firingMembers) produces/consumes for the firing at
 * walker state @p walker. ConstantTaps return 0 (handled out of band).
 */
inline int64_t
elemsForFiring(StreamKind kind, int members, const IterationWalker &walker)
{
    int64_t count = walker.count();
    switch (kind) {
      case StreamKind::Vector:
      case StreamKind::Generated:
        return count * members;
      case StreamKind::Stationary:
        return walker.innerStart() ? 1 : 0;
      case StreamKind::ConstantTaps:
        return 0;  // delivered once, out of band
      case StreamKind::RecurrenceIn:
      case StreamKind::RecurrenceOut:
      case StreamKind::WriteVector:
        return count;
      case StreamKind::Register:
      case StreamKind::WriteOnce:
        return 1;
    }
    OG_PANIC("unknown stream kind");
}

/**
 * The elements of one direct access a stream engine walks within a
 * firing: element k has affine index `start + stride*k`, wrapped into
 * [0, elements) as wl::resolveIndex wraps it, at byte address
 * `base + index*elemBytes`.
 */
struct AffineRun
{
    int64_t start = 0;
    int64_t stride = 0;
    int64_t elements = 1;
    uint64_t base = 0;
    int64_t elemBytes = 8;
};

/**
 * Append to @p out the addresses of elements 0, 1, ... (at most
 * @p limit) of @p run that share one cache line of @p line_bytes:
 * the line of `out.front()`, or of element 0 when @p out is empty.
 * Stops at the first element on another line. Between wraps the
 * addresses are affine, so each in-range stretch costs O(1)
 * divisions rather than one per element. @return elements appended.
 */
int64_t appendLineRun(const AffineRun &run, int64_t limit,
                      int64_t line_bytes, std::vector<uint64_t> &out);

} // namespace overgen::sim

#endif // OVERGEN_SIM_EXEC_H
