#include "sim/exec.h"

#include <algorithm>

#include "common/logging.h"

namespace overgen::sim {

AddressMap
AddressMap::build(const wl::KernelSpec &spec, int line_bytes)
{
    AddressMap map;
    for (const wl::ArraySpec &array : spec.arrays) {
        map.bases.push_back(map.top);
        map.elemBytes.push_back(
            static_cast<uint64_t>(dataTypeBytes(array.type)));
        uint64_t bytes = static_cast<uint64_t>(array.sizeBytes());
        uint64_t lines =
            (bytes + line_bytes - 1) / line_bytes;
        map.top += (lines + 1) * line_bytes;  // pad a guard line
    }
    return map;
}

IterationWalker::IterationWalker(const wl::KernelSpec &spec, int unroll,
                                 int64_t outer_lo, int64_t outer_hi)
    : spec(spec), unroll(std::max(1, unroll)), outerHi(outer_hi),
      ivs(spec.loops.size(), 0)
{
    OG_ASSERT(!spec.loops.empty(), "kernel without loops");
    ivs[0] = outer_lo;
    if (outer_lo >= outer_hi) {
        finished = true;
        return;
    }
    settle();
}

void
IterationWalker::settle()
{
    // Ensure the current position is valid: every loop index within
    // its trip; on overflow carry outward. Zero-trip inner loops skip.
    size_t depth = spec.loops.size();
    while (true) {
        bool carried = false;
        for (size_t d = 1; d < depth; ++d) {
            int64_t trip = wl::loopTrip(spec, d, ivs);
            if (ivs[d] >= trip) {
                // Carry into the next outer loop.
                for (size_t e = d; e < depth; ++e)
                    ivs[e] = 0;
                ++ivs[d - 1];
                carried = true;
                break;
            }
        }
        if (!carried)
            break;
        if (ivs[0] >= outerHi) {
            finished = true;
            return;
        }
    }
    if (ivs[0] >= outerHi) {
        finished = true;
        return;
    }
    // Inner loops with zero trip: advance until some work exists.
    int64_t inner_trip = wl::loopTrip(spec, depth - 1, ivs);
    // Single-loop kernels: the vectorized loop is also the partition
    // axis, so the chunk may not cross the tile boundary.
    if (depth == 1)
        inner_trip = std::min(inner_trip, outerHi);
    while (inner_trip <= 0) {
        // Treat as a completed innermost pass: carry.
        ivs[depth - 1] = 0;
        if (depth >= 2) {
            ++ivs[depth - 2];
        } else {
            finished = true;
            return;
        }
        size_t d = depth;
        while (true) {
            bool carried = false;
            for (size_t e = 1; e < d; ++e) {
                int64_t trip = wl::loopTrip(spec, e, ivs);
                if (ivs[e] >= trip) {
                    for (size_t f = e; f < d; ++f)
                        ivs[f] = 0;
                    ++ivs[e - 1];
                    carried = true;
                    break;
                }
            }
            if (!carried)
                break;
        }
        if (ivs[0] >= outerHi) {
            finished = true;
            return;
        }
        inner_trip = wl::loopTrip(spec, depth - 1, ivs);
    }
    chunk = static_cast<int>(
        std::min<int64_t>(unroll, inner_trip - ivs[depth - 1]));
}

void
IterationWalker::advance()
{
    OG_ASSERT(!finished, "advance past end");
    ++firings;
    size_t depth = spec.loops.size();
    ivs[depth - 1] += chunk;
    if (depth == 1) {
        int64_t limit =
            std::min(wl::loopTrip(spec, 0, ivs), outerHi);
        if (ivs[0] >= limit) {
            finished = true;
            return;
        }
        settle();
        return;
    }
    int64_t inner_trip = wl::loopTrip(spec, depth - 1, ivs);
    if (ivs[depth - 1] >= inner_trip) {
        ivs[depth - 1] = 0;
        ++ivs[depth - 2];
    }
    settle();
}

StreamKind
classifyStream(const dfg::Mdfg &mdfg, dfg::NodeId id)
{
    const dfg::Node &node = mdfg.node(id);
    const dfg::StreamNode &stream = node.stream;
    bool input = node.kind == dfg::NodeKind::InputStream;
    switch (stream.source) {
      case dfg::StreamSource::Recurrence:
        return input ? StreamKind::RecurrenceIn
                     : StreamKind::RecurrenceOut;
      case dfg::StreamSource::Generated:
        return StreamKind::Generated;
      case dfg::StreamSource::Register:
        return StreamKind::Register;
      case dfg::StreamSource::Memory:
        break;
    }
    if (!input) {
        // Reduction stores (inner coefficient zero) retire one value
        // per firing; everything else retires per-lane.
        return stream.pattern.stride[0] == 0 ? StreamKind::WriteOnce
                                             : StreamKind::WriteVector;
    }
    if (stream.specAccesses.size() > 1 && stream.pattern.stride[0] == 0)
        return StreamKind::ConstantTaps;
    if (stream.lanes == 1 && stream.reuse.stationary > 1.0)
        return StreamKind::Stationary;
    if (stream.pattern.stride[0] == 0 && stream.lanes == 1)
        return StreamKind::Stationary;
    return StreamKind::Vector;
}

int
firingMembers(const dfg::Mdfg &mdfg, dfg::NodeId id)
{
    const dfg::StreamNode &stream = mdfg.node(id).stream;
    // Coalesced streams carry `members` values per iteration.
    int members =
        std::max<int>(static_cast<int>(stream.specAccesses.size()), 1);
    // Overlap-merged streams deliver one fresh element per iteration
    // (window reuse holds the rest).
    if (members > 1 && stream.pattern.stride[0] == 1)
        members = 1;
    return members;
}

int64_t
appendLineRun(const AffineRun &run, int64_t limit, int64_t line_bytes,
               std::vector<uint64_t> &out)
{
    const int64_t step = run.stride * run.elemBytes;
    int64_t line = out.empty() ? -1
                               : static_cast<int64_t>(out.front()) /
                                     line_bytes;
    int64_t n = 0;
    while (n < limit) {
        int64_t idx = wl::wrapIndex(run.start + run.stride * n,
                                    run.elements);
        auto addr = static_cast<int64_t>(run.base) + idx * run.elemBytes;
        if (line < 0)
            line = addr / line_bytes;
        else if (addr / line_bytes != line)
            break;
        // Elements idx + stride*k stay in the array and on the line
        // for k < take.
        int64_t take = limit - n;
        if (run.stride > 0) {
            take = std::min(take, (run.elements - 1 - idx) / run.stride + 1);
            take = std::min(take,
                            ((line + 1) * line_bytes - 1 - addr) / step + 1);
        } else if (run.stride < 0) {
            take = std::min(take, idx / -run.stride + 1);
            take = std::min(take, (addr - line * line_bytes) / -step + 1);
        }
        for (int64_t k = 0; k < take; ++k)
            out.push_back(static_cast<uint64_t>(addr + step * k));
        n += take;
    }
    return n;
}

} // namespace overgen::sim
