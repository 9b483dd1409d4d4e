#include "eval_reference.h"

#include "common/logging.h"

namespace overgen::wl::reference {

void
evalIteration(const KernelSpec &spec,
              const std::vector<BoundAccess> &accesses,
              const int64_t *ivs, size_t depth, Memory &mem,
              std::vector<double> &op_values)
{
    op_values.assign(spec.ops.size(), 0.0);
    auto operand_value = [&](const Operand &operand) -> double {
        switch (operand.kind) {
          case Operand::Kind::Access: {
            const BoundAccess &acc = accesses[operand.index];
            int64_t idx = resolveIndex(acc, ivs, depth, mem);
            return mem.array(acc.array)[static_cast<size_t>(idx)];
          }
          case Operand::Kind::Op:
            return op_values[operand.index];
          case Operand::Kind::Imm:
            return operand.imm;
          case Operand::Kind::Index:
            OG_ASSERT(operand.index >= 0 &&
                          static_cast<size_t>(operand.index) < depth,
                      "bad loop index operand");
            return static_cast<double>(ivs[operand.index]);
        }
        OG_PANIC("bad operand kind");
    };

    for (size_t i = 0; i < spec.ops.size(); ++i) {
        const OpSpec &op = spec.ops[i];
        double a = operand_value(op.lhs);
        double b = operand_value(op.rhs);
        op_values[i] = evalScalarOp(op.op, op.type, a, b);
        if (op.writeAccess >= 0) {
            const BoundAccess &acc = accesses[op.writeAccess];
            OG_ASSERT(acc.spec->isWrite, "writeAccess on a read access");
            int64_t idx = resolveIndex(acc, ivs, depth, mem);
            mem.array(acc.array)[static_cast<size_t>(idx)] = op_values[i];
        }
    }
}

namespace {

/** The nest walk: one evalIteration per iteration, in order. */
struct NestRun
{
    const KernelSpec &spec;
    Memory &mem;
    std::vector<BoundAccess> accesses;
    std::vector<int64_t> ivs;
    std::vector<double> opValues;

    void
    run(size_t depth)
    {
        if (depth == spec.loops.size()) {
            evalIteration(spec, accesses, ivs.data(), ivs.size(), mem,
                          opValues);
            return;
        }
        int64_t trip = loopTrip(spec, depth, ivs);
        for (int64_t i = 0; i < trip; ++i) {
            ivs[depth] = i;
            run(depth + 1);
        }
        ivs[depth] = 0;
    }
};

} // namespace

void
interpret(const KernelSpec &spec, Memory &mem)
{
    NestRun nest{ spec, mem, bindAccesses(spec),
                  std::vector<int64_t>(spec.loops.size(), 0), {} };
    nest.run(0);
}

} // namespace overgen::wl::reference
