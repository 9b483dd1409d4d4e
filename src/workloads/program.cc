#include "workloads/program.h"

#include <algorithm>
#include <string>

#include "common/logging.h"

namespace overgen::wl {

Program::Program(const KernelSpec &spec) : depth(spec.loops.size())
{
    std::vector<BoundAccess> bound = bindAccesses(spec);
    // Access slots in first-use order; slotOf[i] is access i's slot.
    std::vector<int32_t> slotOf(bound.size(), -1);
    auto slot_for = [&](int access, size_t op, const char *role) {
        if (access < 0 || static_cast<size_t>(access) >= bound.size())
            OG_FATAL("kernel '", spec.name, "' op ", op, " ", role,
                     " names access ", access, ", but the kernel has ",
                     bound.size(), " accesses");
        int32_t &slot = slotOf[static_cast<size_t>(access)];
        if (slot < 0) {
            const BoundAccess &b = bound[static_cast<size_t>(access)];
            AccessSlot s{ b.array, b.elements, b.indexArray,
                          b.indexElements, b.spec->offset,
                          std::vector<int64_t>(depth, 0),
                          innerStride(*b.spec, depth) };
            for (size_t d = 0; d < depth && d < b.spec->coeffs.size(); ++d)
                s.coeffs[d] = b.spec->coeffs[d];
            slot = static_cast<int32_t>(slots.size());
            slots.push_back(std::move(s));
        }
        return slot;
    };

    // Frame: immediates first, then one slot per loop index (one even
    // for a loopless kernel, so run() can always write the innermost),
    // then one per op.
    std::vector<double> imms;
    for (const OpSpec &op : spec.ops)
        for (const Operand *o : { &op.lhs, &op.rhs })
            if (o->kind == Operand::Kind::Imm)
                imms.push_back(o->imm);
    indexBase = imms.size();
    size_t op_base = indexBase + std::max<size_t>(depth, 1);
    frame.assign(op_base + spec.ops.size(), 0.0);
    std::copy(imms.begin(), imms.end(), frame.begin());

    size_t next_imm = 0;
    for (size_t i = 0; i < spec.ops.size(); ++i) {
        const OpSpec &op = spec.ops[i];
        auto lower = [&](const Operand &o, const char *role) -> int32_t {
            switch (o.kind) {
              case Operand::Kind::Access:
                return ~slot_for(o.index, i, role);
              case Operand::Kind::Op:
                if (o.index < 0 || static_cast<size_t>(o.index) >= i)
                    OG_FATAL("kernel '", spec.name, "' op ", i, " ", role,
                             " names op ", o.index,
                             ", which is not an earlier op");
                return static_cast<int32_t>(op_base + o.index);
              case Operand::Kind::Imm:
                return static_cast<int32_t>(next_imm++);
              case Operand::Kind::Index:
                if (o.index < 0 || static_cast<size_t>(o.index) >= depth)
                    OG_FATAL("kernel '", spec.name, "' op ", i, " ", role,
                             " reads loop index ", o.index,
                             ", but the kernel has ", depth, " loops");
                return static_cast<int32_t>(indexBase + o.index);
            }
            OG_FATAL("kernel '", spec.name, "' op ", i, " ", role,
                     " has an unknown operand kind");
        };
        Instr ins{ scalarOpHandler(op.op, op.type), lower(op.lhs, "lhs"),
                   lower(op.rhs, "rhs"),
                   static_cast<int32_t>(op_base + i), -1 };
        if (op.writeAccess >= 0) {
            ins.write = slot_for(op.writeAccess, i, "writeAccess");
            if (!bound[static_cast<size_t>(op.writeAccess)].spec->isWrite)
                OG_FATAL("kernel '", spec.name, "' op ", i,
                         " writes through access ", op.writeAccess,
                         ", which is a read access");
        }
        code.push_back(ins);
    }
}

void
Program::run(const int64_t *ivs, int64_t lanes, Memory &mem)
{
    // Once per run: bind storage and each access's affine start.
    for (AccessSlot &acc : slots) {
        acc.data = mem.array(acc.array).data();
        if (acc.indexArray >= 0)
            acc.index = mem.array(acc.indexArray).data();
        acc.start = acc.offset;
        for (size_t d = 0; d < depth; ++d)
            acc.start += acc.coeffs[d] * ivs[d];
    }
    for (size_t d = 0; d + 1 < depth; ++d)
        frame[indexBase + d] = static_cast<double>(ivs[d]);
    size_t inner_slot = indexBase + (depth > 0 ? depth - 1 : 0);
    int64_t inner = depth > 0 ? ivs[depth - 1] : 0;
    for (int64_t lane = 0; lane < lanes; ++lane) {
        frame[inner_slot] = static_cast<double>(inner + lane);
        for (const Instr &ins : code) {
            double a = operand(ins.lhs, lane);
            double b = operand(ins.rhs, lane);
            double v = ins.fn(a, b);
            frame[static_cast<size_t>(ins.dst)] = v;
            if (ins.write >= 0)
                *element(ins.write, lane) = v;
        }
    }
}

} // namespace overgen::wl
