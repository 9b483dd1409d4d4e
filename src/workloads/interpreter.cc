#include "workloads/interpreter.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"

namespace overgen::wl {

namespace {

/** FNV-1a hash for deterministic per-array initialization. */
uint64_t
fnv1a(const std::string &s)
{
    uint64_t h = 1469598103934665603ull;
    for (char c : s) {
        h ^= static_cast<unsigned char>(c);
        h *= 1099511628211ull;
    }
    return h;
}

} // namespace

void
Memory::init(const KernelSpec &spec, uint64_t seed)
{
    names.clear();
    arrays.clear();
    byName.clear();
    for (const ArraySpec &a : spec.arrays) {
        byName.push_back(static_cast<int>(names.size()));
        names.push_back(a.name);
    }
    std::sort(byName.begin(), byName.end(),
              [this](int x, int y) { return names[x] < names[y]; });
    for (size_t i = 1; i < byName.size(); ++i) {
        if (names[byName[i - 1]] == names[byName[i]])
            OG_FATAL("kernel '", spec.name, "' declares array '",
                     names[byName[i]], "' twice");
    }
    arrays.reserve(spec.arrays.size());
    for (const ArraySpec &a : spec.arrays) {
        std::vector<double> data(static_cast<size_t>(a.elements));
        uint64_t h = fnv1a(a.name) ^ (seed * 0x9e3779b97f4a7c15ull);
        if (a.isIndex) {
            int64_t target = spec.arrayByName(a.indexTarget).elements;
            for (size_t i = 0; i < data.size(); ++i) {
                uint64_t v = (h + i * 2654435761ull);
                data[i] = static_cast<double>(
                    static_cast<int64_t>(v % static_cast<uint64_t>(target)));
            }
        } else if (dataTypeIsFloat(a.type)) {
            for (size_t i = 0; i < data.size(); ++i) {
                uint64_t v = (h + i * 2654435761ull) % 251;
                data[i] = static_cast<double>(v) / 16.0 + 0.5;
            }
        } else {
            // Small magnitudes keep integer products exact in double.
            for (size_t i = 0; i < data.size(); ++i) {
                uint64_t v = (h + i * 2654435761ull) % 17;
                data[i] = static_cast<double>(v);
            }
        }
        arrays.push_back(std::move(data));
    }
}

int
Memory::idOf(const std::string &name) const
{
    auto it = std::lower_bound(
        byName.begin(), byName.end(), name,
        [this](int id, const std::string &key) { return names[id] < key; });
    OG_ASSERT(it != byName.end() && names[*it] == name,
              "unknown array '", name, "'");
    return *it;
}

std::vector<double> &
Memory::array(const std::string &name)
{
    return arrays[static_cast<size_t>(idOf(name))];
}

const std::vector<double> &
Memory::array(const std::string &name) const
{
    return arrays[static_cast<size_t>(idOf(name))];
}

const std::string &
Memory::name(int id) const
{
    checkId(id);
    return names[static_cast<size_t>(id)];
}

std::vector<BoundAccess>
bindAccesses(const KernelSpec &spec)
{
    std::vector<BoundAccess> bound;
    bound.reserve(spec.accesses.size());
    for (const AccessSpec &access : spec.accesses) {
        BoundAccess b;
        b.spec = &access;
        b.array = spec.arrayIndex(access.array);
        b.elements = spec.arrays[b.array].elements;
        if (access.indirect()) {
            b.indexArray = spec.arrayIndex(access.indexArray);
            b.indexElements = spec.arrays[b.indexArray].elements;
        }
        bound.push_back(b);
    }
    return bound;
}

double
evalScalarOp(Opcode op, DataType type, double a, double b)
{
    bool flt = dataTypeIsFloat(type);
    auto as_int = [](double v) { return static_cast<int64_t>(v); };
    double result = 0.0;
    switch (op) {
      case Opcode::Add:
      case Opcode::Acc:
        result = a + b;
        break;
      case Opcode::Sub:
        result = a - b;
        break;
      case Opcode::Mul:
        result = a * b;
        break;
      case Opcode::Div:
        if (b == 0.0)
            return 0.0;  // hardware divider saturates on div-by-zero
        result = flt ? a / b
                     : static_cast<double>(as_int(a) / as_int(b));
        break;
      case Opcode::Sqrt:
        result = std::sqrt(std::max(a, 0.0));
        break;
      case Opcode::Min:
        result = std::min(a, b);
        break;
      case Opcode::Max:
        result = std::max(a, b);
        break;
      case Opcode::Abs:
        result = std::abs(a);
        break;
      case Opcode::Shl:
        return static_cast<double>(as_int(a) << (as_int(b) & 63));
      case Opcode::Shr:
        return static_cast<double>(as_int(a) >> (as_int(b) & 63));
      case Opcode::And:
        return static_cast<double>(as_int(a) & as_int(b));
      case Opcode::Or:
        return static_cast<double>(as_int(a) | as_int(b));
      case Opcode::Xor:
        return static_cast<double>(as_int(a) ^ as_int(b));
      case Opcode::Select:
        return a != 0.0 ? b : 0.0;  // 2-operand form: pred ? value : 0
      case Opcode::CmpLt:
        return a < b ? 1.0 : 0.0;
      case Opcode::CmpEq:
        return a == b ? 1.0 : 0.0;
    }
    if (!flt)
        result = std::trunc(result);
    return result;
}

int64_t
loopTrip(const KernelSpec &spec, size_t depth,
         const std::vector<int64_t> &ivs)
{
    const LoopSpec &loop = spec.loops[depth];
    int64_t trip = loop.tripBase;
    for (size_t d = 0; d < loop.tripCoeff.size() && d < depth; ++d)
        trip += loop.tripCoeff[d] * ivs[d];
    return std::max<int64_t>(trip, 0);
}

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

/** The nest walk of interpret(): bound accesses and scratch live
 * here once per kernel. */
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

} // namespace overgen::wl
