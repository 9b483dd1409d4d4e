#include "workloads/interpreter.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <utility>

#include "common/logging.h"
#include "workloads/program.h"

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

namespace {

/**
 * The overlay's arithmetic semantics for one scalar op: the single
 * body every handler of the dispatch table instantiates. With @p Op
 * and @p Type compile-time constants, each instance folds to the one
 * case it evaluates.
 */
template <Opcode Op, DataType Type>
double
scalarOp(double a, double b)
{
    constexpr bool flt = dataTypeIsFloat(Type);
    auto as_int = [](double v) { return static_cast<int64_t>(v); };
    double result = 0.0;
    switch (Op) {
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
        // The hardware divider saturates to 0 on a zero divisor. An
        // integer divisor is the truncated operand, so a fractional
        // one in (-1, 1) is a zero divisor too.
        if (flt) {
            if (b == 0.0)
                return 0.0;
            result = a / b;
        } else {
            int64_t n = as_int(a);
            int64_t d = as_int(b);
            if (d == 0)
                return 0.0;
            // Negate in unsigned arithmetic: INT64_MIN / -1 wraps to
            // INT64_MIN, as a two's-complement divider does.
            result = d == -1 ? static_cast<double>(static_cast<int64_t>(
                                   0 - static_cast<uint64_t>(n)))
                             : static_cast<double>(n / d);
        }
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

constexpr size_t kHandlers =
    static_cast<size_t>(numOpcodes()) * numDataTypes();

template <size_t... I>
constexpr std::array<ScalarOpFn, kHandlers>
makeHandlers(std::index_sequence<I...>)
{
    return { &scalarOp<static_cast<Opcode>(I / numDataTypes()),
                       static_cast<DataType>(I % numDataTypes())>... };
}

/** One handler per (Opcode, DataType), opcode-major. */
constexpr std::array<ScalarOpFn, kHandlers> handlers =
    makeHandlers(std::make_index_sequence<kHandlers>{});

} // namespace

ScalarOpFn
scalarOpHandler(Opcode op, DataType type)
{
    auto o = static_cast<size_t>(op);
    auto t = static_cast<size_t>(type);
    OG_ASSERT(o < static_cast<size_t>(numOpcodes()) &&
                  t < static_cast<size_t>(numDataTypes()),
              "no handler for opcode ", o, " at data type ", t);
    return handlers[o * numDataTypes() + t];
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
interpret(const KernelSpec &spec, Memory &mem)
{
    Program program(spec);
    std::vector<int64_t> ivs(spec.loops.size(), 0);
    // Walk the outer loops; each innermost pass is one program run of
    // `trip` lanes, evaluated in order.
    auto walk = [&](auto &self, size_t depth) -> void {
        if (depth + 1 >= spec.loops.size()) {
            int64_t trip =
                spec.loops.empty() ? 1 : loopTrip(spec, depth, ivs);
            if (trip > 0)
                program.run(ivs.data(), trip, mem);
            return;
        }
        int64_t trip = loopTrip(spec, depth, ivs);
        for (int64_t i = 0; i < trip; ++i) {
            ivs[depth] = i;
            self(self, depth + 1);
        }
        ivs[depth] = 0;
    };
    walk(walk, 0);
}

} // namespace overgen::wl
