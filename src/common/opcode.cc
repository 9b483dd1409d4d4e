#include "common/opcode.h"

#include "common/logging.h"

namespace overgen {

namespace {

struct OpName
{
    Opcode op;
    const char *name;
};

const OpName opNames[] = {
    { Opcode::Add, "add" },     { Opcode::Sub, "sub" },
    { Opcode::Mul, "mul" },     { Opcode::Div, "div" },
    { Opcode::Sqrt, "sqrt" },   { Opcode::Min, "min" },
    { Opcode::Max, "max" },     { Opcode::Abs, "abs" },
    { Opcode::Shl, "shl" },     { Opcode::Shr, "shr" },
    { Opcode::And, "and" },     { Opcode::Or, "or" },
    { Opcode::Xor, "xor" },     { Opcode::Select, "select" },
    { Opcode::CmpLt, "cmplt" }, { Opcode::CmpEq, "cmpeq" },
    { Opcode::Acc, "acc" },
};

} // namespace

std::string
opcodeName(Opcode op)
{
    for (const auto &entry : opNames) {
        if (entry.op == op)
            return entry.name;
    }
    OG_PANIC("unknown opcode ", static_cast<int>(op));
}

std::optional<Opcode>
tryOpcodeFromName(const std::string &name)
{
    for (const auto &entry : opNames) {
        if (name == entry.name)
            return entry.op;
    }
    return std::nullopt;
}

Opcode
opcodeFromName(const std::string &name)
{
    std::optional<Opcode> op = tryOpcodeFromName(name);
    OG_ASSERT(op.has_value(), "unknown opcode name '", name, "'");
    return *op;
}

OpProperties
opProperties(Opcode op, DataType type)
{
    bool flt = dataTypeIsFloat(type);
    switch (op) {
      case Opcode::Add:
      case Opcode::Sub:
      case Opcode::Acc:
        return { flt ? 4 : 1, flt, true };
      case Opcode::Mul:
        return { flt ? 5 : 3, true, true };
      case Opcode::Div:
        // Divider is iterative on the FPGA fabric: not fully pipelined.
        return { flt ? 18 : 12, flt, false };
      case Opcode::Sqrt:
        return { flt ? 16 : 12, flt, false };
      case Opcode::Min:
      case Opcode::Max:
      case Opcode::Abs:
      case Opcode::CmpLt:
      case Opcode::CmpEq:
        return { flt ? 3 : 1, false, true };
      case Opcode::Shl:
      case Opcode::Shr:
      case Opcode::And:
      case Opcode::Or:
      case Opcode::Xor:
      case Opcode::Select:
        return { 1, false, true };
    }
    OG_PANIC("unknown opcode ", static_cast<int>(op));
}

const std::vector<Opcode> &
allOpcodes()
{
    static const std::vector<Opcode> ops = [] {
        std::vector<Opcode> v;
        for (const auto &entry : opNames)
            v.push_back(entry.op);
        return v;
    }();
    return ops;
}

std::string
fuCapabilityName(const FuCapability &cap)
{
    return opcodeName(cap.op) + "." + dataTypeName(cap.type);
}

} // namespace overgen
