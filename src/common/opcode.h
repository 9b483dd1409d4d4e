#ifndef OVERGEN_COMMON_OPCODE_H
#define OVERGEN_COMMON_OPCODE_H

/**
 * @file
 * Functional-unit opcodes supported by OverGen processing elements, with
 * static properties (latency, integer/float class) used by the scheduler,
 * the performance model, and the FPGA resource model.
 */

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/types.h"

namespace overgen {

/** Opcodes a processing element FU may implement. */
enum class Opcode : uint8_t {
    Add,
    Sub,
    Mul,
    Div,
    Sqrt,
    Min,
    Max,
    Abs,
    Shl,
    Shr,
    And,
    Or,
    Xor,
    Select,  //!< predicated select (control lookup table)
    CmpLt,
    CmpEq,
    Acc,     //!< accumulate (reduction); may fall back to recurrence stream
};

/** Static properties of an (opcode, datatype) functional unit. */
struct OpProperties
{
    /** Pipeline latency in cycles on the overlay fabric. */
    int latency;
    /** Whether the FU occupies an FPGA DSP slice when floating point. */
    bool usesDsp;
    /** Whether the unit is fully pipelined (II = 1). */
    bool pipelined;
};

/** @return the number of defined opcodes. */
constexpr int
numOpcodes()
{
    return static_cast<int>(Opcode::Acc) + 1;
}

/** @return a short printable opcode name. */
std::string opcodeName(Opcode op);

/** Parse a name produced by opcodeName(); fatal on unknown names. */
Opcode opcodeFromName(const std::string &name);
/** opcodeFromName() for outside input: nullopt on unknown names. */
std::optional<Opcode> tryOpcodeFromName(const std::string &name);

/** @return static properties of @p op executed on type @p type. */
OpProperties opProperties(Opcode op, DataType type);

/** @return all opcodes, for capability enumeration in the DSE. */
const std::vector<Opcode> &allOpcodes();

/**
 * A functional-unit capability: one opcode at one data type. PE
 * capability sets are sets of these.
 */
struct FuCapability
{
    Opcode op;
    DataType type;

    bool operator==(const FuCapability &other) const = default;
    auto operator<=>(const FuCapability &other) const = default;
};

/** @return printable form, e.g. "mul.f64". */
std::string fuCapabilityName(const FuCapability &cap);

} // namespace overgen

#endif // OVERGEN_COMMON_OPCODE_H
