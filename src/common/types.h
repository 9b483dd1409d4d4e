#ifndef OVERGEN_COMMON_TYPES_H
#define OVERGEN_COMMON_TYPES_H

/**
 * @file
 * Scalar data types supported by OverGen functional units and streams
 * (paper §III-B: 8..64-bit integer, single/double float).
 */

#include <cstdint>
#include <optional>
#include <string>

namespace overgen {

/** Element data types a PE / stream can carry. */
enum class DataType : uint8_t {
    I8,
    I16,
    I32,
    I64,
    F32,
    F64,
};

/** @return the width of @p type in bytes. */
int dataTypeBytes(DataType type);

/** @return the number of defined data types. */
constexpr int
numDataTypes()
{
    return static_cast<int>(DataType::F64) + 1;
}

/** @return whether @p type is a floating-point type. Inline and
 * constexpr: the evaluator's handlers fold it per data type. */
constexpr bool
dataTypeIsFloat(DataType type)
{
    return type == DataType::F32 || type == DataType::F64;
}

/** @return a short printable name, e.g. "i16" or "f64". */
std::string dataTypeName(DataType type);

/** Parse a name produced by dataTypeName(); fatal on unknown names. */
DataType dataTypeFromName(const std::string &name);
/** dataTypeFromName() for outside input: nullopt on unknown names. */
std::optional<DataType> tryDataTypeFromName(const std::string &name);

/**
 * Number of subword SIMD lanes a PE of @p pe_bytes datapath width
 * provides for elements of @p type (paper §III-B: PEs wider than the FU
 * get subword SIMD).
 */
int subwordLanes(int pe_bytes, DataType type);

} // namespace overgen

#endif // OVERGEN_COMMON_TYPES_H
