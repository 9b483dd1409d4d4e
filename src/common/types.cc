#include "common/types.h"

#include "common/logging.h"

namespace overgen {

int
dataTypeBytes(DataType type)
{
    switch (type) {
      case DataType::I8:
        return 1;
      case DataType::I16:
        return 2;
      case DataType::I32:
      case DataType::F32:
        return 4;
      case DataType::I64:
      case DataType::F64:
        return 8;
    }
    OG_PANIC("unknown data type");
}

std::string
dataTypeName(DataType type)
{
    switch (type) {
      case DataType::I8:
        return "i8";
      case DataType::I16:
        return "i16";
      case DataType::I32:
        return "i32";
      case DataType::I64:
        return "i64";
      case DataType::F32:
        return "f32";
      case DataType::F64:
        return "f64";
    }
    OG_PANIC("unknown data type");
}

std::optional<DataType>
tryDataTypeFromName(const std::string &name)
{
    if (name == "i8")
        return DataType::I8;
    if (name == "i16")
        return DataType::I16;
    if (name == "i32")
        return DataType::I32;
    if (name == "i64")
        return DataType::I64;
    if (name == "f32")
        return DataType::F32;
    if (name == "f64")
        return DataType::F64;
    return std::nullopt;
}

DataType
dataTypeFromName(const std::string &name)
{
    std::optional<DataType> type = tryDataTypeFromName(name);
    OG_ASSERT(type.has_value(), "unknown data type name '", name, "'");
    return *type;
}

int
subwordLanes(int pe_bytes, DataType type)
{
    int elem = dataTypeBytes(type);
    if (pe_bytes < elem)
        return 0;
    return pe_bytes / elem;
}

} // namespace overgen
