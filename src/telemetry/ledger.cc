#include "telemetry/ledger.h"

#include <cstdio>
#include <string_view>

#include "common/logging.h"

namespace overgen::telemetry {

const char *
cycleCategoryName(CycleCategory category)
{
    switch (category) {
      case CycleCategory::Busy:
        return "busy";
      case CycleCategory::Startup:
        return "startup";
      case CycleCategory::IiGate:
        return "ii_gate";
      case CycleCategory::PortStall:
        return "port_stall";
      case CycleCategory::DramFill:
        return "dram_fill";
      case CycleCategory::NocContention:
        return "noc_contention";
      case CycleCategory::Barrier:
        return "barrier";
      case CycleCategory::Idle:
        return "idle";
    }
    OG_PANIC("unknown CycleCategory ", static_cast<int>(category));
}

Json
CycleLedger::toJson() const
{
    Json obj = Json::makeObject();
    for (int c = 0; c < kNumCycleCategories; ++c) {
        obj.set(cycleCategoryName(static_cast<CycleCategory>(c)),
                Json(counts[c]));
    }
    return obj;
}

void
CycleLedger::appendCompact(std::string &out) const
{
    // Alphabetical category order — the byte order Json::dump gives
    // the std::map-backed toJson() object — with each key's quoting
    // and separators pre-built (this runs once per timeline row).
    struct Key
    {
        CycleCategory category;
        std::string_view text;
    };
    static constexpr Key kSorted[] = {
        { CycleCategory::Barrier, "{\"barrier\":" },
        { CycleCategory::Busy, ",\"busy\":" },
        { CycleCategory::DramFill, ",\"dram_fill\":" },
        { CycleCategory::Idle, ",\"idle\":" },
        { CycleCategory::IiGate, ",\"ii_gate\":" },
        { CycleCategory::NocContention, ",\"noc_contention\":" },
        { CycleCategory::PortStall, ",\"port_stall\":" },
        { CycleCategory::Startup, ",\"startup\":" },
    };
    for (const Key &key : kSorted) {
        out += key.text;
        appendDecimal(out, (*this)[key.category]);
    }
    out += '}';
}

} // namespace overgen::telemetry
