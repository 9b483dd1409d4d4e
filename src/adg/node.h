#ifndef OVERGEN_ADG_NODE_H
#define OVERGEN_ADG_NODE_H

/**
 * @file
 * Node kinds and per-kind hardware parameters of the architecture
 * description graph (paper Fig. 2c and §III-B). Every parameter here is a
 * DSE-explorable dimension and an input to the FPGA resource model.
 */

#include <cstdint>
#include <optional>
#include <set>
#include <string>
#include <variant>

#include "common/opcode.h"
#include "common/types.h"

namespace overgen::adg {

/** Stable identifier of a node within one Adg. */
using NodeId = int32_t;
/** Stable identifier of an edge within one Adg. */
using EdgeId = int32_t;

constexpr NodeId invalidNode = -1;
constexpr EdgeId invalidEdge = -1;

/** The kind of hardware primitive a node instantiates. */
enum class NodeKind : uint8_t {
    Pe,          //!< processing element (FU + operand delay FIFOs)
    Switch,      //!< operand-routing switch
    InPort,      //!< memory-to-compute synchronization port
    OutPort,     //!< compute-to-memory synchronization port
    Dma,         //!< stream engine accessing the shared L2 / DRAM
    Scratchpad,  //!< stream engine over a private scratchpad
    Recurrence,  //!< loop-carried-dependence forwarding engine
    Generate,    //!< affine value-sequence generator
    Register,    //!< scalar collection to the control core
};

/** @return printable kind name. */
std::string nodeKindName(NodeKind kind);

/** Parse a name produced by nodeKindName(); nullopt on unknown
 * names. */
std::optional<NodeKind> tryNodeKindFromName(const std::string &name);

/** @return whether @p kind is one of the five stream-engine kinds. */
bool isStreamEngine(NodeKind kind);

/** @return whether @p kind is a memory stream engine (DMA/scratchpad). */
bool isMemoryEngine(NodeKind kind);

/** Processing element parameters. */
struct PeSpec
{
    /** FU capabilities (opcode x datatype) this PE implements. */
    std::set<FuCapability> capabilities;
    /** Datapath width in bytes; wider than the FU element gives SIMD. */
    int datapathBytes = 8;
    /** Maximum per-operand delay-FIFO depth (pipeline balancing). */
    int maxDelayFifoDepth = 4;
    /** Whether a predication-based control lookup table is present. */
    bool controlLut = false;

    bool operator==(const PeSpec &other) const = default;
};

/** Switch parameters; the radix is implied by incident edges. */
struct SwitchSpec
{
    /** Datapath width in bytes routed per cycle. */
    int datapathBytes = 8;

    bool operator==(const SwitchSpec &other) const = default;
};

/** Input/output port parameters (paper §III-B "Ports"). */
struct PortSpec
{
    /** Port width in bytes: maximum ingest/egest rate per cycle. */
    int widthBytes = 8;
    /** Automatic padding for non-vector-width streams. */
    bool padding = false;
    /** Stream-state metadata (inner-dimension-complete flag). */
    bool statedStream = false;
    /** FIFO depth in entries; bounds stationary/recurrent buffering. */
    int fifoDepth = 4;

    bool operator==(const PortSpec &other) const = default;
};

/** DMA stream-engine parameters. */
struct DmaSpec
{
    /** Bandwidth to the NoC in bytes per cycle. */
    int bandwidthBytes = 8;
    /** Whether parallel indirect access (a[b[i]]) is supported. */
    bool indirect = false;
    /** Reorder-buffer entries for in-flight responses. */
    int robEntries = 16;

    bool operator==(const DmaSpec &other) const = default;
};

/** Scratchpad stream-engine parameters. */
struct ScratchpadSpec
{
    /** Capacity in KiB (includes double-buffering space). */
    int capacityKiB = 16;
    /** Read bandwidth in bytes per cycle. */
    int readBandwidthBytes = 16;
    /** Write bandwidth in bytes per cycle. */
    int writeBandwidthBytes = 16;
    /** Whether parallel indirect access is supported. */
    bool indirect = false;

    bool operator==(const ScratchpadSpec &other) const = default;
};

/** Recurrence engine parameters. */
struct RecurrenceSpec
{
    /** Forwarding bandwidth in bytes per cycle. */
    int bandwidthBytes = 8;

    bool operator==(const RecurrenceSpec &other) const = default;
};

/** Affine value-sequence generator parameters. */
struct GenerateSpec
{
    /** Generation bandwidth in bytes per cycle. */
    int bandwidthBytes = 8;

    bool operator==(const GenerateSpec &other) const = default;
};

/** Register engine parameters (scalar egress to the control core). */
struct RegisterSpec
{
    /** Collection bandwidth in bytes per cycle. */
    int bandwidthBytes = 8;

    bool operator==(const RegisterSpec &other) const = default;
};

/** Per-kind parameter payload. */
using NodeSpec = std::variant<PeSpec, SwitchSpec, PortSpec, DmaSpec,
                              ScratchpadSpec, RecurrenceSpec, GenerateSpec,
                              RegisterSpec>;

/** One node of the architecture description graph. */
struct Node
{
    NodeId id = invalidNode;
    NodeKind kind = NodeKind::Switch;
    NodeSpec spec;

    const PeSpec &pe() const { return std::get<PeSpec>(spec); }
    PeSpec &pe() { return std::get<PeSpec>(spec); }
    const SwitchSpec &sw() const { return std::get<SwitchSpec>(spec); }
    SwitchSpec &sw() { return std::get<SwitchSpec>(spec); }
    const PortSpec &port() const { return std::get<PortSpec>(spec); }
    PortSpec &port() { return std::get<PortSpec>(spec); }
    const DmaSpec &dma() const { return std::get<DmaSpec>(spec); }
    DmaSpec &dma() { return std::get<DmaSpec>(spec); }
    const ScratchpadSpec &spad() const
    {
        return std::get<ScratchpadSpec>(spec);
    }
    ScratchpadSpec &spad() { return std::get<ScratchpadSpec>(spec); }
    const RecurrenceSpec &rec() const
    {
        return std::get<RecurrenceSpec>(spec);
    }
    RecurrenceSpec &rec() { return std::get<RecurrenceSpec>(spec); }
    const GenerateSpec &gen() const
    {
        return std::get<GenerateSpec>(spec);
    }
    GenerateSpec &gen() { return std::get<GenerateSpec>(spec); }
    const RegisterSpec &reg() const
    {
        return std::get<RegisterSpec>(spec);
    }
    RegisterSpec &reg() { return std::get<RegisterSpec>(spec); }
};

/** One directed edge of the ADG with an enforced pipeline delay. */
struct Edge
{
    EdgeId id = invalidEdge;
    NodeId src = invalidNode;
    NodeId dst = invalidNode;
    /** Enforced delay cycles over this edge (paper Fig. 7b). */
    int delay = 1;
};

} // namespace overgen::adg

#endif // OVERGEN_ADG_NODE_H
