#ifndef OVERGEN_ADG_ADG_H
#define OVERGEN_ADG_ADG_H

/**
 * @file
 * The architecture description graph (ADG): the spatial-accelerator design
 * representation that the scheduler maps mDFGs onto and that the DSE
 * mutates (paper §II, Fig. 2c). Also the system-level parameters that,
 * together with the ADG, form the sysADG (paper §III-A).
 */

#include <string>
#include <utility>
#include <vector>

#include "adg/node.h"
#include "common/json.h"

namespace overgen::adg {

/**
 * System-level design parameters explored by the nested system DSE
 * (paper §III-B "System Design Space").
 */
struct SystemParams
{
    /** Number of homogeneous tiles (control core + accelerator). */
    int numTiles = 1;
    /** Number of L2 banks (controls L2 bandwidth). */
    int l2Banks = 4;
    /** Shared L2 capacity in KiB. */
    int l2CapacityKiB = 512;
    /** NoC bandwidth in bytes per cycle per link. */
    int nocBytes = 32;
    /** DRAM channels (fixed to 1 on the evaluation board, Q7 varies it). */
    int dramChannels = 1;

    bool operator==(const SystemParams &other) const = default;

    /** Serialize to JSON. */
    Json toJson() const;
    /** Deserialize; fatal on malformed input. */
    static SystemParams fromJson(const Json &json);
    /** Deserialize outside input: nullopt and a named @p error on
     * malformed input. */
    static std::optional<SystemParams> tryFromJson(const Json &json,
                                                   std::string *error);
};

/**
 * Architecture description graph of one accelerator tile.
 *
 * Nodes live in a dense vector with tombstones so NodeIds stay stable
 * across DSE mutations; schedule repair depends on that stability.
 */
class Adg
{
  public:
    /** Add a node of the given kind; @return its id. */
    NodeId addPe(PeSpec spec);
    NodeId addSwitch(SwitchSpec spec = {});
    NodeId addInPort(PortSpec spec = {});
    NodeId addOutPort(PortSpec spec = {});
    NodeId addDma(DmaSpec spec = {});
    NodeId addScratchpad(ScratchpadSpec spec = {});
    NodeId addRecurrence(RecurrenceSpec spec = {});
    NodeId addGenerate(GenerateSpec spec = {});
    NodeId addRegister(RegisterSpec spec = {});

    /**
     * Add a directed edge; fatal if the kinds may not connect (see
     * edgeLegal()). @return the edge id.
     */
    EdgeId addEdge(NodeId src, NodeId dst, int delay = 1);

    /** Remove an edge. Referencing it afterwards is a panic. */
    void removeEdge(EdgeId id);

    /** Remove a node together with all incident edges. */
    void removeNode(NodeId id);

    /** @return whether @p id names a live node. */
    bool hasNode(NodeId id) const;
    /** @return whether @p id names a live edge. */
    bool hasEdge(EdgeId id) const;

    /** @return the node; panic if dead or out of range. */
    const Node &node(NodeId id) const;
    Node &node(NodeId id);

    /** @return the edge; panic if dead or out of range. */
    const Edge &edge(EdgeId id) const;
    Edge &edge(EdgeId id);

    /** @return ids of live out-edges of @p id. */
    const std::vector<EdgeId> &outEdges(NodeId id) const;
    /** @return ids of live in-edges of @p id. */
    const std::vector<EdgeId> &inEdges(NodeId id) const;

    /** @return all live node ids (ascending). */
    std::vector<NodeId> nodeIds() const;
    /** @return all live node ids of one kind (ascending). */
    std::vector<NodeId> nodeIdsOfKind(NodeKind kind) const;
    /** @return all live edge ids (ascending). */
    std::vector<EdgeId> edgeIds() const;

    /** @return size of the node slot array (one past the largest id
     * ever issued, tombstones included) — for dense id-indexed
     * side tables. */
    size_t nodeSlots() const { return nodes.size(); }
    /** @return size of the edge slot array (see nodeSlots()). */
    size_t edgeSlots() const { return edges.size(); }

    /** @return count of live nodes of @p kind. */
    int countKind(NodeKind kind) const;
    /** @return count of live nodes. */
    int numNodes() const;
    /** @return count of live edges. */
    int numEdges() const;

    /** @return radix (in-degree + out-degree) of a node. */
    int radix(NodeId id) const;

    /** @return mean radix over live switches (Table III "Avg. Radix"). */
    double averageSwitchRadix() const;

    /**
     * @return whether an edge from @p src_kind to @p dst_kind respects
     * the topology rules (stream engines feed in-ports, out-ports feed
     * stream engines, fabric nodes interconnect).
     */
    static bool edgeLegal(NodeKind src_kind, NodeKind dst_kind);

    /**
     * Structural validation: every in-port reachable from some engine,
     * every out-port drains into one, no dangling fabric nodes. @return
     * an empty string when valid, else a description of the violation.
     */
    std::string validate() const;

    /** Serialize the whole graph to JSON. */
    Json toJson() const;
    /** Deserialize; fatal on malformed input. */
    static Adg fromJson(const Json &json);
    /** Deserialize outside input: nullopt and a named @p error on
     * malformed input (unknown names, bad edges, duplicate ids). */
    static std::optional<Adg> tryFromJson(const Json &json,
                                          std::string *error);

    /**
     * 64-bit structural fingerprint over live nodes (id, kind, every
     * spec parameter) and live edges (id, endpoints, delay). Two ADGs
     * with identical live structure — including the id numbering the
     * scheduler depends on — fingerprint equal regardless of the
     * mutation history that produced them; per-item hashes are
     * combined commutatively, so iteration order is irrelevant. Any
     * single node/edge/parameter perturbation changes the value (see
     * tests/adg/fingerprint_test.cc). The overlay library keys on two
     * independently salted fingerprints, making accidental collisions
     * a ~2^-128 event.
     */
    uint64_t fingerprint(uint64_t salt = 0) const;

    /**
     * Both salted fingerprints in one graph traversal. The per-item
     * structural hash is salt-independent, so computing a pair costs
     * barely more than one fingerprint() — the double-salted keys
     * above use it. fingerprint(s) ==
     * fingerprintPair(s, t).first for every t.
     */
    std::pair<uint64_t, uint64_t> fingerprintPair(uint64_t saltA,
                                                  uint64_t saltB) const;

    /** Monotonically increasing count of structural mutations. */
    uint64_t version() const { return mutationCount; }

  private:
    NodeId addNode(NodeKind kind, NodeSpec spec);

    std::vector<Node> nodes;
    std::vector<bool> nodeAlive;
    std::vector<Edge> edges;
    std::vector<bool> edgeAlive;
    std::vector<std::vector<EdgeId>> outAdj;
    std::vector<std::vector<EdgeId>> inAdj;
    uint64_t mutationCount = 0;
};

/** A full overlay design point: per-tile ADG plus system parameters. */
struct SysAdg
{
    Adg adg;
    SystemParams sys;

    Json toJson() const;
    /** Deserialize; fatal on malformed input. */
    static SysAdg fromJson(const Json &json);
    /** Deserialize outside input (see Adg::tryFromJson). */
    static std::optional<SysAdg> tryFromJson(const Json &json,
                                             std::string *error);
};

} // namespace overgen::adg

#endif // OVERGEN_ADG_ADG_H
