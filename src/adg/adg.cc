#include "adg/adg.h"

#include <algorithm>
#include <limits>
#include <map>

#include "common/json_fields.h"
#include "common/logging.h"
#include "common/rng.h"

namespace overgen::adg {

std::string
nodeKindName(NodeKind kind)
{
    switch (kind) {
      case NodeKind::Pe:
        return "pe";
      case NodeKind::Switch:
        return "switch";
      case NodeKind::InPort:
        return "in_port";
      case NodeKind::OutPort:
        return "out_port";
      case NodeKind::Dma:
        return "dma";
      case NodeKind::Scratchpad:
        return "scratchpad";
      case NodeKind::Recurrence:
        return "recurrence";
      case NodeKind::Generate:
        return "generate";
      case NodeKind::Register:
        return "register";
    }
    OG_PANIC("unknown node kind");
}

std::optional<NodeKind>
tryNodeKindFromName(const std::string &name)
{
    for (int k = 0; k <= static_cast<int>(NodeKind::Register); ++k) {
        auto kind = static_cast<NodeKind>(k);
        if (nodeKindName(kind) == name)
            return kind;
    }
    return std::nullopt;
}

bool
isStreamEngine(NodeKind kind)
{
    switch (kind) {
      case NodeKind::Dma:
      case NodeKind::Scratchpad:
      case NodeKind::Recurrence:
      case NodeKind::Generate:
      case NodeKind::Register:
        return true;
      default:
        return false;
    }
}

bool
isMemoryEngine(NodeKind kind)
{
    return kind == NodeKind::Dma || kind == NodeKind::Scratchpad;
}

NodeId
Adg::addNode(NodeKind kind, NodeSpec spec)
{
    NodeId id = static_cast<NodeId>(nodes.size());
    nodes.push_back(Node{ id, kind, std::move(spec) });
    nodeAlive.push_back(true);
    outAdj.emplace_back();
    inAdj.emplace_back();
    ++mutationCount;
    return id;
}

NodeId
Adg::addPe(PeSpec spec)
{
    return addNode(NodeKind::Pe, std::move(spec));
}

NodeId
Adg::addSwitch(SwitchSpec spec)
{
    return addNode(NodeKind::Switch, spec);
}

NodeId
Adg::addInPort(PortSpec spec)
{
    return addNode(NodeKind::InPort, spec);
}

NodeId
Adg::addOutPort(PortSpec spec)
{
    return addNode(NodeKind::OutPort, spec);
}

NodeId
Adg::addDma(DmaSpec spec)
{
    return addNode(NodeKind::Dma, spec);
}

NodeId
Adg::addScratchpad(ScratchpadSpec spec)
{
    return addNode(NodeKind::Scratchpad, spec);
}

NodeId
Adg::addRecurrence(RecurrenceSpec spec)
{
    return addNode(NodeKind::Recurrence, spec);
}

NodeId
Adg::addGenerate(GenerateSpec spec)
{
    return addNode(NodeKind::Generate, spec);
}

NodeId
Adg::addRegister(RegisterSpec spec)
{
    return addNode(NodeKind::Register, spec);
}

bool
Adg::edgeLegal(NodeKind src_kind, NodeKind dst_kind)
{
    switch (src_kind) {
      case NodeKind::InPort:
        // InPort -> OutPort covers pure-copy routes created by node
        // collapsing (paper Fig. 7a) when a pass-through switch dies.
        return dst_kind == NodeKind::Switch || dst_kind == NodeKind::Pe ||
               dst_kind == NodeKind::OutPort;
      case NodeKind::Switch:
        return dst_kind == NodeKind::Switch || dst_kind == NodeKind::Pe ||
               dst_kind == NodeKind::OutPort;
      case NodeKind::Pe:
        return dst_kind == NodeKind::Switch ||
               dst_kind == NodeKind::OutPort || dst_kind == NodeKind::Pe;
      case NodeKind::Dma:
      case NodeKind::Scratchpad:
      case NodeKind::Recurrence:
      case NodeKind::Generate:
        return dst_kind == NodeKind::InPort;
      case NodeKind::OutPort:
        return isStreamEngine(dst_kind);
      case NodeKind::Register:
        // The register engine only drains out-ports toward the core.
        return false;
    }
    return false;
}

EdgeId
Adg::addEdge(NodeId src, NodeId dst, int delay)
{
    OG_ASSERT(hasNode(src), "edge source ", src, " is not a live node");
    OG_ASSERT(hasNode(dst), "edge target ", dst, " is not a live node");
    OG_ASSERT(src != dst, "self edge on node ", src);
    OG_ASSERT(delay >= 0, "negative edge delay");
    NodeKind sk = node(src).kind;
    NodeKind dk = node(dst).kind;
    OG_ASSERT(edgeLegal(sk, dk), "illegal ADG edge ", nodeKindName(sk),
              " -> ", nodeKindName(dk));
    EdgeId id = static_cast<EdgeId>(edges.size());
    edges.push_back(Edge{ id, src, dst, delay });
    edgeAlive.push_back(true);
    outAdj[src].push_back(id);
    inAdj[dst].push_back(id);
    ++mutationCount;
    return id;
}

void
Adg::removeEdge(EdgeId id)
{
    OG_ASSERT(hasEdge(id), "removing dead edge ", id);
    const Edge &e = edges[id];
    auto erase_from = [id](std::vector<EdgeId> &vec) {
        vec.erase(std::remove(vec.begin(), vec.end(), id), vec.end());
    };
    erase_from(outAdj[e.src]);
    erase_from(inAdj[e.dst]);
    edgeAlive[id] = false;
    ++mutationCount;
}

void
Adg::removeNode(NodeId id)
{
    OG_ASSERT(hasNode(id), "removing dead node ", id);
    // Copy: removeEdge mutates the adjacency lists we iterate.
    std::vector<EdgeId> incident = outAdj[id];
    incident.insert(incident.end(), inAdj[id].begin(), inAdj[id].end());
    for (EdgeId e : incident) {
        if (hasEdge(e))
            removeEdge(e);
    }
    nodeAlive[id] = false;
    ++mutationCount;
}

bool
Adg::hasNode(NodeId id) const
{
    return id >= 0 && id < static_cast<NodeId>(nodes.size()) &&
           nodeAlive[id];
}

bool
Adg::hasEdge(EdgeId id) const
{
    return id >= 0 && id < static_cast<EdgeId>(edges.size()) &&
           edgeAlive[id];
}

const Node &
Adg::node(NodeId id) const
{
    OG_ASSERT(hasNode(id), "access to dead node ", id);
    return nodes[id];
}

Node &
Adg::node(NodeId id)
{
    OG_ASSERT(hasNode(id), "access to dead node ", id);
    return nodes[id];
}

const Edge &
Adg::edge(EdgeId id) const
{
    OG_ASSERT(hasEdge(id), "access to dead edge ", id);
    return edges[id];
}

Edge &
Adg::edge(EdgeId id)
{
    OG_ASSERT(hasEdge(id), "access to dead edge ", id);
    return edges[id];
}

const std::vector<EdgeId> &
Adg::outEdges(NodeId id) const
{
    OG_ASSERT(hasNode(id), "outEdges of dead node ", id);
    return outAdj[id];
}

const std::vector<EdgeId> &
Adg::inEdges(NodeId id) const
{
    OG_ASSERT(hasNode(id), "inEdges of dead node ", id);
    return inAdj[id];
}

std::vector<NodeId>
Adg::nodeIds() const
{
    std::vector<NodeId> ids;
    for (NodeId i = 0; i < static_cast<NodeId>(nodes.size()); ++i) {
        if (nodeAlive[i])
            ids.push_back(i);
    }
    return ids;
}

std::vector<NodeId>
Adg::nodeIdsOfKind(NodeKind kind) const
{
    std::vector<NodeId> ids;
    for (NodeId i = 0; i < static_cast<NodeId>(nodes.size()); ++i) {
        if (nodeAlive[i] && nodes[i].kind == kind)
            ids.push_back(i);
    }
    return ids;
}

std::vector<EdgeId>
Adg::edgeIds() const
{
    std::vector<EdgeId> ids;
    for (EdgeId i = 0; i < static_cast<EdgeId>(edges.size()); ++i) {
        if (edgeAlive[i])
            ids.push_back(i);
    }
    return ids;
}

int
Adg::countKind(NodeKind kind) const
{
    int count = 0;
    for (NodeId i = 0; i < static_cast<NodeId>(nodes.size()); ++i) {
        if (nodeAlive[i] && nodes[i].kind == kind)
            ++count;
    }
    return count;
}

int
Adg::numNodes() const
{
    return static_cast<int>(
        std::count(nodeAlive.begin(), nodeAlive.end(), true));
}

int
Adg::numEdges() const
{
    return static_cast<int>(
        std::count(edgeAlive.begin(), edgeAlive.end(), true));
}

int
Adg::radix(NodeId id) const
{
    OG_ASSERT(hasNode(id), "radix of dead node ", id);
    return static_cast<int>(outAdj[id].size() + inAdj[id].size());
}

double
Adg::averageSwitchRadix() const
{
    auto switches = nodeIdsOfKind(NodeKind::Switch);
    if (switches.empty())
        return 0.0;
    double sum = 0.0;
    for (NodeId sw : switches)
        sum += radix(sw);
    return sum / static_cast<double>(switches.size());
}

std::string
Adg::validate() const
{
    for (NodeId id : nodeIds()) {
        const Node &n = node(id);
        switch (n.kind) {
          case NodeKind::InPort:
            if (inAdj[id].empty())
                return "in-port " + std::to_string(id) +
                       " is fed by no stream engine";
            if (outAdj[id].empty())
                return "in-port " + std::to_string(id) +
                       " feeds no fabric node";
            break;
          case NodeKind::OutPort:
            if (outAdj[id].empty())
                return "out-port " + std::to_string(id) +
                       " drains to no stream engine";
            if (inAdj[id].empty())
                return "out-port " + std::to_string(id) +
                       " is fed by no fabric node";
            break;
          case NodeKind::Pe:
            if (n.pe().capabilities.empty())
                return "pe " + std::to_string(id) + " has no capability";
            if (inAdj[id].empty() || outAdj[id].empty())
                return "pe " + std::to_string(id) + " is dangling";
            break;
          case NodeKind::Switch:
            if (inAdj[id].empty() && outAdj[id].empty())
                return "switch " + std::to_string(id) + " is dangling";
            break;
          default:
            break;
        }
    }
    return "";
}

namespace {

/** Incremental item hasher: absorb words, then finalize. */
class ItemHash
{
  public:
    explicit ItemHash(uint64_t seed) : h(mix64(seed)) {}

    void
    absorb(uint64_t v)
    {
        h = mix64(h ^ mix64(v));
    }

    void absorbBool(bool v) { absorb(v ? 1 : 2); }

    uint64_t value() const { return mix64(h); }

  private:
    uint64_t h;
};

void
absorbSpec(ItemHash &item, const Node &n)
{
    switch (n.kind) {
      case NodeKind::Pe: {
        const PeSpec &pe = n.pe();
        // std::set iterates in sorted order: deterministic.
        for (const FuCapability &cap : pe.capabilities) {
            item.absorb(static_cast<uint64_t>(cap.op));
            item.absorb(static_cast<uint64_t>(cap.type));
        }
        item.absorb(pe.capabilities.size());
        item.absorb(static_cast<uint64_t>(pe.datapathBytes));
        item.absorb(static_cast<uint64_t>(pe.maxDelayFifoDepth));
        item.absorbBool(pe.controlLut);
        break;
      }
      case NodeKind::Switch:
        item.absorb(static_cast<uint64_t>(n.sw().datapathBytes));
        break;
      case NodeKind::InPort:
      case NodeKind::OutPort: {
        const PortSpec &port = n.port();
        item.absorb(static_cast<uint64_t>(port.widthBytes));
        item.absorbBool(port.padding);
        item.absorbBool(port.statedStream);
        item.absorb(static_cast<uint64_t>(port.fifoDepth));
        break;
      }
      case NodeKind::Dma: {
        const DmaSpec &dma = n.dma();
        item.absorb(static_cast<uint64_t>(dma.bandwidthBytes));
        item.absorbBool(dma.indirect);
        item.absorb(static_cast<uint64_t>(dma.robEntries));
        break;
      }
      case NodeKind::Scratchpad: {
        const ScratchpadSpec &spad = n.spad();
        item.absorb(static_cast<uint64_t>(spad.capacityKiB));
        item.absorb(static_cast<uint64_t>(spad.readBandwidthBytes));
        item.absorb(static_cast<uint64_t>(spad.writeBandwidthBytes));
        item.absorbBool(spad.indirect);
        break;
      }
      case NodeKind::Recurrence:
        item.absorb(static_cast<uint64_t>(n.rec().bandwidthBytes));
        break;
      case NodeKind::Generate:
        item.absorb(static_cast<uint64_t>(n.gen().bandwidthBytes));
        break;
      case NodeKind::Register:
        item.absorb(static_cast<uint64_t>(n.reg().bandwidthBytes));
        break;
    }
}

} // namespace

uint64_t
Adg::fingerprint(uint64_t salt) const
{
    return fingerprintPair(salt, salt).first;
}

std::pair<uint64_t, uint64_t>
Adg::fingerprintPair(uint64_t saltA, uint64_t saltB) const
{
    // Commutative combination (wrapping sum) of strongly mixed
    // per-item hashes: the live set, not the traversal order,
    // determines the value. Each item hash covers the item's stable
    // id, so renumbered-but-isomorphic graphs — which schedule
    // differently — fingerprint differently on purpose.
    //
    // The expensive part — absorbing every spec parameter — is
    // salt-independent; each salt then re-mixes the per-item core
    // through its own tweak word, so both halves of the pair stay
    // full-avalanche functions of (structure, salt) while the graph
    // is walked exactly once.
    uint64_t node_tweak_a = mix64(saltA ^ 0xA0A0A0A0A0A0A0A0ull);
    uint64_t node_tweak_b = mix64(saltB ^ 0xA0A0A0A0A0A0A0A0ull);
    uint64_t edge_tweak_a = mix64(saltA ^ 0x5B5B5B5B5B5B5B5Bull);
    uint64_t edge_tweak_b = mix64(saltB ^ 0x5B5B5B5B5B5B5B5Bull);
    uint64_t fp_a = mix64(saltA ^ 0x4f76657247656e21ull);  // "OverGen!"
    uint64_t fp_b = mix64(saltB ^ 0x4f76657247656e21ull);
    for (NodeId id = 0; id < static_cast<NodeId>(nodes.size()); ++id) {
        if (!nodeAlive[id])
            continue;
        ItemHash item(0xA0A0A0A0A0A0A0A0ull);
        item.absorb(static_cast<uint64_t>(id));
        item.absorb(static_cast<uint64_t>(nodes[id].kind));
        absorbSpec(item, nodes[id]);
        uint64_t core = item.value();
        fp_a += mix64(core ^ node_tweak_a);
        fp_b += mix64(core ^ node_tweak_b);
    }
    for (EdgeId id = 0; id < static_cast<EdgeId>(edges.size()); ++id) {
        if (!edgeAlive[id])
            continue;
        const Edge &e = edges[id];
        ItemHash item(0x5B5B5B5B5B5B5B5Bull);
        item.absorb(static_cast<uint64_t>(id));
        item.absorb(static_cast<uint64_t>(e.src));
        item.absorb(static_cast<uint64_t>(e.dst));
        item.absorb(static_cast<uint64_t>(e.delay));
        uint64_t core = item.value();
        fp_a += mix64(core ^ edge_tweak_a);
        fp_b += mix64(core ^ edge_tweak_b);
    }
    return { mix64(fp_a), mix64(fp_b) };
}

namespace {

Json
specToJson(const Node &n)
{
    Json obj = Json::makeObject();
    switch (n.kind) {
      case NodeKind::Pe: {
        const auto &pe = n.pe();
        Json caps = Json::makeArray();
        for (const auto &cap : pe.capabilities)
            caps.push(fuCapabilityName(cap));
        obj.set("capabilities", std::move(caps));
        obj.set("datapath_bytes", pe.datapathBytes);
        obj.set("max_delay_fifo_depth", pe.maxDelayFifoDepth);
        obj.set("control_lut", pe.controlLut);
        break;
      }
      case NodeKind::Switch:
        obj.set("datapath_bytes", n.sw().datapathBytes);
        break;
      case NodeKind::InPort:
      case NodeKind::OutPort: {
        const auto &port = n.port();
        obj.set("width_bytes", port.widthBytes);
        obj.set("padding", port.padding);
        obj.set("stated_stream", port.statedStream);
        obj.set("fifo_depth", port.fifoDepth);
        break;
      }
      case NodeKind::Dma: {
        const auto &dma = n.dma();
        obj.set("bandwidth_bytes", dma.bandwidthBytes);
        obj.set("indirect", dma.indirect);
        obj.set("rob_entries", dma.robEntries);
        break;
      }
      case NodeKind::Scratchpad: {
        const auto &spad = n.spad();
        obj.set("capacity_kib", spad.capacityKiB);
        obj.set("read_bandwidth_bytes", spad.readBandwidthBytes);
        obj.set("write_bandwidth_bytes", spad.writeBandwidthBytes);
        obj.set("indirect", spad.indirect);
        break;
      }
      case NodeKind::Recurrence:
        obj.set("bandwidth_bytes", n.rec().bandwidthBytes);
        break;
      case NodeKind::Generate:
        obj.set("bandwidth_bytes", n.gen().bandwidthBytes);
        break;
      case NodeKind::Register:
        obj.set("bandwidth_bytes", n.reg().bandwidthBytes);
        break;
    }
    return obj;
}

/** An int-valued field (a range check precedes the cast). */
bool
getInt(const Json &obj, const char *key, int &out, std::string *error)
{
    int64_t value = 0;
    if (!getInteger(obj, key, std::numeric_limits<int>::min(),
                    std::numeric_limits<int>::max(), value, error))
        return false;
    out = static_cast<int>(value);
    return true;
}

bool
capabilitiesFromJson(const Json &obj, std::set<FuCapability> &out,
                     std::string *error)
{
    const Json::Array *caps = nullptr;
    if (!getArray(obj, "capabilities", caps, error))
        return false;
    for (const Json &cap : *caps) {
        std::optional<Opcode> op;
        std::optional<DataType> type;
        if (cap.isString()) {
            const std::string &name = cap.asString();
            size_t dot = name.find('.');
            if (dot != std::string::npos) {
                op = tryOpcodeFromName(name.substr(0, dot));
                type = tryDataTypeFromName(name.substr(dot + 1));
            }
        }
        if (!op || !type) {
            if (error != nullptr)
                *error = "bad PE capability " + cap.dump();
            return false;
        }
        out.insert(FuCapability{ *op, *type });
    }
    return true;
}

/** Decode a node spec of @p kind; false with a named error. */
bool
specFromJson(NodeKind kind, const Json &obj, NodeSpec &out,
             std::string *error)
{
    switch (kind) {
      case NodeKind::Pe: {
        PeSpec pe;
        if (!capabilitiesFromJson(obj, pe.capabilities, error) ||
            !getInt(obj, "datapath_bytes", pe.datapathBytes, error) ||
            !getInt(obj, "max_delay_fifo_depth", pe.maxDelayFifoDepth,
                    error) ||
            !getBool(obj, "control_lut", pe.controlLut, error))
            return false;
        out = std::move(pe);
        return true;
      }
      case NodeKind::Switch: {
        SwitchSpec sw;
        if (!getInt(obj, "datapath_bytes", sw.datapathBytes, error))
            return false;
        out = sw;
        return true;
      }
      case NodeKind::InPort:
      case NodeKind::OutPort: {
        PortSpec port;
        if (!getInt(obj, "width_bytes", port.widthBytes, error) ||
            !getBool(obj, "padding", port.padding, error) ||
            !getBool(obj, "stated_stream", port.statedStream, error) ||
            !getInt(obj, "fifo_depth", port.fifoDepth, error))
            return false;
        out = port;
        return true;
      }
      case NodeKind::Dma: {
        DmaSpec dma;
        if (!getInt(obj, "bandwidth_bytes", dma.bandwidthBytes, error) ||
            !getBool(obj, "indirect", dma.indirect, error) ||
            !getInt(obj, "rob_entries", dma.robEntries, error))
            return false;
        out = dma;
        return true;
      }
      case NodeKind::Scratchpad: {
        ScratchpadSpec spad;
        if (!getInt(obj, "capacity_kib", spad.capacityKiB, error) ||
            !getInt(obj, "read_bandwidth_bytes", spad.readBandwidthBytes,
                    error) ||
            !getInt(obj, "write_bandwidth_bytes",
                    spad.writeBandwidthBytes, error) ||
            !getBool(obj, "indirect", spad.indirect, error))
            return false;
        out = spad;
        return true;
      }
      case NodeKind::Recurrence: {
        RecurrenceSpec rec;
        if (!getInt(obj, "bandwidth_bytes", rec.bandwidthBytes, error))
            return false;
        out = rec;
        return true;
      }
      case NodeKind::Generate: {
        GenerateSpec gen;
        if (!getInt(obj, "bandwidth_bytes", gen.bandwidthBytes, error))
            return false;
        out = gen;
        return true;
      }
      case NodeKind::Register: {
        RegisterSpec reg;
        if (!getInt(obj, "bandwidth_bytes", reg.bandwidthBytes, error))
            return false;
        out = reg;
        return true;
      }
    }
    OG_PANIC("unknown node kind");
}

/** Report a decode failure through @p error (when non-null). */
void
setError(std::string *error, std::string what)
{
    if (error != nullptr)
        *error = std::move(what);
}

} // namespace

Json
Adg::toJson() const
{
    Json obj = Json::makeObject();
    Json node_arr = Json::makeArray();
    for (NodeId id : nodeIds()) {
        const Node &n = node(id);
        Json jn = Json::makeObject();
        jn.set("id", static_cast<int64_t>(id));
        jn.set("kind", nodeKindName(n.kind));
        jn.set("spec", specToJson(n));
        node_arr.push(std::move(jn));
    }
    obj.set("nodes", std::move(node_arr));
    Json edge_arr = Json::makeArray();
    for (EdgeId id : edgeIds()) {
        const Edge &e = edge(id);
        Json je = Json::makeObject();
        je.set("src", static_cast<int64_t>(e.src));
        je.set("dst", static_cast<int64_t>(e.dst));
        je.set("delay", static_cast<int64_t>(e.delay));
        edge_arr.push(std::move(je));
    }
    obj.set("edges", std::move(edge_arr));
    return obj;
}

std::optional<Adg>
Adg::tryFromJson(const Json &json, std::string *error)
{
    Adg adg;
    const Json::Array *nodeArray = nullptr;
    const Json::Array *edgeArray = nullptr;
    if (!getArray(json, "nodes", nodeArray, error) ||
        !getArray(json, "edges", edgeArray, error))
        return std::nullopt;
    // Ids in the file may be sparse (post-mutation dumps); remap densely.
    std::map<int64_t, NodeId> remap;
    for (const Json &jn : *nodeArray) {
        std::string kindName;
        int64_t fileId = 0;
        if (!getString(jn, "kind", kindName, error) ||
            !getInteger(jn, "id", 0, std::numeric_limits<int>::max(),
                        fileId, error))
            return std::nullopt;
        std::optional<NodeKind> kind = tryNodeKindFromName(kindName);
        if (!kind) {
            setError(error, "unknown node kind '" + kindName + "'");
            return std::nullopt;
        }
        if (!jn.contains("spec") || !jn.at("spec").isObject()) {
            setError(error, "missing/ill-typed object field 'spec'");
            return std::nullopt;
        }
        NodeSpec spec;
        if (!specFromJson(*kind, jn.at("spec"), spec, error))
            return std::nullopt;
        if (!remap.emplace(fileId, adg.addNode(*kind, std::move(spec)))
                 .second) {
            setError(error,
                        "duplicate node id " + std::to_string(fileId));
            return std::nullopt;
        }
    }
    for (const Json &je : *edgeArray) {
        int64_t src = 0;
        int64_t dst = 0;
        int delay = 0;
        if (!getInteger(je, "src", 0, std::numeric_limits<int>::max(),
                        src, error) ||
            !getInteger(je, "dst", 0, std::numeric_limits<int>::max(),
                        dst, error) ||
            !getInt(je, "delay", delay, error))
            return std::nullopt;
        auto from = remap.find(src);
        auto to = remap.find(dst);
        if (from == remap.end() || to == remap.end() || src == dst ||
            delay < 0 ||
            !edgeLegal(adg.node(from->second).kind,
                       adg.node(to->second).kind)) {
            setError(error, "bad edge " + je.dump());
            return std::nullopt;
        }
        adg.addEdge(from->second, to->second, delay);
    }
    return adg;
}

Adg
Adg::fromJson(const Json &json)
{
    std::string error;
    std::optional<Adg> adg = tryFromJson(json, &error);
    OG_ASSERT(adg.has_value(), "malformed ADG JSON: ", error);
    return std::move(*adg);
}

Json
SystemParams::toJson() const
{
    Json obj = Json::makeObject();
    obj.set("num_tiles", numTiles);
    obj.set("l2_banks", l2Banks);
    obj.set("l2_capacity_kib", l2CapacityKiB);
    obj.set("noc_bytes", nocBytes);
    obj.set("dram_channels", dramChannels);
    return obj;
}

std::optional<SystemParams>
SystemParams::tryFromJson(const Json &json, std::string *error)
{
    SystemParams sys;
    if (!getInt(json, "num_tiles", sys.numTiles, error) ||
        !getInt(json, "l2_banks", sys.l2Banks, error) ||
        !getInt(json, "l2_capacity_kib", sys.l2CapacityKiB, error) ||
        !getInt(json, "noc_bytes", sys.nocBytes, error) ||
        !getInt(json, "dram_channels", sys.dramChannels, error))
        return std::nullopt;
    return sys;
}

SystemParams
SystemParams::fromJson(const Json &json)
{
    std::string error;
    std::optional<SystemParams> sys = tryFromJson(json, &error);
    OG_ASSERT(sys.has_value(), "malformed system JSON: ", error);
    return *sys;
}

Json
SysAdg::toJson() const
{
    Json obj = Json::makeObject();
    obj.set("adg", adg.toJson());
    obj.set("system", sys.toJson());
    return obj;
}

std::optional<SysAdg>
SysAdg::tryFromJson(const Json &json, std::string *error)
{
    if (!json.contains("adg") || !json.contains("system")) {
        setError(error, "design lacks an 'adg' or 'system' field");
        return std::nullopt;
    }
    std::optional<Adg> adg = Adg::tryFromJson(json.at("adg"), error);
    if (!adg)
        return std::nullopt;
    std::optional<SystemParams> sys =
        SystemParams::tryFromJson(json.at("system"), error);
    if (!sys)
        return std::nullopt;
    return SysAdg{ std::move(*adg), *sys };
}

SysAdg
SysAdg::fromJson(const Json &json)
{
    std::string error;
    std::optional<SysAdg> design = tryFromJson(json, &error);
    OG_ASSERT(design.has_value(), "malformed design JSON: ", error);
    return std::move(*design);
}

} // namespace overgen::adg
