#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "adg/adg.h"
#include "adg/builders.h"

namespace overgen::adg {
namespace {

/**
 * Adg::fingerprint keys the overlay library (see DESIGN.md "Model
 * split"): equal live structure must hash equal regardless of
 * mutation history, any single perturbation must change the value,
 * and the two salts of a key must be independent.
 */

PeSpec
fingerprintPe()
{
    PeSpec pe;
    pe.capabilities = { { Opcode::Add, DataType::I64 },
                        { Opcode::Mul, DataType::I64 } };
    return pe;
}

/** A small valid tile exercising every fingerprinted node kind. */
Adg
probeTile()
{
    Adg adg;
    NodeId dma = adg.addDma();
    NodeId spad = adg.addScratchpad();
    NodeId in = adg.addInPort();
    NodeId sw = adg.addSwitch();
    NodeId pe = adg.addPe(fingerprintPe());
    NodeId out = adg.addOutPort();
    adg.addEdge(dma, in);
    adg.addEdge(spad, in);
    adg.addEdge(in, sw);
    adg.addEdge(sw, pe);
    adg.addEdge(pe, out);
    adg.addEdge(out, dma);
    return adg;
}

TEST(Fingerprint, EqualStructureHashesEqual)
{
    // Two independently built but structurally identical graphs.
    EXPECT_EQ(probeTile().fingerprint(), probeTile().fingerprint());
    EXPECT_EQ(probeTile().fingerprint(77), probeTile().fingerprint(77));
}

TEST(Fingerprint, MutationHistoryIsIrrelevant)
{
    // Add-then-remove restores the live set exactly (the removed ids
    // become tombstones, and the surviving ids are untouched), so the
    // fingerprint must come back to the original value even though
    // version() shows the detour.
    Adg adg = probeTile();
    uint64_t before = adg.fingerprint();
    uint64_t version_before = adg.version();
    NodeId sw = adg.addSwitch();
    adg.removeNode(sw);
    EXPECT_EQ(adg.fingerprint(), before);
    EXPECT_GT(adg.version(), version_before);
}

TEST(Fingerprint, NodeEdgeAndParameterPerturbationsChangeTheValue)
{
    Adg base = probeTile();
    uint64_t fp = base.fingerprint();
    std::set<uint64_t> seen = { fp };

    // Extra node.
    {
        Adg adg = probeTile();
        adg.addSwitch();
        EXPECT_TRUE(seen.insert(adg.fingerprint()).second)
            << "extra node collided";
    }
    // Extra edge.
    {
        Adg adg = probeTile();
        std::vector<NodeId> sws = adg.nodeIdsOfKind(NodeKind::Switch);
        std::vector<NodeId> pes = adg.nodeIdsOfKind(NodeKind::Pe);
        adg.addEdge(pes[0], sws[0]);
        EXPECT_TRUE(seen.insert(adg.fingerprint()).second)
            << "extra edge collided";
    }
    // Edge delay.
    {
        Adg adg = probeTile();
        adg.edge(adg.edgeIds()[2]).delay += 1;
        EXPECT_TRUE(seen.insert(adg.fingerprint()).second)
            << "edge delay collided";
    }
    // Spec parameter: PE datapath width.
    {
        Adg adg = probeTile();
        NodeId pe = adg.nodeIdsOfKind(NodeKind::Pe)[0];
        adg.node(pe).pe().datapathBytes *= 2;
        EXPECT_TRUE(seen.insert(adg.fingerprint()).second)
            << "datapath width collided";
    }
    // Spec parameter: capability set.
    {
        Adg adg = probeTile();
        NodeId pe = adg.nodeIdsOfKind(NodeKind::Pe)[0];
        adg.node(pe).pe().capabilities.erase(
            { Opcode::Mul, DataType::I64 });
        EXPECT_TRUE(seen.insert(adg.fingerprint()).second)
            << "capability removal collided";
    }
    // Spec parameter: scratchpad capacity.
    {
        Adg adg = probeTile();
        NodeId spad = adg.nodeIdsOfKind(NodeKind::Scratchpad)[0];
        adg.node(spad).spad().capacityKiB *= 2;
        EXPECT_TRUE(seen.insert(adg.fingerprint()).second)
            << "spad capacity collided";
    }
}

TEST(Fingerprint, IdNumberingIsCovered)
{
    // Isomorphic graphs with different id numbering schedule
    // differently (schedules reference ids), so they must fingerprint
    // differently: a switch at id 0 vs a switch at id 1.
    Adg a;
    a.addSwitch();
    Adg b;
    NodeId first = b.addSwitch();
    b.addSwitch();
    b.removeNode(first);
    EXPECT_EQ(a.numNodes(), b.numNodes());
    EXPECT_NE(a.fingerprint(), b.fingerprint());
}

TEST(Fingerprint, SaltChangesTheValue)
{
    Adg adg = probeTile();
    EXPECT_NE(adg.fingerprint(0), adg.fingerprint(1));
    EXPECT_NE(adg.fingerprint(0),
              adg.fingerprint(0x517cc1b727220a95ull));
}

TEST(Fingerprint, PairMatchesSingleSaltEvaluations)
{
    // fingerprintPair is the one-traversal form the double-salted
    // keys use; each half must equal the standalone fingerprint at
    // that salt.
    Adg adg = probeTile();
    auto [a, b] = adg.fingerprintPair(0, 0x517cc1b727220a95ull);
    EXPECT_EQ(a, adg.fingerprint(0));
    EXPECT_EQ(b, adg.fingerprint(0x517cc1b727220a95ull));
    auto [c, d] = adg.fingerprintPair(42, 42);
    EXPECT_EQ(c, d);
    EXPECT_EQ(c, adg.fingerprint(42));
}

TEST(Fingerprint, CollisionSanityAcrossMutationNeighborhood)
{
    // Walk a neighborhood of single-parameter variants of a realistic
    // mesh tile and require all fingerprints distinct — the cache
    // treats equal fingerprints as equal designs.
    std::set<uint64_t> seen;
    int total = 0;
    for (int width : { 8, 16, 32 }) {
        for (int spad : { 16, 32, 64 }) {
            for (int pes : { 4, 6, 8 }) {
                MeshConfig config;
                config.peCapabilities = fingerprintPe().capabilities;
                config.datapathBytes = width;
                config.spadCapacityKiB = spad;
                config.numPes = pes;
                Adg adg = buildMeshTile(config);
                seen.insert(adg.fingerprint());
                ++total;
            }
        }
    }
    EXPECT_EQ(static_cast<int>(seen.size()), total);
}

} // namespace
} // namespace overgen::adg
