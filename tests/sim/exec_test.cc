#include <gtest/gtest.h>

#include "compiler/compile.h"
#include "common/rng.h"
#include "sim/exec.h"
#include "workloads/suites.h"

namespace overgen::sim {
namespace {

TEST(AddressMapTest, DistinctLineAlignedBases)
{
    wl::KernelSpec k = wl::makeFir(64, 8);
    AddressMap map = AddressMap::build(k);
    int a = k.arrayIndex("a");
    int b = k.arrayIndex("b");
    int c = k.arrayIndex("c");
    EXPECT_EQ(map.base(a) % 64, 0u);
    EXPECT_NE(map.base(a), map.base(b));
    EXPECT_NE(map.base(b), map.base(c));
    EXPECT_GT(map.totalBytes(), 0u);
}

TEST(AddressMapTest, ElementAddressing)
{
    wl::KernelSpec k = wl::makeFir(64, 8);
    AddressMap map = AddressMap::build(k);
    // f64 elements: 8 bytes apart.
    int a = k.arrayIndex("a");
    EXPECT_EQ(map.elementAddress(a, 1) - map.elementAddress(a, 0), 8u);
}

TEST(AddressMapTest, GuardPaddingSeparatesArrays)
{
    wl::KernelSpec k = wl::makeFir(64, 8);
    AddressMap map = AddressMap::build(k);
    uint64_t a_end = map.elementAddress(
        k.arrayIndex("a"), k.arrayByName("a").elements - 1);
    EXPECT_LT(a_end, map.base(k.arrayIndex("b")));
}

TEST(IterationWalkerTest, CoversRectangularNest)
{
    wl::KernelSpec k = wl::makeMm(8);
    IterationWalker walker(k, 4, 0, 8);
    int64_t iterations = 0;
    int64_t firings = 0;
    while (!walker.done()) {
        iterations += walker.count();
        ++firings;
        walker.advance();
    }
    EXPECT_EQ(iterations, 8 * 8 * 8);
    EXPECT_EQ(firings, 8 * 8 * 2);  // inner 8 in chunks of 4
}

TEST(IterationWalkerTest, TriangularNestMatchesClosedForm)
{
    wl::KernelSpec k = wl::makeCholesky(12);
    IterationWalker walker(k, 4, 0, 12);
    int64_t iterations = 0;
    while (!walker.done()) {
        iterations += walker.count();
        walker.advance();
    }
    int64_t expected = 0;
    for (int m = 1; m <= 12; ++m)
        expected += static_cast<int64_t>(m) * m;
    EXPECT_EQ(iterations, expected);
}

TEST(IterationWalkerTest, OrderMatchesNestedLoops)
{
    wl::KernelSpec k = wl::makeCholesky(6);
    std::vector<std::vector<int64_t>> reference;
    for (int64_t kk = 0; kk < 6; ++kk)
        for (int64_t i = 0; i < 6 - kk; ++i)
            for (int64_t j = 0; j < 6 - kk; ++j)
                reference.push_back({ kk, i, j });
    std::vector<std::vector<int64_t>> walked;
    IterationWalker walker(k, 2, 0, 6);
    while (!walker.done()) {
        auto ivs = walker.indices();
        for (int l = 0; l < walker.count(); ++l) {
            walked.push_back({ ivs[0], ivs[1], ivs[2] + l });
        }
        walker.advance();
    }
    EXPECT_EQ(walked, reference);
}

TEST(IterationWalkerTest, PartitionSplitsOuterLoop)
{
    wl::KernelSpec k = wl::makeMm(8);
    int64_t total = 0;
    for (int t = 0; t < 3; ++t) {
        int64_t lo = 8 * t / 3, hi = 8 * (t + 1) / 3;
        IterationWalker walker(k, 2, lo, hi);
        while (!walker.done()) {
            EXPECT_GE(walker.indices()[0], lo);
            EXPECT_LT(walker.indices()[0], hi);
            total += walker.count();
            walker.advance();
        }
    }
    EXPECT_EQ(total, 8 * 8 * 8);
}

TEST(IterationWalkerTest, SingleLoopPartitionRespectsBounds)
{
    wl::KernelSpec k = wl::makeBgr2Grey(8);  // one flat pixel loop
    int64_t pixels = k.loops[0].tripBase;
    int64_t total = 0;
    for (int t = 0; t < 4; ++t) {
        int64_t lo = pixels * t / 4, hi = pixels * (t + 1) / 4;
        IterationWalker walker(k, 8, lo, hi);
        while (!walker.done()) {
            total += walker.count();
            walker.advance();
        }
    }
    EXPECT_EQ(total, pixels);
}

TEST(IterationWalkerTest, EmptyPartitionIsDone)
{
    wl::KernelSpec k = wl::makeMm(8);
    IterationWalker walker(k, 2, 4, 4);
    EXPECT_TRUE(walker.done());
}

TEST(IterationWalkerTest, InnerStartFlag)
{
    wl::KernelSpec k = wl::makeMm(8);
    IterationWalker walker(k, 4, 0, 8);
    // First firing of each inner pass starts at index 0.
    EXPECT_TRUE(walker.innerStart());
    walker.advance();
    EXPECT_FALSE(walker.innerStart());
    walker.advance();
    EXPECT_TRUE(walker.innerStart());
}

TEST(ClassifyStreamTest, Kinds)
{
    dfg::Mdfg fir =
        compiler::compileOne(wl::makeFir(128, 128), 2, true, false);
    int stationary = 0, rec_in = 0, rec_out = 0, vector_count = 0;
    for (auto id : fir.nodeIdsOfKind(dfg::NodeKind::InputStream)) {
        switch (classifyStream(fir, id)) {
          case StreamKind::Stationary:
            ++stationary;
            break;
          case StreamKind::RecurrenceIn:
            ++rec_in;
            break;
          case StreamKind::Vector:
            ++vector_count;
            break;
          default:
            break;
        }
    }
    for (auto id : fir.nodeIdsOfKind(dfg::NodeKind::OutputStream)) {
        if (classifyStream(fir, id) == StreamKind::RecurrenceOut)
            ++rec_out;
    }
    EXPECT_EQ(stationary, 1);  // b[j]
    EXPECT_EQ(rec_in, 1);      // c recurrence read
    EXPECT_EQ(rec_out, 1);     // c recurrence write
    EXPECT_EQ(vector_count, 1);  // a
}

TEST(ClassifyStreamTest, ConstantTaps)
{
    dfg::Mdfg m =
        compiler::compileOne(wl::makeStencil2d(8, 1), 1, false, false);
    int taps = 0;
    for (auto id : m.nodeIdsOfKind(dfg::NodeKind::InputStream)) {
        if (classifyStream(m, id) == StreamKind::ConstantTaps)
            ++taps;
    }
    EXPECT_EQ(taps, 1);
}

TEST(ClassifyStreamTest, WriteOnceForReductionStores)
{
    dfg::Mdfg m =
        compiler::compileOne(wl::makeSolver(8), 1, false, false);
    int write_once = 0;
    for (auto id : m.nodeIdsOfKind(dfg::NodeKind::OutputStream)) {
        if (classifyStream(m, id) == StreamKind::WriteOnce)
            ++write_once;
    }
    EXPECT_GE(write_once, 1);  // x[i] and d-like stores
}

TEST(ElemsForFiringTest, VectorMatchesChunk)
{
    wl::KernelSpec k = wl::makeAccumulate(8);
    dfg::Mdfg m = compiler::compileOne(k, 4, false, false);
    IterationWalker walker(k, 4, 0, 4);
    for (auto id : m.nodeIdsOfKind(dfg::NodeKind::InputStream)) {
        EXPECT_EQ(elemsForFiring(StreamKind::Vector,
                                 firingMembers(m, id), walker),
                  4);
    }
}

TEST(ElemsForFiringTest, StationaryOnlyAtInnerStart)
{
    wl::KernelSpec k = wl::makeMm(8);
    dfg::Mdfg m = compiler::compileOne(k, 4, false, false);
    dfg::NodeId stat = dfg::invalidNode;
    for (auto id : m.nodeIdsOfKind(dfg::NodeKind::InputStream)) {
        if (classifyStream(m, id) == StreamKind::Stationary)
            stat = id;
    }
    ASSERT_NE(stat, dfg::invalidNode);
    IterationWalker walker(k, 4, 0, 8);
    int members = firingMembers(m, stat);
    EXPECT_EQ(elemsForFiring(StreamKind::Stationary, members, walker),
              1);
    walker.advance();
    EXPECT_EQ(elemsForFiring(StreamKind::Stationary, members, walker),
              0);
}

// appendLineRun against the per-element walk it replaces in gatherLine:
// resolveIndex + elementAddress per element, stopping at the first
// element off the line of the first one gathered.
TEST(LineRunTest, MatchesPerElementWalk)
{
    static const DataType types[] = { DataType::I8, DataType::I16,
                                      DataType::I32, DataType::F64 };
    Rng rng(7);
    int wrapped_runs = 0;
    for (int trial = 0; trial < 20000; ++trial) {
        wl::KernelSpec k;
        k.name = "run";
        k.loops = { { "o", 4, {}, false }, { "i", 64, {}, false } };
        wl::ArraySpec pad{ "pad", DataType::I8, rng.nextRange(0, 200),
                           false, "" };
        wl::ArraySpec array{ "x", types[rng.nextBelow(4)],
                             rng.nextRange(1, 300), false, "" };
        k.arrays = { pad, array };
        int64_t stride = 0;
        switch (rng.nextBelow(4)) {
          case 0: stride = 0; break;
          case 1: stride = rng.nextRange(-4, 4); break;
          case 2: stride = rng.nextRange(-70, 70); break;
          default: stride = rng.nextRange(-5000, 5000); break;
        }
        wl::AccessSpec access;
        access.array = "x";
        access.coeffs = { rng.nextRange(-50, 50), stride };
        // Offsets that start before, inside, and past the array.
        access.offset = rng.nextRange(-2 * array.elements,
                                      2 * array.elements);
        k.accesses = { access };
        static const int lines[] = { 32, 64, 128 };
        int line = lines[rng.nextBelow(3)];
        AddressMap map = AddressMap::build(k, line);
        wl::Memory mem;
        mem.init(k);
        wl::BoundAccess bound = wl::bindAccesses(k)[0];

        std::vector<int64_t> ivs{ rng.nextRange(0, 3), rng.nextRange(0, 40) };
        int64_t flat0 = rng.nextRange(0, 20);  // resume mid-firing
        int64_t limit = rng.nextRange(1, 48);  // max_elems or firing end
        // Half the runs continue a line another firing opened.
        std::vector<uint64_t> prefix;
        if (rng.nextBool()) {
            int64_t idx = rng.nextRange(0, array.elements - 1);
            prefix.push_back(map.elementAddress(1, idx));
        }

        std::vector<uint64_t> want = prefix;
        for (int64_t e = 0; e < limit; ++e) {
            std::vector<int64_t> at = ivs;
            at[1] += flat0 + e;
            int64_t idx = wl::resolveIndex(bound, at.data(), at.size(), mem);
            uint64_t addr = map.elementAddress(1, idx);
            if (!want.empty() && addr / line != want.front() / line)
                break;
            want.push_back(addr);
        }

        AffineRun run{ wl::affineIndex(access, ivs.data(), ivs.size()) +
                           stride * flat0,
                       stride, array.elements, map.base(1),
                       map.elementBytes(1) };
        std::vector<uint64_t> got = prefix;
        int64_t n = appendLineRun(run, limit, line, got);
        ASSERT_EQ(got, want) << "trial " << trial << " stride " << stride
                             << " line " << line << " limit " << limit;
        ASSERT_EQ(n, static_cast<int64_t>(want.size() - prefix.size()));
        int64_t last = run.start + stride * (n > 0 ? n - 1 : 0);
        wrapped_runs += last < 0 || last >= array.elements;
    }
    // The draw must exercise the modulo wrap, not just in-range runs.
    EXPECT_GT(wrapped_runs, 1000);
}

} // namespace
} // namespace overgen::sim
