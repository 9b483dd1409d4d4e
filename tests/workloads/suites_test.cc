#include <gtest/gtest.h>

#include <bit>
#include <set>

#include "workloads/interpreter.h"
#include "workloads/suites.h"

namespace overgen::wl {
namespace {

TEST(Suites, NineteenWorkloads)
{
    auto all = allWorkloads();
    EXPECT_EQ(all.size(), 19u);
    std::set<std::string> names;
    for (const auto &k : all)
        names.insert(k.name);
    EXPECT_EQ(names.size(), 19u) << "duplicate workload names";
}

TEST(Suites, SuiteSizesMatchPaper)
{
    EXPECT_EQ(dspSuite().size(), 5u);
    EXPECT_EQ(machSuite().size(), 5u);
    EXPECT_EQ(visionSuite().size(), 9u);
}

TEST(Suites, SuiteMembershipConsistent)
{
    for (const auto &k : dspSuite())
        EXPECT_EQ(k.suite, Suite::Dsp);
    for (const auto &k : machSuite())
        EXPECT_EQ(k.suite, Suite::MachSuite);
    for (const auto &k : visionSuite())
        EXPECT_EQ(k.suite, Suite::Vision);
}

TEST(Suites, TableIIDataTypes)
{
    // Paper Table II column "Type".
    EXPECT_EQ(workloadByName("cholesky").dominantType(), DataType::F64);
    EXPECT_EQ(workloadByName("fft").dominantType(), DataType::F32);
    EXPECT_EQ(workloadByName("fir").dominantType(), DataType::F64);
    EXPECT_EQ(workloadByName("mm").dominantType(), DataType::F64);
    EXPECT_EQ(workloadByName("stencil-3d").dominantType(),
              DataType::I64);
    EXPECT_EQ(workloadByName("gemm").dominantType(), DataType::I64);
    EXPECT_EQ(workloadByName("ellpack").dominantType(), DataType::F64);
    for (const auto &k : visionSuite())
        EXPECT_EQ(k.dominantType(), DataType::I16) << k.name;
}

TEST(Suites, TableIISizes)
{
    // Spot-check data sizes against Table II.
    EXPECT_EQ(workloadByName("mm").arrayByName("a").elements, 32 * 32);
    EXPECT_EQ(workloadByName("gemm").arrayByName("a").elements, 64 * 64);
    EXPECT_EQ(workloadByName("fft").arrayByName("re").elements, 4096);
    EXPECT_EQ(workloadByName("crs").arrayByName("val").elements,
              494 * 4);
    EXPECT_EQ(workloadByName("cholesky").arrayByName("A").elements,
              48 * 48);
}

TEST(Suites, TableIVVariableTripWorkloads)
{
    // Table IV: cholesky, crs, fft have variable-trip-count patterns.
    EXPECT_TRUE(workloadByName("cholesky").patterns.variableTripCount);
    EXPECT_TRUE(workloadByName("crs").patterns.variableTripCount);
    EXPECT_TRUE(workloadByName("fft").patterns.variableTripCount);
    EXPECT_FALSE(workloadByName("mm").patterns.variableTripCount);
}

TEST(Suites, TableIVStridedWorkloads)
{
    // Table IV: bgr2grey, blur, channel-ext, stencil-3d have the
    // inefficient-strided-access pattern.
    EXPECT_TRUE(workloadByName("bgr2grey").patterns.smallStrideAccess);
    EXPECT_TRUE(workloadByName("blur").patterns.smallStrideAccess);
    EXPECT_TRUE(
        workloadByName("channel-ext").patterns.smallStrideAccess);
    EXPECT_TRUE(
        workloadByName("stencil-3d").patterns.smallStrideAccess);
    EXPECT_FALSE(workloadByName("accumulate").patterns.smallStrideAccess);
}

TEST(Suites, GemmInPrebuiltDatabase)
{
    EXPECT_TRUE(workloadByName("gemm").patterns.inPrebuiltDatabase);
}

TEST(Suites, OverGenTuningHooks)
{
    // Paper Q2: fft peeled, gemm 2D-unrolled, stencil-2d and blur
    // unrolled for overlap reuse.
    EXPECT_TRUE(workloadByName("fft").tuning.peelTail);
    EXPECT_TRUE(workloadByName("gemm").tuning.unroll2d);
    EXPECT_TRUE(workloadByName("stencil-2d").tuning.unrollForOverlap);
    EXPECT_TRUE(workloadByName("blur").tuning.unrollForOverlap);
}

TEST(Suites, HlsTunedVariantClearsPatterns)
{
    KernelSpec tuned = hlsTunedVariant(workloadByName("cholesky"));
    EXPECT_FALSE(tuned.patterns.variableTripCount);
    for (const auto &loop : tuned.loops)
        EXPECT_FALSE(loop.variable);
    KernelSpec tuned2 = hlsTunedVariant(workloadByName("bgr2grey"));
    EXPECT_FALSE(tuned2.patterns.smallStrideAccess);
}

TEST(Suites, AccessesReferenceDeclaredArrays)
{
    for (const auto &k : allWorkloads()) {
        for (const auto &acc : k.accesses) {
            EXPECT_NO_FATAL_FAILURE(k.arrayByName(acc.array)) << k.name;
            if (acc.indirect()) {
                EXPECT_NO_FATAL_FAILURE(k.arrayByName(acc.indexArray));
            }
        }
    }
}

TEST(Suites, OpsReferenceValidAccessesAndOps)
{
    for (const auto &k : allWorkloads()) {
        for (size_t i = 0; i < k.ops.size(); ++i) {
            const OpSpec &op = k.ops[i];
            for (const Operand *operand : { &op.lhs, &op.rhs }) {
                if (operand->kind == Operand::Kind::Access) {
                    ASSERT_LT(operand->index,
                              static_cast<int>(k.accesses.size()))
                        << k.name;
                    EXPECT_FALSE(k.accesses[operand->index].isWrite)
                        << k.name << " op reads a write access";
                } else if (operand->kind == Operand::Kind::Op) {
                    EXPECT_LT(operand->index, static_cast<int>(i))
                        << k.name << " forward op reference";
                }
            }
            if (op.writeAccess >= 0) {
                ASSERT_LT(op.writeAccess,
                          static_cast<int>(k.accesses.size()));
                EXPECT_TRUE(k.accesses[op.writeAccess].isWrite)
                    << k.name;
            }
        }
    }
}

TEST(Suites, EveryKernelHasAWrite)
{
    for (const auto &k : allWorkloads()) {
        bool has_write = false;
        for (const auto &op : k.ops)
            has_write |= op.writeAccess >= 0;
        EXPECT_TRUE(has_write) << k.name;
    }
}

TEST(Suites, CoefficientVectorsFitLoopNest)
{
    for (const auto &k : allWorkloads()) {
        for (const auto &acc : k.accesses) {
            EXPECT_LE(acc.coeffs.size(), k.loops.size()) << k.name;
        }
    }
}

TEST(Suites, MaxUnrollIsPowerOfTwo)
{
    for (const auto &k : allWorkloads()) {
        EXPECT_GE(k.maxUnroll, 1) << k.name;
        EXPECT_EQ(k.maxUnroll & (k.maxUnroll - 1), 0)
            << k.name << ": maxUnroll " << k.maxUnroll;
    }
}

/** Interpret @p spec on its seeded inputs; @return every array's
 * final values as bit patterns, in declaration order. */
std::vector<std::vector<uint64_t>>
outputBits(const KernelSpec &spec)
{
    Memory mem;
    mem.init(spec);
    interpret(spec, mem);
    std::vector<std::vector<uint64_t>> bits;
    for (const ArraySpec &a : spec.arrays) {
        bits.emplace_back();
        for (double v : mem.array(a.name))
            bits.back().push_back(std::bit_cast<uint64_t>(v));
    }
    return bits;
}

TEST(Suites, ByNameEqualsCatalogueEntry)
{
    // A by-name lookup builds one kernel; it must be exactly the
    // kernel the full listing builds under that name.
    for (const KernelSpec &listed : allWorkloads()) {
        KernelSpec named = workloadByName(listed.name);
        EXPECT_EQ(named.name, listed.name);
        EXPECT_EQ(named.suite, listed.suite) << listed.name;
        EXPECT_EQ(named.loops.size(), listed.loops.size())
            << listed.name;
        EXPECT_EQ(named.arrays.size(), listed.arrays.size())
            << listed.name;
        EXPECT_EQ(named.accesses.size(), listed.accesses.size())
            << listed.name;
        EXPECT_EQ(named.ops.size(), listed.ops.size()) << listed.name;
        EXPECT_EQ(outputBits(named), outputBits(listed)) << listed.name;

        KernelSpec small = smallWorkloadByName(listed.name);
        EXPECT_EQ(small.name, listed.name);
        EXPECT_EQ(small.suite, listed.suite) << listed.name;
    }
}

TEST(SuitesDeathTest, UnknownWorkloadFatal)
{
    EXPECT_DEATH(workloadByName("nonesuch"), "unknown workload");
}

TEST(SuitesDeathTest, UnknownSmallWorkloadFatal)
{
    EXPECT_DEATH(smallWorkloadByName("nonesuch"), "unknown workload");
}

} // namespace
} // namespace overgen::wl
