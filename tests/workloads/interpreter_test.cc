#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>

#include "workloads/interpreter.h"
#include "workloads/program.h"
#include "workloads/suites.h"

namespace overgen::wl {
namespace {

TEST(Interpreter, MemoryInitDeterministic)
{
    KernelSpec k = makeFir(64, 7);
    Memory m1, m2;
    m1.init(k, 42);
    m2.init(k, 42);
    EXPECT_EQ(m1.array("a"), m2.array("a"));
    Memory m3;
    m3.init(k, 43);
    EXPECT_NE(m1.array("a"), m3.array("a"));
}

TEST(Interpreter, IndexArrayValuesInRange)
{
    KernelSpec k = makeEllpack(16, 4);
    Memory mem;
    mem.init(k);
    int64_t target = k.arrayByName("x").elements;
    for (double v : mem.array("ind")) {
        EXPECT_GE(v, 0.0);
        EXPECT_LT(v, static_cast<double>(target));
        EXPECT_EQ(v, std::floor(v));
    }
}

TEST(Interpreter, FirMatchesDirectComputation)
{
    KernelSpec k = makeFir(64, 5);
    Memory mem;
    mem.init(k);
    std::vector<double> a = mem.array("a");
    std::vector<double> b = mem.array("b");
    std::vector<double> c = mem.array("c");
    interpret(k, mem);
    // Direct: iterate in spec loop order (io, j, ii).
    for (int io = 0; io < 2; ++io)
        for (int j = 0; j < 5; ++j)
            for (int ii = 0; ii < 32; ++ii)
                c[io * 32 + ii] += a[io * 32 + ii + j] * b[j];
    EXPECT_EQ(mem.array("c"), c);
}

TEST(Interpreter, MmMatchesNaiveMatmul)
{
    int n = 8;
    KernelSpec k = makeMm(n);
    Memory mem;
    mem.init(k);
    std::vector<double> a = mem.array("a");
    std::vector<double> b = mem.array("b");
    std::vector<double> c = mem.array("c");
    interpret(k, mem);
    for (int i = 0; i < n; ++i)
        for (int kk = 0; kk < n; ++kk)
            for (int j = 0; j < n; ++j)
                c[i * n + j] += a[i * n + kk] * b[kk * n + j];
    for (size_t i = 0; i < c.size(); ++i)
        EXPECT_NEAR(mem.array("c")[i], c[i], 1e-9) << "at " << i;
}

TEST(Interpreter, TriangularTripCounts)
{
    KernelSpec k = makeCholesky(8);
    // Loop i at depth 1 has trip 8 - k.
    std::vector<int64_t> ivs{ 3, 0, 0 };
    EXPECT_EQ(loopTrip(k, 1, ivs), 5);
    ivs[0] = 7;
    EXPECT_EQ(loopTrip(k, 1, ivs), 1);
}

TEST(Interpreter, SolverTriangularGrows)
{
    KernelSpec k = makeSolver(8);
    std::vector<int64_t> ivs{ 0, 0 };
    EXPECT_EQ(loopTrip(k, 1, ivs), 1);
    ivs[0] = 5;
    EXPECT_EQ(loopTrip(k, 1, ivs), 6);
}

TEST(Interpreter, ResolveDirectIndex)
{
    KernelSpec k = makeMm(8);
    Memory mem;
    mem.init(k);
    // a[i*8 + k] at (i=2, k=3, j=whatever) = 19.
    std::vector<int64_t> ivs{ 2, 3, 5 };
    std::vector<BoundAccess> bound = bindAccesses(k);
    EXPECT_EQ(resolveIndex(bound[0], ivs.data(), ivs.size(), mem), 19);
}

TEST(Interpreter, ResolveIndirectIndex)
{
    KernelSpec k = makeEllpack(16, 4);
    Memory mem;
    mem.init(k);
    std::vector<int64_t> ivs{ 3, 1 };
    // x access goes through ind[3*4+1].
    int64_t expected =
        static_cast<int64_t>(mem.array("ind")[13]);
    std::vector<BoundAccess> bound = bindAccesses(k);
    EXPECT_EQ(resolveIndex(bound[1], ivs.data(), ivs.size(), mem),
              expected);
}

TEST(Interpreter, EllpackMatchesDirect)
{
    KernelSpec k = makeEllpack(16, 4);
    Memory mem;
    mem.init(k);
    std::vector<double> val = mem.array("val");
    std::vector<double> ind = mem.array("ind");
    std::vector<double> x = mem.array("x");
    std::vector<double> y = mem.array("y");
    interpret(k, mem);
    for (int i = 0; i < 16; ++i)
        for (int j = 0; j < 4; ++j)
            y[i] += val[i * 4 + j] * x[static_cast<int>(ind[i * 4 + j])];
    for (size_t i = 0; i < y.size(); ++i)
        EXPECT_NEAR(mem.array("y")[i], y[i], 1e-9);
}

TEST(Interpreter, IntegerSemanticsTruncate)
{
    EXPECT_DOUBLE_EQ(evalScalarOp(Opcode::Div, DataType::I16, 7, 2), 3.0);
    EXPECT_DOUBLE_EQ(evalScalarOp(Opcode::Div, DataType::F64, 7, 2), 3.5);
    EXPECT_DOUBLE_EQ(evalScalarOp(Opcode::Div, DataType::I64, 7, 0), 0.0);
    // A fractional divisor truncates to 0 and saturates like one.
    EXPECT_DOUBLE_EQ(evalScalarOp(Opcode::Div, DataType::I64, 3, 0.5),
                     0.0);
    // INT64_MIN / -1 wraps in two's complement.
    const double min64 = -9223372036854775808.0;  // -2^63
    EXPECT_DOUBLE_EQ(evalScalarOp(Opcode::Div, DataType::I64, min64, -1),
                     min64);
}

TEST(Interpreter, BitwiseOps)
{
    EXPECT_DOUBLE_EQ(evalScalarOp(Opcode::Shl, DataType::I16, 3, 4),
                     48.0);
    EXPECT_DOUBLE_EQ(evalScalarOp(Opcode::Shr, DataType::I16, 48, 4),
                     3.0);
    EXPECT_DOUBLE_EQ(evalScalarOp(Opcode::And, DataType::I64, 12, 10),
                     8.0);
    EXPECT_DOUBLE_EQ(evalScalarOp(Opcode::Xor, DataType::I64, 12, 10),
                     6.0);
}

TEST(Interpreter, MinMaxAbsSqrt)
{
    EXPECT_DOUBLE_EQ(evalScalarOp(Opcode::Min, DataType::F64, 2, 5), 2.0);
    EXPECT_DOUBLE_EQ(evalScalarOp(Opcode::Max, DataType::F64, 2, 5), 5.0);
    EXPECT_DOUBLE_EQ(evalScalarOp(Opcode::Abs, DataType::F64, -4, 0),
                     4.0);
    EXPECT_DOUBLE_EQ(evalScalarOp(Opcode::Sqrt, DataType::F64, 16, 0),
                     4.0);
    // Negative operand saturates to zero rather than NaN.
    EXPECT_DOUBLE_EQ(evalScalarOp(Opcode::Sqrt, DataType::F64, -1, 0),
                     0.0);
}

TEST(Interpreter, CompareAndSelect)
{
    EXPECT_DOUBLE_EQ(evalScalarOp(Opcode::CmpLt, DataType::I64, 1, 2),
                     1.0);
    EXPECT_DOUBLE_EQ(evalScalarOp(Opcode::CmpEq, DataType::I64, 2, 2),
                     1.0);
    EXPECT_DOUBLE_EQ(evalScalarOp(Opcode::Select, DataType::I64, 1, 9),
                     9.0);
    EXPECT_DOUBLE_EQ(evalScalarOp(Opcode::Select, DataType::I64, 0, 9),
                     0.0);
}

TEST(Interpreter, VisionPointwiseKernels)
{
    // accumulate: dst = a + b elementwise.
    KernelSpec k = makeAccumulate(8);
    Memory mem;
    mem.init(k);
    std::vector<double> a = mem.array("a");
    std::vector<double> b = mem.array("b");
    interpret(k, mem);
    for (size_t i = 0; i < a.size(); ++i)
        EXPECT_DOUBLE_EQ(mem.array("dst")[i], a[i] + b[i]);
}

TEST(Interpreter, VecMax)
{
    KernelSpec k = makeVecMax(8);
    Memory mem;
    mem.init(k);
    std::vector<double> a = mem.array("a");
    std::vector<double> b = mem.array("b");
    interpret(k, mem);
    for (size_t i = 0; i < a.size(); ++i)
        EXPECT_DOUBLE_EQ(mem.array("dst")[i], std::max(a[i], b[i]));
}

TEST(Interpreter, Bgr2GreyFormula)
{
    KernelSpec k = makeBgr2Grey(4);
    Memory mem;
    mem.init(k);
    std::vector<double> src = mem.array("src");
    interpret(k, mem);
    for (int p = 0; p < 4 * 4 * 4; ++p) {
        double expect = std::trunc(
            (std::trunc(src[3 * p] * 29) + std::trunc(src[3 * p + 1] * 150) +
             std::trunc(src[3 * p + 2] * 77)));
        expect = std::trunc(
            static_cast<double>(static_cast<int64_t>(expect) / 256));
        EXPECT_DOUBLE_EQ(mem.array("dst")[p], expect) << "pixel " << p;
    }
}

TEST(Interpreter, StencilWritesInteriorOnly)
{
    KernelSpec k = makeStencil2d(4, 1);
    Memory mem;
    mem.init(k);
    std::vector<double> before = mem.array("out");
    interpret(k, mem);
    const auto &after = mem.array("out");
    int g = 6;
    // Halo rows/cols untouched.
    for (int j = 0; j < g; ++j) {
        EXPECT_EQ(after[j], before[j]);
        EXPECT_EQ(after[(g - 1) * g + j], before[(g - 1) * g + j]);
    }
}

// ---------------------------------------------------------------------------
// Malformed specs fail at bind or init time with a named error, never
// at a silent wrong answer deep in a run.

TEST(InterpreterDeathTest, AccessNamingUnknownArrayIsFatal)
{
    KernelSpec k = makeFir(64, 7);
    k.accesses[1].array = "nonesuch";
    EXPECT_DEATH((void)bindAccesses(k),
                 "kernel 'fir' has no array 'nonesuch'");
    Memory mem;
    mem.init(k);
    EXPECT_DEATH(interpret(k, mem), "kernel 'fir' has no array 'nonesuch'");
}

TEST(InterpreterDeathTest, UnknownIndexTargetIsFatal)
{
    KernelSpec k = makeEllpack(16, 4);
    k.arrays[1].indexTarget = "nonesuch";
    Memory mem;
    EXPECT_DEATH(mem.init(k), "kernel 'ellpack' has no array 'nonesuch'");
}

TEST(InterpreterDeathTest, DuplicateArrayNamesAreFatal)
{
    KernelSpec k = makeFir(64, 7);
    k.arrays.push_back(k.arrays[1]);
    Memory mem;
    EXPECT_DEATH(mem.init(k), "kernel 'fir' declares array 'b' twice");
}

TEST(InterpreterDeathTest, ArrayIdOutOfRangeIsFatal)
{
    KernelSpec k = makeFir(64, 7);
    Memory mem;
    mem.init(k);
    EXPECT_EQ(&mem.array(2), &mem.array("c"));
    EXPECT_DEATH((void)mem.array(3),
                 "array id 3 out of range: memory holds 3 arrays");
    EXPECT_DEATH((void)mem.array(-1), "array id -1 out of range");
}

// Lowering validates the op DAG once, with a named error per rule, so
// no lane of any run checks it again.

TEST(InterpreterDeathTest, OpOperandMustNameAnEarlierOp)
{
    KernelSpec k = makeFir(64, 7);
    Memory mem;
    mem.init(k);
    KernelSpec self = k;
    self.ops[0].rhs = Operand::op(0);
    EXPECT_DEATH(interpret(self, mem),
                 "kernel 'fir' op 0 rhs names op 0, which is not an "
                 "earlier op");
    KernelSpec forward = k;
    forward.ops[0].lhs = Operand::op(1);
    EXPECT_DEATH((void)Program(forward),
                 "kernel 'fir' op 0 lhs names op 1, which is not an "
                 "earlier op");
    KernelSpec negative = k;
    negative.ops[1].lhs = Operand::op(-1);
    EXPECT_DEATH((void)Program(negative), "op 1 lhs names op -1");
}

TEST(InterpreterDeathTest, IndexOperandBeyondLoopCountIsFatal)
{
    KernelSpec k = makeFir(64, 7);
    k.ops[0].lhs = Operand::indexVar(3);
    EXPECT_DEATH((void)Program(k),
                 "kernel 'fir' op 0 lhs reads loop index 3, but the "
                 "kernel has 3 loops");
    k.ops[0].lhs = Operand::indexVar(-1);
    EXPECT_DEATH((void)Program(k), "op 0 lhs reads loop index -1");
}

TEST(InterpreterDeathTest, AccessOperandOutOfRangeIsFatal)
{
    KernelSpec k = makeFir(64, 7);
    k.ops[0].rhs = Operand::access(4);
    EXPECT_DEATH((void)Program(k),
                 "kernel 'fir' op 0 rhs names access 4, but the kernel "
                 "has 4 accesses");
    k.ops[0].rhs = Operand::access(-2);
    EXPECT_DEATH((void)Program(k), "op 0 rhs names access -2");
}

TEST(InterpreterDeathTest, WriteAccessMustNameAWriteAccess)
{
    KernelSpec k = makeFir(64, 7);
    int write = k.ops.back().writeAccess;
    ASSERT_GE(write, 0);
    k.ops.back().writeAccess = 0;
    EXPECT_DEATH((void)Program(k),
                 "kernel 'fir' op 1 writes through access 0, which is a "
                 "read access");
    k.ops.back().writeAccess = 9;
    EXPECT_DEATH((void)Program(k),
                 "kernel 'fir' op 1 writeAccess names access 9");
}

// ---------------------------------------------------------------------------
// Cross-commit pin. GoldenAllWorkloads compares the simulator against
// interpret(), and both evaluate iterations through the same lowered
// wl::Program, so a bug they share passes it. This
// digest pins the interpreter's outputs themselves: every array of
// every evaluation workload at paper size, in name order, bit for bit.

TEST(Interpreter, OutputsArePinnedAcrossCommits)
{
    uint64_t h = 1469598103934665603ull;
    auto mix = [&h](uint64_t v) {
        h ^= v;
        h *= 1099511628211ull;
    };
    auto mix_string = [&mix](const std::string &s) {
        for (char c : s)
            mix(static_cast<unsigned char>(c));
    };
    for (const KernelSpec &k : allWorkloads()) {
        Memory mem;
        mem.init(k);
        interpret(k, mem);
        std::vector<std::string> names;
        for (const ArraySpec &a : k.arrays)
            names.push_back(a.name);
        std::sort(names.begin(), names.end());
        mix_string(k.name);
        for (const std::string &name : names) {
            mix_string(name);
            const std::vector<double> &values = mem.array(name);
            mix(values.size());
            for (double v : values)
                mix(std::bit_cast<uint64_t>(v));
        }
    }
    // Recorded on a Release build before array names were bound to
    // integer ids.
    EXPECT_EQ(h, 13683632385239240659ull);
}

} // namespace
} // namespace overgen::wl
