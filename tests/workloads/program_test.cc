#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.h"
#include "eval_reference.h"
#include "workloads/program.h"
#include "workloads/suites.h"

namespace overgen::wl {
namespace {

/** Compare every array of @p got and @p want bit for bit. */
void
expectSameArrays(const KernelSpec &spec, const Memory &got,
                 const Memory &want)
{
    for (size_t a = 0; a < spec.arrays.size(); ++a) {
        const std::vector<double> &g = got.array(static_cast<int>(a));
        const std::vector<double> &w = want.array(static_cast<int>(a));
        ASSERT_EQ(g.size(), w.size());
        for (size_t i = 0; i < g.size(); ++i)
            ASSERT_EQ(std::bit_cast<uint64_t>(g[i]),
                      std::bit_cast<uint64_t>(w[i]))
                << spec.name << " array '" << spec.arrays[a].name
                << "' element " << i << ": " << g[i] << " vs " << w[i];
    }
}

/** interpret(), but feeding the program @p chunk lanes per run the way
 * the simulator's fabric fires (chunks never cross an inner pass). */
void
interpretInChunks(const KernelSpec &spec, Memory &mem, int64_t chunk)
{
    Program program(spec);
    std::vector<int64_t> ivs(spec.loops.size(), 0);
    auto walk = [&](auto &self, size_t depth) -> void {
        int64_t trip = loopTrip(spec, depth, ivs);
        if (depth + 1 == spec.loops.size()) {
            for (int64_t lo = 0; lo < trip; lo += chunk) {
                ivs[depth] = lo;
                program.run(ivs.data(), std::min(chunk, trip - lo), mem);
            }
            ivs[depth] = 0;
            return;
        }
        for (int64_t i = 0; i < trip; ++i) {
            ivs[depth] = i;
            self(self, depth + 1);
        }
        ivs[depth] = 0;
    };
    walk(walk, 0);
}

TEST(LoweredProgram, MatchesReferenceOnEveryWorkload)
{
    for (const KernelSpec &k : allWorkloads()) {
        Memory lowered, oracle;
        lowered.init(k);
        oracle.init(k);
        interpret(k, lowered);
        reference::interpret(k, oracle);
        expectSameArrays(k, lowered, oracle);
    }
}

// ---------------------------------------------------------------------------
// Random kernels. Each op group computes one random (Opcode, DataType)
// op X and clamps it to [-kClamp, kClamp] with I64 Max/Min, so every
// value later ops read or memory holds is a bounded integer or an
// initial array value: no int64 conversion overflows, whatever the op
// mix.

constexpr double kClamp = 1 << 20;
const double kImms[] = { 0.0, 1.0, -1.0, 2.5, -3.7, 7.0, -8.0,
                         64.0, 65.0, 100.0, 0.25 };

KernelSpec
randomKernel(uint64_t seed, Opcode focus_op, DataType focus_type)
{
    Rng rng(seed);
    KernelSpec k;
    k.name = "random" + std::to_string(seed);
    int depth = static_cast<int>(rng.nextRange(1, 3));
    for (int d = 0; d < depth; ++d) {
        LoopSpec loop;
        loop.name = "l" + std::to_string(d);
        loop.tripBase = rng.nextRange(1, d + 1 == depth ? 7 : 4);
        // Triangular (growing or shrinking) trips, clamped at zero.
        for (int e = 0; e < d; ++e)
            loop.tripCoeff.push_back(rng.nextRange(-1, 1));
        k.loops.push_back(loop);
    }
    static const DataType types[] = { DataType::I8,  DataType::I16,
                                      DataType::I32, DataType::I64,
                                      DataType::F32, DataType::F64 };
    int data_arrays = static_cast<int>(rng.nextRange(2, 4));
    for (int a = 0; a < data_arrays; ++a) {
        ArraySpec array;
        array.name = "a" + std::to_string(a);
        array.type = types[rng.nextBelow(6)];
        array.elements = rng.nextRange(1, 24);
        k.arrays.push_back(array);
    }
    ArraySpec index;
    index.name = "ind";
    index.type = DataType::I32;
    index.elements = rng.nextRange(1, 9);
    index.isIndex = true;
    index.indexTarget = k.arrays[rng.nextBelow(data_arrays)].name;
    k.arrays.push_back(index);

    // Accesses: direct or indirect, with affine indices that go
    // negative and past either array's end.
    auto add_access = [&](bool write) {
        AccessSpec access;
        bool indirect = rng.nextBool(0.35);
        access.array = indirect ? index.indexTarget
                                : k.arrays[rng.nextBelow(data_arrays)].name;
        if (indirect)
            access.indexArray = index.name;
        int coeffs = static_cast<int>(rng.nextRange(0, depth));
        for (int d = 0; d < coeffs; ++d)
            access.coeffs.push_back(rng.nextRange(-3, 3));
        access.offset = rng.nextRange(-30, 30);
        access.isWrite = write;
        k.accesses.push_back(access);
        return static_cast<int>(k.accesses.size()) - 1;
    };
    std::vector<Operand> pool;
    int reads = static_cast<int>(rng.nextRange(2, 5));
    for (int r = 0; r < reads; ++r)
        pool.push_back(Operand::access(add_access(false)));
    std::vector<int> writes;
    int nwrites = static_cast<int>(rng.nextRange(1, 2));
    for (int w = 0; w < nwrites; ++w) {
        int id = add_access(true);
        writes.push_back(id);
        // Write accesses are readable too (reductions read them).
        pool.push_back(Operand::access(id));
    }
    for (int d = 0; d < depth; ++d)
        pool.push_back(Operand::indexVar(d));

    auto pick = [&]() -> Operand {
        if (rng.nextBool(0.25))
            return Operand::imm64(kImms[rng.nextBelow(std::size(kImms))]);
        return pool[rng.nextBelow(pool.size())];
    };
    auto add_group = [&](Opcode op, DataType type) {
        // Braced initializers evaluate left to right: lhs, then rhs.
        k.ops.push_back({ op, type, pick(), pick(), -1 });
        int xi = static_cast<int>(k.ops.size()) - 1;
        k.ops.push_back({ Opcode::Max, DataType::I64, Operand::op(xi),
                          Operand::imm64(-kClamp), -1 });
        k.ops.push_back({ Opcode::Min, DataType::I64, Operand::op(xi + 1),
                          Operand::imm64(kClamp), -1 });
        if (rng.nextBool(0.6))
            k.ops.back().writeAccess = writes[rng.nextBelow(writes.size())];
        pool.push_back(Operand::op(xi + 2));
    };

    // The focus pair once with every loop index, then at special
    // operands: divide by zero, by a fraction (an integer zero once
    // truncated), shift by 64 and more.
    for (int d = 0; d < depth; ++d) {
        add_group(focus_op, focus_type);
        k.ops[k.ops.size() - 3].lhs = Operand::indexVar(d);
    }
    add_group(focus_op, focus_type);
    k.ops[k.ops.size() - 3].rhs = Operand::imm64(0.0);
    add_group(focus_op, focus_type);
    k.ops[k.ops.size() - 3].rhs = Operand::imm64(0.5);
    add_group(focus_op, focus_type);
    k.ops[k.ops.size() - 3].rhs =
        Operand::imm64(static_cast<double>(rng.nextRange(64, 130)));
    int extra = static_cast<int>(rng.nextRange(1, 4));
    for (int g = 0; g < extra; ++g)
        add_group(static_cast<Opcode>(rng.nextBelow(numOpcodes())),
                  types[rng.nextBelow(6)]);
    // Every write access is written at least once.
    for (size_t w = 0; w < writes.size(); ++w) {
        add_group(static_cast<Opcode>(rng.nextBelow(numOpcodes())),
                  types[rng.nextBelow(6)]);
        k.ops.back().writeAccess = writes[w];
    }
    return k;
}

TEST(LoweredProgram, MatchesReferenceOnRandomKernels)
{
    uint64_t seed = 1;
    for (int op = 0; op < numOpcodes(); ++op) {
        for (int type = 0; type < numDataTypes(); ++type, ++seed) {
            KernelSpec k = randomKernel(seed, static_cast<Opcode>(op),
                                        static_cast<DataType>(type));
            Memory oracle;
            oracle.init(k, seed);
            reference::interpret(k, oracle);
            Memory lowered;
            lowered.init(k, seed);
            interpret(k, lowered);
            expectSameArrays(k, lowered, oracle);
            for (int64_t chunk : { 1, 3 }) {
                Memory chunked;
                chunked.init(k, seed);
                interpretInChunks(k, chunked, chunk);
                expectSameArrays(k, chunked, oracle);
            }
            if (HasFatalFailure())
                return;
        }
    }
}

} // namespace
} // namespace overgen::wl
