#include "workloads/suites.h"

#include "common/logging.h"

namespace overgen::wl {

namespace {

/** Shorthand for a read access. */
AccessSpec
read(const std::string &array, std::vector<int64_t> coeffs,
     int64_t offset = 0)
{
    AccessSpec acc;
    acc.array = array;
    acc.coeffs = std::move(coeffs);
    acc.offset = offset;
    return acc;
}

/** Shorthand for a write access. */
AccessSpec
write(const std::string &array, std::vector<int64_t> coeffs,
      int64_t offset = 0)
{
    AccessSpec acc = read(array, std::move(coeffs), offset);
    acc.isWrite = true;
    return acc;
}

/** Shorthand for an indirect read a[idx[affine]]. */
AccessSpec
readIndirect(const std::string &array, const std::string &index_array,
             std::vector<int64_t> coeffs, int64_t offset = 0)
{
    AccessSpec acc = read(array, std::move(coeffs), offset);
    acc.indexArray = index_array;
    return acc;
}

OpSpec
op(Opcode opcode, DataType type, Operand lhs, Operand rhs,
   int write_access = -1)
{
    return OpSpec{ opcode, type, lhs, rhs, write_access };
}

} // namespace

KernelSpec
makeFir(int n, int taps)
{
    // Tiled FIR as in paper Fig. 5: c[io*T+ii] += a[io*T+ii+j] * b[j],
    // io outer tile loop, j filter loop, ii inner tile loop (T = 32).
    constexpr int tile = 32;
    OG_ASSERT(n % tile == 0, "fir size must be a multiple of ", tile);
    KernelSpec k;
    k.name = "fir";
    k.suite = Suite::Dsp;
    k.loops = { { "io", n / tile, {}, false },
                { "j", taps, {}, false },
                { "ii", tile, {}, false } };
    k.arrays = { { "a", DataType::F64, n + taps, false, "" },
                 { "b", DataType::F64, taps, false, "" },
                 { "c", DataType::F64, n, false, "" } };
    k.accesses = {
        read("a", { tile, 1, 1 }),   // 0: a[io*T + j + ii]
        read("b", { 0, 1, 0 }),      // 1: b[j] — stationary over ii
        read("c", { tile, 0, 1 }),   // 2: c[io*T + ii] — recurrent over j
        write("c", { tile, 0, 1 }),  // 3
    };
    k.ops = {
        op(Opcode::Mul, DataType::F64, Operand::access(0),
           Operand::access(1)),
        op(Opcode::Add, DataType::F64, Operand::access(2), Operand::op(0),
           3),
    };
    k.scratchpadHints = { "a" };
    k.maxUnroll = 8;
    return k;
}

KernelSpec
makeMm(int n)
{
    // Untiled matrix multiply, loop order (i, k, j) so the innermost j
    // vectorizes and c is recurrent across k: c[i][j] += a[i][k]*b[k][j].
    KernelSpec k;
    k.name = "mm";
    k.suite = Suite::Dsp;
    k.loops = { { "i", n, {}, false },
                { "k", n, {}, false },
                { "j", n, {}, false } };
    int64_t nn = static_cast<int64_t>(n) * n;
    k.arrays = { { "a", DataType::F64, nn, false, "" },
                 { "b", DataType::F64, nn, false, "" },
                 { "c", DataType::F64, nn, false, "" } };
    k.accesses = {
        read("a", { n, 1, 0 }),   // 0: a[i*n + k] — stationary over j
        read("b", { 0, n, 1 }),   // 1: b[k*n + j]
        read("c", { n, 0, 1 }),   // 2: c[i*n + j] — recurrent over k
        write("c", { n, 0, 1 }),  // 3
    };
    k.ops = {
        op(Opcode::Mul, DataType::F64, Operand::access(0),
           Operand::access(1)),
        op(Opcode::Add, DataType::F64, Operand::access(2), Operand::op(0),
           3),
    };
    k.scratchpadHints = { "b" };
    k.maxUnroll = 8;
    return k;
}

KernelSpec
makeCholesky(int n)
{
    // Right-looking update sweep with triangular (variable) trip counts:
    // for k, for i < n-k, for j < n-k:
    //   A[(k+i)*n + (k+j)] -= (A[(k+i)*n + k] * A[(k+j)*n + k]) / d[k]
    // followed (modeled in-DAG) by a sqrt-normalized diagonal term.
    KernelSpec k;
    k.name = "cholesky";
    k.suite = Suite::Dsp;
    k.loops = { { "k", n, {}, false },
                { "i", n, { -1 }, true },
                { "j", n, { -1, 0 }, true } };
    int64_t nn = static_cast<int64_t>(n) * n;
    k.arrays = { { "A", DataType::F64, nn, false, "" },
                 { "d", DataType::F64, n, false, "" } };
    k.accesses = {
        read("A", { n + 1, n, 1 }),   // 0: A[(k+i)*n + (k+j)]
        read("A", { n + 1, n, 0 }),   // 1: A[(k+i)*n + k]
        read("A", { n + 1, 0, 1 }),   // 2: A[(k+j)*n + k]
        read("d", { 1, 0, 0 }),       // 3: d[k] — stationary
        write("A", { n + 1, n, 1 }),  // 4
        write("d", { 1, 0, 0 }),      // 5
    };
    // The update is clamped (Min/Max) so repeated application stays
    // bounded: the simulator's results must compare exactly against
    // the interpreter over tens of thousands of iterations.
    k.ops = {
        op(Opcode::Mul, DataType::F64, Operand::access(1),
           Operand::access(2)),                                   // 0
        op(Opcode::Div, DataType::F64, Operand::op(0),
           Operand::access(3)),                                   // 1
        op(Opcode::Sub, DataType::F64, Operand::access(0),
           Operand::op(1)),                                       // 2
        op(Opcode::Min, DataType::F64, Operand::op(2),
           Operand::imm64(1024.0)),                               // 3
        op(Opcode::Max, DataType::F64, Operand::op(3),
           Operand::imm64(-1024.0), 4),                           // 4
        op(Opcode::Mul, DataType::F64, Operand::access(3),
           Operand::access(3)),                                   // 5
        op(Opcode::Sqrt, DataType::F64, Operand::op(5),
           Operand::imm64(0)),                                    // 6
        op(Opcode::Div, DataType::F64, Operand::op(6),
           Operand::imm64(1.0), 5),                               // 7
    };
    k.patterns.variableTripCount = true;
    k.maxUnroll = 4;
    return k;
}

KernelSpec
makeSolver(int n)
{
    // Forward triangular solve: x[i] = (x[i] - L[i*n+j]*x[j]) / d[i],
    // inner loop j runs 0..i (triangular, but HLS-friendly fixed form).
    KernelSpec k;
    k.name = "solver";
    k.suite = Suite::Dsp;
    k.loops = { { "i", n, {}, false }, { "j", 1, { 1 }, false } };
    int64_t nn = static_cast<int64_t>(n) * n;
    k.arrays = { { "L", DataType::F64, nn, false, "" },
                 { "x", DataType::F64, n, false, "" },
                 { "d", DataType::F64, n, false, "" } };
    k.accesses = {
        read("L", { n, 1 }),   // 0: L[i*n + j]
        read("x", { 0, 1 }),   // 1: x[j]
        read("x", { 1, 0 }),   // 2: x[i] — recurrent over j
        read("d", { 1, 0 }),   // 3: d[i] — stationary over j
        write("x", { 1, 0 }),  // 4
    };
    k.ops = {
        op(Opcode::Mul, DataType::F64, Operand::access(0),
           Operand::access(1)),
        op(Opcode::Sub, DataType::F64, Operand::access(2),
           Operand::op(0)),
        op(Opcode::Div, DataType::F64, Operand::op(1), Operand::access(3),
           4),
    };
    k.maxUnroll = 4;
    return k;
}

KernelSpec
makeFft(int log2n)
{
    // Radix-2 butterfly sweep, f32 complex as split re/im arrays. The
    // per-stage stride schedule is folded into an even/odd butterfly
    // encoding (self-consistent for functional verification); trip
    // counts vary per stage in the real code, hence the variable flag.
    int n = 1 << log2n;
    int half = n / 2;
    KernelSpec k;
    k.name = "fft";
    k.suite = Suite::Dsp;
    k.loops = { { "s", log2n, {}, true }, { "b", half, {}, false } };
    k.arrays = { { "re", DataType::F32, n, false, "" },
                 { "im", DataType::F32, n, false, "" },
                 { "twr", DataType::F32, half, false, "" },
                 { "twi", DataType::F32, half, false, "" } };
    k.accesses = {
        read("re", { 0, 2 }),      // 0: even re
        read("re", { 0, 2 }, 1),   // 1: odd re
        read("im", { 0, 2 }),      // 2: even im
        read("im", { 0, 2 }, 1),   // 3: odd im
        read("twr", { 0, 1 }),     // 4
        read("twi", { 0, 1 }),     // 5
        write("re", { 0, 2 }),     // 6
        write("re", { 0, 2 }, 1),  // 7
        write("im", { 0, 2 }),     // 8
        write("im", { 0, 2 }, 1),  // 9
    };
    // t = w * odd (complex), even' = even + t, odd' = even - t.
    k.ops = {
        op(Opcode::Mul, DataType::F32, Operand::access(4),
           Operand::access(1)),                                   // 0
        op(Opcode::Mul, DataType::F32, Operand::access(5),
           Operand::access(3)),                                   // 1
        op(Opcode::Sub, DataType::F32, Operand::op(0),
           Operand::op(1)),                                       // 2: t_re
        op(Opcode::Mul, DataType::F32, Operand::access(4),
           Operand::access(3)),                                   // 3
        op(Opcode::Mul, DataType::F32, Operand::access(5),
           Operand::access(1)),                                   // 4
        op(Opcode::Add, DataType::F32, Operand::op(3),
           Operand::op(4)),                                       // 5: t_im
        op(Opcode::Add, DataType::F32, Operand::access(0),
           Operand::op(2), 6),                                    // 6
        op(Opcode::Sub, DataType::F32, Operand::access(0),
           Operand::op(2), 7),                                    // 7
        op(Opcode::Add, DataType::F32, Operand::access(2),
           Operand::op(5), 8),                                    // 8
        op(Opcode::Sub, DataType::F32, Operand::access(2),
           Operand::op(5), 9),                                    // 9
    };
    k.patterns.variableTripCount = true;
    k.patterns.smallStrideAccess = true;
    k.tuning.peelTail = true;
    k.maxUnroll = 8;
    return k;
}

KernelSpec
makeStencil3d(int n, int steps)
{
    // 7-point 3D stencil over an (n+2)^3 grid with halo, `steps` sweeps.
    int g = n + 2;
    KernelSpec k;
    k.name = "stencil-3d";
    k.suite = Suite::MachSuite;
    k.loops = { { "t", steps, {}, false },
                { "i", n, {}, false },
                { "j", n, {}, false },
                { "kk", n, {}, false } };
    int64_t cells = static_cast<int64_t>(g) * g * g;
    k.arrays = { { "in", DataType::I64, cells, false, "" },
                 { "out", DataType::I64, cells, false, "" } };
    int64_t gg = static_cast<int64_t>(g) * g;
    int64_t center = gg + g + 1;
    auto at = [&](int64_t delta) {
        return read("in", { 0, gg, g, 1 }, center + delta);
    };
    k.accesses = {
        at(0),                                       // 0: center
        at(-1), at(+1),                              // 1,2: x neighbors
        at(-g), at(+g),                              // 3,4: y neighbors
        at(-gg), at(+gg),                            // 5,6: z neighbors
        write("out", { 0, gg, g, 1 }, center),       // 7
    };
    k.ops = {
        op(Opcode::Add, DataType::I64, Operand::access(1),
           Operand::access(2)),                                   // 0
        op(Opcode::Add, DataType::I64, Operand::access(3),
           Operand::access(4)),                                   // 1
        op(Opcode::Add, DataType::I64, Operand::access(5),
           Operand::access(6)),                                   // 2
        op(Opcode::Add, DataType::I64, Operand::op(0),
           Operand::op(1)),                                       // 3
        op(Opcode::Add, DataType::I64, Operand::op(2),
           Operand::op(3)),                                       // 4: sum6
        op(Opcode::Mul, DataType::I64, Operand::op(4),
           Operand::imm64(2)),                                    // 5
        op(Opcode::Mul, DataType::I64, Operand::access(0),
           Operand::imm64(3)),                                    // 6
        op(Opcode::Add, DataType::I64, Operand::op(5), Operand::op(6),
           7),                                                    // 7
    };
    k.patterns.smallStrideAccess = true;
    k.maxUnroll = 8;
    return k;
}

KernelSpec
makeCrs(int rows, int nnz_per_row)
{
    // CSR sparse matrix-vector multiply with per-row variable nonzero
    // counts (encoded at the mean nnz; the variability drives the HLS
    // II penalty): y[i] += val[i*z+j] * x[col[i*z+j]].
    KernelSpec k;
    k.name = "crs";
    k.suite = Suite::MachSuite;
    k.loops = { { "i", rows, {}, false },
                { "j", nnz_per_row, {}, true } };
    int64_t nnz = static_cast<int64_t>(rows) * nnz_per_row;
    k.arrays = { { "val", DataType::F64, nnz, false, "" },
                 { "col", DataType::I64, nnz, true, "x" },
                 { "x", DataType::F64, rows, false, "" },
                 { "rowptr", DataType::I64, rows + 1, true, "val" },
                 { "y", DataType::F64, rows, false, "" } };
    k.accesses = {
        read("val", { nnz_per_row, 1 }),                // 0
        readIndirect("x", "col", { nnz_per_row, 1 }),   // 1: x[col[..]]
        read("y", { 1, 0 }),                            // 2: recurrent
        write("y", { 1, 0 }),                           // 3
    };
    k.ops = {
        op(Opcode::Mul, DataType::F64, Operand::access(0),
           Operand::access(1)),
        op(Opcode::Add, DataType::F64, Operand::access(2), Operand::op(0),
           3),
    };
    k.patterns.variableTripCount = true;
    k.maxUnroll = 4;
    return k;
}

KernelSpec
makeGemm(int n)
{
    // Blocked integer GEMM (MachSuite "gemm"); in AutoDSE's pre-built
    // database, and OverGen tunes it by unrolling across two inner
    // dimensions (paper Q2).
    KernelSpec k = makeMm(n);
    k.name = "gemm";
    k.suite = Suite::MachSuite;
    for (auto &arr : k.arrays)
        arr.type = DataType::I64;
    for (auto &o : k.ops)
        o.type = DataType::I64;
    k.patterns.inPrebuiltDatabase = true;
    k.tuning.unroll2d = true;
    k.maxUnroll = 8;
    return k;
}

KernelSpec
makeStencil2d(int n, int steps)
{
    // 3x3 convolution stencil over an (n+2)^2 grid, `steps` sweeps,
    // fully unrolled window (9 coefficient taps).
    int g = n + 2;
    KernelSpec k;
    k.name = "stencil-2d";
    k.suite = Suite::MachSuite;
    k.loops = { { "t", steps, {}, false },
                { "i", n, {}, false },
                { "j", n, {}, false } };
    int64_t cells = static_cast<int64_t>(g) * g;
    k.arrays = { { "in", DataType::I64, cells, false, "" },
                 { "coef", DataType::I64, 9, false, "" },
                 { "out", DataType::I64, cells, false, "" } };
    for (int ki = 0; ki < 3; ++ki) {
        for (int kj = 0; kj < 3; ++kj) {
            k.accesses.push_back(read(
                "in", { 0, g, 1 },
                static_cast<int64_t>(ki) * g + kj));  // 0..8
        }
    }
    for (int t = 0; t < 9; ++t)
        k.accesses.push_back(read("coef", { 0, 0, 0 }, t));  // 9..17
    k.accesses.push_back(write("out", { 0, g, 1 }, g + 1));  // 18
    for (int t = 0; t < 9; ++t) {
        k.ops.push_back(op(Opcode::Mul, DataType::I64, Operand::access(t),
                           Operand::access(9 + t)));  // ops 0..8
    }
    k.ops.push_back(op(Opcode::Add, DataType::I64, Operand::op(0),
                       Operand::op(1)));  // 9
    for (int t = 2; t < 9; ++t) {
        k.ops.push_back(op(Opcode::Add, DataType::I64,
                           Operand::op(static_cast<int>(k.ops.size()) - 1),
                           Operand::op(t)));
    }
    k.ops.back().writeAccess = 18;
    k.patterns.slidingWindow = true;
    k.tuning.unrollForOverlap = true;
    k.scratchpadHints = { "coef" };
    k.maxUnroll = 8;
    return k;
}

KernelSpec
makeEllpack(int rows, int nnz_per_row)
{
    // ELLPACK sparse matrix-vector multiply: fixed nnz per row, indirect
    // gather of x through the column-index array.
    KernelSpec k;
    k.name = "ellpack";
    k.suite = Suite::MachSuite;
    k.loops = { { "i", rows, {}, false },
                { "j", nnz_per_row, {}, false } };
    int64_t nnz = static_cast<int64_t>(rows) * nnz_per_row;
    k.arrays = { { "val", DataType::F64, nnz, false, "" },
                 { "ind", DataType::I64, nnz, true, "x" },
                 { "x", DataType::F64, rows, false, "" },
                 { "y", DataType::F64, rows, false, "" } };
    k.accesses = {
        read("val", { nnz_per_row, 1 }),               // 0
        readIndirect("x", "ind", { nnz_per_row, 1 }),  // 1
        read("y", { 1, 0 }),                           // 2: recurrent
        write("y", { 1, 0 }),                          // 3
    };
    k.ops = {
        op(Opcode::Mul, DataType::F64, Operand::access(0),
           Operand::access(1)),
        op(Opcode::Add, DataType::F64, Operand::access(2), Operand::op(0),
           3),
    };
    // x is broadcast-loaded into every tile's scratchpad (paper Q1
    // discusses the resulting bandwidth waste without multicast).
    k.scratchpadHints = { "x" };
    k.maxUnroll = 4;
    return k;
}

namespace {

/**
 * Common scaffolding for pointwise Vitis Vision kernels: a channel loop
 * over 4 planes and a flat pixel loop; all arrays i16 of 4*n*n elements.
 */
KernelSpec
visionPointwise(const std::string &name, int n,
                std::vector<std::string> inputs, bool has_output = true)
{
    KernelSpec k;
    k.name = name;
    k.suite = Suite::Vision;
    int64_t pixels = static_cast<int64_t>(n) * n;
    k.loops = { { "c", 4, {}, false }, { "p", pixels, {}, false } };
    for (const auto &in : inputs)
        k.arrays.push_back({ in, DataType::I16, 4 * pixels, false, "" });
    if (has_output) {
        k.arrays.push_back(
            { "dst", DataType::I16, 4 * pixels, false, "" });
    }
    for (const auto &in : inputs)
        k.accesses.push_back(read(in, { pixels, 1 }));
    if (has_output)
        k.accesses.push_back(write("dst", { pixels, 1 }));
    k.maxUnroll = 8;
    return k;
}

} // namespace

KernelSpec
makeChannelExtract(int n)
{
    // Extract one interleaved channel: dst[p] = src[4*p + c]. Pure data
    // movement (Table II: 0 compute ops) with small-stride reads.
    KernelSpec k;
    k.name = "channel-ext";
    k.suite = Suite::Vision;
    int64_t pixels = static_cast<int64_t>(n) * n;
    k.loops = { { "c", 4, {}, false }, { "p", pixels, {}, false } };
    k.arrays = { { "src", DataType::I16, 4 * pixels, false, "" },
                 { "dst", DataType::I16, 4 * pixels, false, "" } };
    k.accesses = {
        read("src", { 1, 4 }),           // src[c + 4*p]: stride 4
        write("dst", { pixels, 1 }),
    };
    k.ops = {
        op(Opcode::Add, DataType::I16, Operand::access(0),
           Operand::imm64(0), 1),  // move
    };
    k.patterns.smallStrideAccess = true;
    return k;
}

KernelSpec
makeBgr2Grey(int n)
{
    // grey = (29*B + 150*G + 77*R) / 256 over interleaved BGR triples:
    // stride-3 reads are the classic HLS small-stride hazard (Table IV).
    KernelSpec k;
    k.name = "bgr2grey";
    k.suite = Suite::Vision;
    int64_t pixels = static_cast<int64_t>(n) * n * 4;
    k.loops = { { "p", pixels, {}, false } };
    k.arrays = { { "src", DataType::I16, 3 * pixels, false, "" },
                 { "dst", DataType::I16, pixels, false, "" } };
    k.accesses = {
        read("src", { 3 }, 0),  // B
        read("src", { 3 }, 1),  // G
        read("src", { 3 }, 2),  // R
        write("dst", { 1 }),
    };
    k.ops = {
        op(Opcode::Mul, DataType::I16, Operand::access(0),
           Operand::imm64(29)),
        op(Opcode::Mul, DataType::I16, Operand::access(1),
           Operand::imm64(150)),
        op(Opcode::Mul, DataType::I16, Operand::access(2),
           Operand::imm64(77)),
        op(Opcode::Add, DataType::I16, Operand::op(0), Operand::op(1)),
        op(Opcode::Add, DataType::I16, Operand::op(2), Operand::op(3)),
        op(Opcode::Div, DataType::I16, Operand::op(4),
           Operand::imm64(256), 3),
    };
    k.patterns.smallStrideAccess = true;
    return k;
}

KernelSpec
makeBlur(int n)
{
    // 3x3 box blur with a fully expressed window (8 adds + 1 div per
    // pixel); sliding-window reuse favors the HLS line-buffer (Table IV)
    // and OverGen's manual overlap unrolling (Q2).
    int g = n + 2;
    KernelSpec k;
    k.name = "blur";
    k.suite = Suite::Vision;
    k.loops = { { "c", 4, {}, false },
                { "i", n, {}, false },
                { "j", n, {}, false } };
    int64_t plane = static_cast<int64_t>(g) * g;
    k.arrays = { { "src", DataType::I16, 4 * plane, false, "" },
                 { "dst", DataType::I16, 4 * plane, false, "" } };
    for (int ki = 0; ki < 3; ++ki) {
        for (int kj = 0; kj < 3; ++kj) {
            k.accesses.push_back(read(
                "src", { plane, g, 1 },
                static_cast<int64_t>(ki) * g + kj));  // 0..8
        }
    }
    k.accesses.push_back(write("dst", { plane, g, 1 }, g + 1));  // 9
    k.ops.push_back(op(Opcode::Add, DataType::I16, Operand::access(0),
                       Operand::access(1)));
    for (int t = 2; t < 9; ++t) {
        k.ops.push_back(op(Opcode::Add, DataType::I16,
                           Operand::op(static_cast<int>(k.ops.size()) - 1),
                           Operand::access(t)));
    }
    k.ops.push_back(op(Opcode::Div, DataType::I16,
                       Operand::op(static_cast<int>(k.ops.size()) - 1),
                       Operand::imm64(9), 9));
    k.patterns.smallStrideAccess = true;
    k.patterns.slidingWindow = true;
    k.tuning.unrollForOverlap = true;
    return k;
}

KernelSpec
makeAccumulate(int n)
{
    KernelSpec k = visionPointwise("accumulate", n, { "a", "b" });
    k.ops = {
        op(Opcode::Add, DataType::I16, Operand::access(0),
           Operand::access(1), 2),
    };
    return k;
}

KernelSpec
makeAccSqr(int n)
{
    KernelSpec k = visionPointwise("acc-sqr", n, { "a", "b" });
    k.ops = {
        op(Opcode::Mul, DataType::I16, Operand::access(1),
           Operand::access(1)),
        op(Opcode::Add, DataType::I16, Operand::access(0), Operand::op(0),
           2),
    };
    return k;
}

KernelSpec
makeVecMax(int n)
{
    KernelSpec k = visionPointwise("vecmax", n, { "a", "b" });
    k.ops = {
        op(Opcode::Max, DataType::I16, Operand::access(0),
           Operand::access(1), 2),
    };
    return k;
}

KernelSpec
makeAccWeight(int n)
{
    // dst = (alpha*a + (256-alpha)*b) / 256 with alpha = 77.
    KernelSpec k = visionPointwise("acc-weight", n, { "a", "b" });
    k.ops = {
        op(Opcode::Mul, DataType::I16, Operand::access(0),
           Operand::imm64(77)),
        op(Opcode::Mul, DataType::I16, Operand::access(1),
           Operand::imm64(179)),
        op(Opcode::Add, DataType::I16, Operand::op(0), Operand::op(1)),
        op(Opcode::Div, DataType::I16, Operand::op(2),
           Operand::imm64(256), 2),
    };
    return k;
}

KernelSpec
makeConvertBit(int n)
{
    KernelSpec k = visionPointwise("convert-bit", n, { "a" });
    k.ops = {
        op(Opcode::Shl, DataType::I16, Operand::access(0),
           Operand::imm64(4)),
        op(Opcode::Add, DataType::I16, Operand::op(0), Operand::imm64(8),
           1),
    };
    return k;
}

KernelSpec
makeDerivative(int n)
{
    // Horizontal Sobel-style derivative over a (n)^2 grid with halo.
    int g = n;
    int inner = n - 2;
    KernelSpec k;
    k.name = "derivative";
    k.suite = Suite::Vision;
    k.loops = { { "c", 4, {}, false },
                { "i", inner, {}, false },
                { "j", inner, {}, false } };
    int64_t plane = static_cast<int64_t>(g) * g;
    k.arrays = { { "src", DataType::I16, 4 * plane, false, "" },
                 { "dst", DataType::I16, 4 * plane, false, "" } };
    auto at = [&](int di, int dj) {
        return read("src", { plane, g, 1 },
                    static_cast<int64_t>(di) * g + dj);
    };
    k.accesses = {
        at(0, 0), at(0, 2),  // 0,1: top row
        at(1, 0), at(1, 2),  // 2,3: middle row (weight 2)
        at(2, 0), at(2, 2),  // 4,5: bottom row
        write("dst", { plane, g, 1 }, g + 1),  // 6
    };
    k.ops = {
        op(Opcode::Sub, DataType::I16, Operand::access(1),
           Operand::access(0)),
        op(Opcode::Sub, DataType::I16, Operand::access(3),
           Operand::access(2)),
        op(Opcode::Mul, DataType::I16, Operand::op(1), Operand::imm64(2)),
        op(Opcode::Sub, DataType::I16, Operand::access(5),
           Operand::access(4)),
        op(Opcode::Add, DataType::I16, Operand::op(0), Operand::op(2)),
        op(Opcode::Add, DataType::I16, Operand::op(3), Operand::op(4)),
        op(Opcode::Div, DataType::I16, Operand::op(5), Operand::imm64(4),
           6),
    };
    k.patterns.slidingWindow = true;
    k.tuning.unrollForOverlap = true;
    return k;
}

namespace {

/** One kernel: name, suite, and makers at paper and test size. */
struct CatalogueRow
{
    const char *name;
    Suite suite;
    KernelSpec (*paper)();
    KernelSpec (*small)();
};

/** A row whose paper maker is @p make at its default sizes and whose
 * small maker is @p make at the sizes that follow. */
#define OG_KERNEL(name, suite, make, ...)                 \
    { name, Suite::suite, [] { return make(); },          \
      [] { return make(__VA_ARGS__); } }

/** All 19 kernels, DSP then MachSuite then Vision. */
constexpr CatalogueRow kCatalogue[] = {
    OG_KERNEL("cholesky", Dsp, makeCholesky, 16),
    OG_KERNEL("fft", Dsp, makeFft, 7),
    OG_KERNEL("fir", Dsp, makeFir, 128, 16),
    OG_KERNEL("solver", Dsp, makeSolver, 16),
    OG_KERNEL("mm", Dsp, makeMm, 8),
    OG_KERNEL("stencil-3d", MachSuite, makeStencil3d, 8, 2),
    OG_KERNEL("crs", MachSuite, makeCrs, 32, 4),
    OG_KERNEL("gemm", MachSuite, makeGemm, 8),
    OG_KERNEL("stencil-2d", MachSuite, makeStencil2d, 8, 2),
    OG_KERNEL("ellpack", MachSuite, makeEllpack, 32, 4),
    OG_KERNEL("channel-ext", Vision, makeChannelExtract, 16),
    OG_KERNEL("bgr2grey", Vision, makeBgr2Grey, 16),
    OG_KERNEL("blur", Vision, makeBlur, 16),
    OG_KERNEL("accumulate", Vision, makeAccumulate, 16),
    OG_KERNEL("acc-sqr", Vision, makeAccSqr, 16),
    OG_KERNEL("vecmax", Vision, makeVecMax, 16),
    OG_KERNEL("acc-weight", Vision, makeAccWeight, 16),
    OG_KERNEL("convert-bit", Vision, makeConvertBit, 16),
    OG_KERNEL("derivative", Vision, makeDerivative, 18),
};

#undef OG_KERNEL

const CatalogueRow &
catalogueRow(const std::string &name)
{
    for (const CatalogueRow &row : kCatalogue)
        if (name == row.name)
            return row;
    OG_FATAL("unknown workload '", name, "'");
}

} // namespace

std::vector<KernelSpec>
dspSuite()
{
    return suiteWorkloads(Suite::Dsp);
}

std::vector<KernelSpec>
machSuite()
{
    return suiteWorkloads(Suite::MachSuite);
}

std::vector<KernelSpec>
visionSuite()
{
    return suiteWorkloads(Suite::Vision);
}

std::vector<KernelSpec>
allWorkloads()
{
    std::vector<KernelSpec> all;
    for (const CatalogueRow &row : kCatalogue)
        all.push_back(row.paper());
    return all;
}

std::vector<KernelSpec>
suiteWorkloads(Suite suite)
{
    std::vector<KernelSpec> specs;
    for (const CatalogueRow &row : kCatalogue)
        if (row.suite == suite)
            specs.push_back(row.paper());
    return specs;
}

KernelSpec
workloadByName(const std::string &name)
{
    return catalogueRow(name).paper();
}

KernelSpec
smallWorkloadByName(const std::string &name)
{
    return catalogueRow(name).small();
}

KernelSpec
hlsTunedVariant(const KernelSpec &spec)
{
    KernelSpec tuned = spec;
    // Variable trip counts: replace with guarded max-trip loops
    // (paper Q2 "Variable Loop Trip Count" transformation).
    for (auto &loop : tuned.loops)
        loop.variable = false;
    tuned.patterns.variableTripCount = false;
    // Strided access: strength-reduced so the HLS tool coalesces.
    tuned.patterns.smallStrideAccess = false;
    return tuned;
}

} // namespace overgen::wl
