/**
 * @file
 * Matcher contract tests: for every workload of the suite, the
 * matcher's pick equals an exhaustive (entry, kernel) oracle scan.
 * The memoized-record side of the contract is checked after a
 * service replay (tests/library/warming_test.cc).
 */

#include "library/matcher.h"

#include <gtest/gtest.h>

#include "adg/builders.h"
#include "library/service.h"
#include "workloads/suites.h"

using namespace overgen;
using namespace overgen::library;

namespace {

adg::SysAdg
testDesign(int tiles, int l2Banks)
{
    adg::SysAdg design;
    design.adg = adg::buildGeneralOverlayTile();
    design.sys.numTiles = tiles;
    design.sys.l2Banks = l2Banks;
    design.sys.l2CapacityKiB = 512;
    design.sys.nocBytes = 32;
    return design;
}

/** A library with perf-diverse entries: three general-overlay systems
 * at different scales plus one DSE-warmed specialist. */
OverlayLibrary
testLibrary()
{
    OverlayLibrary lib;
    for (int tiles : { 1, 4, 8 }) {
        LibraryEntry entry;
        entry.design = testDesign(tiles, tiles >= 4 ? 4 : 2);
        entry.origin = "test:general-x" + std::to_string(tiles);
        lib.insert(std::move(entry));
    }
    lib.insert(warmOverlay("fir", /*smallSize=*/true,
                           /*applyTuning=*/true, /*seed=*/42,
                           /*iterations=*/4));
    return lib;
}

MatchOptions
matchOptions()
{
    MatchOptions options;
    options.applyTuning = true;
    return options;
}

/** Exhaustive oracle: score every entry, scan for the best feasible
 * one with a strict > (lowest index wins ties). */
MatchResult
oracleScan(const OverlayLibrary &lib, const wl::KernelSpec &spec)
{
    MatchResult best;
    for (size_t i = 0; i < lib.entries.size(); ++i) {
        KernelRecord record = scoreKernelOnDesign(
            spec, lib.entries[i].design, matchOptions());
        if (!record.feasible)
            continue;
        if (best.entryIndex < 0 || record.score > best.record.score) {
            best.entryIndex = static_cast<int>(i);
            best.record = record;
        }
    }
    return best;
}

void
expectSameResult(const MatchResult &got, const MatchResult &want,
                 const std::string &kernel)
{
    EXPECT_EQ(got.entryIndex, want.entryIndex) << kernel;
    EXPECT_EQ(got.record.kernel, want.record.kernel) << kernel;
    EXPECT_EQ(got.record.feasible, want.record.feasible) << kernel;
    // Bit-exact doubles: the same pure function must have run.
    EXPECT_EQ(got.record.score, want.record.score) << kernel;
    EXPECT_EQ(got.record.ipc, want.record.ipc) << kernel;
    EXPECT_EQ(got.record.variant, want.record.variant) << kernel;
    EXPECT_EQ(got.record.bottleneck, want.record.bottleneck)
        << kernel;
}

} // namespace

TEST(LibraryMatcher, PickEqualsExhaustiveOracleForEveryWorkload)
{
    OverlayLibrary lib = testLibrary();
    size_t hits = 0;
    for (const wl::KernelSpec &paper : wl::allWorkloads()) {
        wl::KernelSpec spec = wl::smallWorkloadByName(paper.name);
        MatchResult want = oracleScan(lib, spec);
        MatchResult got = matchKernel(lib, spec, matchOptions());
        expectSameResult(got, want, spec.name);
        hits += got.hit() ? 1 : 0;
    }
    // The general overlay schedules most of the suite: the library
    // must actually be routing, not vacuously missing everything.
    EXPECT_GE(hits, wl::allWorkloads().size() / 2);
}

TEST(LibraryMatcher, EmptyLibraryAndInfeasibleKernelsMiss)
{
    OverlayLibrary empty;
    EXPECT_FALSE(
        matchKernel(empty, wl::smallWorkloadByName("fir")).hit());

    // A tiny mesh whose single capability (f64 sqrt) matches nothing
    // mm needs: every request must miss with feasible=false records,
    // not crash.
    OverlayLibrary weak;
    LibraryEntry entry;
    adg::MeshConfig weakMesh;
    weakMesh.rows = 2;
    weakMesh.cols = 2;
    weakMesh.numPes = 1;
    weakMesh.peCapabilities = { { Opcode::Sqrt, DataType::F64 } };
    entry.design.adg = adg::buildMeshTile(weakMesh);
    entry.design.sys.numTiles = 1;
    entry.origin = "test:weak";
    weak.insert(std::move(entry));
    MatchResult result =
        matchKernel(weak, wl::smallWorkloadByName("mm"),
                    matchOptions());
    EXPECT_FALSE(result.hit());
    EXPECT_EQ(result.entryIndex, -1);
}
