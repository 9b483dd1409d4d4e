/**
 * @file
 * Overlay-library store contract tests: the JSONL file round-trips
 * byte-identically (save -> load -> save), fingerprints are
 * re-verified on load, and corrupted or truncated lines are skipped
 * with exact per-category diagnostics instead of poisoning the load.
 */

#include "library/store.h"

#include <cstdio>
#include <random>

#include <gtest/gtest.h>

#include "adg/builders.h"
#include "common/hex.h"
#include "library/matcher.h"
#include "workloads/suites.h"

using namespace overgen;
using namespace overgen::library;

namespace {

adg::SysAdg
testDesign(int tiles, int l2Banks = 4)
{
    adg::SysAdg design;
    design.adg = adg::buildGeneralOverlayTile();
    design.sys.numTiles = tiles;
    design.sys.l2Banks = l2Banks;
    design.sys.l2CapacityKiB = 512;
    design.sys.nocBytes = 32;
    return design;
}

LibraryEntry
testEntry(int tiles, const char *origin)
{
    LibraryEntry entry;
    entry.design = testDesign(tiles);
    entry.resources = { 1000.0 * tiles, 2000.0 * tiles, 36.5, 12.0 };
    entry.utilization = 0.25 * tiles;
    entry.origin = origin;
    entry.warmSeed = 0xabcdef0123456789ull;
    entry.warmIterations = 4;
    return entry;
}

/** A three-entry library with per-kernel records on entry 0. */
OverlayLibrary
testLibrary()
{
    OverlayLibrary lib;
    size_t first = lib.insert(testEntry(2, "test:a"));
    lib.insert(testEntry(4, "test:b"));
    lib.insert(testEntry(8, "test:c"));
    lib.entries[first].upsertRecord(scoreKernelOnDesign(
        wl::smallWorkloadByName("fir"), lib.entries[first].design));
    lib.entries[first].upsertRecord(scoreKernelOnDesign(
        wl::smallWorkloadByName("mm"), lib.entries[first].design));
    return lib;
}

std::string
tempPath(const char *name)
{
    return ::testing::TempDir() + name;
}

void
writeFile(const std::string &path, const std::string &text)
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    ASSERT_NE(f, nullptr);
    std::fwrite(text.data(), 1, text.size(), f);
    std::fclose(f);
}

} // namespace

TEST(LibraryStore, SaveLoadSaveIsByteIdentical)
{
    OverlayLibrary lib = testLibrary();
    std::string path = tempPath("roundtrip.jsonl");
    std::string bytes = lib.toJsonl();
    ASSERT_FALSE(bytes.empty());
    ASSERT_TRUE(lib.save(path));

    OverlayLibrary loaded;
    ASSERT_TRUE(loaded.load(path));
    EXPECT_EQ(loaded.lastLoad.entries, 3u);
    EXPECT_EQ(loaded.lastLoad.skipped(), 0u);
    ASSERT_EQ(loaded.entries.size(), lib.entries.size());
    // The full byte-stability contract: the reloaded library encodes
    // to the identical file, records and fingerprints included.
    EXPECT_EQ(loaded.toJsonl(), bytes);
    std::string path2 = tempPath("roundtrip2.jsonl");
    ASSERT_TRUE(loaded.save(path2));
    OverlayLibrary again;
    ASSERT_TRUE(again.load(path2));
    EXPECT_EQ(again.toJsonl(), bytes);
}

TEST(LibraryStore, FingerprintsReverifyOnLoad)
{
    OverlayLibrary lib = testLibrary();
    for (const LibraryEntry &entry : lib.entries) {
        std::pair<uint64_t, uint64_t> fp =
            fingerprintDesign(entry.design);
        EXPECT_EQ(fp.first, entry.fpA);
        EXPECT_EQ(fp.second, entry.fpB);
    }

    // Same tile, different system params: the fingerprint must see
    // the system half, not just the ADG.
    EXPECT_NE(lib.entries[0].fpA, lib.entries[1].fpA);

    // Flip one fingerprint digit in the stored file: the load must
    // drop exactly that entry as a fingerprint mismatch.
    std::string tampered;
    size_t line = 0;
    for (const LibraryEntry &entry : lib.entries) {
        Json json = entry.toJson();
        if (line++ == 1)
            json.set("fp_a", Json(hexU64(entry.fpA ^ 1)));
        tampered += json.dump() + "\n";
    }
    std::string path = tempPath("tampered.jsonl");
    writeFile(path, tampered);
    OverlayLibrary loaded;
    ASSERT_TRUE(loaded.load(path));
    EXPECT_EQ(loaded.lastLoad.entries, 2u);
    EXPECT_EQ(loaded.lastLoad.skippedFingerprint, 1u);
    EXPECT_EQ(loaded.lastLoad.skippedParse, 0u);
    EXPECT_EQ(loaded.lastLoad.skippedFields, 0u);
    ASSERT_EQ(loaded.entries.size(), 2u);
    EXPECT_EQ(loaded.entries[0].origin, "test:a");
    EXPECT_EQ(loaded.entries[1].origin, "test:c");
}

TEST(LibraryStore, CorruptedLinesAreSkippedWithCountedDiagnostics)
{
    OverlayLibrary lib = testLibrary();
    std::vector<std::string> lines;
    for (const LibraryEntry &entry : lib.entries)
        lines.push_back(entry.toJson().dump());

    // One garbage line, two field-corrupted lines (records replaced
    // by a string, origin replaced by a number), and a final line
    // truncated mid-object (a torn write: no newline, unparseable).
    Json illTyped = Json::parse(lines[1]);
    illTyped.set("records", Json("not-an-array"));
    Json missing = Json::parse(lines[2]);
    missing.set("origin", Json(3.0));
    std::string text = lines[0] + "\n" + "{this is not json}\n" +
                       illTyped.dump() + "\n" + missing.dump() +
                       "\n" + "\n" +  // blank lines are ignored
                       lines[1].substr(0, lines[1].size() / 2);
    std::string path = tempPath("corrupted.jsonl");
    writeFile(path, text);

    OverlayLibrary loaded;
    ASSERT_TRUE(loaded.load(path));
    EXPECT_EQ(loaded.lastLoad.entries, 1u);
    EXPECT_EQ(loaded.lastLoad.skippedParse, 2u);  // garbage + torn
    EXPECT_EQ(loaded.lastLoad.skippedFields, 2u);
    EXPECT_EQ(loaded.lastLoad.skippedFingerprint, 0u);
    EXPECT_EQ(loaded.lastLoad.skipped(), 4u);
    ASSERT_EQ(loaded.entries.size(), 1u);
    EXPECT_EQ(loaded.entries[0].origin, "test:a");
    // The survivor round-trips bit-for-bit despite its neighbors.
    EXPECT_EQ(loaded.entries[0].toJson().dump(), lines[0]);
}

TEST(LibraryStore, MissingFileReportsFailureAndClears)
{
    OverlayLibrary lib = testLibrary();
    EXPECT_FALSE(lib.load(tempPath("does-not-exist.jsonl")));
    EXPECT_TRUE(lib.entries.empty());
    EXPECT_EQ(lib.lastLoad.entries, 0u);
}

TEST(LibraryStore, InsertCanonicalizesAndDeduplicatesByFingerprint)
{
    OverlayLibrary lib;
    size_t first = lib.insert(testEntry(2, "test:a"));
    // Same design again (fresh entry object, new records): must merge
    // into the existing entry, not append a duplicate.
    LibraryEntry dup = testEntry(2, "test:dup");
    dup.upsertRecord(scoreKernelOnDesign(
        wl::smallWorkloadByName("vecmax"), dup.design));
    size_t second = lib.insert(std::move(dup));
    EXPECT_EQ(second, first);
    ASSERT_EQ(lib.entries.size(), 1u);
    EXPECT_EQ(lib.entries[0].origin, "test:a");  // first write wins
    EXPECT_NE(lib.entries[0].findRecord("vecmax"), nullptr);

    // Insert canonicalizes: an entry built from a decode round-trip
    // has the identical fingerprint (encoding is a fixed point).
    LibraryEntry reencoded = *LibraryEntry::fromJson(
        lib.entries[0].toJson(), nullptr);
    EXPECT_EQ(lib.insert(std::move(reencoded)), first);
    EXPECT_EQ(lib.entries.size(), 1u);
}

TEST(LibraryStore, RecordsStayNameSortedThroughUpsert)
{
    LibraryEntry entry = testEntry(2, "test:sorted");
    for (const char *kernel : { "mm", "fir", "vecmax", "blur", "fir" }) {
        KernelRecord record;
        record.kernel = kernel;
        record.feasible = true;
        record.score = 1.0;
        record.ipc = 1.0;
        entry.upsertRecord(std::move(record));
    }
    ASSERT_EQ(entry.records.size(), 4u);  // "fir" upserted in place
    for (size_t i = 1; i < entry.records.size(); ++i)
        EXPECT_LT(entry.records[i - 1].kernel,
                  entry.records[i].kernel);
}

TEST(LibraryStore, TryParseReportsErrorsWithoutDying)
{
    std::string error;
    EXPECT_FALSE(Json::tryParse("{bad", &error));
    EXPECT_FALSE(error.empty());
    EXPECT_FALSE(Json::tryParse("", &error));
    EXPECT_FALSE(Json::tryParse("{\"a\":1} trailing", &error));
    EXPECT_FALSE(Json::tryParse("\"unterminated", &error));

    std::optional<Json> ok = Json::tryParse("{\"a\": [1, 2.5, true]}");
    ASSERT_TRUE(ok.has_value());
    EXPECT_EQ(ok->at("a").asArray().size(), 3u);
}

namespace {

size_t
nonBlankLines(const std::string &text)
{
    size_t lines = 0;
    size_t start = 0;
    while (start < text.size()) {
        size_t end = text.find('\n', start);
        if (end == std::string::npos)
            end = text.size();
        lines += end > start;
        start = end + 1;
    }
    return lines;
}

} // namespace

TEST(LibraryStore, DamagedFilesLoadWithoutDyingAndCountEveryLine)
{
    // Seeded damage to a real library file: truncation at any byte,
    // single-byte flips (which may rename keys, break names or edge
    // endpoints, or split a line), and splices of two lines' halves.
    // Every line must end up loaded or counted as skipped, and every
    // loaded entry must carry a fingerprint that re-verifies.
    const std::string original = testLibrary().toJsonl();
    std::vector<std::string> lines;
    for (size_t start = 0; start < original.size();) {
        size_t end = original.find('\n', start);
        lines.push_back(original.substr(start, end - start));
        start = end + 1;
    }
    ASSERT_EQ(lines.size(), 3u);

    std::mt19937_64 rng(0x6f67'6c69'6266'757aull);
    auto below = [&rng](size_t n) {
        return static_cast<size_t>(rng() % n);
    };
    const std::string path = tempPath("damaged.jsonl");
    for (int trial = 0; trial < 150; ++trial) {
        std::string text;
        const int kind = trial % 3;
        if (kind == 0) {
            text = original.substr(0, below(original.size()));
        } else if (kind == 1) {
            text = original;
            text[below(text.size())] ^=
                static_cast<char>(1 + below(255));
        } else {
            std::vector<std::string> spliced = lines;
            const std::string &head = lines[below(lines.size())];
            const std::string &tail = lines[below(lines.size())];
            spliced[below(lines.size())] =
                head.substr(0, below(head.size() + 1)) +
                tail.substr(below(tail.size() + 1));
            for (const std::string &line : spliced)
                text += line + "\n";
        }
        writeFile(path, text);

        OverlayLibrary loaded;
        ASSERT_TRUE(loaded.load(path)) << "trial " << trial;
        EXPECT_EQ(loaded.lastLoad.entries + loaded.lastLoad.skipped(),
                  nonBlankLines(text))
            << "trial " << trial;
        for (const LibraryEntry &entry : loaded.entries) {
            std::pair<uint64_t, uint64_t> fp =
                fingerprintDesign(entry.design);
            EXPECT_EQ(fp.first, entry.fpA) << "trial " << trial;
            EXPECT_EQ(fp.second, entry.fpB) << "trial " << trial;
        }
    }
}
