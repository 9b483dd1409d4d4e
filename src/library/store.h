#ifndef OVERGEN_LIBRARY_STORE_H
#define OVERGEN_LIBRARY_STORE_H

/**
 * @file
 * The persistent overlay library: pre-generated (sysADG, resource
 * footprint, per-kernel perf records) entries on disk as JSONL, one
 * entry per line, byte-stable under the serve/wire dump conventions
 * (sorted object keys, %.17g doubles, hex-encoded 64-bit values).
 *
 * This is the production analogue of the paper's premise — a
 * domain-specific overlay amortizes FPGA compilation across many
 * kernels — turned into a cache of hardware: incoming kernels are
 * matched against stored overlays (library/matcher.h) instead of
 * re-running DSE per request, and misses warm the library
 * (library/service.h). See DESIGN.md "Overlay library and matching".
 *
 * Durability contract: load() skips corrupted, truncated, or
 * fingerprint-mismatched lines with a counted diagnostic instead of
 * aborting — a partially-written library (a crash mid-save, a torn
 * concurrent append) degrades to fewer warm entries, never to a dead
 * service. save/load/save round-trips are byte-identical: entries
 * hold canonical designs (canonicalDesign()) whose JSON encodings are
 * fixed points of SysAdg::fromJson/toJson.
 */

#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "adg/adg.h"
#include "common/json.h"
#include "model/resources.h"

namespace overgen::library {

/** One kernel's match score against one library entry — the memoized
 * output of matcher::scoreKernelOnDesign (library/matcher.h). */
struct KernelRecord
{
    std::string kernel;      //!< workload name (record key)
    bool feasible = false;   //!< some variant scheduled onto the entry
    double score = 0.0;      //!< model IPC x schedule throughput factor
    double ipc = 0.0;        //!< split-perf-model IPC estimate
    std::string variant;     //!< first-fit variant name
    std::string bottleneck;  //!< perf-model limiting level
};

/** One stored overlay. */
struct LibraryEntry
{
    /** Double-salted structural fingerprint of `design` (tile ADG +
     * system params; see fingerprintDesign). Persisted and
     * re-verified on load, so value corruption is caught even when
     * the JSON still parses. */
    uint64_t fpA = 0;
    uint64_t fpB = 0;
    /** The overlay design, canonicalized (see canonicalDesign). */
    adg::SysAdg design;
    /** Whole-system resource footprint (model::FpgaResourceModel). */
    model::Resources resources;
    /** Worst-resource utilization fraction on the target device. */
    double utilization = 0.0;
    /** Provenance tag, e.g. "warm:fir" or "seed". */
    std::string origin;
    /** DSE seed/budget that produced the entry (0 for seeded/manual
     * entries) — enough to reproduce the warm run. */
    uint64_t warmSeed = 0;
    int warmIterations = 0;
    /** Per-kernel match records, kept sorted by kernel name so entry
     * bytes are independent of record-computation order. */
    std::vector<KernelRecord> records;

    /** @return the record for @p kernel, or null. */
    const KernelRecord *findRecord(const std::string &kernel) const;

    /** Insert or overwrite the record for record.kernel (sorted). */
    void upsertRecord(KernelRecord record);

    Json toJson() const;

    /**
     * Decode one entry; @return nullopt (with @p error set) on any
     * missing or ill-typed field instead of dying — load() counts
     * these as skipped lines. The fingerprint is NOT re-verified
     * here; OverlayLibrary::load does that with the decoded design.
     */
    static std::optional<LibraryEntry> fromJson(const Json &json,
                                                std::string *error);
};

/** Per-load diagnostic counters (OverlayLibrary::lastLoad). */
struct LoadStats
{
    uint64_t entries = 0;             //!< lines kept
    uint64_t skippedParse = 0;        //!< not valid JSON (truncation)
    uint64_t skippedFields = 0;       //!< missing/ill-typed fields
    uint64_t skippedFingerprint = 0;  //!< stored fp != recomputed fp

    uint64_t
    skipped() const
    {
        return skippedParse + skippedFields + skippedFingerprint;
    }
};

/**
 * @return @p design re-encoded through its own JSON round-trip.
 * Adg::fromJson remaps node/edge ids densely, so a post-DSE design
 * (sparse ids from mutation tombstones) changes encoding on its
 * first round-trip; after one pass the encoding is a fixed point,
 * which the library's byte-stability contract depends on. Entries
 * must store canonical designs (insert() enforces the fingerprint
 * side of this).
 */
adg::SysAdg canonicalDesign(const adg::SysAdg &design);

/**
 * Double-salted library fingerprint of a canonical design: the tile
 * ADG's structural fingerprintPair under library-specific salts,
 * mixed with a hash of the system parameters — two entries differing
 * only in tile count or L2 geometry fingerprint differently.
 */
std::pair<uint64_t, uint64_t>
fingerprintDesign(const adg::SysAdg &design);

/** The in-memory library: an ordered entry list with fingerprint
 * dedup. Insertion order is the on-disk line order, so identical
 * insert sequences produce identical files. */
class OverlayLibrary
{
  public:
    std::vector<LibraryEntry> entries;
    /** Counters of the most recent load(). */
    LoadStats lastLoad;

    /**
     * Insert @p entry, canonicalizing its design and recomputing its
     * fingerprints. When an entry with the same fingerprint pair
     * already exists, its records are merged into the existing entry
     * instead (first insertion wins the metadata). @return the
     * entry's index.
     */
    size_t insert(LibraryEntry entry);

    /** @return the index of the entry with this fingerprint pair,
     * or nullopt. */
    std::optional<size_t> findByFingerprint(uint64_t a,
                                            uint64_t b) const;

    /** The full library as byte-stable JSONL (one entry per line,
     * trailing newline per line). */
    std::string toJsonl() const;

    /** Write toJsonl() to @p path. @return false when the file could
     * not be opened. */
    bool save(const std::string &path) const;

    /**
     * Replace the contents with the entries of @p path, skipping
     * undecodable lines with an OG_WARN diagnostic and counting them
     * in lastLoad. @return false when the file does not exist (the
     * library is left empty — a cold start, not an error).
     */
    bool load(const std::string &path);
};

} // namespace overgen::library

#endif // OVERGEN_LIBRARY_STORE_H
