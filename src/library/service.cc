#include "library/service.h"

#include <algorithm>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <utility>

#include "common/logging.h"
#include "common/rng.h"
#include "dse/explorer.h"
#include "model/resource_model.h"
#include "workloads/suites.h"

namespace overgen::library {

namespace {

wl::KernelSpec
resolveSpec(const std::string &workload, bool smallSize)
{
    return smallSize ? wl::smallWorkloadByName(workload)
                     : wl::workloadByName(workload);
}

/** The warm DSE seed of @p workload: a pure function of the name
 * (FNV-1a) mixed with a fixed salt, so replays and retries agree. */
uint64_t
warmSeedFor(const std::string &workload)
{
    constexpr uint64_t kWarmSeedSalt = 0x5eedf00dcafe2026ull;
    // DseOptions::seed feeds splitmix expansion, so 0 is legal, but
    // avoid it anyway: a zero seed reads as "unset" in entry JSON.
    uint64_t seed = mix64(fnv1a(workload) ^ kWarmSeedSalt);
    return seed == 0 ? 1 : seed;
}

} // namespace

LibraryEntry
warmOverlay(const std::string &workload, bool smallSize,
            bool applyTuning, uint64_t seed, int iterations,
            const MatchOptions &options)
{
    wl::KernelSpec spec = resolveSpec(workload, smallSize);
    dse::DseOptions dopts;
    dopts.seed = seed;
    dopts.iterations = std::max(iterations, 1);
    // The warm itself runs single-threaded: the serve worker pool is
    // the parallelism, and the trajectory is thread-count-invariant
    // anyway — this only pins wall-clock behavior inside workers.
    dopts.threads = 1;
    dopts.applyTuning = applyTuning;
    dopts.heartbeatEvery = 0;
    dopts.perf = options.perf;
    dse::DseResult result = dse::exploreOverlay({ spec }, dopts);

    LibraryEntry entry;
    entry.design = canonicalDesign(result.design);
    std::tie(entry.fpA, entry.fpB) = fingerprintDesign(entry.design);
    entry.resources = result.resources;
    entry.utilization = result.utilization;
    entry.origin = "warm:" + spec.name;
    entry.warmSeed = seed;
    entry.warmIterations = dopts.iterations;
    // Score the kernel on its own overlay with the matcher's scoring,
    // so the re-match after warming reads this memoized record and
    // every path (in-process, server, retry) agrees byte-for-byte.
    MatchOptions scoring = options;
    scoring.applyTuning = applyTuning;
    entry.upsertRecord(scoreKernelOnDesign(spec, entry.design, scoring));
    return entry;
}

serve::JobHandler
makeLibraryHandler(MatchOptions options)
{
    return [options](const serve::JobSpec &job,
                     const std::vector<
                         std::shared_ptr<const adg::SysAdg>> &designs)
               -> serve::ResultRow {
        serve::ResultRow row;
        MatchOptions mopts = options;
        mopts.applyTuning = job.applyTuning;
        if (job.kind == serve::JobKind::Match) {
            wl::KernelSpec spec =
                resolveSpec(job.workload, job.smallSize);
            for (int id : job.matchDesigns) {
                OG_ASSERT(id >= 0 &&
                              id < static_cast<int>(designs.size()),
                          "match job references unknown design ", id);
                KernelRecord record =
                    scoreKernelOnDesign(spec, *designs[id], mopts);
                serve::WireScore score;
                score.design = id;
                score.feasible = record.feasible;
                score.score = record.score;
                score.ipc = record.ipc;
                score.variant = record.variant;
                score.bottleneck = record.bottleneck;
                row.scores.push_back(std::move(score));
            }
            row.ok = true;
            return row;
        }
        LibraryEntry entry =
            warmOverlay(job.workload, job.smallSize, job.applyTuning,
                        job.warmSeed, job.warmIterations, mopts);
        if (const KernelRecord *record = entry.findRecord(job.workload)) {
            row.ipc = record->ipc;
            row.variant = record->variant;
        }
        row.payload = entry.toJson();
        row.ok = true;
        return row;
    };
}

LibraryService::LibraryService(ServiceOptions opts, OverlayLibrary l)
    : lib(std::move(l)), options(std::move(opts)),
      handler(makeLibraryHandler(options.match))
{
}

std::vector<serve::ResultRow>
LibraryService::executeJobs(const serve::JobSet &set)
{
    std::vector<serve::ResultRow> rows(set.jobs.size());
    if (set.jobs.empty())
        return rows;
    if (options.useServer) {
        if (!pool) {
            // Train the shared resource model before the first fork,
            // so every worker inherits it instead of re-training.
            model::FpgaResourceModel::defaultModel();
            serve::CoordinatorOptions copts = options.serve;
            copts.handler = handler;
            pool = std::make_unique<serve::WorkerPool>(std::move(copts));
        }
        serve::ServeOutcome outcome = pool->run(set);
        mergedLog += serve::mergedJsonl(set, outcome.rows);
        summaries.push_back(outcome.summary);
        rows = std::move(outcome.rows);
    }
    // Every row not yet ok runs here with the same handler: all of
    // them in-process, and in server mode the rows the server lost
    // (abandoned shards). Rows are pure functions of their job, so
    // the library bytes match a crash-free run either way. Design id
    // i is library entry i (see scoreMissing), borrowed, not decoded.
    std::vector<std::shared_ptr<const adg::SysAdg>> designs;
    for (const LibraryEntry &entry : lib.entries)
        designs.emplace_back(std::shared_ptr<const adg::SysAdg>(),
                             &entry.design);
    for (size_t j = 0; j < rows.size(); ++j) {
        if (rows[j].ok)
            continue;
        if (!rows[j].diagnostic.empty())
            OG_WARN("serve job ", j, " ('", set.jobs[j].workload,
                    "') failed (", rows[j].diagnostic,
                    "); running it in-process");
        rows[j] = handler(set.jobs[j], designs);
        OG_ASSERT(rows[j].ok, "library job '", set.jobs[j].workload,
                  "' failed in-process: ", rows[j].diagnostic);
    }
    return rows;
}

void
LibraryService::scoreMissing(const std::vector<std::string> &workloads)
{
    // Encode each entry's design once: entries only ever append
    // (OverlayLibrary::insert appends or merges into an existing
    // entry), so the text of entry i never changes.
    OG_ASSERT(designText.size() <= lib.entries.size(),
              "library shrank under the service");
    for (size_t i = designText.size(); i < lib.entries.size(); ++i)
        designText.push_back(lib.entries[i].design.toJson().dump());
    serve::JobSet set;
    for (const std::string &workload : workloads) {
        std::vector<int> missing;
        for (size_t i = 0; i < lib.entries.size(); ++i)
            if (lib.entries[i].findRecord(workload) == nullptr)
                missing.push_back(static_cast<int>(i));
        if (missing.empty())
            continue;
        // The design table is the whole library in entry order.
        // Entries are fingerprint-distinct, so interning never merges
        // two of them and table id i stays entry i.
        for (size_t i = set.designs.size(); i < lib.entries.size();
             ++i) {
            int id = set.addDesignText(designText[i]);
            OG_ASSERT(id == static_cast<int>(i), "library entry ", i,
                      " duplicates a design");
        }
        set.addMatchJob(workload, std::move(missing),
                        options.match.applyTuning, options.smallSize);
    }
    std::vector<serve::ResultRow> rows = executeJobs(set);
    for (size_t j = 0; j < rows.size(); ++j) {
        for (const serve::WireScore &score : rows[j].scores) {
            KernelRecord record;
            record.kernel = set.jobs[j].workload;
            record.feasible = score.feasible;
            record.score = score.score;
            record.ipc = score.ipc;
            record.variant = score.variant;
            record.bottleneck = score.bottleneck;
            lib.entries[static_cast<size_t>(score.design)].upsertRecord(
                std::move(record));
        }
    }
}

void
LibraryService::warm(const std::vector<std::string> &misses)
{
    serve::JobSet set;
    for (const std::string &workload : misses)
        set.addWarmJob(workload, warmSeedFor(workload),
                       options.warmIterations, options.match.applyTuning,
                       options.smallSize);
    std::vector<serve::ResultRow> rows = executeJobs(set);
    // Insert in job order (first-miss order), never completion order.
    for (size_t j = 0; j < rows.size(); ++j) {
        std::string error;
        std::optional<LibraryEntry> entry =
            LibraryEntry::fromJson(rows[j].payload, &error);
        OG_ASSERT(entry, "warm row for '", set.jobs[j].workload,
                  "' carries no entry: ", error);
        lib.insert(std::move(*entry));
    }
}

MatchResult
LibraryService::pick(const std::string &workload) const
{
    auto resolve = [&] { return resolveSpec(workload, options.smallSize); };
    return matchKernel(lib, workload, resolve, options.match);
}

std::vector<RequestOutcome>
LibraryService::processBatch(const std::vector<std::string> &workloads)
{
    std::vector<std::string> distinct;
    std::set<std::string> seen;
    for (const std::string &workload : workloads) {
        if (seen.insert(workload).second)
            distinct.push_back(workload);
    }

    // 1-2: record every distinct workload against the library as
    // admitted, then pick from the records.
    scoreMissing(distinct);
    std::map<std::string, MatchResult> picks;
    std::vector<std::string> misses;
    for (const std::string &workload : distinct) {
        picks[workload] = pick(workload);
        if (!picks[workload].hit())
            misses.push_back(workload);
    }

    // 3-4: warm the distinct misses in first-miss order, record them
    // against the grown library, and pick again.
    warm(misses);
    scoreMissing(misses);
    for (const std::string &workload : misses)
        picks[workload] = pick(workload);

    std::set<std::string> warmed(misses.begin(), misses.end());
    std::vector<RequestOutcome> outcomes(workloads.size());
    for (size_t i = 0; i < workloads.size(); ++i) {
        RequestOutcome &outcome = outcomes[i];
        outcome.workload = workloads[i];
        outcome.warmed = warmed.count(workloads[i]) > 0;
        outcome.hit = !outcome.warmed;
        const MatchResult &best = picks[workloads[i]];
        outcome.entryIndex = best.entryIndex;
        outcome.record = best.record;
    }
    return outcomes;
}

} // namespace overgen::library
