#ifndef OVERGEN_BENCH_COMMON_H
#define OVERGEN_BENCH_COMMON_H

/**
 * @file
 * Shared helpers for the per-figure/table benchmark harnesses. Every
 * binary regenerates one table or figure of the paper's evaluation
 * (see DESIGN.md per-experiment index). The paper's DSE runs for
 * hours; these harnesses run the same algorithms with a reduced
 * iteration budget, configurable via OVERGEN_BENCH_ITERS.
 */

#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "adg/builders.h"
#include "common/logging.h"
#include "common/parallel.h"
#include "compiler/compile.h"
#include "dse/explorer.h"
#include "hls/autodse.h"
#include "sched/scheduler.h"
#include "sim/batch.h"
#include "sim/simulate.h"
#include "telemetry/bridge.h"
#include "telemetry/sink.h"
#include "workloads/suites.h"

namespace overgen::bench {

/** Consume `--prefix=value` style flags: when @p arg starts with
 * @p prefix, store the (non-empty) remainder in @p out. */
inline bool
eatFlag(const std::string &arg, const char *prefix, std::string &out)
{
    size_t len = std::string(prefix).size();
    if (arg.compare(0, len, prefix) != 0)
        return false;
    out = arg.substr(len);
    OG_ASSERT(!out.empty(), "empty value in '", arg, "'");
    return true;
}

/**
 * The flag set every harness shares, parsed once by
 * parseCommonFlags(). Fields are resolved (defaults applied), so a
 * Harness built from this is fully configured; `extra` holds
 * harness-specific arguments the caller asked to keep (see
 * takeExtraFlag / rejectExtraFlags).
 */
struct CommonFlags
{
    telemetry::SinkOptions sink;
    std::string registryPath;
    int threads = 1;
    bool noFastForward = false;
    /** Unrecognized arguments, in order (allowExtra mode only). */
    std::vector<std::string> extra;
};

/**
 * Parse the common harness flags:
 *
 * Parallelism: `--threads N` (or `--threads=N`) sizes the work pool
 * used for the DSE's speculative candidate evaluation, the
 * harness-level fan-out of independent explorations, and batched
 * simulation (sim::runBatch). The default is the hardware
 * concurrency; `--threads 1` is the serial path. Results are
 * identical for every thread count — only wall-clock changes (see
 * DESIGN.md "Determinism under parallelism").
 *
 * Telemetry: `--trace=<path>` records a Chrome trace_event file of
 * every simulation the harness runs (open in chrome://tracing or
 * https://ui.perfetto.dev); `--dse-log=<path>` appends one JSONL
 * record per DSE iteration plus periodic heartbeats;
 * `--trace-detail` adds per-issue instant events (bigger traces);
 * `--telemetry-json=<path>` dumps the counter registry;
 * `--stats-interval[=]N` samples every component's cycle ledger and
 * key stats every N cycles into an interval time-series, written as
 * JSONL to `--stats-jsonl=<path>` (defaults: interval 4096 when only
 * the path is given, path "timeline.jsonl" when only the interval
 * is).
 *
 * Unknown arguments are fatal unless @p allowExtra, in which case
 * they collect in `extra` for the harness to consume (report_cycles'
 * `--suite=`, serve_requests' `--requests=`);
 * call rejectExtraFlags() on the leftovers so typos stay fatal.
 *
 * Repeating a flag is fatal: the second occurrence would silently
 * win, which reads like both took effect. Both spellings count as
 * one flag (`--threads 2 --threads=4` is a repeat), booleans too.
 */
inline CommonFlags
parseCommonFlags(int argc, char **argv, bool allowExtra = false)
{
    CommonFlags flags;
    std::string threadsArg;
    std::string statsIntervalArg;
    std::vector<std::string> seenFlags;
    auto once = [&seenFlags](const char *name) {
        for (const std::string &seen : seenFlags)
            if (seen == name)
                OG_FATAL("flag '", name, "' given twice");
        seenFlags.push_back(name);
    };
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg == "--threads" && i + 1 < argc) {
            once("--threads");
            threadsArg = argv[++i];
            continue;
        }
        if (arg == "--stats-interval" && i + 1 < argc) {
            once("--stats-interval");
            statsIntervalArg = argv[++i];
            continue;
        }
        if (eatFlag(arg, "--trace=", flags.sink.tracePath)) {
            once("--trace");
            continue;
        }
        if (eatFlag(arg, "--dse-log=", flags.sink.dseLogPath)) {
            once("--dse-log");
            continue;
        }
        if (eatFlag(arg, "--telemetry-json=", flags.registryPath)) {
            once("--telemetry-json");
            continue;
        }
        if (eatFlag(arg, "--stats-jsonl=", flags.sink.timelinePath)) {
            once("--stats-jsonl");
            continue;
        }
        if (eatFlag(arg, "--threads=", threadsArg)) {
            once("--threads");
            continue;
        }
        if (eatFlag(arg, "--stats-interval=", statsIntervalArg)) {
            once("--stats-interval");
            continue;
        }
        if (arg == "--trace-detail") {
            once("--trace-detail");
            flags.sink.traceDetail = true;
            continue;
        }
        if (arg == "--no-fast-forward") {
            once("--no-fast-forward");
            flags.noFastForward = true;
            continue;
        }
        if (allowExtra) {
            flags.extra.push_back(arg);
            continue;
        }
        OG_FATAL("unknown argument '", arg,
                 "' (expected --threads[=]<n>, --trace=<path>, "
                 "--dse-log=<path>, --trace-detail, "
                 "--no-fast-forward, "
                 "--stats-interval[=]<n>, "
                 "--stats-jsonl=<path>, or "
                 "--telemetry-json=<path>)");
    }
    if (!statsIntervalArg.empty()) {
        int interval = std::atoi(statsIntervalArg.c_str());
        OG_ASSERT(interval >= 1, "bad --stats-interval value '",
                  statsIntervalArg, "'");
        flags.sink.statsInterval = static_cast<uint64_t>(interval);
        if (flags.sink.timelinePath.empty())
            flags.sink.timelinePath = "timeline.jsonl";
    } else if (!flags.sink.timelinePath.empty()) {
        flags.sink.statsInterval = 4096;  // path given: default cadence
    }
    if (!threadsArg.empty()) {
        flags.threads = std::atoi(threadsArg.c_str());
        OG_ASSERT(flags.threads >= 1, "bad --threads value '",
                  threadsArg, "'");
    } else {
        flags.threads = ThreadPool::hardwareThreads();
    }
    return flags;
}

/** Remove the first `<prefix><value>` argument from @p extra, storing
 * the value in @p out. @return whether one was found. */
inline bool
takeExtraFlag(std::vector<std::string> &extra, const char *prefix,
              std::string &out)
{
    for (auto it = extra.begin(); it != extra.end(); ++it) {
        if (eatFlag(*it, prefix, out)) {
            extra.erase(it);
            return true;
        }
    }
    return false;
}

/** Fatal on any argument the harness did not consume. */
inline void
rejectExtraFlags(const std::vector<std::string> &extra)
{
    if (!extra.empty())
        OG_FATAL("unknown argument '", extra.front(), "'");
}

/**
 * Shared services for every harness, configured by the common flag
 * set (see parseCommonFlags). Most harnesses construct it straight
 * from (argc, argv); harnesses with their own flags parse with
 * `allowExtra`, consume theirs, and hand the rest over.
 */
class Harness
{
  public:
    Harness(int argc, char **argv)
        : Harness(parseCommonFlags(argc, argv))
    {
    }

    explicit Harness(const CommonFlags &flags)
        : registryPath(flags.registryPath),
          numThreads(flags.threads),
          noFastForward(flags.noFastForward)
    {
        rejectExtraFlags(flags.extra);
        if (!flags.sink.tracePath.empty() ||
            !flags.sink.dseLogPath.empty() ||
            !registryPath.empty() || flags.sink.statsInterval > 0) {
            live = std::make_unique<telemetry::Sink>(flags.sink);
        }
    }

    /** Null when no telemetry flag was given. */
    telemetry::Sink *sink() const { return live.get(); }

    /** Resolved worker count (>= 1). Cycle results are bit-identical
     * for every value — each simulation is single-threaded-
     * deterministic and sim::runBatch stores results at the job's own
     * index. */
    int threads() const { return numThreads; }

    /**
     * Per-run SimConfig honoring `--no-fast-forward` (naive per-cycle
     * ticking; cycle counts are identical either way — the flag is an
     * A/B switch for wall-clock and debugging) with this harness's
     * sink attached.
     */
    sim::SimConfig
    simConfig() const
    {
        sim::SimConfig config;
        config.sink = sink();
        config.noFastForward = noFastForward;
        return config;
    }

    /**
     * The harness-level work pool for fanning out independent
     * explorations and simulations; lazily built at threads() wide.
     * Explorations launched from pool tasks get their own inner
     * pools (nesting distinct pools is fine; nesting one is not).
     */
    ThreadPool &
    pool()
    {
        if (workPool == nullptr)
            workPool = std::make_unique<ThreadPool>(numThreads);
        return *workPool;
    }

    /** DseOptions pre-wired with this harness's sink and threads. */
    dse::DseOptions
    dseOptions(int iterations, uint64_t seed,
               const std::string &label) const
    {
        dse::DseOptions options;
        options.iterations = iterations;
        options.seed = seed;
        options.threads = numThreads;
        options.sink = sink();
        options.telemetryLabel = label;
        return options;
    }

    /** Write every configured output file (call once, at exit). */
    void
    finish()
    {
        if (live == nullptr)
            return;
        live->flush();
        if (!live->options().tracePath.empty()) {
            std::printf("\n[telemetry] Chrome trace written to %s "
                        "(load in chrome://tracing or Perfetto)\n",
                        live->options().tracePath.c_str());
        }
        if (!live->options().dseLogPath.empty()) {
            std::printf("[telemetry] DSE iteration log (JSONL) "
                        "written to %s\n",
                        live->options().dseLogPath.c_str());
        }
        if (!live->options().timelinePath.empty()) {
            std::printf("[telemetry] interval time-series (JSONL, "
                        "every %llu cycles) written to %s\n",
                        static_cast<unsigned long long>(
                            live->options().statsInterval),
                        live->options().timelinePath.c_str());
        }
        if (!registryPath.empty()) {
            std::string text = live->registry().toJson().dump(2);
            std::FILE *f = std::fopen(registryPath.c_str(), "w");
            OG_ASSERT(f != nullptr, "cannot open '", registryPath,
                      "'");
            std::fwrite(text.data(), 1, text.size(), f);
            std::fclose(f);
            std::printf("[telemetry] counter registry written to "
                        "%s\n",
                        registryPath.c_str());
        }
    }

  private:
    std::unique_ptr<telemetry::Sink> live;
    std::unique_ptr<ThreadPool> workPool;
    std::string registryPath;
    int numThreads = 1;
    bool noFastForward = false;
};

/** Overlay fabric clock (paper: quad-tile floorplan at 92.87 MHz). */
constexpr double overlayClockMhz = 92.87;
/** HLS kernel clock (Merlin/Vivado designs on the VCU118). */
constexpr double hlsClockMhz = 250.0;

/** DSE iteration budget (paper: hours; benches: minutes). */
inline int
benchIterations(int fallback = 18)
{
    const char *env = std::getenv("OVERGEN_BENCH_ITERS");
    if (env != nullptr)
        return std::max(1, std::atoi(env));
    return fallback;
}

/** The hand-designed general overlay system (paper Q1, 4 tiles). */
inline adg::SysAdg
generalOverlay()
{
    adg::SysAdg design;
    design.adg = adg::buildGeneralOverlayTile();
    design.sys.numTiles = 4;
    design.sys.l2Banks = 4;
    design.sys.l2CapacityKiB = 512;
    design.sys.nocBytes = 32;
    return design;
}

/** Simulated seconds of @p cycles at the overlay clock. */
inline double
overlaySeconds(uint64_t cycles)
{
    return static_cast<double>(cycles) / (overlayClockMhz * 1e6);
}

/**
 * A compiled + scheduled (kernel, design) pair awaiting simulation.
 * Harnesses prepare these (cheap, serial) and then execute many at
 * once with runPreparedBatch — the sim::runBatch fan-out across
 * `--threads` workers. `ok == false` marks an unschedulable kernel;
 * it flows through the batch as a skipped row.
 *
 * The design is shared, not owned: a 19-kernel suite on one overlay
 * holds one SysAdg, not 19 copies (share with shareDesign() and pass
 * the same pointer to every prepare call). The simulator only reads
 * it, so sharing is safe across sim threads too.
 */
struct PreparedSim
{
    bool ok = false;
    const wl::KernelSpec *spec = nullptr;  //!< caller-owned, stable
    std::shared_ptr<const adg::SysAdg> design;
    dfg::Mdfg mdfg;
    sched::Schedule schedule;
    /** Per-entry SimConfig overrides (0 / -1 = harness default):
     * tighten one row's memory system without touching its batch
     * siblings. Only the watchdog tests set them. */
    int dramLatency = 0;
    int64_t deadlockCycles = -1;
};

/** Promote a design to the shared form PreparedSim stores. */
inline std::shared_ptr<const adg::SysAdg>
shareDesign(adg::SysAdg design)
{
    return std::make_shared<const adg::SysAdg>(std::move(design));
}

/** Compile/schedule @p spec on @p design (first-fit variant). */
inline PreparedSim
prepareOverlayRun(const wl::KernelSpec &spec,
                  std::shared_ptr<const adg::SysAdg> design,
                  bool apply_tuning = false)
{
    OG_ASSERT(design != nullptr, "prepareOverlayRun: null design");
    PreparedSim prepared;
    prepared.spec = &spec;
    prepared.design = std::move(design);
    compiler::CompileOptions copts;
    copts.applyTuning = apply_tuning;
    auto variants = compiler::compileVariants(spec, copts);
    sched::SpatialScheduler scheduler(prepared.design->adg);
    auto fit = scheduler.scheduleFirstFit(variants);
    if (!fit)
        return prepared;
    prepared.ok = true;
    prepared.mdfg = std::move(variants[fit->second]);
    prepared.schedule = std::move(fit->first);
    return prepared;
}

/** Pair @p spec with the schedule a DSE result chose for it; @p design
 * must be the shared form of `dse.design` (shared by the caller so N
 * kernels of one DSE result hold one copy). */
inline PreparedSim
prepareMapped(const wl::KernelSpec &spec, const dse::DseResult &dse,
              size_t index, std::shared_ptr<const adg::SysAdg> design)
{
    OG_ASSERT(design != nullptr, "prepareMapped: null design");
    PreparedSim prepared;
    prepared.ok = true;
    prepared.spec = &spec;
    prepared.design = std::move(design);
    prepared.mdfg = dse.mdfgs[index];
    prepared.schedule = dse.schedules[index];
    return prepared;
}

/**
 * Simulate every prepared entry concurrently (harness threads,
 * harness SimConfig) and return the results in the same order.
 * Entries with `ok == false` come back as a default SimResult
 * (`completed == false`).
 */
inline std::vector<sim::SimResult>
runPreparedBatch(const std::vector<PreparedSim> &prepared,
                 Harness &harness)
{
    std::vector<sim::SimJob> jobs;
    std::vector<size_t> job_row;
    for (size_t i = 0; i < prepared.size(); ++i) {
        if (!prepared[i].ok)
            continue;
        OG_ASSERT(prepared[i].design != nullptr,
                  "prepared entry ", i, " has no design");
        sim::SimJob job;
        job.spec = prepared[i].spec;
        job.mdfg = &prepared[i].mdfg;
        job.schedule = &prepared[i].schedule;
        job.design = prepared[i].design.get();
        job.config = harness.simConfig();
        if (prepared[i].dramLatency > 0)
            job.config.dramLatency = prepared[i].dramLatency;
        if (prepared[i].deadlockCycles >= 0)
            job.config.deadlockCycles = prepared[i].deadlockCycles;
        // Unique per-job timeline label so `--stats-jsonl` output is
        // byte-identical for every --threads value (the timeline
        // sorts runs by label at write time).
        job.config.runLabel =
            std::to_string(i) + ":" + prepared[i].spec->name;
        jobs.push_back(job);
        job_row.push_back(i);
    }
    sim::BatchOptions options;
    options.threads = harness.threads();
    std::vector<sim::SimResult> results = sim::runBatch(jobs, options);
    std::vector<sim::SimResult> rows(prepared.size());
    for (size_t j = 0; j < results.size(); ++j) {
        sim::SimResult &row = rows[job_row[j]];
        row = std::move(results[j]);
        if (row.deadlocked) {
            // Surface the watchdog verdict where the harness user
            // sees it; the full component dump names the stuck state.
            OG_WARN("kernel '", prepared[job_row[j]].spec->name,
                    "' deadlocked at cycle ", row.cycles,
                    " (watchdog)\n", row.diagnostic);
        }
    }
    return rows;
}

/** Geometric mean helper over positive values. */
inline double
geomean(const std::vector<double> &values)
{
    double log_sum = 0.0;
    for (double v : values)
        log_sum += std::log(std::max(v, 1e-12));
    return std::exp(log_sum / static_cast<double>(values.size()));
}

/** Print a standard bench header. Harnesses that run a DSE pass
 * their benchIterations() budget as @p dse_budget; the others leave
 * it 0 and print no budget line. */
inline void
banner(const char *experiment, const char *what, int dse_budget = 0)
{
    std::printf("==============================================\n");
    std::printf("%s — %s\n", experiment, what);
    if (dse_budget > 0) {
        std::printf("(reduced DSE budget: OVERGEN_BENCH_ITERS=%d)\n",
                    dse_budget);
    }
    std::printf("==============================================\n");
}

} // namespace overgen::bench

#endif // OVERGEN_BENCH_COMMON_H
