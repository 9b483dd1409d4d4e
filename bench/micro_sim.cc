/**
 * @file
 * Simulator-core throughput microbenchmark: simulated cycles per
 * wall-clock second with event-horizon fast-forward on vs off. Four
 * regimes: *bandwidth-bound* fig19-style points (the widened general
 * overlay pinned to narrow DRAM channels behind a slow memory), where
 * a line dispatch waits a few cycles for channel budget and the
 * horizon opens across those accrual gaps; the same point at default
 * latency/bandwidth, where staggered in-flight fills keep some
 * component busy nearly every cycle; a 4-channel variant of the
 * saturated point; and a compute-bound contrast kernel whose horizon
 * never opens. Writes BENCH_sim.json next to the binary.
 *
 * Methodology mirrors micro_dse_eval: each configuration runs several
 * repetitions and the best (minimum-time) repetition is the headline
 * number. The bench asserts the bit-identity contract — cycles and
 * IPC equal across fast-forward on/off and every repetition — and
 * reports the skipped-cycle fraction plus an explicit
 * `fast_forward_speedup` per point so a perf regression can be told
 * apart from a horizon regression (DESIGN.md "SimEngine and
 * event-horizon fast-forward", "Data layout and completion rings").
 * A snapshot-resume section times resuming the headline point's final
 * eighth from a checkpoint against a cold run and records
 * `resume_speedup` (DESIGN.md "Snapshots and resume").
 */

#include <chrono>
#include <cstdio>

#include "common.h"

#include "common/json.h"
#include "telemetry/sink.h"

using namespace overgen;

namespace {

struct Point
{
    std::string label;
    wl::KernelSpec spec;
    bench::PreparedSim prepared;
    /** Cycles a DRAM fill takes (SimConfig::dramLatency; 0 keeps the
     * default). The headline point raises it: global dead windows
     * only open when the fill latency dwarfs what the tiles' ROBs can
     * overlap, and that is the regime fast-forward exists for. */
    int dramLatency = 0;
    /** DRAM channel bytes/cycle (0 keeps the default). The saturated
     * points narrow it until a line dispatch takes several cycles of
     * budget accrual: the memory system then progresses every few
     * cycles, and horizon jumps cross the accrual gaps. */
    int channelBandwidthBytes = 0;
};

struct Measurement
{
    double bestCyclesPerSec = 0.0;
    double meanCyclesPerSec = 0.0;
    uint64_t cycles = 0;
    double ipc = 0.0;
    uint64_t tickedCycles = 0;
    uint64_t skippedCycles = 0;
    uint64_t peakOutstandingTxns = 0;
};

Measurement
measure(const Point &point, sim::SimConfig config, bool fast_forward,
        int reps, int inner, bool analyze_phases = false)
{
    config.noFastForward = !fast_forward;
    if (point.dramLatency > 0)
        config.dramLatency = point.dramLatency;
    if (point.channelBandwidthBytes > 0)
        config.dramChannelBandwidthBytes = point.channelBandwidthBytes;
    Measurement m;
    double total_cps = 0.0;
    for (int rep = 0; rep < reps; ++rep) {
        uint64_t cycles = 0;
        auto t0 = std::chrono::steady_clock::now();
        sim::SimResult result;
        for (int i = 0; i < inner; ++i) {
            wl::Memory memory;
            memory.init(point.spec);
            result = sim::simulate(point.spec, point.prepared.mdfg,
                                   point.prepared.schedule,
                                   *point.prepared.design, memory,
                                   config);
            OG_ASSERT(result.completed, "'", point.label,
                      "' did not complete");
            if (analyze_phases) {
                telemetry::PhaseProfile phases =
                    sim::analyzeRunPhases(result);
                OG_ASSERT(phases.cycles == result.cycles,
                          "phase spans do not cover '", point.label,
                          "'");
            }
            cycles += result.cycles;
        }
        double seconds =
            std::chrono::duration<double>(
                std::chrono::steady_clock::now() - t0)
                .count();
        double cps = static_cast<double>(cycles) / seconds;
        total_cps += cps;
        if (rep == 0) {
            m.cycles = result.cycles;
            m.ipc = result.ipc;
            m.peakOutstandingTxns = result.memory.peakOutstandingTxns;
        } else {
            OG_ASSERT(result.cycles == m.cycles && result.ipc == m.ipc,
                      "'", point.label,
                      "' drifted between repetitions");
        }
        if (cps > m.bestCyclesPerSec) {
            m.bestCyclesPerSec = cps;
            m.tickedCycles = result.tickedCycles;
            m.skippedCycles = result.skippedCycles;
        }
    }
    m.meanCyclesPerSec = total_cps / reps;
    return m;
}

Json
toJson(const Measurement &m)
{
    Json obj = Json::makeObject();
    obj.set("best_cycles_per_sec", Json(m.bestCyclesPerSec));
    obj.set("mean_cycles_per_sec", Json(m.meanCyclesPerSec));
    obj.set("cycles", Json(m.cycles));
    obj.set("ipc", Json(m.ipc));
    obj.set("ticked_cycles", Json(m.tickedCycles));
    obj.set("skipped_cycles", Json(m.skippedCycles));
    obj.set("peak_outstanding_txns", Json(m.peakOutstandingTxns));
    return obj;
}

} // namespace

int
main(int argc, char **argv)
{
    bench::Harness harness(argc, argv);
    bench::banner("micro_sim",
                  "simulator throughput, event-horizon fast-forward "
                  "on vs off");

    // The headline point is the DRAM-limited fig19 regime (ten tiles
    // sharing one channel, L2 far smaller than the streamed arrays)
    // behind a slow memory: once the fill latency dwarfs what the
    // tiles' 16-deep ROBs can overlap, the whole system spends most
    // cycles stalled on DRAM — the dead windows event-horizon
    // fast-forward exists to skip. The same point at the default
    // latency is the densely-pipelined contrast (staggered fills keep
    // some component busy nearly every cycle, so the horizon rarely
    // opens) and `fir` on the stock overlay is the compute-bound one
    // (tiles fire nearly every cycle).
    adg::SysAdg starved = bench::generalOverlay();
    starved.sys.numTiles = 10;
    starved.sys.nocBytes = 64;
    starved.sys.l2Banks = 16;
    starved.sys.l2CapacityKiB = 16;
    starved.sys.dramChannels = 1;

    // 4-channel variant of the saturated regime: same starved system
    // with the line traffic spread over four 8-byte/cycle channels.
    adg::SysAdg starved4ch = starved;
    starved4ch.sys.dramChannels = 4;

    std::vector<Point> points;
    // Bandwidth-bound headline points: slow fills *and* channels so
    // narrow that a 64-byte line dispatch needs 4 cycles of budget.
    // The horizon opens only across those accrual gaps, so about two
    // thirds of the cycles are skipped.
    for (const char *name : { "accumulate", "vecmax" }) {
        Point point;
        point.label = std::string(name) + "@1ch,slow-dram";
        point.spec = wl::workloadByName(name);
        point.prepared =
            bench::prepareOverlayRun(point.spec, starved, true);
        OG_ASSERT(point.prepared.ok, "cannot schedule '", point.label,
                  "'");
        point.dramLatency = 4000;
        point.channelBandwidthBytes = 16;
        points.push_back(std::move(point));
    }
    {
        Point point;
        point.label = "accumulate@4ch,slow-dram";
        point.spec = wl::workloadByName("accumulate");
        point.prepared =
            bench::prepareOverlayRun(point.spec, starved4ch, true);
        OG_ASSERT(point.prepared.ok, "cannot schedule '", point.label,
                  "'");
        point.dramLatency = 4000;
        point.channelBandwidthBytes = 8;
        points.push_back(std::move(point));
    }
    {
        Point point;
        point.label = "accumulate@1ch";
        point.spec = wl::workloadByName("accumulate");
        point.prepared =
            bench::prepareOverlayRun(point.spec, starved, true);
        OG_ASSERT(point.prepared.ok, "cannot schedule '", point.label,
                  "'");
        points.push_back(std::move(point));
    }
    {
        Point point;
        point.label = "fir(compute-bound)";
        point.spec = wl::workloadByName("fir");
        point.prepared = bench::prepareOverlayRun(
            point.spec, bench::generalOverlay(), true);
        OG_ASSERT(point.prepared.ok, "cannot schedule '", point.label,
                  "'");
        points.push_back(std::move(point));
    }

    const int reps = 5;
    const int inner = 3;
    std::printf("\nconfig: reps=%d inner=%d (best-of-reps headline)\n",
                reps, inner);
    std::printf("%-24s %14s %14s %9s %9s\n", "point", "ff-on Mcyc/s",
                "ff-off Mcyc/s", "speedup", "skipped");

    Json rows = Json::makeArray();
    for (const Point &point : points) {
        sim::SimConfig config = bench::withSink(harness.sink());
        Measurement on = measure(point, config, true, reps, inner);
        Measurement off = measure(point, config, false, reps, inner);
        OG_ASSERT(on.cycles == off.cycles && on.ipc == off.ipc,
                  "fast-forward changed the simulation of '",
                  point.label, "'");
        double speedup = on.bestCyclesPerSec / off.bestCyclesPerSec;
        double skipped =
            static_cast<double>(on.skippedCycles) /
            static_cast<double>(std::max<uint64_t>(on.cycles, 1));
        std::printf("%-24s %14.2f %14.2f %8.2fx %8.1f%%\n",
                    point.label.c_str(), on.bestCyclesPerSec / 1e6,
                    off.bestCyclesPerSec / 1e6, speedup,
                    skipped * 100.0);
        Json row = Json::makeObject();
        row.set("point", Json(point.label));
        row.set("fast_forward_on", toJson(on));
        row.set("fast_forward_off", toJson(off));
        row.set("fast_forward_speedup", Json(speedup));
        rows.push(std::move(row));
    }

    // Snapshot-resume win: capture a checkpoint seven eighths of the
    // way through the long bandwidth-bound headline run, then compare
    // a cold re-simulation against resuming the final eighth from the
    // checkpoint (what the DSE's warm cache and the serve layer's
    // crash recovery do). Resume rebuilds the system and restores
    // state instead of re-simulating the prefix, so it must beat the
    // cold run; both must agree bit-identically.
    double resume_speedup = 0.0;
    uint64_t resume_checkpoint_cycle = 0;
    double resume_cold_sec = 0.0;
    double resume_warm_sec = 0.0;
    const Point &resume_point = points.front();
    {
        sim::SimConfig config = bench::withSink(harness.sink());
        if (resume_point.dramLatency > 0)
            config.dramLatency = resume_point.dramLatency;
        if (resume_point.channelBandwidthBytes > 0)
            config.dramChannelBandwidthBytes =
                resume_point.channelBandwidthBytes;
        wl::Memory memory;
        memory.init(resume_point.spec);
        sim::SimResult cold = sim::simulate(
            resume_point.spec, resume_point.prepared.mdfg,
            resume_point.prepared.schedule,
            *resume_point.prepared.design, memory, config);
        OG_ASSERT(cold.completed, "resume point did not complete");

        sim::LatestSnapshotSink latest;
        sim::SimConfig capture = config;
        capture.checkpointEvery =
            std::max<uint64_t>(1, cold.cycles * 7 / 8);
        capture.checkpointSink = &latest;
        wl::Memory capture_memory;
        capture_memory.init(resume_point.spec);
        sim::simulate(resume_point.spec, resume_point.prepared.mdfg,
                      resume_point.prepared.schedule,
                      *resume_point.prepared.design, capture_memory,
                      capture);
        OG_ASSERT(latest.hasSnapshot(),
                  "no checkpoint fired on the resume point");
        resume_checkpoint_cycle = latest.cycle;

        auto clock_best = [&](auto &&run) {
            double best = 0.0;
            for (int rep = 0; rep < reps; ++rep) {
                auto t0 = std::chrono::steady_clock::now();
                sim::SimResult result = run();
                double seconds =
                    std::chrono::duration<double>(
                        std::chrono::steady_clock::now() - t0)
                        .count();
                OG_ASSERT(result.cycles == cold.cycles &&
                              result.ipc == cold.ipc,
                          "resume-point run drifted from the cold "
                          "reference");
                if (best == 0.0 || seconds < best)
                    best = seconds;
            }
            return best;
        };
        resume_cold_sec = clock_best([&] {
            wl::Memory m;
            m.init(resume_point.spec);
            return sim::simulate(resume_point.spec,
                                 resume_point.prepared.mdfg,
                                 resume_point.prepared.schedule,
                                 *resume_point.prepared.design, m,
                                 config);
        });
        resume_warm_sec = clock_best([&] {
            wl::Memory m;
            m.init(resume_point.spec);
            return sim::resumeFrom(latest.latest, resume_point.spec,
                                   resume_point.prepared.mdfg,
                                   resume_point.prepared.schedule,
                                   *resume_point.prepared.design, m,
                                   config);
        });
        resume_speedup = resume_cold_sec / resume_warm_sec;
        std::printf("\nsnapshot resume (%s, checkpoint at cycle %llu "
                    "of %llu): cold %.1f ms vs resumed suffix %.1f ms "
                    "-> %.2fx (bit-identical)\n",
                    resume_point.label.c_str(),
                    static_cast<unsigned long long>(
                        resume_checkpoint_cycle),
                    static_cast<unsigned long long>(cold.cycles),
                    resume_cold_sec * 1e3, resume_warm_sec * 1e3,
                    resume_speedup);
        OG_ASSERT(resume_speedup > 1.0,
                  "resuming the final eighth was not faster than a "
                  "cold run (", resume_speedup, "x)");
    }

    // Instrumentation-overhead guard: per-cycle ledger classification
    // is always on, so compare a null-sink run against one with a
    // live sink sampling an in-memory timeline (no trace file, no
    // JSONL path — pure accounting cost). Both sides disable
    // fast-forward so they tick the same cycles and the delta is
    // attributable to sampling alone. The compute-bound point is the
    // worst case: every cycle ticks, so every cycle pays.
    // Machine-load noise can depress either side of the comparison by
    // more than the 3% budget, so the guard takes the *minimum*
    // overhead over a few attempts: one clean attempt proves the
    // instrumentation itself is cheap, and a real regression fails
    // every attempt.
    const Point &guard_point = points.back();
    double overhead = 1.0;
    Measurement plain, instrumented;
    const int guard_attempts = 6;
    for (int attempt = 0; attempt < guard_attempts; ++attempt) {
        sim::SimConfig plain_config;
        Measurement p =
            measure(guard_point, plain_config, false, reps, inner);
        telemetry::SinkOptions guard_opts;
        guard_opts.statsInterval = 64;
        telemetry::Sink guard_sink(guard_opts);
        sim::SimConfig instr_config;
        instr_config.sink = &guard_sink;
        Measurement i =
            measure(guard_point, instr_config, false, reps, inner);
        double o = 1.0 - i.bestCyclesPerSec / p.bestCyclesPerSec;
        if (o < overhead) {
            overhead = o;
            plain = p;
            instrumented = i;
        }
        if (overhead < 0.03)
            break;
        std::printf("[bench] overhead attempt %d/%d measured %.2f%% "
                    "(noisy?); retrying\n",
                    attempt + 1, guard_attempts, o * 100.0);
    }
    std::printf("\ninstrumentation overhead (%s, ff-off, "
                "stats-interval=64): %.2f%% (guard: <3%%, min over "
                "attempts)\n",
                guard_point.label.c_str(), overhead * 100.0);
    OG_ASSERT(overhead < 0.03,
              "ledger+timeline instrumentation costs ",
              overhead * 100.0, "% cycles/sec (budget 3%)");

    // Phase-analysis overhead: the same comparison with the full
    // phase pipeline on the instrumented side — sample the timeline
    // every 64 cycles AND run analyzeRunPhases (row parsing +
    // hysteresis segmentation) on every simulation. The same <3%
    // budget applies: phase analysis is a post-pass over the sampled
    // rows, so it must not cost more than the sampling it consumes.
    double phase_overhead = 1.0;
    Measurement phase_plain, phase_instr;
    for (int attempt = 0; attempt < guard_attempts; ++attempt) {
        sim::SimConfig plain_config;
        Measurement p =
            measure(guard_point, plain_config, false, reps, inner);
        telemetry::SinkOptions guard_opts;
        guard_opts.statsInterval = 64;
        telemetry::Sink guard_sink(guard_opts);
        sim::SimConfig instr_config;
        instr_config.sink = &guard_sink;
        Measurement i = measure(guard_point, instr_config, false, reps,
                                inner, /*analyze_phases=*/true);
        double o = 1.0 - i.bestCyclesPerSec / p.bestCyclesPerSec;
        if (o < phase_overhead) {
            phase_overhead = o;
            phase_plain = p;
            phase_instr = i;
        }
        if (phase_overhead < 0.03)
            break;
        std::printf("[bench] phase-overhead attempt %d/%d measured "
                    "%.2f%% (noisy?); retrying\n",
                    attempt + 1, guard_attempts, o * 100.0);
    }
    std::printf("phase-analysis overhead (%s, ff-off, "
                "stats-interval=64 + analyzeRunPhases): %.2f%% "
                "(guard: <3%%, min over attempts)\n",
                guard_point.label.c_str(), phase_overhead * 100.0);
    OG_ASSERT(phase_overhead < 0.03,
              "timeline sampling + phase analysis costs ",
              phase_overhead * 100.0, "% cycles/sec (budget 3%)");

    // Prepared-design sharing win: a PreparedSim used to embed its
    // own SysAdg copy, so preparing the 19-workload suite on one
    // overlay carried 19 design copies into the batch. Time the full
    // suite prepare both ways (the const-ref overload still copies
    // once per call) and report the design footprint each leaves
    // behind, using the serialized-JSON size as the footprint proxy
    // for the design's heap tables.
    std::vector<wl::KernelSpec> suite = wl::allWorkloads();
    adg::SysAdg suite_design = bench::generalOverlay();
    auto shared_design = bench::shareDesign(suite_design);
    // Not every suite workload fits this one overlay; the timing
    // comparison only needs both paths to prepare the *same* set, so
    // skip the ones that don't schedule (with a note) instead of
    // asserting a property of the overlay.
    auto prep_clock = [&](auto &&prepare,
                          std::vector<std::string> &scheduled) {
        auto t0 = std::chrono::steady_clock::now();
        for (const wl::KernelSpec &spec : suite) {
            bench::PreparedSim p = prepare(spec);
            if (p.ok)
                scheduled.push_back(spec.name);
        }
        return std::chrono::duration<double>(
                   std::chrono::steady_clock::now() - t0)
            .count();
    };
    std::vector<std::string> copied_ok, shared_ok;
    double prep_copied = prep_clock(
        [&](const wl::KernelSpec &spec) {
            return bench::prepareOverlayRun(spec, suite_design, true);
        },
        copied_ok);
    double prep_shared = prep_clock(
        [&](const wl::KernelSpec &spec) {
            return bench::prepareOverlayRun(spec, shared_design, true);
        },
        shared_ok);
    OG_ASSERT(copied_ok == shared_ok,
              "copied and shared prepare paths scheduled different "
              "workload sets");
    OG_ASSERT(!copied_ok.empty(), "no suite workload schedules on the "
                                  "general overlay");
    if (copied_ok.size() < suite.size()) {
        std::printf("[bench] note: %zu/%zu suite workloads schedule "
                    "on the general overlay (rest skipped)\n",
                    copied_ok.size(), suite.size());
    }
    size_t design_bytes = shared_design->toJson().dump().size();
    std::printf("\nprepared-design sharing (%zu workloads, one "
                "design): prep %.1f ms copied vs %.1f ms shared; "
                "design footprint %zu B shared vs %zu B copied\n",
                copied_ok.size(), prep_copied * 1e3,
                prep_shared * 1e3, design_bytes,
                design_bytes * copied_ok.size());

    Json report = Json::makeObject();
    report.set("bench", Json("micro_sim"));
    report.set("reps", Json(reps));
    report.set("inner", Json(inner));
    report.set("points", std::move(rows));
    Json guard = Json::makeObject();
    guard.set("point", Json(guard_point.label));
    guard.set("null_sink", toJson(plain));
    guard.set("instrumented", toJson(instrumented));
    guard.set("overhead", Json(overhead));
    guard.set("budget", Json(0.03));
    report.set("instrumentation_overhead", std::move(guard));
    Json phase_guard = Json::makeObject();
    phase_guard.set("point", Json(guard_point.label));
    phase_guard.set("null_sink", toJson(phase_plain));
    phase_guard.set("instrumented", toJson(phase_instr));
    phase_guard.set("overhead", Json(phase_overhead));
    phase_guard.set("budget", Json(0.03));
    report.set("phase_overhead", std::move(phase_guard));
    Json resume = Json::makeObject();
    resume.set("point", Json(resume_point.label));
    resume.set("checkpoint_cycle", Json(resume_checkpoint_cycle));
    resume.set("cold_seconds", Json(resume_cold_sec));
    resume.set("resume_seconds", Json(resume_warm_sec));
    resume.set("resume_speedup", Json(resume_speedup));
    report.set("snapshot_resume", std::move(resume));
    Json sharing = Json::makeObject();
    sharing.set("entries",
                Json(static_cast<int64_t>(copied_ok.size())));
    sharing.set("suite_size", Json(static_cast<int64_t>(suite.size())));
    sharing.set("prep_seconds_copied", Json(prep_copied));
    sharing.set("prep_seconds_shared", Json(prep_shared));
    sharing.set("design_json_bytes",
                Json(static_cast<int64_t>(design_bytes)));
    sharing.set("design_bytes_if_copied",
                Json(static_cast<int64_t>(design_bytes *
                                          copied_ok.size())));
    report.set("prepared_design_sharing", std::move(sharing));
    std::string text = report.dump(2);
    const char *path = "BENCH_sim.json";
    std::FILE *f = std::fopen(path, "w");
    OG_ASSERT(f != nullptr, "cannot open '", path, "'");
    std::fwrite(text.data(), 1, text.size(), f);
    std::fclose(f);
    std::printf("\n[bench] report written to %s\n", path);

    harness.finish();
    return 0;
}
