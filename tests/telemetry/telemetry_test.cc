#include <gtest/gtest.h>

#include <map>
#include <tuple>

#include "adg/builders.h"
#include "compiler/compile.h"
#include "dse/explorer.h"
#include "model/perf.h"
#include "sched/scheduler.h"
#include "sim/simulate.h"
#include "telemetry/attribution.h"
#include "telemetry/bridge.h"
#include "telemetry/registry.h"
#include "telemetry/sink.h"
#include "telemetry/timeline.h"
#include "telemetry/trace.h"
#include "workloads/suites.h"

namespace overgen::telemetry {
namespace {

TEST(Registry, Counters)
{
    Registry reg;
    Counter &c = reg.counter("sim/k/cycles");
    c.inc();
    c.add(9);
    EXPECT_EQ(c.value(), 10u);
    // Same path returns the same counter.
    EXPECT_EQ(&reg.counter("sim/k/cycles"), &c);
}

TEST(Registry, ToJsonNestsByPath)
{
    Registry reg;
    reg.counter("a/b/c").add(7);
    reg.counter("a/d").add(1);
    Json j = reg.toJson();
    EXPECT_EQ(j.at("a").at("b").at("c").asNumber(), 7.0);
    EXPECT_EQ(j.at("a").at("d").asNumber(), 1.0);
}

TEST(Trace, RoundTripsThroughJsonParser)
{
    TraceEmitter trace;
    trace.processName(1, "proc");
    trace.threadName(1, 0, "thread");
    trace.begin("work", "cat", 1, 0, 5);
    trace.counter("level", 1, 0, 6, 3.5);
    trace.instant("ping", "cat", 1, 0, 7);
    trace.end("work", "cat", 1, 0, 9);

    std::string text = trace.toJson().dump();
    Json parsed = Json::parse(text);
    const Json::Array &events = parsed.at("traceEvents").asArray();
    EXPECT_EQ(events.size(), 6u);
    for (const Json &e : events) {
        EXPECT_TRUE(e.at("ph").isString());
        EXPECT_TRUE(e.at("pid").isNumber());
    }
}

/** Run one kernel on the general overlay with @p config. */
sim::SimResult
runGeneral(const wl::KernelSpec &spec, const sim::SimConfig &config,
           model::PerfBreakdown *prediction = nullptr)
{
    adg::SysAdg design;
    design.adg = adg::buildGeneralOverlayTile();
    design.sys.numTiles = 4;
    design.sys.l2Banks = 4;
    design.sys.l2CapacityKiB = 512;
    design.sys.nocBytes = 32;
    compiler::CompileOptions copts;
    copts.applyTuning = true;
    auto variants = compiler::compileVariants(spec, copts);
    sched::SpatialScheduler scheduler(design.adg);
    auto fit = scheduler.scheduleFirstFit(variants);
    EXPECT_TRUE(fit.has_value()) << spec.name;
    if (!fit)
        return {};
    if (prediction != nullptr) {
        model::PerfInput input;
        input.mdfg = &variants[fit->second];
        input.backing = sched::backingFromSchedule(
            fit->first, design.adg, variants[fit->second]);
        *prediction = model::estimateIpc(input, design.adg,
                                         design.sys);
    }
    wl::Memory memory;
    memory.init(spec);
    return sim::simulate(spec, variants[fit->second], fit->first,
                         design, memory, config);
}

TEST(Sink, NullSinkChangesNoSimulatedBehavior)
{
    wl::KernelSpec spec = wl::makeFir(256, 16);
    sim::SimResult bare = runGeneral(spec, {});

    SinkOptions opts;
    opts.enableTrace = true;
    Sink sink(opts);
    sim::SimConfig config;
    config.sink = &sink;
    sim::SimResult observed = runGeneral(spec, config);

    // Observation only: the sink must not perturb the simulation.
    EXPECT_EQ(bare.cycles, observed.cycles);
    EXPECT_EQ(bare.ipc, observed.ipc);
    EXPECT_EQ(bare.memory.nocBytes, observed.memory.nocBytes);
    EXPECT_FALSE(sink.trace().empty());
}

TEST(Sink, RegistryDeterministicAcrossIdenticalRuns)
{
    wl::KernelSpec spec = wl::makeAccumulate();
    Sink first, second;
    sim::SimConfig config;
    config.sink = &first;
    runGeneral(spec, config);
    config.sink = &second;
    runGeneral(spec, config);
    EXPECT_EQ(first.registry().toJson().dump(2),
              second.registry().toJson().dump(2));
}

TEST(Sink, SimulationTraceHasMatchedBeginEndPairs)
{
    SinkOptions opts;
    opts.enableTrace = true;
    Sink sink(opts);
    sim::SimConfig config;
    config.sink = &sink;
    runGeneral(wl::makeMm(), config);

    std::string text = sink.trace().toJson().dump();
    Json parsed = Json::parse(text);
    const Json::Array &events = parsed.at("traceEvents").asArray();
    ASSERT_FALSE(events.empty());

    // Depth per (pid, tid, name) must never go negative and must
    // return to zero: every B has its E.
    std::map<std::tuple<int, int, std::string>, int> depth;
    for (const Json &e : events) {
        const std::string &ph = e.at("ph").asString();
        if (ph != "B" && ph != "E")
            continue;
        auto key = std::make_tuple(
            static_cast<int>(e.at("pid").asNumber()),
            static_cast<int>(e.at("tid").asNumber()),
            e.at("name").asString());
        depth[key] += ph == "B" ? 1 : -1;
        EXPECT_GE(depth[key], 0) << std::get<2>(key);
    }
    for (const auto &[key, d] : depth)
        EXPECT_EQ(d, 0) << std::get<2>(key);
}

/** Run @p spec with a trace and a timeline every @p interval cycles
 * into @p result; @return the parsed trace. */
Json
traceSampled(const wl::KernelSpec &spec, uint64_t interval,
             sim::SimResult &result)
{
    SinkOptions opts;
    opts.enableTrace = true;
    opts.statsInterval = interval;
    Sink sink(opts);
    sim::SimConfig config;
    config.sink = &sink;
    result = runGeneral(spec, config);
    EXPECT_TRUE(result.completed) << spec.name;
    return Json::parse(sink.trace().toJson().dump());
}

TEST(Trace, CounterTracksComeFromTimelineSamples)
{
    using S = TimelineSample;
    using Tracks = std::map<std::pair<int, std::string>,
                            std::vector<std::pair<uint64_t, double>>>;
    // fir runs out of the scratchpads, so vecmax exercises the
    // memory system's tracks.
    uint64_t noc_bytes = 0;
    for (const wl::KernelSpec &spec :
         { wl::makeFir(256, 16), wl::makeVecMax(64) }) {
        sim::SimResult result;
        Json trace = traceSampled(spec, 64, result);
        ASSERT_FALSE(result.timelineRows.empty()) << spec.name;
        // Each track's (cycle, value) points, keyed by (tid, name).
        Tracks tracks;
        for (const Json &e : trace.at("traceEvents").asArray()) {
            if (e.at("ph").asString() != "C")
                continue;
            tracks[{ static_cast<int>(e.at("tid").asNumber()),
                     e.at("name").asString() }]
                .emplace_back(
                    static_cast<uint64_t>(e.at("ts").asNumber()),
                    e.at("args").at("value").asNumber());
        }

        // Replay the samples into the tracks they should render: a
        // point at every sampled cycle and nowhere else, a gauge as-is
        // or as the delta of consecutive cumulative gauges.
        Tracks expected;
        std::map<int, S> last;
        for (const S &sample : result.timelineRows) {
            auto it = last.find(sample.component);
            auto delta = [&](int gauge) {
                uint64_t before =
                    it != last.end() ? it->second.gauges[gauge] : 0;
                return static_cast<double>(sample.gauges[gauge] -
                                           before);
            };
            auto point = [&](int tid, const std::string &name,
                             double value) {
                expected[{ tid, name }].emplace_back(sample.cycle,
                                                     value);
            };
            if (sample.isMemory()) {
                point(0, "l2.mshrs_in_use",
                      static_cast<double>(sample.gauges[S::MshrsInUse]));
                point(0, "noc.bytes_per_interval", delta(S::NocBytes));
                point(0, "dram.bytes_per_interval",
                      delta(S::DramBytesRead) +
                          delta(S::DramBytesWritten));
            } else {
                int tid = sample.component + 1;
                std::string tag =
                    "tile" + std::to_string(sample.component);
                point(tid, tag + ".firings_per_interval",
                      delta(S::Firings));
                point(tid, tag + ".stall_cycles_per_interval",
                      delta(S::FabricStallCycles));
            }
            last[sample.component] = sample;
        }
        EXPECT_EQ(tracks, expected) << spec.name;
        EXPECT_EQ(tracks.size(), 3 + 2 * result.tiles.size())
            << spec.name;

        // Each per-interval track sums to its final cumulative gauge.
        auto sum = [&](int tid, const std::string &name) {
            double total = 0.0;
            for (const auto &[cycle, value] : tracks[{ tid, name }])
                total += value;
            return static_cast<uint64_t>(total);
        };
        for (const auto &[component, sample] : last) {
            if (sample.isMemory()) {
                noc_bytes += sample.gauges[S::NocBytes];
                EXPECT_EQ(sum(0, "noc.bytes_per_interval"),
                          sample.gauges[S::NocBytes]);
                EXPECT_EQ(sum(0, "dram.bytes_per_interval"),
                          sample.gauges[S::DramBytesRead] +
                              sample.gauges[S::DramBytesWritten]);
                continue;
            }
            std::string tag = "tile" + std::to_string(component);
            EXPECT_GT(sample.gauges[S::Firings], 0u) << tag;
            EXPECT_EQ(sum(component + 1, tag + ".firings_per_interval"),
                      sample.gauges[S::Firings])
                << spec.name << " " << tag;
            EXPECT_EQ(
                sum(component + 1, tag + ".stall_cycles_per_interval"),
                sample.gauges[S::FabricStallCycles])
                << spec.name << " " << tag;
        }
    }
    EXPECT_GT(noc_bytes, 0u);

    // No timeline, no counter tracks.
    sim::SimResult result;
    Json unsampled = traceSampled(wl::makeFir(256, 16), 0, result);
    for (const Json &e : unsampled.at("traceEvents").asArray())
        EXPECT_NE(e.at("ph").asString(), "C");
}

TEST(Dse, OneJsonlRecordPerIteration)
{
    Sink sink;
    dse::DseOptions options;
    options.iterations = 6;
    options.seed = 3;
    options.sink = &sink;
    options.telemetryLabel = "test-run";
    dse::DseResult result =
        dse::exploreOverlay({ wl::makeAccumulate() }, options);

    // Heartbeat progress records share the stream, marked by a
    // "type" key; iteration records carry none.
    std::vector<Json> iters;
    size_t heartbeats = 0;
    for (const std::string &line : sink.dseLines()) {
        Json record = Json::parse(line);
        if (record.asObject().count("type") > 0) {
            EXPECT_EQ(record.at("type").asString(), "heartbeat");
            EXPECT_EQ(record.at("run").asString(), "test-run");
            EXPECT_TRUE(record.at("best_objective").asNumber() > 0.0);
            EXPECT_TRUE(record.at("candidates_per_sec").isNumber());
            ++heartbeats;
            continue;
        }
        iters.push_back(std::move(record));
    }
    ASSERT_EQ(iters.size(), static_cast<size_t>(result.iterationsRun));
    EXPECT_GE(heartbeats, 1u);
    EXPECT_EQ(sink.registry().counter("dse/heartbeats").value(),
              heartbeats);
    int accepted = 0;
    for (size_t i = 0; i < iters.size(); ++i) {
        const Json &record = iters[i];
        EXPECT_EQ(record.at("run").asString(), "test-run");
        EXPECT_EQ(record.at("iteration").asNumber(),
                  static_cast<double>(i + 1));
        EXPECT_TRUE(record.at("objective").asNumber() > 0.0);
        EXPECT_TRUE(record.at("accepted").isBool());
        EXPECT_TRUE(record.at("mutations").isArray());
        accepted += record.at("accepted").asBool() ? 1 : 0;
    }
    EXPECT_EQ(accepted, result.accepted);
    EXPECT_EQ(sink.registry().counter("dse/iterations").value(),
              static_cast<uint64_t>(result.iterationsRun));
}

TEST(Attribution, ModelClassOf)
{
    EXPECT_EQ(modelClassOf("dram"), "memory");
    EXPECT_EQ(modelClassOf("l2"), "memory");
    EXPECT_EQ(modelClassOf("compute"), "compute");
    EXPECT_EQ(modelClassOf("fabric"), "compute");
    EXPECT_EQ(modelClassOf("spad"), "compute");
}

/** Simulate + predict one kernel and return its attribution. */
KernelAttribution
attributeOnGeneral(const wl::KernelSpec &spec)
{
    model::PerfBreakdown prediction;
    sim::SimConfig config;
    sim::SimResult result = runGeneral(spec, config, &prediction);
    EXPECT_TRUE(result.completed) << spec.name;
    adg::SystemParams sys;
    sys.numTiles = 4;
    sys.l2Banks = 4;
    sys.l2CapacityKiB = 512;
    sys.nocBytes = 32;
    return attributeKernel(
        observeKernel(spec.name, result, config, sys, prediction));
}

TEST(Attribution, AgreesOnClearlyComputeBoundKernel)
{
    // Dense mm on the general overlay is fabric-limited: low memory
    // utilization, model predicts a compute-level bottleneck.
    KernelAttribution a = attributeOnGeneral(wl::makeMm());
    EXPECT_EQ(a.simClass, "compute");
    EXPECT_EQ(a.modelClass, "compute");
    EXPECT_TRUE(a.agree);
}

TEST(Attribution, AgreesOnClearlyMemoryBoundKernel)
{
    // gemm streams whole matrices through the L2: bandwidth-bound in
    // both the simulator and the analytical model.
    KernelAttribution a = attributeOnGeneral(wl::makeGemm());
    EXPECT_EQ(a.simClass, "memory");
    EXPECT_EQ(a.modelClass, "memory");
    EXPECT_TRUE(a.agree);
}

TEST(Attribution, ReportFlagsDisagreements)
{
    KernelObservation agree_obs;
    agree_obs.kernel = "calm";
    agree_obs.cycles = 1000;
    agree_obs.tiles = 1;
    agree_obs.fabricStallCycles = 10;
    agree_obs.dramBandwidthBytes = 16.0;
    agree_obs.l2Bytes = 100;
    agree_obs.l2BandwidthBytes = 64.0;
    agree_obs.modelBottleneck = "compute";

    KernelObservation conflict_obs = agree_obs;
    conflict_obs.kernel = "torn";
    conflict_obs.modelBottleneck = "dram";

    AttributionReport report =
        buildReport({ agree_obs, conflict_obs });
    ASSERT_EQ(report.kernels.size(), 2u);
    EXPECT_TRUE(report.kernels[0].agree);
    EXPECT_FALSE(report.kernels[1].agree);
    std::vector<std::string> bad = report.disagreements();
    ASSERT_EQ(bad.size(), 1u);
    EXPECT_EQ(bad[0], "torn");
    // The printable report names the offender.
    EXPECT_NE(report.format().find("torn"), std::string::npos);
}

} // namespace
} // namespace overgen::telemetry
