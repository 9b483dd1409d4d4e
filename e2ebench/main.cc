/**
 * @file
 * The end-to-end benchmark:
 *
 *   e2ebench --workload <overlay_gen|kernel_sweep|request_trace>
 *            --seed <n> [--seconds <n>] [--trace <0|1>]
 *
 * Sets up (trains the resource model and builds the seeded inputs)
 * several times and reports the median, and runs complete passes of
 * the workload, the first ones between the set-ups, until --seconds of
 * passes have run; it reports medians over the passes. Every pass
 * checks its outputs. The last stdout line
 * is the result JSON: end-to-end metrics untraced, per-layer metrics
 * with --trace 1. A traced run alternates untraced and traced passes,
 * so the tracing overhead is measured in the same process, and writes
 * its spans to .bench_out/trace-<workload>-<seed>.json.
 */

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <functional>
#include <sstream>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include "model/resource_model.h"
#include "workloads.h"

using namespace e2e;

namespace {

/** Set-up repetitions per run (set-up time is their median). */
constexpr int kSetups = 3;

struct MetricSpec
{
    const char *name;
    const char *unit;
};

/** Every per-layer metric (BENCHMARK.json "per_layer"). A workload
 * that does not exercise a layer reports its metrics as 0. */
const MetricSpec kPerLayer[] = {
    { "model.train_s", "s" },
    { "dse.explore_s", "s" },
    { "dse.evals_per_s", "1/s" },
    { "dse.evaluated", "count" },
    { "dse.discarded", "count" },
    { "dse.abandoned", "count" },
    { "dse.grid_pruned", "count" },
    { "dse.cache_hit_rate", "ratio" },
    { "sim.validate_s", "s" },
    { "sim.host_s.compute", "s" },
    { "sim.host_s.memory", "s" },
    { "sim.host_ns_per_ticked_cycle.compute", "ns" },
    { "sim.host_ns_per_ticked_cycle.memory", "ns" },
    { "sim.ticked_fraction.compute", "ratio" },
    { "sim.ticked_fraction.memory", "ratio" },
    { "sim.skipped_fraction.compute", "ratio" },
    { "sim.skipped_fraction.memory", "ratio" },
    { "sim.drained_fraction.compute", "ratio" },
    { "sim.drained_fraction.memory", "ratio" },
    { "sim.drain_jumps.compute", "count" },
    { "sim.drain_jumps.memory", "count" },
    { "sim.tile_busy_fraction.compute", "ratio" },
    { "sim.tile_busy_fraction.memory", "ratio" },
    { "sim.dram_fill_fraction.compute", "ratio" },
    { "sim.dram_fill_fraction.memory", "ratio" },
    { "sim.port_stall_fraction.compute", "ratio" },
    { "sim.port_stall_fraction.memory", "ratio" },
    { "sim.peak_outstanding_txns.compute", "count" },
    { "sim.peak_outstanding_txns.memory", "count" },
    { "compiler.compile_s", "s" },
    { "compiler.variants", "count" },
    { "sched.first_fit_s", "s" },
    { "sched.unmapped", "count" },
    { "library.batch_ms.hit_only", "ms" },
    { "library.batch_ms.with_miss", "ms" },
    { "library.warms", "count" },
    { "library.entries", "count" },
    { "serve.calls", "count" },
    { "serve.workers_spawned", "count" },
    { "serve.jobs", "count" },
    { "serve.retries", "count" },
    { "serve.duplicates", "count" },
    { "serve.abandoned", "count" },
    { "trace.queue_wait_ms.p50", "ms" },
    { "trace.queue_wait_ms.p99", "ms" },
    { "trace.overhead_s", "s" },
    { "bench.self_s", "s" },
    // Workload-level results of the one workload that produces each.
    { "overlay_gen_s", "s" },
    { "overlay_ipc_geomean", "ipc" },
    { "validated_cycles", "cycles" },
    { "sim_cycles_per_s.compute", "cycles/s" },
    { "sim_cycles_per_s.memory", "cycles/s" },
    { "simulated_cycles.compute", "cycles" },
    { "simulated_cycles.memory", "cycles" },
    { "request_p50_ms", "ms" },
    { "request_p99_ms", "ms" },
    { "requests_per_s", "1/s" },
    { "hit_rate", "ratio" },
    { "error_rate", "ratio" },
};

const std::map<std::string, std::function<std::unique_ptr<Workload>()>> &
factories()
{
    static const std::map<std::string,
                          std::function<std::unique_ptr<Workload>()>>
        table = { { "overlay_gen", makeOverlayGen },
                  { "kernel_sweep", makeKernelSweep },
                  { "request_trace", makeRequestTrace } };
    return table;
}

std::vector<double>
collect(const std::vector<PassResult> &passes,
        const std::function<double(const PassResult &)> &field)
{
    std::vector<double> out;
    for (const PassResult &pass : passes)
        out.push_back(field(pass));
    return out;
}

/** A pass result and its spans as text lines for the pipe from the
 * pass process (names hold no whitespace; %.17g round-trips). */
std::string
encodePass(const PassResult &pass, const std::vector<Span> &spans)
{
    std::ostringstream out;
    out.precision(17);
    out << "wall " << pass.wallS << "\ncpu " << pass.cpuS << "\nattempted "
        << pass.attempted << "\nfailed " << pass.failed << "\n";
    for (const auto &[name, value] : pass.exact)
        out << "exact " << name << " " << value << "\n";
    for (const auto &[name, metric] : pass.layers)
        out << "layer " << name << " " << metric.unit << " " << metric.value
            << "\n";
    for (const Span &span : spans)
        out << "span " << span.name << " " << span.startNs << " "
            << span.endNs << " " << span.parent << " " << span.batch << "\n";
    return out.str();
}

PassResult
decodePass(const std::string &text, std::vector<Span> &spans)
{
    PassResult pass;
    std::istringstream in(text);
    std::string kind;
    while (in >> kind) {
        if (kind == "wall") {
            in >> pass.wallS;
        } else if (kind == "cpu") {
            in >> pass.cpuS;
        } else if (kind == "attempted") {
            in >> pass.attempted;
        } else if (kind == "failed") {
            in >> pass.failed;
        } else if (kind == "exact") {
            std::string name;
            in >> name;
            in >> pass.exact[name];
        } else if (kind == "layer") {
            std::string name;
            Metric metric;
            in >> name >> metric.unit >> metric.value;
            pass.layers[name] = metric;
        } else if (kind == "span") {
            Span span;
            in >> span.name >> span.startNs >> span.endNs >> span.parent >>
                span.batch;
            spans.push_back(span);
        }
    }
    return pass;
}

/** Largest peak resident set of any pass process so far, MiB. */
double passPeakMb = 0.0;

/**
 * Run one pass in a forked process, so every pass starts from the
 * state set-up left: the program keeps process-wide memos (the
 * resource model's prediction memo) that a repeated pass would find
 * warm. The pass process reports back over a pipe; a pass process that
 * dies counts as one failed operation.
 */
PassResult
runPass(Workload &workload, bool traced, std::vector<Span> &spans)
{
    int fds[2];
    if (pipe(fds) != 0) {
        std::perror("e2ebench: pipe");
        std::exit(1);
    }
    std::fflush(stdout);
    std::fflush(stderr);
    pid_t pid = fork();
    if (pid < 0) {
        std::perror("e2ebench: fork");
        std::exit(1);
    }
    if (pid == 0) {
        close(fds[0]);
        SpanRecorder recorder(traced);
        PassResult pass = workload.pass(recorder);
        std::string text = encodePass(pass, recorder.spans());
        for (size_t done = 0; done < text.size();) {
            ssize_t n = write(fds[1], text.data() + done, text.size() - done);
            if (n < 0 && errno == EINTR)
                continue;
            if (n <= 0)
                _exit(3);
            done += static_cast<size_t>(n);
        }
        close(fds[1]);
        _exit(0);
    }
    close(fds[1]);
    std::string text;
    char buffer[1 << 16];
    for (;;) {
        ssize_t n = read(fds[0], buffer, sizeof buffer);
        if (n < 0 && errno == EINTR)
            continue;
        if (n <= 0)
            break;
        text.append(buffer, static_cast<size_t>(n));
    }
    close(fds[0]);
    int status = 0;
    rusage usage{};
    while (wait4(pid, &status, 0, &usage) < 0 && errno == EINTR) {
    }
    // The pass process's peak, with its reaped workers (not the build
    // tools run.py started before it exec'd this binary).
    passPeakMb = std::max(passPeakMb,
                          static_cast<double>(usage.ru_maxrss) / 1024.0);
    if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
        if (WIFSIGNALED(status))
            std::fprintf(stderr, "e2ebench: pass process killed by signal "
                                 "%d\n", WTERMSIG(status));
        else
            std::fprintf(stderr, "e2ebench: pass process exited with %d\n",
                         WEXITSTATUS(status));
        PassResult failed;
        failed.attempted = 1;
        failed.failed = 1;
        return failed;
    }
    return decodePass(text, spans);
}

/** The report step: per-layer self time (median per traced pass). */
void
printSelfTimes(const std::vector<std::map<std::string, double>> &perPass)
{
    std::map<std::string, std::vector<double>> byLayer;
    for (const auto &pass : perPass)
        for (const auto &[layer, seconds] : pass)
            byLayer[layer].push_back(seconds);
    std::printf("%-10s %12s   (median self time per traced pass)\n", "layer",
                "self_s");
    for (const auto &[layer, values] : byLayer)
        std::printf("%-10s %12.6f\n", layer.c_str(), median(values));
}

} // namespace

namespace e2e {

const std::vector<std::string> &
workloadNames()
{
    static const std::vector<std::string> names = { "overlay_gen",
                                                    "kernel_sweep",
                                                    "request_trace" };
    return names;
}

} // namespace e2e

int
main(int argc, char **argv)
{
    auto processStart = Clock::now();
    Args args;
    if (auto error = parseArgs(std::vector<std::string>(argv + 1, argv + argc),
                               workloadNames(), args)) {
        std::fprintf(stderr, "e2ebench: %s\n", error->c_str());
        return 2;
    }
    std::unique_ptr<Workload> workload = factories().at(args.workload)();

    // Set-up: process start (set-up 0) or the set-up's own start
    // (repeats) to workload ready. The first trains the shared model the
    // program uses; the repeats train an identical private one and
    // rebuild the inputs.
    SpanRecorder all(args.trace);
    std::vector<double> setupS, trainS;
    auto setUp = [&](int r) {
        auto t0 = r == 0 ? processStart : Clock::now();
        ScopedSpan span(&all, "bench.setup");
        auto train0 = Clock::now();
        {
            ScopedSpan train(&all, "model.train");
            if (r == 0)
                overgen::model::FpgaResourceModel::defaultModel();
            else
                (void)overgen::model::FpgaResourceModel::train();
        }
        trainS.push_back(secondsSince(train0));
        workload->prepare(args.seed);
        setupS.push_back(secondsSince(t0));
    };
    setUp(0);
    workload->reference();

    // Measure: whole passes until --seconds of passes have run. The
    // repeated set-ups run between the first passes, so the passes are
    // spread over the whole run rather than bunched in its last seconds
    // (host speed drifts over tens of seconds). A traced run alternates
    // untraced and traced passes.
    std::vector<PassResult> plain, traced;
    std::vector<std::map<std::string, double>> selfTimes;
    double measured = 0.0;
    for (int i = 0;; ++i) {
        bool traceThis = args.trace && i % 2 == 1;
        std::vector<Span> spans;
        auto pass0 = Clock::now();
        PassResult result = runPass(*workload, traceThis, spans);
        measured += secondsSince(pass0);
        std::printf("pass %d%s: %.4f s\n", i, traceThis ? " (traced)" : "",
                    result.wallS);
        if (traceThis) {
            selfTimes.push_back(layerSelfSeconds(spans));
            result.layers["bench.self_s"] = { selfTimes.back()["bench"], "s" };
            all.absorb(spans);
            traced.push_back(std::move(result));
        } else {
            plain.push_back(std::move(result));
        }
        if (static_cast<int>(setupS.size()) < kSetups) {
            setUp(static_cast<int>(setupS.size()));
            if (static_cast<int>(setupS.size()) < kSetups)
                continue;
        }
        bool covered = !plain.empty() && (!args.trace || !traced.empty());
        if (covered && measured >= args.seconds)
            break;
    }

    // Checks: every pass's own checks, plus seed-exact results that
    // must repeat in every pass.
    uint64_t attempted = 0, failed = 0;
    std::vector<PassResult> passes = plain;
    passes.insert(passes.end(), traced.begin(), traced.end());
    for (const PassResult &pass : passes) {
        attempted += pass.attempted + 1;
        failed += pass.failed;
        if (pass.exact != passes.front().exact) {
            std::fprintf(stderr,
                         "e2ebench: seed-exact results differ between "
                         "passes\n");
            ++failed;
        }
    }
    if (failed != 0)
        std::fprintf(stderr, "e2ebench: %llu of %llu checked operations "
                             "failed\n",
                     static_cast<unsigned long long>(failed),
                     static_cast<unsigned long long>(attempted));
    for (const auto &[name, value] : passes.front().exact)
        std::printf("%-32s %.17g\n", name.c_str(), value);

    Metrics metrics;
    if (!args.trace) {
        metrics["setup_s"] = { median(setupS), "s" };
        metrics["peak_rss_mb"] = { std::max(peakRssMb(), passPeakMb),
                                   "MiB" };
        metrics["pass_s"] = {
            median(collect(plain, [](const PassResult &p) { return p.wallS; })),
            "s"
        };
        metrics["cpu_s"] = {
            median(collect(plain, [](const PassResult &p) { return p.cpuS; })),
            "s"
        };
    } else {
        for (const MetricSpec &spec : kPerLayer) {
            std::vector<double> values;
            for (const PassResult &pass : traced) {
                if (auto it = pass.layers.find(spec.name);
                    it != pass.layers.end())
                    values.push_back(it->second.value);
                else if (auto ex = pass.exact.find(spec.name);
                         ex != pass.exact.end())
                    values.push_back(ex->second);
            }
            metrics[spec.name] = { median(values), spec.unit };
        }
        metrics["model.train_s"].value = median(trainS);
        metrics["trace.overhead_s"].value =
            median(collect(traced, [](const PassResult &p) { return p.wallS; })) -
            median(collect(plain, [](const PassResult &p) { return p.wallS; }));
        metrics["error_rate"].value =
            static_cast<double>(failed) / static_cast<double>(attempted);

        printSelfTimes(selfTimes);
        std::printf("tracing overhead: %.4f s per pass (traced minus "
                    "untraced median pass_s, %zu + %zu passes)\n",
                    metrics["trace.overhead_s"].value, traced.size(),
                    plain.size());
        std::filesystem::create_directories(".bench_out");
        std::string path = ".bench_out/trace-" + args.workload + "-" +
                           std::to_string(args.seed) + ".json";
        if (!all.writeChromeTrace(path)) {
            std::fprintf(stderr, "e2ebench: cannot write %s\n", path.c_str());
            return 1;
        }
        std::printf("spans written to %s\n", path.c_str());
    }
    std::printf("%s\n", resultJson(failed == 0, attempted, failed, metrics)
                            .c_str());
    std::fflush(stdout);
    return failed == 0 ? 0 : 1;
}
