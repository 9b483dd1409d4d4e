/**
 * @file
 * kernel_sweep: compile (tuned), first-fit schedule and simulate all 19
 * paper-size kernels on two fixed hand-built designs. `compute` is the
 * 4-tile general overlay at default memory timing, where the tick loop
 * dominates; `memory` is the DRAM-starved 10-tile point behind a slow,
 * narrow channel, where fast-forward and drain replay dominate.
 */

#include <algorithm>
#include <cstdio>

#include "adg/builders.h"
#include "compiler/compile.h"
#include "sched/scheduler.h"
#include "sim/batch.h"
#include "sim_check.h"
#include "workloads.h"
#include "workloads/suites.h"

namespace e2e {

namespace {

using namespace overgen;
using telemetry::CycleCategory;

/** One sim thread, so the pass's wall time follows its work rather than
 * how many cores the machine has free. */
constexpr int kSimThreads = 1;

struct Design
{
    std::string name;
    adg::SysAdg sys;
    sim::SimConfig config;
};

std::vector<Design>
makeDesigns()
{
    Design compute;
    compute.name = "compute";
    compute.sys.adg = adg::buildGeneralOverlayTile();
    compute.sys.sys.numTiles = 4;
    compute.sys.sys.l2Banks = 4;
    compute.sys.sys.l2CapacityKiB = 512;
    compute.sys.sys.nocBytes = 32;

    Design memory;
    memory.name = "memory";
    memory.sys = compute.sys;
    memory.sys.sys.numTiles = 10;
    memory.sys.sys.nocBytes = 64;
    memory.sys.sys.l2Banks = 16;
    memory.sys.sys.l2CapacityKiB = 16;
    memory.sys.sys.dramChannels = 1;
    memory.config.dramLatency = 4000;
    memory.config.dramChannelBandwidthBytes = 16;
    return { compute, memory };
}

double
ratio(uint64_t part, uint64_t whole)
{
    return whole == 0 ? 0.0
                      : static_cast<double>(part) / static_cast<double>(whole);
}

class KernelSweep : public Workload
{
  public:
    void
    prepare(uint64_t seed) override
    {
        kernels = wl::allWorkloads();
        designs = makeDesigns();
        inputs.assign(kernels.size(), {});
        for (size_t k = 0; k < kernels.size(); ++k)
            inputs[k].init(kernels[k], seed);
    }

    void
    reference() override
    {
        expected.clear();
        for (size_t k = 0; k < kernels.size(); ++k)
            expected.push_back(referenceOutputs(kernels[k], inputs[k]));
    }

    PassResult
    pass(SpanRecorder &spans) override
    {
        PassResult result;
        ScopedSpan root(&spans, "bench.pass");
        for (const Design &design : designs) {
            const std::string &d = design.name;
            double cpu0 = cpuSeconds();
            auto t0 = Clock::now();
            // Prepare: compile the variant family, take the first that
            // schedules.
            std::vector<dfg::Mdfg> mdfgs(kernels.size());
            std::vector<sched::Schedule> schedules(kernels.size());
            std::vector<size_t> mapped;
            uint64_t variants = 0;
            for (size_t k = 0; k < kernels.size(); ++k) {
                std::vector<dfg::Mdfg> family;
                {
                    ScopedSpan span(&spans, "compiler.compile");
                    compiler::CompileOptions options;
                    options.applyTuning = true;
                    family = compiler::compileVariants(kernels[k], options);
                }
                variants += family.size();
                ScopedSpan span(&spans, "sched.first_fit");
                sched::SpatialScheduler scheduler(design.sys.adg);
                auto fit = scheduler.scheduleFirstFit(family);
                if (!fit)
                    continue;
                mdfgs[k] = std::move(family[static_cast<size_t>(fit->second)]);
                schedules[k] = std::move(fit->first);
                mapped.push_back(k);
            }
            std::vector<wl::Memory> memory(mapped.size());
            std::vector<sim::SimJob> jobs(mapped.size());
            for (size_t j = 0; j < mapped.size(); ++j) {
                size_t k = mapped[j];
                memory[j] = inputs[k];
                jobs[j].spec = &kernels[k];
                jobs[j].mdfg = &mdfgs[k];
                jobs[j].schedule = &schedules[k];
                jobs[j].design = &design.sys;
                jobs[j].memory = &memory[j];
                jobs[j].config = design.config;
            }
            sim::BatchOptions batch;
            batch.threads = kSimThreads;
            auto s0 = Clock::now();
            std::vector<sim::SimResult> runs;
            {
                ScopedSpan span(&spans, "sim.run." + d);
                runs = sim::runBatch(jobs, batch);
            }
            double simS = secondsSince(s0);
            result.wallS += secondsSince(t0);
            result.cpuS += cpuSeconds() - cpu0;

            ScopedSpan check(&spans, "bench.check");
            uint64_t cycles = 0, ticked = 0, skipped = 0, drained = 0;
            uint64_t jumps = 0, peak = 0;
            telemetry::CycleLedger tiles;
            for (size_t j = 0; j < runs.size(); ++j) {
                const sim::SimResult &run = runs[j];
                const wl::KernelSpec &spec = kernels[mapped[j]];
                ++result.attempted;
                if (!run.completed ||
                    (exactWhenPartitioned(spec.name) &&
                     !arraysMatch(spec, memory[j], expected[mapped[j]]))) {
                    std::fprintf(stderr, "kernel_sweep: %s on %s %s\n",
                                 spec.name.c_str(), d.c_str(),
                                 run.completed ? "arrays differ"
                                               : "did not complete");
                    ++result.failed;
                }
                cycles += run.cycles;
                ticked += run.tickedCycles;
                skipped += run.skippedCycles;
                drained += run.drainedCycles;
                jumps += run.drainJumps;
                peak = std::max(peak, run.memory.peakOutstandingTxns);
                for (const sim::TileStats &tile : run.tiles)
                    for (size_t c = 0; c < tiles.counts.size(); ++c)
                        tiles.counts[c] += tile.ledger.counts[c];
            }
            result.exact["simulated_cycles." + d] =
                static_cast<double>(cycles);
            result.exact["sched.unmapped." + d] =
                static_cast<double>(kernels.size() - mapped.size());
            if (!spans.enabled())
                continue;
            Metrics &m = result.layers;
            m["sim_cycles_per_s." + d] = { static_cast<double>(cycles) / simS,
                                           "cycles/s" };
            m["simulated_cycles." + d] = { static_cast<double>(cycles),
                                           "cycles" };
            m["sim.host_s." + d] = { simS, "s" };
            m["sim.host_ns_per_ticked_cycle." + d] = {
                ticked == 0 ? 0.0 : simS * 1e9 / static_cast<double>(ticked),
                "ns"
            };
            m["sim.ticked_fraction." + d] = { ratio(ticked, cycles), "ratio" };
            m["sim.skipped_fraction." + d] = { ratio(skipped, cycles),
                                               "ratio" };
            m["sim.drained_fraction." + d] = { ratio(drained, cycles),
                                               "ratio" };
            m["sim.drain_jumps." + d] = { static_cast<double>(jumps),
                                          "count" };
            m["sim.tile_busy_fraction." + d] = {
                ratio(tiles[CycleCategory::Busy], tiles.total()), "ratio"
            };
            m["sim.dram_fill_fraction." + d] = {
                ratio(tiles[CycleCategory::DramFill], tiles.total()), "ratio"
            };
            m["sim.port_stall_fraction." + d] = {
                ratio(tiles[CycleCategory::PortStall], tiles.total()),
                "ratio"
            };
            m["sim.peak_outstanding_txns." + d] = {
                static_cast<double>(peak), "count"
            };
            double unmapped = result.exact["sched.unmapped." + d];
            m["sched.unmapped"].value += unmapped;
            m["sched.unmapped"].unit = "count";
            m["compiler.variants"].value += static_cast<double>(variants);
            m["compiler.variants"].unit = "count";
        }
        if (spans.enabled()) {
            Metrics &m = result.layers;
            m["compiler.compile_s"] = {
                spanSeconds(spans.spans(), "compiler.compile"), "s"
            };
            m["sched.first_fit_s"] = {
                spanSeconds(spans.spans(), "sched.first_fit"), "s"
            };
        }
        return result;
    }

  private:
    std::vector<wl::KernelSpec> kernels;
    std::vector<Design> designs;
    std::vector<wl::Memory> inputs;
    std::vector<wl::Memory> expected;
};

} // namespace

std::unique_ptr<Workload>
makeKernelSweep()
{
    return std::make_unique<KernelSweep>();
}

} // namespace e2e
