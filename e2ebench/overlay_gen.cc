/**
 * @file
 * overlay_gen: the paper's headline flow. Explore a domain overlay for
 * each of the DSP, MachSuite and Vision suites at paper size, then
 * validate every final mapping by cycle simulation and check the
 * simulated arrays against the reference interpreter.
 */

#include <cstdio>

#include "common/stats.h"
#include "dse/explorer.h"
#include "model/resource_model.h"
#include "sim/batch.h"
#include "sim_check.h"
#include "workloads.h"
#include "workloads/suites.h"

namespace e2e {

namespace {

using namespace overgen;

/** Fixed annealing budget per suite: large enough that the anneal is
 * most of the pass, small enough for several passes a run. */
constexpr int kIterations = 400;
/** DSE seed, the same for every workload seed. The anneal's trajectory
 * fixes which design is validated, and a pass took from 3.5 to 6.6 s
 * across DSE seeds 0-20, a spread wider than any regression bound. The
 * workload seed sets the memory images. */
constexpr uint64_t kDseSeed = 1;
/** DSE and validation threads: one, so the pass's wall time follows its
 * work rather than how many cores the machine has free. */
constexpr int kThreads = 1;

class OverlayGen : public Workload
{
  public:
    void
    prepare(uint64_t workloadSeed) override
    {
        seed = workloadSeed;
        suites = { wl::dspSuite(), wl::machSuite(), wl::visionSuite() };
        inputs.clear();
        for (const auto &suite : suites) {
            std::vector<wl::Memory> images(suite.size());
            for (size_t k = 0; k < suite.size(); ++k)
                images[k].init(suite[k], seed);
            inputs.push_back(std::move(images));
        }
    }

    void
    reference() override
    {
        expected.clear();
        for (size_t s = 0; s < suites.size(); ++s) {
            std::vector<wl::Memory> out;
            for (size_t k = 0; k < suites[s].size(); ++k)
                out.push_back(referenceOutputs(suites[s][k], inputs[s][k]));
            expected.push_back(std::move(out));
        }
    }

    PassResult
    pass(SpanRecorder &spans) override
    {
        PassResult result;
        std::vector<double> objectives;
        uint64_t cycles = 0;
        uint64_t evaluated = 0, discarded = 0, abandoned = 0, pruned = 0;
        uint64_t hits = 0, misses = 0;
        ScopedSpan root(&spans, "bench.pass");
        for (size_t s = 0; s < suites.size(); ++s) {
            const auto &suite = suites[s];
            dse::DseOptions options;
            options.seed = kDseSeed;
            options.iterations = kIterations;
            options.threads = kThreads;
            options.objective = dse::DseObjective::Scalar;
            double cpu0 = cpuSeconds();
            auto t0 = Clock::now();
            dse::DseResult dse;
            {
                ScopedSpan span(&spans, "dse.explore");
                dse = dse::exploreOverlay(
                    suite, options,
                    &model::FpgaResourceModel::defaultModel());
            }
            // Validate the final mappings on fresh copies of the inputs.
            std::vector<wl::Memory> memory = inputs[s];
            std::vector<sim::SimJob> jobs(suite.size());
            bool mapped = dse.mdfgs.size() == suite.size() &&
                          dse.schedules.size() == suite.size();
            std::vector<sim::SimResult> runs;
            if (mapped) {
                for (size_t k = 0; k < suite.size(); ++k) {
                    jobs[k].spec = &suite[k];
                    jobs[k].mdfg = &dse.mdfgs[k];
                    jobs[k].schedule = &dse.schedules[k];
                    jobs[k].design = &dse.design;
                    jobs[k].memory = &memory[k];
                }
                sim::BatchOptions batch;
                batch.threads = kThreads;
                ScopedSpan span(&spans, "sim.validate");
                runs = sim::runBatch(jobs, batch);
            }
            result.wallS += secondsSince(t0);
            result.cpuS += cpuSeconds() - cpu0;

            ScopedSpan check(&spans, "bench.check");
            // The design must fit the budget it was explored under.
            ++result.attempted;
            if (!model::FpgaDevice::xcvu9p().fits(dse.resources,
                                                   options.budgetFraction)) {
                std::fprintf(stderr, "overlay_gen: suite %zu design exceeds "
                                     "its budget\n", s);
                ++result.failed;
            }
            for (size_t k = 0; k < suite.size(); ++k) {
                ++result.attempted;
                if (!mapped || !runs[k].completed ||
                    (exactWhenPartitioned(suite[k].name) &&
                     !arraysMatch(suite[k], memory[k], expected[s][k]))) {
                    std::fprintf(stderr, "overlay_gen: %s %s\n",
                                 suite[k].name.c_str(),
                                 !mapped              ? "not mapped"
                                 : !runs[k].completed ? "did not complete"
                                                      : "arrays differ");
                    ++result.failed;
                    continue;
                }
                cycles += runs[k].cycles;
            }
            objectives.push_back(dse.objective);
            evaluated += static_cast<uint64_t>(dse.evaluated);
            discarded += static_cast<uint64_t>(dse.discarded);
            abandoned += static_cast<uint64_t>(dse.abandoned);
            pruned += dse.gridPruned;
            hits += dse.cacheHits;
            misses += dse.cacheMisses;
        }
        result.exact["overlay_ipc_geomean"] = geometricMean(objectives);
        result.exact["validated_cycles"] = static_cast<double>(cycles);

        if (spans.enabled()) {
            double explore = spanSeconds(spans.spans(), "dse.explore");
            Metrics &m = result.layers;
            m["overlay_gen_s"] = { result.wallS, "s" };
            m["dse.explore_s"] = { explore, "s" };
            m["dse.evals_per_s"] = { static_cast<double>(evaluated) / explore,
                                     "1/s" };
            m["dse.evaluated"] = { static_cast<double>(evaluated), "count" };
            m["dse.discarded"] = { static_cast<double>(discarded), "count" };
            m["dse.abandoned"] = { static_cast<double>(abandoned), "count" };
            m["dse.grid_pruned"] = { static_cast<double>(pruned), "count" };
            m["dse.cache_hit_rate"] = {
                hits + misses == 0
                    ? 0.0
                    : static_cast<double>(hits) /
                          static_cast<double>(hits + misses),
                "ratio"
            };
            m["sim.validate_s"] = {
                spanSeconds(spans.spans(), "sim.validate"), "s"
            };
        }
        return result;
    }

  private:
    uint64_t seed = 1;
    std::vector<std::vector<wl::KernelSpec>> suites;
    std::vector<std::vector<wl::Memory>> inputs;
    std::vector<std::vector<wl::Memory>> expected;
};

} // namespace

std::unique_ptr<Workload>
makeOverlayGen()
{
    return std::make_unique<OverlayGen>();
}

} // namespace e2e
