#include "dse/explorer.h"

#include <algorithm>
#include <chrono>
#include <cmath>

#include "adg/builders.h"
#include "common/logging.h"
#include "common/parallel.h"
#include "common/stats.h"
#include "compiler/compile.h"
#include "dse/mutations.h"
#include "model/oracle.h"
#include "telemetry/sink.h"

namespace overgen::dse {

namespace {

using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

/** State of one candidate evaluation. */
struct Candidate
{
    adg::Adg adg;
    adg::SystemParams sys;
    std::vector<int> variantIndex;           //!< per kernel
    std::vector<sched::Schedule> schedules;  //!< per kernel
    double objective = 0.0;
    model::Resources resources;
    double utilization = 0.0;
    bool valid = false;
};

} // namespace

adg::Adg
seedTile(const std::vector<wl::KernelSpec> &kernels)
{
    OG_ASSERT(!kernels.empty(), "DSE without kernels");
    // Capability closure over the domain's ops.
    std::set<FuCapability> caps;
    bool indirect = false;
    int max_unroll = 1;
    int max_elem = 1;
    for (const wl::KernelSpec &k : kernels) {
        for (const wl::OpSpec &op : k.ops)
            caps.insert({ op.op, op.type });
        for (const wl::AccessSpec &access : k.accesses)
            indirect |= access.indirect();
        max_unroll = std::max(max_unroll, k.maxUnroll);
        max_elem =
            std::max(max_elem, dataTypeBytes(k.dominantType()));
    }
    adg::MeshConfig config;
    config.rows = 5;
    config.cols = 5;
    config.tracks = 2;
    config.numPes = 20;
    config.numInPorts = 12;
    config.numOutPorts = 6;
    config.datapathBytes =
        std::clamp(max_unroll * max_elem, 16, 64);
    config.numScratchpads = 2;
    config.spadCapacityKiB = 32;
    config.indirect = indirect;
    // Stream engines are line-wide regardless of datapath width: the
    // DMA's issue rate, not the fabric width, sets its bandwidth.
    config.dmaBandwidthBytes = 64;
    config.peCapabilities = std::move(caps);
    return adg::buildMeshTile(config);
}

DseResult
exploreOverlay(const std::vector<wl::KernelSpec> &kernels,
               const DseOptions &options,
               const model::FpgaResourceModel *resource_model)
{
    auto start = Clock::now();
    const model::FpgaResourceModel &prices =
        resource_model ? *resource_model
                       : model::FpgaResourceModel::defaultModel();
    model::FpgaDevice device = model::FpgaDevice::xcvu9p();
    Rng rng(options.seed);

    // Pre-generate all variants once (paper §V-A): DSE never
    // recompiles from scratch.
    compiler::CompileOptions copts;
    copts.applyTuning = options.applyTuning;
    std::vector<std::vector<dfg::Mdfg>> variants;
    variants.reserve(kernels.size());
    for (const wl::KernelSpec &k : kernels)
        variants.push_back(compiler::compileVariants(k, copts));

    // Schedule all kernels on an ADG, preferring prior schedules.
    // Takes the tile by value: callers hand over their (freshly
    // mutated) copy, so the candidate adopts it without another
    // deep graph copy.
    auto schedule_all =
        [&](adg::Adg tile,
            const Candidate *prior) -> std::optional<Candidate> {
        Candidate cand;
        cand.adg = std::move(tile);
        sched::SpatialScheduler scheduler(
            cand.adg, sched::SchedulerOptions{ options.seed, 2 });
        for (size_t k = 0; k < kernels.size(); ++k) {
            std::optional<sched::Schedule> best;
            int best_variant = -1;
            // Try repair of the prior variant first, then walk the
            // variant list most-aggressive-first.
            if (prior && prior->variantIndex[k] >= 0) {
                auto repaired = scheduler.repair(
                    variants[k][prior->variantIndex[k]],
                    prior->schedules[k]);
                if (repaired) {
                    best = std::move(repaired);
                    best_variant = prior->variantIndex[k];
                }
            }
            if (!best) {
                auto fit = scheduler.scheduleFirstFit(variants[k]);
                if (fit) {
                    best = std::move(fit->first);
                    best_variant = fit->second;
                }
            }
            if (!best)
                return std::nullopt;  // abandon ADG* (paper Fig. 6)
            cand.schedules.push_back(std::move(*best));
            cand.variantIndex.push_back(best_variant);
        }
        return cand;
    };

    // System-grid axes, ascending: resources are monotone in each
    // axis, so once a point exceeds the budget the rest of its axis
    // (and, when it was the axis's first point, the enclosing
    // subtree) is provably over budget and pruned wholesale.
    auto ascending = [](std::vector<int> v) {
        std::sort(v.begin(), v.end());
        return v;
    };
    const std::vector<int> tile_grid = ascending(options.tileCountGrid);
    const std::vector<int> bank_grid = ascending(options.l2BankGrid);
    const std::vector<int> noc_grid = ascending(options.nocBytesGrid);
    const std::vector<int> l2_grid = ascending(options.l2CapacityGrid);
    const std::vector<int> chan_grid =
        ascending(options.dramChannelGrid);
    // Grid points pruned by examined candidates (and the seed); a
    // scored slot the accept scan never reaches adds nothing.
    uint64_t grid_pruned = 0;

    // Nested exhaustive system DSE (paper §V-A): pick the best system
    // parameters for a scheduled ADG under the resource budget. The
    // per-kernel perf precomputation and the backing derivation are
    // hoisted out of the grid — only combineSystemPerf runs per point.
    // Adds the grid points it prunes to @p pruned.
    auto system_dse = [&](Candidate &cand,
                          const model::Resources &tile_only,
                          uint64_t &pruned) {
        model::Resources tile_res = tile_only;
        tile_res += model::synthesizeControlCore();
        std::vector<model::TilePerfSummary> summaries;
        std::vector<double> weights;
        std::vector<double> throughput;
        summaries.reserve(kernels.size());
        for (size_t k = 0; k < kernels.size(); ++k) {
            const dfg::Mdfg &m = variants[k][cand.variantIndex[k]];
            summaries.push_back(model::precomputeTilePerf(
                m,
                sched::backingFromSchedule(cand.schedules[k],
                                           cand.adg, m),
                cand.adg));
            weights.push_back(m.weight);
            throughput.push_back(
                cand.schedules[k].throughputFactor());
        }
        std::vector<model::PerfBreakdown> perf(kernels.size());
        double best_score = -1.0;
        const size_t nb = bank_grid.size(), nn = noc_grid.size();
        const size_t nl = l2_grid.size(), nc = chan_grid.size();
        for (size_t ti = 0; ti < tile_grid.size(); ++ti) {
            bool tiles_over = false;  // over budget at subtree start
            for (size_t bi = 0; bi < nb; ++bi) {
                bool banks_over = false;
                for (size_t ni = 0; ni < nn; ++ni) {
                    bool noc_over = false;
                    for (size_t li = 0; li < nl; ++li) {
                        bool l2_over = false;
                        for (size_t ci = 0; ci < nc; ++ci) {
                            adg::SystemParams sys;
                            sys.numTiles = tile_grid[ti];
                            sys.l2Banks = bank_grid[bi];
                            sys.nocBytes = noc_grid[ni];
                            sys.l2CapacityKiB = l2_grid[li];
                            sys.dramChannels = chan_grid[ci];
                            model::Resources total =
                                tile_res *
                                static_cast<double>(sys.numTiles);
                            total += model::synthesizeUncore(sys);
                            double util =
                                device.worstUtilization(total);
                            if (util > options.budgetFraction) {
                                // Larger channel counts only grow.
                                pruned += nc - ci - 1;
                                l2_over = ci == 0;
                                break;
                            }
                            // Estimated performance objective
                            // (paper Eq. 1).
                            for (size_t k = 0; k < kernels.size();
                                 ++k) {
                                perf[k] = model::combineSystemPerf(
                                    summaries[k], sys, options.perf);
                                perf[k].ipc *= throughput[k];
                            }
                            double ipc = model::performanceObjective(
                                perf, weights);
                            // Secondary objective: prefer fewer
                            // resources per accelerator (paper §V-A).
                            double score =
                                std::log(ipc) -
                                0.03 * (tile_res.lut /
                                        device.total.lut);
                            if (score > best_score) {
                                best_score = score;
                                cand.sys = sys;
                                cand.objective = ipc;
                                cand.resources = total;
                                cand.utilization = util;
                                cand.valid = true;
                            }
                        }
                        if (l2_over) {
                            pruned += (nl - li - 1) * nc;
                            noc_over = li == 0;
                            break;
                        }
                    }
                    if (noc_over) {
                        pruned += (nn - ni - 1) * nl * nc;
                        banks_over = ni == 0;
                        break;
                    }
                }
                if (banks_over) {
                    pruned += (nb - bi - 1) * nn * nl * nc;
                    tiles_over = bi == 0;
                    break;
                }
            }
            if (tiles_over) {
                pruned += (tile_grid.size() - ti - 1) * nb * nn * nl *
                          nc;
                break;
            }
        }
        return cand.valid;
    };

    // The annealer's base design; declared ahead of the evaluation
    // lambda because schedule repair reads its schedules.
    Candidate current;

    // Full candidate evaluation: schedule repair against the base
    // design, then the system DSE over the tile's priced resources.
    auto evaluate_candidate =
        [&](adg::Adg mutated,
            uint64_t &pruned) -> std::optional<Candidate> {
        std::optional<Candidate> cand =
            schedule_all(std::move(mutated), &current);
        if (!cand ||
            !system_dse(*cand, prices.tileResources(cand->adg), pruned))
            return std::nullopt;
        return cand;
    };

    DseResult result;

    // Seed: scheduled from scratch (no base design to repair from).
    {
        auto seeded = schedule_all(seedTile(kernels), nullptr);
        OG_ASSERT(seeded.has_value(),
                  "seed tile cannot host the domain");
        current = std::move(*seeded);
        bool ok = system_dse(current, prices.tileResources(current.adg),
                             grid_pruned);
        OG_ASSERT(ok, "seed design exceeds the device budget");
    }
    Candidate best = current;
    result.convergence.push_back(
        { secondsSince(start), 0, current.objective });

    // Per-iteration telemetry: one JSONL record each, plus registry
    // counters (see DseOptions::sink).
    telemetry::Sink *sink = options.sink;
    auto log_iteration = [&](int iter, double temperature,
                             const std::vector<MutationKind> &edits,
                             bool accepted, bool abandoned,
                             const Candidate &state) {
        if (sink == nullptr)
            return;
        telemetry::Registry &reg = sink->registry();
        reg.counter("dse/iterations").inc();
        if (accepted)
            reg.counter("dse/accepted").inc();
        if (abandoned)
            reg.counter("dse/abandoned").inc();
        for (MutationKind kind : edits) {
            reg.counter("dse/mutations/" + mutationKindName(kind))
                .inc();
        }
        Json record = Json::makeObject();
        if (!options.telemetryLabel.empty())
            record.set("run", Json(options.telemetryLabel));
        record.set("iteration", Json(iter));
        record.set("seconds", Json(secondsSince(start)));
        record.set("temperature", Json(temperature));
        record.set("objective", Json(state.objective));
        record.set("best_objective", Json(best.objective));
        record.set("accepted", Json(accepted));
        record.set("abandoned", Json(abandoned));
        record.set("utilization", Json(state.utilization));
        record.set("resource_slack",
                   Json(options.budgetFraction - state.utilization));
        // Cumulative over examined candidates, so deterministic across
        // thread counts.
        record.set("grid_pruned", Json(static_cast<int64_t>(grid_pruned)));
        Json kinds = Json::makeArray();
        for (MutationKind kind : edits)
            kinds.push(Json(mutationKindName(kind)));
        record.set("mutations", std::move(kinds));
        sink->logDse(record);
    };

    // Batched speculative annealing (see DESIGN.md "Determinism
    // under parallelism"): each round draws `speculation` candidate
    // mutations from per-candidate Rng streams split off the master
    // seed, then scans them in fixed slot order, scoring each slot
    // (mutation + schedule repair + nested system DSE + objective)
    // only when the scan is about to reach it — in waves of `threads`
    // slots, concurrently within a wave. The trajectory depends on the
    // seed and the speculation width, never on the thread count. An
    // acceptance invalidates the rest of its round — those candidates
    // were mutated from the superseded base design — so they are
    // discarded unexamined without consuming iteration budget; only
    // the accepting wave's later slots were scored for nothing.
    const int speculation = std::max(1, options.speculation);
    ThreadPool pool(options.threads);
    const int wave_width = pool.threadCount();

    /** One speculated candidate: its private rng stream (mutation
     * draws, then the accept draw), the edits applied, the evaluated
     * design (nullopt when unschedulable or over budget) and the grid
     * points its system DSE pruned. */
    struct Eval
    {
        Rng rng;
        std::vector<MutationKind> edits;
        std::optional<Candidate> cand;
        uint64_t gridPruned = 0;
    };

    // Round-granular heartbeat: everything in it is round-barrier
    // state (deterministic across thread counts) except the rate
    // field — scored candidates per wall-clock second, which also
    // depends on the thread count — that trajectory comparisons strip
    // exactly like "seconds".
    int round = 0;
    auto log_heartbeat = [&](int iter, double temperature,
                             bool force) {
        if (sink == nullptr || options.heartbeatEvery <= 0)
            return;
        if (!force && round % options.heartbeatEvery != 0)
            return;
        sink->registry().counter("dse/heartbeats").inc();
        double seconds = secondsSince(start);
        Json record = Json::makeObject();
        record.set("type", Json("heartbeat"));
        if (!options.telemetryLabel.empty())
            record.set("run", Json(options.telemetryLabel));
        record.set("iteration", Json(iter));
        record.set("evaluated", Json(result.evaluated));
        record.set("accepted", Json(result.accepted));
        record.set("abandoned", Json(result.abandoned));
        record.set("best_objective", Json(best.objective));
        record.set("temperature", Json(temperature));
        record.set("grid_pruned", Json(static_cast<int64_t>(grid_pruned)));
        record.set("seconds", Json(seconds));
        record.set("candidates_per_sec",
                   Json(seconds > 0.0
                            ? static_cast<double>(result.scored) /
                                  seconds
                            : 0.0));
        sink->logDse(record);
    };

    double temperature = options.initialTemperature;
    int examined = 0;
    while (examined < options.iterations) {
        int width = std::min(speculation,
                             options.iterations - examined);
        // Split per-candidate seeds off the master stream in slot
        // order, before any (unordered) parallel work.
        std::vector<uint64_t> seeds(width);
        for (uint64_t &seed : seeds)
            seed = rng.next();
        // The round's shared base: mDFG choices of `current`.
        std::vector<const dfg::Mdfg *> base_mdfgs;
        for (size_t k = 0; k < kernels.size(); ++k) {
            base_mdfgs.push_back(
                &variants[k][current.variantIndex[k]]);
        }
        result.evaluated += width;
        auto score_slot = [&](size_t slot) {
            Eval ev;
            ev.rng = Rng(seeds[slot]);
            adg::Adg mutated = current.adg;
            int edits = 1 + static_cast<int>(ev.rng.nextBelow(3));
            ev.edits.reserve(edits);
            for (int e = 0; e < edits; ++e) {
                ev.edits.push_back(mutateAdg(
                    mutated, current.schedules, base_mdfgs,
                    options.schedulePreserving, ev.rng));
            }
            if (!mutated.validate().empty())
                return ev;  // abandoned
            ev.cand = evaluate_candidate(std::move(mutated), ev.gridPruned);
            return ev;
        };

        // Sequential accept scan in slot order (single-threaded: all
        // telemetry and trajectory state is touched only here).
        bool accepted = false;
        for (int wave = 0; wave < width && !accepted;
             wave += wave_width) {
            const int count = std::min(wave_width, width - wave);
            std::vector<Eval> evals = pool.parallelMap(
                static_cast<size_t>(count), [&](size_t i) {
                    return score_slot(static_cast<size_t>(wave) + i);
                });
            result.scored += count;
            for (int i = 0; i < count; ++i) {
                Eval &ev = evals[i];
                ++examined;
                ++result.iterationsRun;
                grid_pruned += ev.gridPruned;
                if (!ev.cand) {
                    ++result.abandoned;
                    log_iteration(examined, temperature, ev.edits,
                                  false, true, current);
                    continue;
                }
                // Simulated-annealing acceptance on log-objective.
                double delta = std::log(ev.cand->objective) -
                               std::log(current.objective);
                accepted = delta >= 0.0 ||
                           ev.rng.nextDouble() <
                               std::exp(delta / temperature);
                if (accepted) {
                    current = std::move(*ev.cand);
                    ++result.accepted;
                    if (current.objective > best.objective)
                        best = current;
                    log_iteration(examined, temperature, ev.edits,
                                  true, false, current);
                } else {
                    log_iteration(examined, temperature, ev.edits,
                                  false, false, *ev.cand);
                }
                temperature *= 0.97;
                result.convergence.push_back(
                    { secondsSince(start), examined, best.objective });
                if (accepted) {
                    // The rest of the round speculated on a stale base.
                    result.discarded += width - (wave + i) - 1;
                    break;
                }
            }
        }
        ++round;
        log_heartbeat(examined, temperature, false);
    }
    // Every run closes with one final heartbeat (unless the last
    // round just emitted one), so short runs still report progress.
    if (round == 0 || round % std::max(1, options.heartbeatEvery) != 0)
        log_heartbeat(examined, temperature, true);

    // Package the best design.
    result.design.adg = best.adg;
    result.design.sys = best.sys;
    result.objective = best.objective;
    result.resources = best.resources;
    result.utilization = best.utilization;
    for (size_t k = 0; k < kernels.size(); ++k) {
        const dfg::Mdfg &m = variants[k][best.variantIndex[k]];
        model::PerfInput input;
        input.mdfg = &m;
        input.backing = sched::backingFromSchedule(best.schedules[k],
                                                   best.adg, m);
        model::PerfBreakdown b =
            model::estimateIpc(input, best.adg, best.sys,
                               options.perf);
        KernelMapping mapping;
        mapping.kernel = kernels[k].name;
        mapping.variantIndex = best.variantIndex[k];
        mapping.variantName = m.name;
        mapping.estimatedIpc =
            b.ipc * best.schedules[k].throughputFactor();
        mapping.bottleneck = b.bottleneck;
        result.mappings.push_back(std::move(mapping));
        result.schedules.push_back(best.schedules[k]);
        result.mdfgs.push_back(m);
    }
    result.gridPruned = grid_pruned;
    if (sink != nullptr)
        sink->registry().counter("dse/grid/pruned").add(result.gridPruned);
    result.elapsedSeconds = secondsSince(start);
    return result;
}

} // namespace overgen::dse
