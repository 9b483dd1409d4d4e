#include "telemetry/phases.h"

#include <algorithm>

#include "common/logging.h"

namespace overgen::telemetry {

namespace {

/** Hysteresis pair around the peak busy fraction: steady state is
 * entered at 85% of peak and only left below 70% of peak, so
 * interval-sized dips between the thresholds do not fragment the
 * steady span. */
constexpr double kSteadyEnterFraction = 0.85;
constexpr double kSteadyExitFraction = 0.70;
/** An interval is startup when the majority of its tile cycles are in
 * the Startup category (stream configuration + dispatch pipeline). */
constexpr double kStartupMajority = 0.5;

/** The dominant non-busy category of @p ledger (Busy when nothing
 * stalls). Ties break toward the lower enum value — deterministic. */
CycleCategory
dominantStall(const CycleLedger &ledger)
{
    auto best = CycleCategory::Busy;
    uint64_t most = 0;
    for (int c = 0; c < kNumCycleCategories; ++c) {
        auto cat = static_cast<CycleCategory>(c);
        if (cat == CycleCategory::Busy)
            continue;
        if (ledger[cat] > most) {
            most = ledger[cat];
            best = cat;
        }
    }
    return best;
}

/** Element-wise a - b (cumulative series are monotone per category). */
CycleLedger
ledgerDelta(const CycleLedger &a, const CycleLedger &b)
{
    CycleLedger d;
    for (int c = 0; c < kNumCycleCategories; ++c) {
        OG_ASSERT(a.counts[c] >= b.counts[c],
                  "non-monotone ledger series");
        d.counts[c] = a.counts[c] - b.counts[c];
    }
    return d;
}

void
ledgerAccumulate(CycleLedger &into, const CycleLedger &from)
{
    for (int c = 0; c < kNumCycleCategories; ++c)
        into.counts[c] += from.counts[c];
}

} // namespace

const char *
phaseKindName(PhaseKind kind)
{
    switch (kind) {
    case PhaseKind::Startup:
        return "startup";
    case PhaseKind::Ramp:
        return "ramp";
    case PhaseKind::Steady:
        return "steady";
    case PhaseKind::Drain:
        return "drain";
    }
    return "?";
}

uint64_t
PhaseProfile::cyclesIn(PhaseKind kind) const
{
    uint64_t sum = 0;
    for (const PhaseSpan &span : spans) {
        if (span.kind == kind)
            sum += span.cycles();
    }
    return sum;
}

Json
PhaseProfile::toJson() const
{
    Json obj = Json::makeObject();
    obj.set("cycles", Json(static_cast<int64_t>(cycles)));
    obj.set("ramp_cycles", Json(static_cast<int64_t>(rampCycles)));
    obj.set("reached_steady", Json(reachedSteady));
    obj.set("steady_ipc", Json(steadyIpc));
    Json arr = Json::makeArray();
    for (const PhaseSpan &span : spans) {
        Json s = Json::makeObject();
        s.set("phase", Json(phaseKindName(span.kind)));
        s.set("begin", Json(static_cast<int64_t>(span.beginCycle)));
        s.set("end", Json(static_cast<int64_t>(span.endCycle)));
        s.set("cycles", Json(static_cast<int64_t>(span.cycles())));
        s.set("share",
              Json(cycles > 0 ? static_cast<double>(span.cycles()) /
                                    static_cast<double>(cycles)
                              : 0.0));
        s.set("busy", Json(span.busyFraction));
        s.set("bottleneck", Json(cycleCategoryName(span.bottleneck)));
        arr.push(std::move(s));
    }
    obj.set("spans", std::move(arr));
    return obj;
}

std::vector<PhaseSample>
foldPhaseSamples(const std::vector<TimelineSample> &rows)
{
    // A run adds its rows in cycle order, so one boundary's rows
    // (memory + each tile) are adjacent.
    std::vector<PhaseSample> samples;
    for (const TimelineSample &row : rows) {
        if (samples.empty() || samples.back().cycle != row.cycle) {
            OG_ASSERT(samples.empty() || samples.back().cycle < row.cycle,
                      "timeline rows out of cycle order at ", row.cycle);
            samples.emplace_back().cycle = row.cycle;
        }
        PhaseSample &sample = samples.back();
        if (row.isMemory()) {
            sample.memory = row.ledger;
            continue;
        }
        ledgerAccumulate(sample.tiles, row.ledger);
        sample.iterations += row.gauges[TimelineSample::Iterations];
        sample.firings += row.gauges[TimelineSample::Firings];
    }
    return samples;
}

void
appendTerminalSample(std::vector<PhaseSample> &samples,
                     uint64_t cycles, const CycleLedger &tiles,
                     const CycleLedger &memory, uint64_t iterations,
                     uint64_t firings)
{
    if (samples.empty() && cycles == 0)
        return;  // a zero-cycle run has no intervals to segment
    if (!samples.empty()) {
        OG_ASSERT(samples.back().cycle <= cycles,
                  "terminal sample at cycle ", cycles,
                  " precedes the last row at ", samples.back().cycle);
        if (samples.back().cycle == cycles)
            return;
    }
    PhaseSample terminal;
    terminal.cycle = cycles;
    terminal.tiles = tiles;
    terminal.memory = memory;
    terminal.iterations = iterations;
    terminal.firings = firings;
    samples.push_back(std::move(terminal));
}

PhaseProfile
analyzePhases(const std::vector<PhaseSample> &samples,
              double instsPerFiring)
{
    PhaseProfile profile;
    if (samples.empty())
        return profile;
    profile.cycles = samples.back().cycle;

    // Per-interval deltas against an implicit all-zero origin sample.
    const size_t n = samples.size();
    std::vector<CycleLedger> tile_delta(n);
    std::vector<CycleLedger> mem_delta(n);
    std::vector<double> busy(n);
    std::vector<double> startup(n);
    std::vector<uint64_t> firing_delta(n);
    PhaseSample origin;
    for (size_t i = 0; i < n; ++i) {
        const PhaseSample &prev = i == 0 ? origin : samples[i - 1];
        OG_ASSERT(samples[i].cycle > prev.cycle,
                  "phase samples not strictly cycle-increasing");
        tile_delta[i] = ledgerDelta(samples[i].tiles, prev.tiles);
        mem_delta[i] = ledgerDelta(samples[i].memory, prev.memory);
        OG_ASSERT(samples[i].firings >= prev.firings,
                  "non-monotone firing series");
        firing_delta[i] = samples[i].firings - prev.firings;
        uint64_t total = tile_delta[i].total();
        double denom =
            total > 0 ? static_cast<double>(total) : 1.0;
        busy[i] = static_cast<double>(
                      tile_delta[i][CycleCategory::Busy]) /
                  denom;
        startup[i] = static_cast<double>(
                         tile_delta[i][CycleCategory::Startup]) /
                     denom;
    }
    profile.busyFractions = busy;

    // Startup: maximal prefix of startup-majority intervals.
    size_t startup_end = 0;
    while (startup_end < n && startup[startup_end] >= kStartupMajority)
        ++startup_end;

    // Hysteresis thresholds off the peak busy fraction.
    double peak = 0.0;
    for (double b : busy)
        peak = std::max(peak, b);
    double enter = kSteadyEnterFraction * peak;
    double leave = kSteadyExitFraction * peak;

    size_t steady_begin = n;
    if (peak > 0.0) {
        for (size_t i = startup_end; i < n; ++i) {
            if (busy[i] >= enter) {
                steady_begin = i;
                break;
            }
        }
    }
    size_t steady_end = n;  // one past the last steady interval
    if (steady_begin < n) {
        for (size_t i = n; i-- > steady_begin;) {
            if (busy[i] >= leave) {
                steady_end = i + 1;
                break;
            }
        }
        profile.reachedSteady = true;
    }

    auto kind_of = [&](size_t i) {
        if (i < startup_end)
            return PhaseKind::Startup;
        if (!profile.reachedSteady || i < steady_begin)
            return PhaseKind::Ramp;
        if (i < steady_end)
            return PhaseKind::Steady;
        return PhaseKind::Drain;
    };

    // Merge consecutive same-kind intervals into spans.
    for (size_t i = 0; i < n; ++i) {
        PhaseKind kind = kind_of(i);
        uint64_t begin = i == 0 ? 0 : samples[i - 1].cycle;
        if (profile.spans.empty() ||
            profile.spans.back().kind != kind) {
            PhaseSpan span;
            span.kind = kind;
            span.beginCycle = begin;
            span.endCycle = samples[i].cycle;
            profile.spans.push_back(span);
        } else {
            profile.spans.back().endCycle = samples[i].cycle;
        }
        PhaseSpan &span = profile.spans.back();
        ledgerAccumulate(span.tiles, tile_delta[i]);
        ledgerAccumulate(span.memory, mem_delta[i]);
    }
    for (PhaseSpan &span : profile.spans) {
        uint64_t total = span.tiles.total();
        span.busyFraction =
            total > 0
                ? static_cast<double>(
                      span.tiles[CycleCategory::Busy]) /
                      static_cast<double>(total)
                : 0.0;
        span.bottleneck = dominantStall(span.tiles);
    }

    profile.rampCycles =
        profile.reachedSteady
            ? (steady_begin == 0 ? 0 : samples[steady_begin - 1].cycle)
            : profile.cycles;

    if (profile.reachedSteady && instsPerFiring > 0.0) {
        uint64_t steady_cycles = 0;
        uint64_t steady_firings = 0;
        uint64_t begin =
            steady_begin == 0 ? 0 : samples[steady_begin - 1].cycle;
        steady_cycles = samples[steady_end - 1].cycle - begin;
        for (size_t i = steady_begin; i < steady_end; ++i)
            steady_firings += firing_delta[i];
        if (steady_cycles > 0) {
            profile.steadyIpc =
                static_cast<double>(steady_firings) * instsPerFiring /
                static_cast<double>(steady_cycles);
        }
    }
    return profile;
}

} // namespace overgen::telemetry
