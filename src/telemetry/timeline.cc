#include "telemetry/timeline.h"

#include <algorithm>
#include <cstdio>
#include <iterator>
#include <map>
#include <span>
#include <string_view>

#include "common/logging.h"
#include "telemetry/trace.h"

namespace overgen::telemetry {

namespace {

constexpr std::string_view kTileGaugeKeys[] = {
    "dma_bytes", "fabric_stall_cycles", "firings", "iterations",
    "spad_bytes",
};
constexpr std::string_view kMemoryGaugeKeys[] = {
    "bank_queue_depth", "dram_bytes_read", "dram_bytes_written",
    "l2_hits", "l2_misses", "mshr_stall_cycles", "mshrs_in_use",
    "noc_bytes", "outstanding",
};
static_assert(std::size(kTileGaugeKeys) == TimelineSample::kTileGauges);
static_assert(std::size(kMemoryGaugeKeys) ==
              TimelineSample::kMemoryGauges);

/** Append @p sample as one compact JSON row with sorted keys — the
 * bytes Json::dump gives the equivalent object. The gauge keys and the
 * four fixed keys are each sorted, so merging the two lists gives the
 * row's key order. */
void
appendRow(std::string &out, const TimelineSample &sample,
          const std::string &label)
{
    enum Fixed { Comp, Cycle, Ledger, Run, kFixed };
    static constexpr std::string_view kFixedKeys[] = { "comp", "cycle",
                                                       "ledger", "run" };
    std::span<const std::string_view> gauges = kTileGaugeKeys;
    if (sample.isMemory())
        gauges = kMemoryGaugeKeys;
    size_t g = 0;
    int f = 0;
    char sep = '{';
    while (g < gauges.size() || f < kFixed) {
        bool gauge = f == kFixed ||
                     (g < gauges.size() && gauges[g] < kFixedKeys[f]);
        out += sep;
        sep = ',';
        out += '"';
        out += gauge ? gauges[g] : kFixedKeys[f];
        out += "\":";
        if (gauge) {
            appendDecimal(out, sample.gauges[g++]);
            continue;
        }
        switch (f++) {
          case Comp:
            if (sample.isMemory()) {
                out += "\"memory\"";
            } else {
                out += "\"tile";
                appendDecimal(out,
                              static_cast<uint64_t>(sample.component));
                out += '"';
            }
            break;
          case Cycle:
            appendDecimal(out, sample.cycle);
            break;
          case Ledger:
            sample.ledger.appendCompact(out);
            break;
          case Run:
            out += '"';
            out += label;
            out += '"';
            break;
        }
    }
    out += '}';
}

} // namespace

std::vector<std::string>
TimelineRun::lines() const
{
    std::vector<std::string> out(rows.size());
    for (size_t i = 0; i < rows.size(); ++i)
        appendRow(out[i], rows[i], tag);
    return out;
}

void
renderCounterTracks(const TimelineRun &run, TraceEmitter &trace,
                    int pid)
{
    using S = TimelineSample;
    // Each component's gauges at its previous sample (zero before the
    // first).
    std::map<int, std::array<uint64_t, S::kMemoryGauges>> last;
    for (const S &sample : run.samples()) {
        std::array<uint64_t, S::kMemoryGauges> &prev =
            last[sample.component];
        auto delta = [&](int gauge) {
            return static_cast<double>(sample.gauges[gauge] -
                                       prev[gauge]);
        };
        if (sample.isMemory()) {
            trace.counter(
                "l2.mshrs_in_use", pid, 0, sample.cycle,
                static_cast<double>(sample.gauges[S::MshrsInUse]));
            trace.counter("noc.bytes_per_interval", pid, 0,
                          sample.cycle, delta(S::NocBytes));
            trace.counter("dram.bytes_per_interval", pid, 0,
                          sample.cycle,
                          delta(S::DramBytesRead) +
                              delta(S::DramBytesWritten));
        } else {
            std::string tag = "tile" + std::to_string(sample.component);
            int tid = sample.component + 1;
            trace.counter(tag + ".firings_per_interval", pid, tid,
                          sample.cycle, delta(S::Firings));
            trace.counter(tag + ".stall_cycles_per_interval", pid, tid,
                          sample.cycle, delta(S::FabricStallCycles));
        }
        prev = sample.gauges;
    }
}

TimelineRun *
Timeline::beginRun(const std::string &label)
{
    std::lock_guard<std::mutex> lock(mutex);
    runs.emplace_back(label);
    return &runs.back();
}

size_t
Timeline::rowCount() const
{
    size_t n = 0;
    std::lock_guard<std::mutex> lock(mutex);
    for (const TimelineRun &run : runs)
        n += run.samples().size();
    return n;
}

std::vector<std::string>
Timeline::lines() const
{
    std::vector<std::pair<const TimelineRun *, std::vector<std::string>>>
        order;
    {
        std::lock_guard<std::mutex> lock(mutex);
        for (const TimelineRun &run : runs)
            order.emplace_back(&run, run.lines());
    }
    // Rows hold no byte below '\n', so comparing runs row by row gives
    // the byte order of their newline-joined JSONL.
    std::sort(order.begin(), order.end(),
              [](const auto &a, const auto &b) {
                  if (a.first->label() != b.first->label())
                      return a.first->label() < b.first->label();
                  return a.second < b.second;
              });
    std::vector<std::string> out;
    for (auto &[run, rows] : order) {
        out.insert(out.end(), std::make_move_iterator(rows.begin()),
                   std::make_move_iterator(rows.end()));
    }
    return out;
}

void
Timeline::writeTo(const std::string &path) const
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    OG_ASSERT(f != nullptr, "cannot open timeline '", path, "'");
    for (const std::string &line : lines()) {
        std::fwrite(line.data(), 1, line.size(), f);
        std::fputc('\n', f);
    }
    std::fclose(f);
}

} // namespace overgen::telemetry
