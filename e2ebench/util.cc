#include "util.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <sys/resource.h>

namespace e2e {

namespace {

bool
parseUnsigned(const std::string &text, uint64_t &out)
{
    if (text.empty() || text.size() > 19)
        return false;
    uint64_t value = 0;
    for (char c : text) {
        if (c < '0' || c > '9')
            return false;
        value = value * 10 + static_cast<uint64_t>(c - '0');
    }
    out = value;
    return true;
}

} // namespace

std::optional<std::string>
parseArgs(const std::vector<std::string> &argv,
          const std::vector<std::string> &workloads, Args &out)
{
    static const char *const kFlags[] = { "--workload", "--seed",
                                          "--seconds", "--trace" };
    std::map<std::string, std::string> values;
    for (size_t i = 0; i < argv.size(); ++i) {
        std::string flag = argv[i];
        std::string value;
        bool inline_value = false;
        if (size_t eq = flag.find('='); eq != std::string::npos) {
            value = flag.substr(eq + 1);
            flag = flag.substr(0, eq);
            inline_value = true;
        }
        if (std::find(std::begin(kFlags), std::end(kFlags), flag) ==
            std::end(kFlags))
            return "unknown argument '" + argv[i] + "'";
        if (values.count(flag) != 0)
            return "flag '" + flag + "' given twice";
        if (!inline_value) {
            if (i + 1 >= argv.size())
                return "flag '" + flag + "' needs a value";
            value = argv[++i];
        }
        if (value.empty())
            return "empty value for '" + flag + "'";
        values[flag] = value;
    }
    if (values.count("--workload") == 0)
        return "--workload is required";
    if (values.count("--seed") == 0)
        return "--seed is required";
    out.workload = values["--workload"];
    if (std::find(workloads.begin(), workloads.end(), out.workload) ==
        workloads.end())
        return "unknown workload '" + out.workload + "'";
    if (!parseUnsigned(values["--seed"], out.seed))
        return "non-numeric seed '" + values["--seed"] + "'";
    uint64_t seconds = 10;
    if (values.count("--seconds") != 0 &&
        (!parseUnsigned(values["--seconds"], seconds) || seconds < 1 ||
         seconds > 3600))
        return "bad --seconds '" + values["--seconds"] + "'";
    out.seconds = static_cast<int>(seconds);
    out.trace = false;
    if (values.count("--trace") != 0) {
        const std::string &t = values["--trace"];
        if (t != "0" && t != "1")
            return "bad --trace '" + t + "' (expected 0 or 1)";
        out.trace = t == "1";
    }
    return std::nullopt;
}

uint64_t
nextRand(uint64_t &state)
{
    state += 0x9e3779b97f4a7c15ull;
    uint64_t z = state;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

double
nextUnit(uint64_t &state)
{
    return static_cast<double>(nextRand(state) >> 11) * 0x1.0p-53;
}

std::vector<Request>
makeTrace(size_t kernels, size_t count, double ratePerSec, double alpha,
          size_t epoch, uint64_t seed)
{
    std::vector<int> byRank(kernels);
    for (size_t i = 0; i < kernels; ++i)
        byRank[i] = static_cast<int>(i);
    uint64_t state = seed;
    auto shuffle = [&] {
        for (size_t i = kernels; i > 1; --i)
            std::swap(byRank[i - 1], byRank[nextRand(state) % i]);
    };

    std::vector<double> cdf(kernels);
    double total = 0.0;
    for (size_t rank = 0; rank < kernels; ++rank) {
        total += 1.0 / std::pow(static_cast<double>(rank + 1), alpha);
        cdf[rank] = total;
    }
    std::vector<Request> trace(count);
    double now = 0.0;
    for (size_t i = 0; i < count; ++i) {
        if (i == 0 || (epoch != 0 && i % epoch == 0))
            shuffle();
        Request &request = trace[i];
        // Exponential inter-arrival gap; 1 - u is in (0, 1].
        now += -std::log(1.0 - nextUnit(state)) / ratePerSec * 1e3;
        double u = nextUnit(state) * total;
        size_t rank = static_cast<size_t>(
            std::lower_bound(cdf.begin(), cdf.end(), u) - cdf.begin());
        request.dueMs = now;
        request.kernel = byRank[std::min(rank, kernels - 1)];
    }
    return trace;
}

std::vector<Batch>
admissionWindows(const std::vector<Request> &trace, double windowMs)
{
    std::vector<Batch> batches;
    int64_t current = -1;
    for (size_t i = 0; i < trace.size(); ++i) {
        auto window = static_cast<int64_t>(trace[i].dueMs / windowMs);
        if (window != current) {
            current = window;
            Batch batch;
            batch.dueMs = static_cast<double>(window + 1) * windowMs;
            batches.push_back(std::move(batch));
        }
        batches.back().requests.push_back(i);
    }
    return batches;
}

double
median(std::vector<double> values)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    size_t n = values.size();
    return n % 2 == 1 ? values[n / 2]
                      : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

std::optional<double>
percentile(std::vector<double> values, double p, size_t minBeyond)
{
    if (values.empty() || p <= 0.0 || p > 100.0)
        return std::nullopt;
    std::sort(values.begin(), values.end());
    size_t n = values.size();
    auto rank = static_cast<size_t>(
        std::ceil(p / 100.0 * static_cast<double>(n) - 1e-9));
    rank = std::clamp<size_t>(rank, 1, n);
    if (n - rank < minBeyond)
        return std::nullopt;
    return values[rank - 1];
}

namespace {

/** ns since the first span of the process (all recorders share it). */
int64_t
nowNs()
{
    static const Clock::time_point origin = Clock::now();
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now() - origin)
        .count();
}

} // namespace

int
SpanRecorder::begin(const std::string &name, int64_t batch)
{
    if (!on)
        return -1;
    Span span;
    span.name = name;
    span.parent = open.empty() ? -1 : open.back();
    span.batch = batch;
    span.startNs = nowNs();
    all.push_back(std::move(span));
    open.push_back(static_cast<int>(all.size()) - 1);
    return open.back();
}

void
SpanRecorder::end(int index)
{
    if (!on || index < 0)
        return;
    all[static_cast<size_t>(index)].endNs = nowNs();
    if (!open.empty() && open.back() == index)
        open.pop_back();
}

void
SpanRecorder::absorb(const std::vector<Span> &spans)
{
    int offset = static_cast<int>(all.size());
    for (Span span : spans) {
        if (span.parent >= 0)
            span.parent += offset;
        all.push_back(std::move(span));
    }
}

namespace {

void
writeEscaped(std::FILE *f, const std::string &text)
{
    std::fputc('"', f);
    for (char c : text) {
        if (c == '"' || c == '\\')
            std::fputc('\\', f);
        std::fputc(c, f);
    }
    std::fputc('"', f);
}

} // namespace

bool
SpanRecorder::writeChromeTrace(const std::string &path) const
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (f == nullptr)
        return false;
    std::fputs("{\"traceEvents\": [\n", f);
    for (size_t i = 0; i < all.size(); ++i) {
        const Span &span = all[i];
        std::fputs("  {\"name\": ", f);
        writeEscaped(f, span.name);
        std::fputs(", \"cat\": ", f);
        writeEscaped(f, layerOf(span.name));
        std::fprintf(f,
                     ", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, "
                     "\"ts\": %.3f, \"dur\": %.3f, \"args\": {\"id\": %zu, "
                     "\"parent\": %d, \"batch\": %lld}}%s\n",
                     static_cast<double>(span.startNs) / 1e3,
                     static_cast<double>(span.endNs - span.startNs) / 1e3,
                     i, span.parent, static_cast<long long>(span.batch),
                     i + 1 < all.size() ? "," : "");
    }
    std::fputs("], \"displayTimeUnit\": \"ms\"}\n", f);
    return std::fclose(f) == 0;
}

std::vector<int64_t>
selfTimesNs(const std::vector<Span> &spans)
{
    std::vector<std::vector<std::pair<int64_t, int64_t>>> children(
        spans.size());
    for (const Span &span : spans)
        if (span.parent >= 0)
            children[static_cast<size_t>(span.parent)].emplace_back(
                span.startNs, span.endNs);
    std::vector<int64_t> self(spans.size());
    for (size_t i = 0; i < spans.size(); ++i) {
        const Span &span = spans[i];
        auto &kids = children[i];
        std::sort(kids.begin(), kids.end());
        // Length of the union of the children's intervals, clipped to
        // the parent's own interval.
        int64_t covered = 0;
        int64_t reach = span.startNs;
        for (auto [lo, hi] : kids) {
            lo = std::max(lo, reach);
            hi = std::min(hi, span.endNs);
            if (hi > lo) {
                covered += hi - lo;
                reach = hi;
            }
        }
        self[i] = span.endNs - span.startNs - covered;
    }
    return self;
}

std::string
layerOf(const std::string &spanName)
{
    return spanName.substr(0, spanName.find('.'));
}

std::map<std::string, double>
layerSelfSeconds(const std::vector<Span> &spans)
{
    std::vector<int64_t> self = selfTimesNs(spans);
    std::map<std::string, double> layers;
    for (size_t i = 0; i < spans.size(); ++i)
        layers[layerOf(spans[i].name)] +=
            static_cast<double>(self[i]) / 1e9;
    return layers;
}

double
spanSeconds(const std::vector<Span> &spans, const std::string &name)
{
    double total = 0.0;
    for (const Span &span : spans)
        if (span.name == name)
            total += static_cast<double>(span.endNs - span.startNs) / 1e9;
    return total;
}

double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

double
peakRssMb()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

double
cpuSeconds()
{
    double total = 0.0;
    for (int who : { RUSAGE_SELF, RUSAGE_CHILDREN }) {
        rusage usage{};
        getrusage(who, &usage);
        total += static_cast<double>(usage.ru_utime.tv_sec +
                                     usage.ru_stime.tv_sec) +
                 static_cast<double>(usage.ru_utime.tv_usec +
                                     usage.ru_stime.tv_usec) /
                     1e6;
    }
    return total;
}

std::string
resultJson(bool correct, uint64_t attempted, uint64_t failed,
           const Metrics &metrics)
{
    std::string out = "{\"correct\": ";
    out += correct ? "true" : "false";
    out += ", \"attempted\": " + std::to_string(attempted);
    out += ", \"failed\": " + std::to_string(failed);
    out += ", \"metrics\": {";
    bool first = true;
    char number[64];
    for (const auto &[name, metric] : metrics) {
        // Non-finite values are not JSON; report them as 0 (they only
        // arise from an empty denominator).
        double value = std::isfinite(metric.value) ? metric.value : 0.0;
        std::snprintf(number, sizeof number, "%.17g", value);
        out += first ? "" : ", ";
        out += "\"" + name + "\": {\"value\": " + number +
               ", \"unit\": \"" + metric.unit + "\"}";
        first = false;
    }
    out += "}}";
    return out;
}

} // namespace e2e
