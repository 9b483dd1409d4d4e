#include "serve/wire.h"

#include <cerrno>
#include <cstdint>
#include <unistd.h>

#include "common/hex.h"
#include "common/json_fields.h"
#include "common/logging.h"

namespace overgen::serve {

namespace {

/** Largest integer a wire number (a double) carries exactly. */
constexpr int64_t kMaxWireInt = int64_t{ 1 } << 53;

} // namespace

int
JobSet::addDesign(const adg::SysAdg &design)
{
    return addDesignText(design.toJson().dump());
}

int
JobSet::addDesignText(std::string text)
{
    auto it = designIds.find(text);
    if (it != designIds.end())
        return it->second;
    int id = static_cast<int>(designs.size());
    designIds.emplace(text, id);
    designs.push_back(std::move(text));
    return id;
}

uint64_t
JobSet::addJob(const std::string &workload, int designId,
               bool applyTuning, bool smallSize)
{
    OG_ASSERT(designId >= 0 &&
                  designId < static_cast<int>(designs.size()),
              "job references unknown design id ", designId);
    JobSpec job;
    job.index = jobs.size();
    job.workload = workload;
    job.designId = designId;
    job.applyTuning = applyTuning;
    job.smallSize = smallSize;
    jobs.push_back(std::move(job));
    return jobs.back().index;
}

uint64_t
JobSet::addMatchJob(const std::string &workload,
                    std::vector<int> designIds, bool applyTuning,
                    bool smallSize)
{
    for (int id : designIds) {
        OG_ASSERT(id >= 0 && id < static_cast<int>(designs.size()),
                  "match job references unknown design id ", id);
    }
    JobSpec job;
    job.index = jobs.size();
    job.kind = JobKind::Match;
    job.workload = workload;
    job.matchDesigns = std::move(designIds);
    job.applyTuning = applyTuning;
    job.smallSize = smallSize;
    jobs.push_back(std::move(job));
    return jobs.back().index;
}

uint64_t
JobSet::addWarmJob(const std::string &workload, uint64_t seed,
                   int iterations, bool applyTuning, bool smallSize)
{
    JobSpec job;
    job.index = jobs.size();
    job.kind = JobKind::Warm;
    job.workload = workload;
    job.warmSeed = seed;
    job.warmIterations = iterations;
    job.applyTuning = applyTuning;
    job.smallSize = smallSize;
    jobs.push_back(std::move(job));
    return jobs.back().index;
}

Json
jobToJson(const JobSpec &job)
{
    Json obj = Json::makeObject();
    obj.set("index", Json(job.index));
    obj.set("workload", Json(job.workload));
    obj.set("design", Json(job.designId));
    if (job.smallSize)
        obj.set("small", Json(true));
    if (job.applyTuning)
        obj.set("tuning", Json(true));
    if (job.dramLatency > 0)
        obj.set("dram_latency", Json(job.dramLatency));
    if (job.deadlockCycles >= 0)
        obj.set("deadlock_cycles", Json(job.deadlockCycles));
    if (job.kind == JobKind::Match)
        obj.set("kind", Json("match"));
    else if (job.kind == JobKind::Warm)
        obj.set("kind", Json("warm"));
    if (!job.matchDesigns.empty()) {
        Json ids = Json::makeArray();
        for (int id : job.matchDesigns)
            ids.push(Json(id));
        obj.set("match_designs", std::move(ids));
    }
    if (job.kind == JobKind::Warm) {
        obj.set("warm_seed", Json(hexU64(job.warmSeed)));
        obj.set("warm_iters", Json(job.warmIterations));
    }
    return obj;
}

std::optional<JobSpec>
jobFromJson(const Json &json, std::string *error)
{
    if (!json.isObject()) {
        if (error != nullptr)
            *error = "job is not an object";
        return std::nullopt;
    }
    JobSpec job;
    int64_t index = 0;
    int64_t design = 0;
    if (!getInteger(json, "index", 0, kMaxWireInt, index, error) ||
        !getString(json, "workload", job.workload, error) ||
        !getInteger(json, "design", 0, INT32_MAX, design, error))
        return std::nullopt;
    job.index = static_cast<uint64_t>(index);
    job.designId = static_cast<int>(design);
    if (json.contains("small") &&
        !getBool(json, "small", job.smallSize, error))
        return std::nullopt;
    if (json.contains("tuning") &&
        !getBool(json, "tuning", job.applyTuning, error))
        return std::nullopt;
    int64_t value = 0;
    if (json.contains("dram_latency")) {
        if (!getInteger(json, "dram_latency", 0, INT32_MAX, value,
                        error))
            return std::nullopt;
        job.dramLatency = static_cast<int>(value);
    }
    if (json.contains("deadlock_cycles") &&
        !getInteger(json, "deadlock_cycles", 0, kMaxWireInt,
                    job.deadlockCycles, error))
        return std::nullopt;
    if (json.contains("kind")) {
        std::string kind;
        if (!getString(json, "kind", kind, error))
            return std::nullopt;
        if (kind == "match") {
            job.kind = JobKind::Match;
        } else if (kind == "warm") {
            job.kind = JobKind::Warm;
        } else {
            if (error != nullptr)
                *error = "unknown job kind '" + kind + "'";
            return std::nullopt;
        }
    }
    if (json.contains("match_designs")) {
        const Json::Array *ids = nullptr;
        if (!getArray(json, "match_designs", ids, error))
            return std::nullopt;
        for (const Json &id : *ids) {
            if (!integerIn(id, 0, INT32_MAX, value)) {
                fieldError(error, "ill-typed entry in", "match_designs");
                return std::nullopt;
            }
            job.matchDesigns.push_back(static_cast<int>(value));
        }
    }
    if (json.contains("warm_seed") &&
        !getHex64(json, "warm_seed", job.warmSeed, error))
        return std::nullopt;
    if (json.contains("warm_iters")) {
        if (!getInteger(json, "warm_iters", 0, INT32_MAX, value, error))
            return std::nullopt;
        job.warmIterations = static_cast<int>(value);
    }
    return job;
}

Json
scoreToJson(const WireScore &score)
{
    Json obj = Json::makeObject();
    obj.set("design", Json(score.design));
    obj.set("feasible", Json(score.feasible));
    obj.set("score", Json(score.score));
    obj.set("ipc", Json(score.ipc));
    if (!score.variant.empty())
        obj.set("variant", Json(score.variant));
    if (!score.bottleneck.empty())
        obj.set("bottleneck", Json(score.bottleneck));
    return obj;
}

std::optional<WireScore>
scoreFromJson(const Json &json, std::string *error)
{
    if (!json.isObject()) {
        if (error != nullptr)
            *error = "score is not an object";
        return std::nullopt;
    }
    WireScore score;
    int64_t design = 0;
    if (!getInteger(json, "design", 0, INT32_MAX, design,
                    error) ||
        !getBool(json, "feasible", score.feasible, error) ||
        !getNumber(json, "score", score.score, error) ||
        !getNumber(json, "ipc", score.ipc, error))
        return std::nullopt;
    score.design = static_cast<int>(design);
    if (json.contains("variant") &&
        !getString(json, "variant", score.variant, error))
        return std::nullopt;
    if (json.contains("bottleneck") &&
        !getString(json, "bottleneck", score.bottleneck, error))
        return std::nullopt;
    return score;
}

Json
resultToJson(const ResultRow &row)
{
    Json obj = Json::makeObject();
    obj.set("ok", Json(row.ok));
    obj.set("deadlocked", Json(row.deadlocked));
    if (!row.diagnostic.empty())
        obj.set("diagnostic", Json(row.diagnostic));
    obj.set("variant", Json(row.variant));
    obj.set("cycles", Json(row.cycles));
    obj.set("ipc", Json(row.ipc));
    if (!row.scores.empty()) {
        Json scores = Json::makeArray();
        for (const WireScore &score : row.scores)
            scores.push(scoreToJson(score));
        obj.set("scores", std::move(scores));
    }
    if (!row.payload.isNull())
        obj.set("payload", row.payload);
    return obj;
}

std::optional<ResultRow>
resultFromJson(const Json &json, std::string *error)
{
    if (!json.isObject()) {
        if (error != nullptr)
            *error = "row is not an object";
        return std::nullopt;
    }
    ResultRow row;
    int64_t cycles = 0;
    if (!getBool(json, "ok", row.ok, error) ||
        !getBool(json, "deadlocked", row.deadlocked, error) ||
        !getString(json, "variant", row.variant, error) ||
        !getInteger(json, "cycles", 0, kMaxWireInt, cycles, error) ||
        !getNumber(json, "ipc", row.ipc, error))
        return std::nullopt;
    row.cycles = static_cast<uint64_t>(cycles);
    if (json.contains("diagnostic") &&
        !getString(json, "diagnostic", row.diagnostic, error))
        return std::nullopt;
    if (json.contains("scores")) {
        const Json::Array *scores = nullptr;
        if (!getArray(json, "scores", scores, error))
            return std::nullopt;
        for (const Json &entry : *scores) {
            std::optional<WireScore> score = scoreFromJson(entry, error);
            if (!score)
                return std::nullopt;
            row.scores.push_back(std::move(*score));
        }
    }
    if (json.contains("payload"))
        row.payload = json.at("payload");
    return row;
}

std::string
mergedLine(const JobSpec &job, const ResultRow &row)
{
    // Object keys serialize map-sorted, and doubles print as %.17g
    // (exact round-trip through parse), so this line is a pure
    // function of the job and the deterministic simulation.
    Json obj = resultToJson(row);
    obj.set("index", Json(job.index));
    obj.set("workload", Json(job.workload));
    return obj.dump();
}

std::string
mergedJsonl(const JobSet &set, const std::vector<ResultRow> &rows)
{
    OG_ASSERT(rows.size() == set.jobs.size(),
              "result rows (", rows.size(), ") do not cover the job "
              "set (", set.jobs.size(), ")");
    std::string out;
    for (size_t i = 0; i < set.jobs.size(); ++i) {
        out += mergedLine(set.jobs[i], rows[i]);
        out += '\n';
    }
    return out;
}

bool
writeLine(int fd, const std::string &line)
{
    std::string framed = line;
    framed += '\n';
    size_t off = 0;
    while (off < framed.size()) {
        ssize_t n =
            ::write(fd, framed.data() + off, framed.size() - off);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            return false;  // EPIPE: peer exited
        }
        off += static_cast<size_t>(n);
    }
    return true;
}

LineReader::Fill
LineReader::fill(int fd)
{
    char chunk[4096];
    while (true) {
        ssize_t n = ::read(fd, chunk, sizeof(chunk));
        if (n > 0) {
            buf.append(chunk, static_cast<size_t>(n));
            return Fill::Data;
        }
        if (n == 0)
            return Fill::Eof;
        if (errno == EINTR)
            continue;
        if (errno == EAGAIN || errno == EWOULDBLOCK)
            return Fill::WouldBlock;
        return Fill::Eof;  // treat hard errors as a dead peer
    }
}

bool
LineReader::next(std::string &line)
{
    size_t pos = buf.find('\n', scanned);
    if (pos == std::string::npos) {
        scanned = buf.size();
        return false;
    }
    line.assign(buf, 0, pos);
    buf.erase(0, pos + 1);
    scanned = 0;
    return true;
}

bool
readLineBlocking(int fd, LineReader &reader, std::string &line)
{
    while (!reader.next(line)) {
        if (reader.fill(fd) == LineReader::Fill::Eof)
            return reader.next(line);
    }
    return true;
}

} // namespace overgen::serve
