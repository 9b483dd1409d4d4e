#include "library/store.h"

#include <algorithm>
#include <cstdio>
#include <limits>

#include "common/hex.h"
#include "common/json_fields.h"
#include "common/logging.h"
#include "common/rng.h"

namespace overgen::library {

namespace {

/** Library fingerprint salts: two independent salts, so a false
 * match needs a simultaneous 2x64-bit collision. */
constexpr uint64_t kSaltA = 0x9e3779b97f4a7c15ull;
constexpr uint64_t kSaltB = 0xd1b54a32d192ed03ull;

uint64_t
systemParamsHash(const adg::SystemParams &sys)
{
    uint64_t h = mix64(static_cast<uint64_t>(sys.numTiles));
    h = mix64(h ^ static_cast<uint64_t>(sys.l2Banks));
    h = mix64(h ^ static_cast<uint64_t>(sys.l2CapacityKiB));
    h = mix64(h ^ static_cast<uint64_t>(sys.nocBytes));
    h = mix64(h ^ static_cast<uint64_t>(sys.dramChannels));
    return h;
}

Json
recordToJson(const KernelRecord &record)
{
    Json obj = Json::makeObject();
    obj.set("kernel", Json(record.kernel));
    obj.set("feasible", Json(record.feasible));
    obj.set("score", Json(record.score));
    obj.set("ipc", Json(record.ipc));
    if (!record.variant.empty())
        obj.set("variant", Json(record.variant));
    if (!record.bottleneck.empty())
        obj.set("bottleneck", Json(record.bottleneck));
    return obj;
}

std::optional<KernelRecord>
recordFromJson(const Json &json, std::string *error)
{
    if (!json.isObject()) {
        if (error != nullptr)
            *error = "record is not an object";
        return std::nullopt;
    }
    KernelRecord record;
    if (!getString(json, "kernel", record.kernel, error) ||
        !getBool(json, "feasible", record.feasible, error) ||
        !getNumber(json, "score", record.score, error) ||
        !getNumber(json, "ipc", record.ipc, error))
        return std::nullopt;
    if (json.contains("variant")) {
        if (!getString(json, "variant", record.variant, error))
            return std::nullopt;
    }
    if (json.contains("bottleneck")) {
        if (!getString(json, "bottleneck", record.bottleneck, error))
            return std::nullopt;
    }
    return record;
}

} // namespace

const KernelRecord *
LibraryEntry::findRecord(const std::string &kernel) const
{
    auto it = std::lower_bound(
        records.begin(), records.end(), kernel,
        [](const KernelRecord &r, const std::string &k) {
            return r.kernel < k;
        });
    if (it == records.end() || it->kernel != kernel)
        return nullptr;
    return &*it;
}

void
LibraryEntry::upsertRecord(KernelRecord record)
{
    auto it = std::lower_bound(
        records.begin(), records.end(), record.kernel,
        [](const KernelRecord &r, const std::string &k) {
            return r.kernel < k;
        });
    if (it != records.end() && it->kernel == record.kernel)
        *it = std::move(record);
    else
        records.insert(it, std::move(record));
}

Json
LibraryEntry::toJson() const
{
    Json obj = Json::makeObject();
    obj.set("fp_a", Json(hexU64(fpA)));
    obj.set("fp_b", Json(hexU64(fpB)));
    obj.set("design", design.toJson());
    Json res = Json::makeObject();
    res.set("lut", Json(resources.lut));
    res.set("ff", Json(resources.ff));
    res.set("bram", Json(resources.bram));
    res.set("dsp", Json(resources.dsp));
    obj.set("resources", std::move(res));
    obj.set("utilization", Json(utilization));
    obj.set("origin", Json(origin));
    if (warmSeed != 0)
        obj.set("warm_seed", Json(hexU64(warmSeed)));
    if (warmIterations != 0)
        obj.set("warm_iters", Json(warmIterations));
    Json recordArray = Json::makeArray();
    for (const KernelRecord &record : records)
        recordArray.push(recordToJson(record));
    obj.set("records", std::move(recordArray));
    return obj;
}

std::optional<LibraryEntry>
LibraryEntry::fromJson(const Json &json, std::string *error)
{
    if (!json.isObject()) {
        if (error != nullptr)
            *error = "entry is not an object";
        return std::nullopt;
    }
    LibraryEntry entry;
    if (!getHex64(json, "fp_a", entry.fpA, error) ||
        !getHex64(json, "fp_b", entry.fpB, error) ||
        !getNumber(json, "utilization", entry.utilization, error) ||
        !getString(json, "origin", entry.origin, error))
        return std::nullopt;
    if (!json.contains("design")) {
        if (error != nullptr)
            *error = "missing design field";
        return std::nullopt;
    }
    std::optional<adg::SysAdg> design =
        adg::SysAdg::tryFromJson(json.at("design"), error);
    if (!design)
        return std::nullopt;
    entry.design = std::move(*design);
    if (!json.contains("resources") ||
        !json.at("resources").isObject()) {
        if (error != nullptr)
            *error = "missing/ill-typed resources field";
        return std::nullopt;
    }
    const Json &res = json.at("resources");
    if (!getNumber(res, "lut", entry.resources.lut, error) ||
        !getNumber(res, "ff", entry.resources.ff, error) ||
        !getNumber(res, "bram", entry.resources.bram, error) ||
        !getNumber(res, "dsp", entry.resources.dsp, error))
        return std::nullopt;
    if (json.contains("warm_seed")) {
        if (!getHex64(json, "warm_seed", entry.warmSeed, error))
            return std::nullopt;
    }
    if (json.contains("warm_iters")) {
        int64_t iterations = 0;
        if (!getInteger(json, "warm_iters",
                        std::numeric_limits<int>::min(),
                        std::numeric_limits<int>::max(), iterations,
                        error))
            return std::nullopt;
        entry.warmIterations = static_cast<int>(iterations);
    }
    if (!json.contains("records") || !json.at("records").isArray()) {
        if (error != nullptr)
            *error = "missing/ill-typed records field";
        return std::nullopt;
    }
    for (const Json &recordJson : json.at("records").asArray()) {
        auto record = recordFromJson(recordJson, error);
        if (!record)
            return std::nullopt;
        entry.upsertRecord(std::move(*record));
    }
    return entry;
}

adg::SysAdg
canonicalDesign(const adg::SysAdg &design)
{
    return adg::SysAdg::fromJson(design.toJson());
}

std::pair<uint64_t, uint64_t>
fingerprintDesign(const adg::SysAdg &design)
{
    std::pair<uint64_t, uint64_t> fp =
        design.adg.fingerprintPair(kSaltA, kSaltB);
    uint64_t sysHash = systemParamsHash(design.sys);
    return { mix64(fp.first ^ sysHash),
             mix64(fp.second ^ mix64(sysHash)) };
}

size_t
OverlayLibrary::insert(LibraryEntry entry)
{
    entry.design = canonicalDesign(entry.design);
    std::tie(entry.fpA, entry.fpB) = fingerprintDesign(entry.design);
    if (auto existing = findByFingerprint(entry.fpA, entry.fpB)) {
        LibraryEntry &target = entries[*existing];
        for (KernelRecord &record : entry.records)
            target.upsertRecord(std::move(record));
        return *existing;
    }
    entries.push_back(std::move(entry));
    return entries.size() - 1;
}

std::optional<size_t>
OverlayLibrary::findByFingerprint(uint64_t a, uint64_t b) const
{
    for (size_t i = 0; i < entries.size(); ++i)
        if (entries[i].fpA == a && entries[i].fpB == b)
            return i;
    return std::nullopt;
}

std::string
OverlayLibrary::toJsonl() const
{
    std::string out;
    for (const LibraryEntry &entry : entries) {
        out += entry.toJson().dump();
        out += '\n';
    }
    return out;
}

bool
OverlayLibrary::save(const std::string &path) const
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (f == nullptr)
        return false;
    std::string text = toJsonl();
    std::fwrite(text.data(), 1, text.size(), f);
    std::fclose(f);
    return true;
}

bool
OverlayLibrary::load(const std::string &path)
{
    entries.clear();
    lastLoad = {};
    std::FILE *f = std::fopen(path.c_str(), "r");
    if (f == nullptr)
        return false;
    std::string text;
    char chunk[4096];
    size_t n = 0;
    while ((n = std::fread(chunk, 1, sizeof(chunk), f)) > 0)
        text.append(chunk, n);
    std::fclose(f);

    size_t lineStart = 0;
    size_t lineNumber = 0;
    while (lineStart < text.size()) {
        size_t lineEnd = text.find('\n', lineStart);
        // A line without a trailing newline is a torn final write;
        // still decoded (it parses or it doesn't).
        if (lineEnd == std::string::npos)
            lineEnd = text.size();
        std::string line =
            text.substr(lineStart, lineEnd - lineStart);
        lineStart = lineEnd + 1;
        ++lineNumber;
        if (line.empty())
            continue;

        std::string error;
        std::optional<Json> json = Json::tryParse(line, &error);
        if (!json) {
            ++lastLoad.skippedParse;
            OG_WARN("library '", path, "' line ", lineNumber,
                    ": skipped (", error, ")");
            continue;
        }
        auto entry = LibraryEntry::fromJson(*json, &error);
        if (!entry) {
            ++lastLoad.skippedFields;
            OG_WARN("library '", path, "' line ", lineNumber,
                    ": skipped (", error, ")");
            continue;
        }
        std::pair<uint64_t, uint64_t> fp =
            fingerprintDesign(entry->design);
        if (fp.first != entry->fpA || fp.second != entry->fpB) {
            ++lastLoad.skippedFingerprint;
            OG_WARN("library '", path, "' line ", lineNumber,
                    ": skipped (fingerprint mismatch: stored ",
                    hexU64(entry->fpA), "/", hexU64(entry->fpB),
                    ", recomputed ", hexU64(fp.first), "/",
                    hexU64(fp.second), ")");
            continue;
        }
        insert(std::move(*entry));
        ++lastLoad.entries;
    }
    return true;
}

} // namespace overgen::library
