#include "serve/worker.h"

#include <unistd.h>

#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "common/json_fields.h"
#include "common/logging.h"

namespace overgen::serve {

int
workerLoop(int inFd, int outFd, const JobHandler &handler)
{
    // Every design the coordinator has shipped (append-only), and the
    // current run's view of it: designs[i] is the run's design id i.
    std::vector<std::shared_ptr<const adg::SysAdg>> table;
    std::vector<std::shared_ptr<const adg::SysAdg>> designs;
    LineReader reader;
    std::string line;

    Json hello = Json::makeObject();
    hello.set("t", Json("hello"));
    hello.set("pid", Json(static_cast<int64_t>(::getpid())));
    if (!writeLine(outFd, hello.dump()))
        return 1;

    // A coordinator record this worker cannot decode ends the worker
    // with a named error; the coordinator sees the exit as a crash.
    auto reject = [](const std::string &why) {
        OG_WARN("serve worker ", ::getpid(), ": bad coordinator "
                "record (", why, ")");
        return 2;
    };
    while (readLineBlocking(inFd, reader, line)) {
        std::string error;
        std::optional<Json> parsed = Json::tryParse(line, &error);
        if (!parsed)
            return reject(error);
        const Json &record = *parsed;
        std::string type;
        if (!getString(record, "t", type, &error))
            return reject(error);
        if (type == "bye")
            return 0;
        if (type == "designs") {
            const Json::Array *designJsons = nullptr;
            const Json::Array *ids = nullptr;
            if (!getArray(record, "designs", designJsons, &error) ||
                !getArray(record, "table", ids, &error))
                return reject(error);
            for (const Json &json : *designJsons) {
                std::optional<adg::SysAdg> design =
                    adg::SysAdg::tryFromJson(json, &error);
                if (!design)
                    return reject(error);
                table.push_back(std::make_shared<const adg::SysAdg>(
                    std::move(*design)));
            }
            designs.clear();
            int64_t id = 0;
            for (const Json &entry : *ids) {
                if (!integerIn(entry, 0,
                               static_cast<int64_t>(table.size()) - 1,
                               id))
                    return reject("design table id out of range");
                designs.push_back(table[static_cast<size_t>(id)]);
            }
            continue;
        }
        if (type != "shard")
            return reject("unexpected record '" + type + "'");
        int64_t shard = 0;
        const Json::Array *jobJsons = nullptr;
        if (!getInteger(record, "shard", 0, INT32_MAX, shard, &error) ||
            !getArray(record, "jobs", jobJsons, &error))
            return reject(error);

        std::vector<JobSpec> specs;
        specs.reserve(jobJsons->size());
        for (const Json &json : *jobJsons) {
            std::optional<JobSpec> spec = jobFromJson(json, &error);
            if (!spec)
                return reject(error);
            for (int id : spec->matchDesigns)
                if (id >= static_cast<int>(designs.size()))
                    return reject("job references unknown design " +
                                  std::to_string(id));
            specs.push_back(std::move(*spec));
        }

        // Run the jobs in order, streaming each row as soon as it is
        // computed — partial shard progress survives a crash. Each job
        // heartbeats first: the one record sent before a job's row, so
        // the coordinator (and its onRecord hook) sees the job start.
        for (size_t i = 0; i < specs.size(); ++i) {
            const JobSpec &spec = specs[i];
            Json hb = Json::makeObject();
            hb.set("t", Json("hb"));
            hb.set("shard", Json(shard));
            hb.set("done", Json(static_cast<uint64_t>(i)));
            hb.set("total", Json(static_cast<uint64_t>(specs.size())));
            if (!writeLine(outFd, hb.dump()))
                return 1;
            ResultRow row = handler(spec, designs);
            Json out = Json::makeObject();
            out.set("t", Json("result"));
            out.set("job", Json(spec.index));
            out.set("row", resultToJson(row));
            if (!writeLine(outFd, out.dump()))
                return 1;
        }
        Json done = Json::makeObject();
        done.set("t", Json("done"));
        done.set("shard", Json(shard));
        if (!writeLine(outFd, done.dump()))
            return 1;
    }
    return 0;  // coordinator closed the pipe: orderly EOF
}

} // namespace overgen::serve
