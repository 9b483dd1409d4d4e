#include "serve/worker.h"

#include <unistd.h>

#include <map>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "common/json_fields.h"
#include "common/logging.h"
#include "compiler/compile.h"
#include "sched/scheduler.h"
#include "sim/simulate.h"
#include "sim/snapshot.h"
#include "workloads/suites.h"

namespace overgen::serve {

namespace {

/** One Generate job compiled and scheduled, ready to simulate. */
struct PreparedJob
{
    bool ok = false;
    wl::KernelSpec spec;
    dfg::Mdfg mdfg;
    sched::Schedule schedule;
};

sim::SimConfig
configFor(const JobSpec &job, telemetry::Sink *sink)
{
    sim::SimConfig config;
    config.sink = sink;
    if (job.dramLatency > 0)
        config.dramLatency = job.dramLatency;
    if (job.deadlockCycles >= 0)
        config.deadlockCycles =
            static_cast<uint64_t>(job.deadlockCycles);
    return config;
}

PreparedJob
prepare(const JobSpec &job, const adg::SysAdg &design)
{
    PreparedJob prepared;
    prepared.spec = job.smallSize
                        ? wl::smallWorkloadByName(job.workload)
                        : wl::workloadByName(job.workload);
    compiler::CompileOptions copts;
    copts.applyTuning = job.applyTuning;
    auto variants = compiler::compileVariants(prepared.spec, copts);
    sched::SpatialScheduler scheduler(design.adg);
    auto fit = scheduler.scheduleFirstFit(variants);
    if (!fit)
        return prepared;
    prepared.ok = true;
    prepared.mdfg = std::move(variants[fit->second]);
    prepared.schedule = std::move(fit->first);
    return prepared;
}

ResultRow
rowFrom(const PreparedJob &prepared, const sim::SimResult &result)
{
    ResultRow row;
    row.ok = result.completed;
    row.deadlocked = result.deadlocked;
    row.diagnostic = result.diagnostic;
    row.cycles = result.cycles;
    row.ipc = result.ipc;
    row.variant = prepared.mdfg.name;
    return row;
}

/** A SnapshotSink that streams each engine checkpoint to the
 * coordinator as a "ckpt" record. A failed write means the
 * coordinator is gone; the flag is remembered and the simulation
 * finishes locally (its result write will fail too, exiting the
 * loop). */
class PipeSnapshotSink : public sim::SnapshotSink
{
  public:
    PipeSnapshotSink(int fd, int shard, uint64_t job)
        : fd(fd), shard(shard), job(job)
    {
    }

    void
    accept(uint64_t cycle, sim::Snapshot &&snap) override
    {
        Json record = Json::makeObject();
        record.set("t", Json("ckpt"));
        record.set("shard", Json(shard));
        record.set("job", Json(job));
        record.set("cycle", Json(cycle));
        record.set("snap", Json(bytesToHex(snap.encode())));
        ok = ok && writeLine(fd, record.dump());
    }

    bool ok = true;

  private:
    int fd;
    int shard;
    uint64_t job;
};

/** Route a Match/Warm job through the installed handler. */
ResultRow
dispatchHandled(const JobSpec &job,
                const std::vector<std::shared_ptr<const adg::SysAdg>>
                    &designs,
                const WorkerOptions &options)
{
    if (!options.handler) {
        ResultRow row;
        row.diagnostic = "no JobHandler installed for non-generate "
                         "job";
        return row;
    }
    return options.handler(job, designs);
}

} // namespace

ResultRow
runJob(const JobSpec &job, const adg::SysAdg &design,
       const WorkerOptions &options)
{
    if (job.kind != JobKind::Generate) {
        // In-process reference path for library jobs: a one-design
        // table, so matchDesigns ids must all be 0.
        std::vector<std::shared_ptr<const adg::SysAdg>> designs;
        designs.emplace_back(std::shared_ptr<const adg::SysAdg>(),
                             &design);
        return dispatchHandled(job, designs, options);
    }
    PreparedJob prepared = prepare(job, design);
    if (!prepared.ok)
        return {};
    wl::Memory memory;
    memory.init(prepared.spec);
    sim::SimResult result =
        sim::simulate(prepared.spec, prepared.mdfg, prepared.schedule,
                      design, memory, configFor(job, options.sink));
    return rowFrom(prepared, result);
}

int
workerLoop(int inFd, int outFd, const WorkerOptions &options)
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
            for (const Json &json : record.at("designs").asArray()) {
                table.push_back(std::make_shared<const adg::SysAdg>(
                    adg::SysAdg::fromJson(json)));
            }
            designs.clear();
            int64_t id = 0;
            for (const Json &entry : record.at("table").asArray()) {
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
        int shard = static_cast<int>(record.at("shard").asInt());
        const Json::Array &jobJsons = record.at("jobs").asArray();

        std::vector<JobSpec> specs;
        specs.reserve(jobJsons.size());
        for (const Json &json : jobJsons) {
            std::optional<JobSpec> spec = jobFromJson(json, &error);
            if (!spec)
                return reject(error);
            specs.push_back(std::move(*spec));
        }

        // Resume snapshots the coordinator banked from an earlier
        // attempt's "ckpt" records, keyed by job index.
        std::map<uint64_t, std::string> resumeSnaps;
        if (record.contains("resume")) {
            for (const Json &entry : record.at("resume").asArray())
                resumeSnaps[static_cast<uint64_t>(
                    entry.at("job").asInt())] =
                    entry.at("snap").asString();
        }

        auto heartbeat = [&](size_t i) {
            Json hb = Json::makeObject();
            hb.set("t", Json("hb"));
            hb.set("shard", Json(shard));
            hb.set("done", Json(static_cast<uint64_t>(i)));
            hb.set("total",
                   Json(static_cast<uint64_t>(specs.size())));
            return writeLine(outFd, hb.dump());
        };
        auto streamRow = [&](const JobSpec &spec,
                             const ResultRow &row, bool resumed) {
            Json out = Json::makeObject();
            out.set("t", Json("result"));
            out.set("job", Json(spec.index));
            out.set("row", resultToJson(row));
            if (resumed)
                out.set("resumed", Json(true));
            return writeLine(outFd, out.dump());
        };

        // Run the jobs in order, streaming each row as soon as it is
        // computed — partial shard progress survives a crash. Each job
        // heartbeats first so the coordinator's straggler clock sees
        // forward progress.
        for (size_t i = 0; i < specs.size(); ++i) {
            const JobSpec &spec = specs[i];
            if (!heartbeat(i))
                return 1;
            ResultRow row;
            bool resumed = false;
            if (spec.kind != JobKind::Generate) {
                row = dispatchHandled(spec, designs, options);
            } else {
                OG_ASSERT(spec.designId >= 0 &&
                              spec.designId <
                                  static_cast<int>(designs.size()),
                          "shard ", shard, " references unknown design ",
                          spec.designId);
                const adg::SysAdg &design = *designs[spec.designId];
                PreparedJob prepared = prepare(spec, design);
                if (prepared.ok) {
                    // Stream checkpoints, and resume when the shard
                    // record carried a snapshot for this job.
                    sim::SimConfig config = configFor(spec, options.sink);
                    PipeSnapshotSink ckpt(outFd, shard, spec.index);
                    if (options.checkpointEvery > 0) {
                        config.checkpointEvery = options.checkpointEvery;
                        config.checkpointSink = &ckpt;
                    }
                    wl::Memory memory;
                    memory.init(prepared.spec);
                    sim::SimResult result;
                    auto it = resumeSnaps.find(spec.index);
                    if (it != resumeSnaps.end()) {
                        std::vector<uint8_t> bytes;
                        sim::Snapshot snap;
                        if (hexToBytes(it->second, bytes) &&
                            sim::Snapshot::decode(bytes, snap)) {
                            result = sim::resumeFrom(
                                snap, prepared.spec, prepared.mdfg,
                                prepared.schedule, design, memory,
                                config);
                            resumed = true;
                        }
                    }
                    if (!resumed)
                        result = sim::simulate(
                            prepared.spec, prepared.mdfg,
                            prepared.schedule, design, memory, config);
                    row = rowFrom(prepared, result);
                }
            }
            if (!streamRow(spec, row, resumed))
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
