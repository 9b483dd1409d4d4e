#include "sim/batch.h"

#include "common/logging.h"
#include "workloads/interpreter.h"

namespace overgen::sim {

std::vector<SimResult>
runBatch(const std::vector<SimJob> &jobs, const BatchOptions &options)
{
    auto run_one = [&jobs](size_t i) -> SimResult {
        const SimJob &job = jobs[i];
        OG_ASSERT(job.spec != nullptr && job.mdfg != nullptr &&
                      job.schedule != nullptr && job.design != nullptr,
                  "incomplete SimJob at index ", i);
        if (job.memory != nullptr) {
            return simulate(*job.spec, *job.mdfg, *job.schedule,
                            *job.design, *job.memory, job.config);
        }
        wl::Memory memory;
        memory.init(*job.spec);
        return simulate(*job.spec, *job.mdfg, *job.schedule,
                        *job.design, memory, job.config);
    };
    ThreadPool pool(options.threads);
    return pool.parallelMap(jobs.size(), run_one);
}

} // namespace overgen::sim
