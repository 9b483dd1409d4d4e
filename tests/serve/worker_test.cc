/**
 * @file
 * Worker-side decoding of coordinator records: a line the worker
 * cannot decode — truncated, or with a missing or ill-typed field —
 * ends workerLoop with exit code 2 and a named error on stderr, never
 * an abort.
 */

#include "serve/worker.h"

#include <sys/wait.h>
#include <unistd.h>

#include <string>
#include <vector>

#include <gtest/gtest.h>

using namespace overgen;
using namespace overgen::serve;

namespace {

struct WorkerExit
{
    int status = 0;      //!< waitpid status of the worker process
    std::string stderrText;
};

/** Run workerLoop in a forked child whose input pipe holds @p input
 * and is then closed; @return its wait status and its stderr. */
WorkerExit
runWorker(const std::string &input)
{
    int in[2];
    int out[2];
    int err[2];
    EXPECT_EQ(::pipe(in), 0);
    EXPECT_EQ(::pipe(out), 0);
    EXPECT_EQ(::pipe(err), 0);
    EXPECT_TRUE(writeLine(in[1], input));
    ::close(in[1]);
    pid_t pid = ::fork();
    if (pid == 0) {
        ::dup2(err[1], STDERR_FILENO);
        ::close(err[0]);
        ::close(out[0]);
        ::_exit(workerLoop(in[0], out[1]));
    }
    ::close(in[0]);
    ::close(out[1]);
    ::close(err[1]);
    WorkerExit result;
    char chunk[4096];
    ssize_t n;
    while ((n = ::read(err[0], chunk, sizeof(chunk))) > 0)
        result.stderrText.append(chunk, static_cast<size_t>(n));
    ::close(err[0]);
    EXPECT_EQ(::waitpid(pid, &result.status, 0), pid);
    // Held open until the worker exits, so its hello never meets a
    // closed pipe.
    ::close(out[0]);
    return result;
}

/** Expect @p line to end the worker with a named decode error. */
void
expectRejected(const std::string &line)
{
    WorkerExit exit = runWorker(line);
    ASSERT_TRUE(WIFEXITED(exit.status))
        << line << "\nworker died by signal "
        << (WIFSIGNALED(exit.status) ? WTERMSIG(exit.status) : 0)
        << "\n" << exit.stderrText;
    EXPECT_EQ(WEXITSTATUS(exit.status), 2) << line;
    EXPECT_NE(exit.stderrText.find("bad coordinator record ("),
              std::string::npos)
        << line << "\n" << exit.stderrText;
}

const std::string kDesigns = R"({"t":"designs","designs":[],"table":[]})";
const std::string kShard =
    R"({"t":"shard","shard":0,"jobs":[{"design":0,"index":0,)"
    R"("kind":"match","workload":"fir"}]})";

} // namespace

TEST(WorkerLoop, WellFormedRecordsExitCleanly)
{
    // The controls: the lines the rejection cases are cut from decode.
    // A Match job with no handler gets a diagnostic row, then EOF.
    for (const std::string &input :
         { std::string(R"({"t":"bye"})"), kDesigns,
           kDesigns + "\n" + kShard }) {
        WorkerExit exit = runWorker(input);
        ASSERT_TRUE(WIFEXITED(exit.status)) << input;
        EXPECT_EQ(WEXITSTATUS(exit.status), 0) << input;
    }
}

TEST(WorkerLoop, TruncatedCoordinatorRecordsAreNamedErrors)
{
    for (const std::string &line : { kDesigns, kShard })
        for (size_t n = 0; n < line.size(); ++n)
            expectRejected(line.substr(0, n));
}

TEST(WorkerLoop, MissingOrIllTypedFieldsAreNamedErrors)
{
    const std::vector<std::string> lines = {
        R"([])",
        R"({})",
        R"({"t":7})",
        R"({"t":"gossip"})",
        R"({"t":"designs","table":[]})",
        R"({"t":"designs","designs":{},"table":[]})",
        R"({"t":"designs","designs":[]})",
        R"({"t":"designs","designs":[],"table":0})",
        R"({"t":"designs","designs":[],"table":[0]})",
        R"({"t":"designs","designs":[],"table":["0"]})",
        R"({"t":"designs","designs":[7],"table":[]})",
        R"({"t":"designs","designs":[{}],"table":[]})",
        R"({"t":"shard","jobs":[]})",
        R"({"t":"shard","shard":"0","jobs":[]})",
        R"({"t":"shard","shard":-1,"jobs":[]})",
        R"({"t":"shard","shard":0.5,"jobs":[]})",
        R"({"t":"shard","shard":1e300,"jobs":[]})",
        R"({"t":"shard","shard":0})",
        R"({"t":"shard","shard":0,"jobs":{}})",
        R"({"t":"shard","shard":0,"jobs":[7]})",
        R"({"t":"shard","shard":0,"jobs":[{"index":0,"design":0}]})",
        // A Generate job naming a design the worker was never sent.
        R"({"t":"shard","shard":0,"jobs":[{"design":0,"index":0,)"
        R"("workload":"fir"}]})",
        // A Match job naming a design outside the run's table.
        R"({"t":"shard","shard":0,"jobs":[{"design":0,"index":0,)"
        R"("kind":"match","match_designs":[3],"workload":"fir"}]})",
    };
    for (const std::string &line : lines)
        expectRejected(line);
}
