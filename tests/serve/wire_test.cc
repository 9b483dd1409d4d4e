#include "serve/wire.h"

#include <unistd.h>

#include <gtest/gtest.h>

#include "adg/builders.h"
#include "common/rng.h"
#include "serve/shard.h"

using namespace overgen;
using namespace overgen::serve;

namespace {

adg::SysAdg
testDesign(int tiles = 4)
{
    adg::SysAdg design;
    design.adg = adg::buildGeneralOverlayTile();
    design.sys.numTiles = tiles;
    design.sys.l2Banks = 4;
    design.sys.l2CapacityKiB = 512;
    design.sys.nocBytes = 32;
    return design;
}

} // namespace

TEST(Wire, JobSpecRoundTrips)
{
    JobSpec job;
    job.index = 42;
    job.kind = JobKind::Match;
    job.workload = "stencil-2d";
    job.smallSize = true;
    job.applyTuning = true;
    job.matchDesigns = { 3 };

    JobSpec back = jobFromJson(jobToJson(job)).value();
    EXPECT_EQ(back.index, job.index);
    EXPECT_EQ(back.kind, job.kind);
    EXPECT_EQ(back.workload, job.workload);
    EXPECT_EQ(back.smallSize, job.smallSize);
    EXPECT_EQ(back.applyTuning, job.applyTuning);
    EXPECT_EQ(back.matchDesigns, job.matchDesigns);
    // The codec must be byte-stable: decode(encode(x)) re-encodes to
    // the identical line (the determinism contract rests on this).
    EXPECT_EQ(jobToJson(back).dump(), jobToJson(job).dump());
}

TEST(Wire, ResultRowRoundTripsWithDiagnostic)
{
    ResultRow row;
    row.ok = false;
    row.diagnostic = "tile0: waiting on \"dram\"\n  rob full";
    row.variant = "accumulate/unroll4";
    row.ipc = 0.3217;

    ResultRow back = resultFromJson(resultToJson(row)).value();
    EXPECT_EQ(back.ok, row.ok);
    EXPECT_EQ(back.diagnostic, row.diagnostic);
    EXPECT_EQ(back.variant, row.variant);
    EXPECT_EQ(back.ipc, row.ipc);
    EXPECT_EQ(resultToJson(back).dump(), resultToJson(row).dump());
}

TEST(Wire, MatchAndWarmJobsRoundTrip)
{
    JobSet set;
    int ida = set.addDesign(testDesign(4));
    int idb = set.addDesign(testDesign(10));
    set.addMatchJob("fir", { ida, idb }, /*applyTuning=*/true,
                    /*smallSize=*/true);
    set.addWarmJob("mm", 0xdeadbeefcafef00dull, 12,
                   /*applyTuning=*/false, /*smallSize=*/true);

    JobSpec match = jobFromJson(jobToJson(set.jobs[0])).value();
    EXPECT_EQ(match.kind, JobKind::Match);
    EXPECT_EQ(match.workload, "fir");
    ASSERT_EQ(match.matchDesigns.size(), 2u);
    EXPECT_EQ(match.matchDesigns[0], ida);
    EXPECT_EQ(match.matchDesigns[1], idb);
    EXPECT_TRUE(match.applyTuning);
    EXPECT_EQ(jobToJson(match).dump(), jobToJson(set.jobs[0]).dump());

    JobSpec warm = jobFromJson(jobToJson(set.jobs[1])).value();
    EXPECT_EQ(warm.kind, JobKind::Warm);
    // The seed travels as fixed-width hex: above 2^53, a double would
    // silently round it.
    EXPECT_EQ(warm.warmSeed, 0xdeadbeefcafef00dull);
    EXPECT_EQ(warm.warmIterations, 12);
    EXPECT_EQ(jobToJson(warm).dump(), jobToJson(set.jobs[1]).dump());
}

TEST(Wire, ScoresAndPayloadRoundTrip)
{
    ResultRow row;
    row.ok = true;
    WireScore score;
    score.design = 2;
    score.feasible = true;
    score.score = 1.625;
    score.ipc = 2.5;
    score.variant = "fir/unroll4";
    score.bottleneck = "dram";
    row.scores.push_back(score);
    WireScore infeasible;
    infeasible.design = 0;
    row.scores.push_back(infeasible);
    Json payload = Json::makeObject();
    payload.set("origin", Json("warm:fir"));
    row.payload = payload;

    ResultRow back = resultFromJson(resultToJson(row)).value();
    ASSERT_EQ(back.scores.size(), 2u);
    EXPECT_EQ(back.scores[0].design, 2);
    EXPECT_TRUE(back.scores[0].feasible);
    EXPECT_EQ(back.scores[0].score, 1.625);
    EXPECT_EQ(back.scores[0].ipc, 2.5);
    EXPECT_EQ(back.scores[0].variant, "fir/unroll4");
    EXPECT_EQ(back.scores[0].bottleneck, "dram");
    EXPECT_FALSE(back.scores[1].feasible);
    EXPECT_TRUE(back.scores[1].variant.empty());
    ASSERT_TRUE(back.payload.isObject());
    EXPECT_EQ(back.payload.at("origin").asString(), "warm:fir");
    EXPECT_EQ(resultToJson(back).dump(), resultToJson(row).dump());
}

TEST(Wire, JobSetInternsDesigns)
{
    JobSet set;
    adg::SysAdg a = testDesign(4);
    adg::SysAdg b = testDesign(10);
    int ida = set.addDesign(a);
    EXPECT_EQ(set.addDesign(a), ida);  // dedup by content
    int idb = set.addDesign(b);
    EXPECT_NE(idb, ida);
    EXPECT_EQ(set.designs.size(), 2u);

    EXPECT_EQ(set.addMatchJob("fir", { ida }), 0u);
    EXPECT_EQ(set.addMatchJob("mm", { idb }, true, true), 1u);
    EXPECT_EQ(set.jobs[1].matchDesigns, std::vector<int>{ idb });
    EXPECT_TRUE(set.jobs[1].applyTuning);
    EXPECT_TRUE(set.jobs[1].smallSize);
}

TEST(Wire, MergedJsonlIsIndexOrdered)
{
    JobSet set;
    int id = set.addDesign(testDesign());
    set.addMatchJob("fir", { id });
    set.addMatchJob("mm", { id });
    std::vector<ResultRow> rows(2);
    rows[0].ok = true;
    rows[0].ipc = 10;
    rows[1].ok = true;
    rows[1].ipc = 20;

    std::string merged = mergedJsonl(set, rows);
    size_t fir = merged.find("\"fir\"");
    size_t mm = merged.find("\"mm\"");
    ASSERT_NE(fir, std::string::npos);
    ASSERT_NE(mm, std::string::npos);
    EXPECT_LT(fir, mm);
    // One line per job, each ending in newline.
    EXPECT_EQ(std::count(merged.begin(), merged.end(), '\n'), 2);
    EXPECT_EQ(merged, mergedLine(set.jobs[0], rows[0]) + "\n" +
                          mergedLine(set.jobs[1], rows[1]) + "\n");
}

TEST(Shards, PlanCoversEveryJobExactlyOnce)
{
    std::vector<Shard> shards = planShards(10, 3);
    ASSERT_EQ(shards.size(), 4u);
    size_t next = 0;
    for (size_t i = 0; i < shards.size(); ++i) {
        EXPECT_EQ(shards[i].id, static_cast<int>(i));
        EXPECT_EQ(shards[i].first, next);
        next += shards[i].count;
    }
    EXPECT_EQ(next, 10u);
    EXPECT_EQ(shards.back().count, 1u);  // the remainder shard
}

TEST(Shards, ZeroShardSizeMeansOneShard)
{
    std::vector<Shard> shards = planShards(5, 0);
    ASSERT_EQ(shards.size(), 1u);
    EXPECT_EQ(shards[0].first, 0u);
    EXPECT_EQ(shards[0].count, 5u);
    EXPECT_TRUE(planShards(0, 4).empty());
}

TEST(Wire, LineReaderReassemblesSplitLines)
{
    int fds[2];
    ASSERT_EQ(::pipe(fds), 0);
    LineReader reader;
    std::string line;

    ASSERT_EQ(::write(fds[1], "alpha\nbe", 8), 8);
    EXPECT_EQ(reader.fill(fds[0]), LineReader::Fill::Data);
    ASSERT_TRUE(reader.next(line));
    EXPECT_EQ(line, "alpha");
    EXPECT_FALSE(reader.next(line));  // "be" is incomplete

    ASSERT_EQ(::write(fds[1], "ta\n\n", 4), 4);
    EXPECT_EQ(reader.fill(fds[0]), LineReader::Fill::Data);
    ASSERT_TRUE(reader.next(line));
    EXPECT_EQ(line, "beta");
    ASSERT_TRUE(reader.next(line));
    EXPECT_EQ(line, "");  // empty line is still a line

    ::close(fds[1]);
    EXPECT_EQ(reader.fill(fds[0]), LineReader::Fill::Eof);
    ::close(fds[0]);
}

TEST(Wire, WriteLineReportsClosedPipe)
{
    int fds[2];
    ASSERT_EQ(::pipe(fds), 0);
    EXPECT_TRUE(writeLine(fds[1], "hello"));
    ::close(fds[0]);
    // SIGPIPE is ignored under the coordinator; the test harness must
    // not die either.
    signal(SIGPIPE, SIG_IGN);
    EXPECT_FALSE(writeLine(fds[1], "into the void"));
    signal(SIGPIPE, SIG_DFL);
    ::close(fds[1]);
}

namespace {

/** A Match job and a Warm job with every optional field set, each as
 * its wire line. */
std::vector<std::string>
sampleJobLines()
{
    JobSet set;
    int ida = set.addDesign(testDesign(4));
    int idb = set.addDesign(testDesign(10));
    set.addMatchJob("fir", { ida, idb }, true, true);
    set.addWarmJob("mm", 0xdeadbeefcafef00dull, 12, true, true);
    std::vector<std::string> lines;
    for (const JobSpec &job : set.jobs)
        lines.push_back(jobToJson(job).dump());
    return lines;
}

/** A Match row with scores and a Warm-style payload, as a wire line. */
std::string
sampleRowLine()
{
    ResultRow row;
    row.ok = true;
    row.diagnostic = "note";
    row.variant = "fir/unroll2";
    row.ipc = 1.25;
    WireScore score;
    score.design = 1;
    score.feasible = true;
    score.score = 0.75;
    score.ipc = 2.5;
    score.variant = "fir/unroll2";
    score.bottleneck = "dram";
    row.scores.push_back(score);
    Json payload = Json::makeObject();
    payload.set("origin", Json("warm:fir"));
    row.payload = payload;
    return resultToJson(row).dump();
}

/**
 * Decode @p line as a job (or, with @p asRow, a result row). The
 * contract for bytes from outside the process: a decode either
 * succeeds with no error — and then re-encodes to a fixed point — or
 * fails with a named error. @return whether it succeeded.
 */
bool
decodeChecked(const std::string &line, bool asRow)
{
    std::optional<Json> json = Json::tryParse(line);
    if (!json)
        return false;
    std::string error;
    if (asRow) {
        std::optional<ResultRow> row = resultFromJson(*json, &error);
        EXPECT_EQ(row.has_value(), error.empty()) << line;
        if (!row)
            return false;
        std::string again = resultToJson(*row).dump();
        EXPECT_EQ(resultToJson(resultFromJson(Json::parse(again)).value())
                      .dump(),
                  again);
        return true;
    }
    std::optional<JobSpec> job = jobFromJson(*json, &error);
    EXPECT_EQ(job.has_value(), error.empty()) << line;
    if (!job)
        return false;
    std::string again = jobToJson(*job).dump();
    EXPECT_EQ(jobToJson(jobFromJson(Json::parse(again)).value()).dump(),
              again);
    return true;
}

} // namespace

TEST(Wire, DecodersNameUnknownKindsAndMissingFields)
{
    auto jobError = [](const std::string &line) {
        std::string error;
        EXPECT_FALSE(jobFromJson(Json::parse(line), &error)) << line;
        return error;
    };
    auto rowError = [](const std::string &line) {
        std::string error;
        EXPECT_FALSE(resultFromJson(Json::parse(line), &error)) << line;
        return error;
    };
    const std::string base = R"("index":3,"kind":"match","workload":"fir")";
    EXPECT_EQ(jobError(R"({"index":3,"kind":"bogus","workload":"fir"})"),
              "unknown job kind 'bogus'");
    // No default kind: a job line without one is rejected by name.
    EXPECT_NE(jobError(R"({"index":3,"workload":"fir"})").find("'kind'"),
              std::string::npos);
    EXPECT_NE(jobError(R"({"index":3,"kind":7,"workload":"fir"})")
                  .find("'kind'"),
              std::string::npos);
    EXPECT_NE(jobError(R"({"index":3,"kind":"match"})").find("'workload'"),
              std::string::npos);
    EXPECT_NE(jobError(R"({"kind":"match","workload":"fir"})")
                  .find("'index'"),
              std::string::npos);
    EXPECT_NE(jobError(R"({"index":-1,"kind":"match","workload":"fir"})")
                  .find("'index'"),
              std::string::npos);
    EXPECT_NE(jobError(R"({"index":1.5,"kind":"match","workload":"fir"})")
                  .find("'index'"),
              std::string::npos);
    EXPECT_NE(jobError(R"({"index":1e300,"kind":"match","workload":"fir"})")
                  .find("'index'"),
              std::string::npos);
    EXPECT_NE(jobError("{" + base + R"(,"match_designs":7})")
                  .find("'match_designs'"),
              std::string::npos);
    EXPECT_NE(jobError("{" + base + R"(,"match_designs":[0,"x"]})")
                  .find("'match_designs'"),
              std::string::npos);
    EXPECT_NE(jobError(R"({"index":3,"kind":"warm","warm_seed":"xyz",)"
                       R"("workload":"fir"})")
                  .find("'warm_seed'"),
              std::string::npos);
    EXPECT_NE(jobError("{" + base + R"(,"small":1})").find("'small'"),
              std::string::npos);
    EXPECT_EQ(jobError("[1,2]"), "job is not an object");

    const std::string row = R"("ok":true,"variant":"v","ipc":1)";
    EXPECT_NE(rowError(R"({"ok":true,"variant":"v"})").find("'ipc'"),
              std::string::npos);
    EXPECT_NE(rowError(R"({"ok":true,"variant":"v","ipc":"x"})")
                  .find("'ipc'"),
              std::string::npos);
    EXPECT_NE(rowError("{" + row + R"(,"scores":[{"design":0}]})")
                  .find("'feasible'"),
              std::string::npos);
    EXPECT_NE(rowError("{" + row + R"(,"scores":{}})").find("'scores'"),
              std::string::npos);
    EXPECT_EQ(rowError(R"("row")"), "row is not an object");
}

TEST(Wire, DecodersRejectEveryTruncatedLine)
{
    // A proper prefix of a record line is never a complete JSON
    // object, so every truncation must be rejected, not decoded.
    std::vector<std::string> jobs = sampleJobLines();
    for (const std::string &line : jobs) {
        ASSERT_TRUE(decodeChecked(line, false)) << line;
        for (size_t n = 0; n < line.size(); ++n)
            EXPECT_FALSE(decodeChecked(line.substr(0, n), false))
                << line.substr(0, n);
    }
    std::string row = sampleRowLine();
    ASSERT_TRUE(decodeChecked(row, true));
    for (size_t n = 0; n < row.size(); ++n)
        EXPECT_FALSE(decodeChecked(row.substr(0, n), true))
            << row.substr(0, n);
}

TEST(Wire, DecodersSurviveFlippedBytes)
{
    // Seeded bit flips: each mutant either decodes (to a value that
    // re-encodes stably) or is rejected with a named error — never a
    // crash. Both outcomes must occur, or the corpus tests nothing.
    std::vector<std::string> lines = sampleJobLines();
    lines.push_back(sampleRowLine());
    Rng rng(0x5eedf11b);
    size_t accepted = 0;
    size_t rejected = 0;
    for (int trial = 0; trial < 4000; ++trial) {
        size_t which = rng.nextBelow(lines.size());
        std::string mutant = lines[which];
        int flips = 1 + static_cast<int>(rng.nextBelow(3));
        for (int f = 0; f < flips; ++f)
            mutant[rng.nextBelow(mutant.size())] ^=
                static_cast<char>(1u << rng.nextBelow(8));
        bool asRow = which + 1 == lines.size();
        (decodeChecked(mutant, asRow) ? accepted : rejected) += 1;
    }
    EXPECT_GT(accepted, 0u);
    EXPECT_GT(rejected, 0u);
}
