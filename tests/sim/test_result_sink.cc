/**
 * @file
 * Tests for the crash-safe streaming layer: spec hashing, shard
 * arithmetic, JSONL write/scan round-trips, checkpoint/resume (including
 * torn-tail recovery and spec-drift rejection), shard merging
 * bit-identity, per-run fault injection, and the bounded-memory report
 * aggregator's order invariance.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iterator>
#include <limits>
#include <string>
#include <vector>

#include "common/logging.hh"
#include "core/sim/result_sink.hh"
#include "core/sim/scenario.hh"

namespace memtherm
{
namespace
{

/** Tiny but real scenario: 2 inlet points x 1 workload x 2 policies. */
ScenarioSpec
tinySpec()
{
    ScenarioSpec spec;
    spec.name = "sink_test";
    spec.copiesPerApp = 1;
    spec.maxSimTime = 500.0;
    spec.workloads = {"W1"};
    spec.policies = {"No-limit", "DTM-TS"};
    spec.sweepTInlet = {46.0, 50.0};
    return spec;
}

/** Fresh path under the test temp dir (removes any leftover file). */
std::string
tmpPath(const std::string &name)
{
    std::string path = ::testing::TempDir() + "memtherm_" + name;
    std::remove(path.c_str());
    return path;
}

TEST(SpecHash, StableAndSensitive)
{
    ScenarioSpec spec = tinySpec();
    const std::string h = scenarioSpecHash(spec);
    ASSERT_EQ(h.size(), 16u);
    for (char c : h)
        EXPECT_TRUE((c >= '0' && c <= '9') || (c >= 'a' && c <= 'f'))
            << h;

    // Same spec, same hash — including through a JSON round-trip.
    EXPECT_EQ(scenarioSpecHash(tinySpec()), h);
    EXPECT_EQ(scenarioSpecHash(ScenarioSpec::fromJson(spec.toJson())), h);

    // Any edit an operator could make must change the fingerprint.
    ScenarioSpec edited = tinySpec();
    edited.maxSimTime = 501.0;
    EXPECT_NE(scenarioSpecHash(edited), h);
    edited = tinySpec();
    edited.policies.pop_back();
    EXPECT_NE(scenarioSpecHash(edited), h);
}

TEST(ShardSpec, ParseAcceptsWellFormedSlices)
{
    ShardSpec s = ShardSpec::parse("2/3");
    EXPECT_EQ(s.index, 2);
    EXPECT_EQ(s.count, 3);
    EXPECT_TRUE(s.sharded());
    EXPECT_EQ(s.label(), "2/3");
    EXPECT_FALSE(ShardSpec::parse("1/1").sharded());
}

TEST(ShardSpec, ParseRejectsMalformedSlices)
{
    for (const char *bad :
         {"", "3", "0/3", "4/3", "x/3", "1/0", "1/x", "-1/3", "1/3/5"}) {
        EXPECT_THROW(ShardSpec::parse(bad), FatalError) << bad;
    }
}

TEST(ShardSpec, RoundRobinPartitionCoversEveryIndexOnce)
{
    const int N = 3;
    for (std::size_t k = 0; k < 20; ++k) {
        int owners = 0;
        for (int i = 1; i <= N; ++i)
            owners += ShardSpec{i, N}.owns(k) ? 1 : 0;
        EXPECT_EQ(owners, 1) << "index " << k;
    }
}

TEST(ResultStream, WriteScanRoundTrip)
{
    ScenarioSpec spec = tinySpec();
    ExperimentEngine engine(2);
    StreamRunOptions opts;
    opts.path = tmpPath("roundtrip.jsonl");

    StreamRunStats stats = runScenarioStream(spec, engine, opts);
    EXPECT_EQ(stats.totalRuns, 4u);
    EXPECT_EQ(stats.executed, 4u);
    EXPECT_EQ(stats.failed, 0u);

    StreamScan scan = scanStream(opts.path);
    EXPECT_TRUE(scan.spec == spec);
    EXPECT_EQ(scan.specHash, scenarioSpecHash(spec));
    EXPECT_EQ(scan.totalRuns, 4u);
    EXPECT_FALSE(scan.droppedPartialTail);
    ASSERT_EQ(scan.records.size(), 4u);

    std::vector<bool> seen(4, false);
    for (const StreamRecord &r : scan.records) {
        EXPECT_FALSE(r.failed);
        ASSERT_LT(r.index, 4u);
        EXPECT_FALSE(seen[r.index]);
        seen[r.index] = true;
        EXPECT_EQ(r.workload, "W1");
    }
}

TEST(ResultStream, MergeMatchesDirectScenarioRun)
{
    ScenarioSpec spec = tinySpec();
    ExperimentEngine engine(2);
    StreamRunOptions opts;
    opts.path = tmpPath("merge_direct.jsonl");
    runScenarioStream(spec, engine, opts);

    MergedStream merged = mergeStreams({opts.path});
    EXPECT_TRUE(merged.errors.empty());
    EXPECT_TRUE(merged.missingRuns.empty());
    EXPECT_TRUE(merged.results == toJson(runScenario(spec, engine)));
}

TEST(ResultStream, ResumeSkipsCompletedAndDropsTornTail)
{
    ScenarioSpec spec = tinySpec();
    ExperimentEngine engine(2);

    StreamRunOptions full;
    full.path = tmpPath("resume_full.jsonl");
    runScenarioStream(spec, engine, full);
    const Json reference = mergeStreams({full.path}).results;

    // Reconstruct a crashed stream: header + first two intact records,
    // then the torn tail a kill mid-append would leave.
    std::vector<std::string> lines;
    {
        std::ifstream in(full.path);
        std::string line;
        while (std::getline(in, line))
            lines.push_back(line);
    }
    ASSERT_EQ(lines.size(), 5u);
    StreamRunOptions part;
    part.path = tmpPath("resume_part.jsonl");
    {
        std::ofstream out(part.path, std::ios::binary);
        out << lines[0] << '\n' << lines[1] << '\n' << lines[2] << '\n';
        out << "{\"type\": \"result\", \"index\": 9"; // no newline
    }

    part.resume = true;
    StreamRunStats stats = runScenarioStream(spec, engine, part);
    EXPECT_EQ(stats.skipped, 2u);
    EXPECT_EQ(stats.executed, 2u);
    EXPECT_TRUE(mergeStreams({part.path}).results == reference);

    // Nothing left: a second resume is a no-op.
    stats = runScenarioStream(spec, engine, part);
    EXPECT_EQ(stats.skipped, 4u);
    EXPECT_EQ(stats.executed, 0u);
}

/**
 * Resume under prefix sharing: a stream missing arbitrary members of
 * several equivalence classes (one class entirely) resumes at the
 * default width, sharing within each class's missing members, and
 * merges to the bytes of the unshared (`--batch 1`) document.
 */
TEST(ResultStream, ResumeUnderSharingMergesToTheUnsharedDocument)
{
    ScenarioSpec spec = tinySpec();
    spec.workloads = {"W1", "W2"};
    spec.policies = {"No-limit", "DTM-TS", "DTM-BW", "DTM-ACG"};
    ExperimentEngine engine(2);
    const std::string unshared =
        toJson(runScenario(spec, engine, 1)).dump(2);

    StreamRunOptions full;
    full.path = tmpPath("resume_shared_full.jsonl");
    full.batchWidth = 1;
    runScenarioStream(spec, engine, full);
    std::vector<std::string> lines;
    {
        std::ifstream in(full.path);
        std::string line;
        while (std::getline(in, line))
            lines.push_back(line);
    }
    ASSERT_EQ(lines.size(), 17u); // header + 4 classes x 4 policies

    // Classes are [0,4) [4,8) [8,12) [12,16): drop two members of the
    // first, all of the second, one of the third, two of the last.
    const std::vector<std::size_t> dropped{1, 3, 4, 5, 6, 7, 10, 12, 15};
    StreamRunOptions part;
    part.path = tmpPath("resume_shared_part.jsonl");
    {
        std::ofstream out(part.path, std::ios::binary);
        out << lines[0] << '\n';
        for (std::size_t i = 1; i < lines.size(); ++i) {
            const std::size_t k = static_cast<std::size_t>(
                Json::parse(lines[i]).at("index").asNumber());
            if (std::find(dropped.begin(), dropped.end(), k) ==
                dropped.end())
                out << lines[i] << '\n';
        }
    }

    part.resume = true;
    StreamRunStats stats = runScenarioStream(spec, engine, part);
    EXPECT_EQ(stats.skipped, 16u - dropped.size());
    EXPECT_EQ(stats.executed, dropped.size());
    EXPECT_EQ(stats.failed, 0u);
    EXPECT_GT(stats.batch.hitRate(), 0.0); // the missing members shared

    MergedStream merged = mergeStreams({part.path});
    EXPECT_TRUE(merged.missingRuns.empty());
    EXPECT_EQ(merged.results.dump(2), unshared);
}

TEST(ResultStream, ResumeRejectsEditedSpec)
{
    ScenarioSpec spec = tinySpec();
    ExperimentEngine engine(2);
    StreamRunOptions opts;
    opts.path = tmpPath("resume_drift.jsonl");
    runScenarioStream(spec, engine, opts);

    ScenarioSpec edited = tinySpec();
    edited.maxSimTime = 600.0;
    opts.resume = true;
    EXPECT_THROW(runScenarioStream(edited, engine, opts), FatalError);
}

TEST(ResultStream, FreshRunRefusesToClobberAnExistingStream)
{
    ScenarioSpec spec = tinySpec();
    ExperimentEngine engine(2);
    StreamRunOptions opts;
    opts.path = tmpPath("no_clobber.jsonl");
    runScenarioStream(spec, engine, opts);
    EXPECT_THROW(runScenarioStream(spec, engine, opts), FatalError);
}

TEST(ResultStream, ResumeOfMissingFileStartsFresh)
{
    // Unattended restart loops always pass --resume; the first launch
    // must not need a special case.
    ScenarioSpec spec = tinySpec();
    ExperimentEngine engine(2);
    StreamRunOptions opts;
    opts.path = tmpPath("resume_fresh.jsonl");
    opts.resume = true;
    StreamRunStats stats = runScenarioStream(spec, engine, opts);
    EXPECT_EQ(stats.skipped, 0u);
    EXPECT_EQ(stats.executed, 4u);
}

TEST(ResultStream, ThreeShardsMergeBitIdenticalToUnsharded)
{
    ScenarioSpec spec = tinySpec();
    ExperimentEngine engine(2);

    StreamRunOptions full;
    full.path = tmpPath("shard_full.jsonl");
    runScenarioStream(spec, engine, full);
    MergedStream reference = mergeStreams({full.path});

    std::vector<std::string> shardPaths;
    std::size_t shardTotal = 0;
    for (int i = 1; i <= 3; ++i) {
        StreamRunOptions opts;
        opts.path = tmpPath("shard" + std::to_string(i) + ".jsonl");
        opts.shard = {i, 3};
        StreamRunStats stats = runScenarioStream(spec, engine, opts);
        shardTotal += stats.executed;
        shardPaths.push_back(opts.path);
    }
    EXPECT_EQ(shardTotal, 4u);

    MergedStream merged = mergeStreams(shardPaths);
    EXPECT_TRUE(merged.missingRuns.empty());
    EXPECT_TRUE(merged.results == reference.results);

    // A strict subset reports exactly the absent shard's indices.
    MergedStream partial = mergeStreams({shardPaths[0], shardPaths[2]});
    EXPECT_EQ(partial.missingRuns, (std::vector<std::size_t>{1}));
}

TEST(ResultStream, InjectedRunFailureIsIsolatedAndRetriable)
{
    ScenarioSpec spec = tinySpec();
    ExperimentEngine engine(2);

    setenv("MEMTHERM_FAULT_FAIL_RUN", "1", 1);
    ScenarioResults direct = runScenario(spec, engine);
    ASSERT_EQ(direct.errors.size(), 1u);
    EXPECT_EQ(direct.errors[0].index, 1u);
    EXPECT_EQ(direct.errors[0].workload, "W1");
    EXPECT_FALSE(direct.errors[0].error.empty());

    StreamRunOptions opts;
    opts.path = tmpPath("fault.jsonl");
    StreamRunStats stats = runScenarioStream(spec, engine, opts);
    unsetenv("MEMTHERM_FAULT_FAIL_RUN");
    EXPECT_EQ(stats.executed, 4u);
    EXPECT_EQ(stats.failed, 1u);
    ASSERT_EQ(stats.failures.size(), 1u);
    EXPECT_EQ(stats.failures[0].index, 1u);

    MergedStream broken = mergeStreams({opts.path});
    ASSERT_EQ(broken.errors.size(), 1u);
    EXPECT_EQ(broken.errors[0].index, 1u);
    EXPECT_TRUE(broken.missingRuns.empty()); // error records count

    // The retry on resume replaces the error with a result,
    // bit-identical to a never-failed run.
    opts.resume = true;
    stats = runScenarioStream(spec, engine, opts);
    EXPECT_EQ(stats.skipped, 3u);
    EXPECT_EQ(stats.executed, 1u);
    EXPECT_EQ(stats.failed, 0u);

    StreamRunOptions clean;
    clean.path = tmpPath("fault_clean.jsonl");
    runScenarioStream(spec, engine, clean);
    MergedStream healed = mergeStreams({opts.path});
    EXPECT_TRUE(healed.errors.empty());
    EXPECT_TRUE(healed.results == mergeStreams({clean.path}).results);
}

TEST(ResultStream, MergeRejectsStreamsOfDifferentScenarios)
{
    ScenarioSpec spec = tinySpec();
    ExperimentEngine engine(2);
    StreamRunOptions a;
    a.path = tmpPath("mix_a.jsonl");
    runScenarioStream(spec, engine, a);

    ScenarioSpec other = tinySpec();
    other.maxSimTime = 600.0;
    StreamRunOptions b;
    b.path = tmpPath("mix_b.jsonl");
    runScenarioStream(other, engine, b);

    EXPECT_THROW(mergeStreams({a.path, b.path}), FatalError);
}

TEST(ResultStream, StreamBytesAreIndependentOfThreadCount)
{
    ScenarioSpec spec = tinySpec();
    StreamRunOptions serial;
    serial.path = tmpPath("det_serial.jsonl");
    StreamRunOptions parallel4;
    parallel4.path = tmpPath("det_parallel.jsonl");

    ExperimentEngine one(1);
    ExperimentEngine four(4);
    runScenarioStream(spec, one, serial);
    runScenarioStream(spec, four, parallel4);

    // Line *order* may differ with threads; the merged canonical
    // document may not.
    EXPECT_TRUE(mergeStreams({serial.path}).results ==
                mergeStreams({parallel4.path}).results);
}

TEST(OnlineAggregator, MatchesAnyFeedOrder)
{
    struct Row
    {
        const char *point, *workload, *policy;
        bool completed;
        double t, amb, dram;
    };
    const std::vector<Row> rows{
        {"p1", "W1", "No-limit", true, 100.0, 80.0, 85.0},
        {"p1", "W1", "DTM-TS", true, 120.0, 78.0, 83.0},
        {"p1", "W4", "No-limit", true, 200.0, 81.0, 86.0},
        {"p1", "W4", "DTM-TS", false, 260.0, 79.0, 84.0},
        {"p2", "W1", "No-limit", true, 90.0, 70.0, 75.0},
        {"p2", "W1", "DTM-TS", true, 99.0, 69.0, 74.0},
    };

    auto feed = [&](const std::vector<std::size_t> &order) {
        OnlineAxisAggregator agg("No-limit");
        for (std::size_t i : order) {
            const Row &r = rows[i];
            agg.add(r.point, r.workload, r.policy, r.completed, r.t,
                    r.amb, r.dram);
        }
        return agg.summaries();
    };

    std::vector<std::size_t> inOrder{0, 1, 2, 3, 4, 5};
    // Every non-baseline run arrives before its baseline.
    std::vector<std::size_t> reversed{5, 4, 3, 2, 1, 0};

    auto a = feed(inOrder);
    auto b = feed(reversed);
    ASSERT_EQ(a.size(), 2u);
    ASSERT_EQ(b.size(), a.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        // Order changes first-appearance labels; compare by content.
        const auto &x = a[i];
        const auto &y = b[a.size() - 1 - i];
        EXPECT_EQ(x.label, y.label);
        EXPECT_EQ(x.runs, y.runs);
        EXPECT_EQ(x.incomplete, y.incomplete);
        EXPECT_EQ(x.maxAmb, y.maxAmb);
        EXPECT_EQ(x.maxDram, y.maxDram);
        EXPECT_DOUBLE_EQ(x.normSum, y.normSum);
        EXPECT_EQ(x.normN, y.normN);
    }

    // Spot-check p1: 4 runs, one incomplete; normalization includes the
    // incomplete DTM-TS run (the baseline gates, not the run itself):
    // 1.0 + 1.2 + 1.0 + 1.3 = 4.5 over 4 runs.
    const auto &p1 = a[0];
    EXPECT_EQ(p1.label, "p1");
    EXPECT_EQ(p1.runs, 4u);
    EXPECT_EQ(p1.incomplete, 1u);
    EXPECT_EQ(p1.maxAmb, 81.0);
    EXPECT_EQ(p1.maxDram, 86.0);
    EXPECT_DOUBLE_EQ(p1.normSum, 4.5);
    EXPECT_EQ(p1.normN, 4u);
}

TEST(OnlineAggregator, UnusableBaselineYieldsNoNormalization)
{
    OnlineAxisAggregator agg("No-limit");
    // The baseline never completed: nothing in the group normalizes.
    agg.add("p1", "W1", "DTM-TS", true, 120.0, 78.0, 83.0);
    agg.add("p1", "W1", "No-limit", false, 100.0, 80.0, 85.0);
    auto s = agg.summaries();
    ASSERT_EQ(s.size(), 1u);
    EXPECT_EQ(s[0].runs, 2u);
    EXPECT_EQ(s[0].incomplete, 1u);
    EXPECT_EQ(s[0].normN, 0u);
    EXPECT_DOUBLE_EQ(s[0].normSum, 0.0);
}

TEST(ResultStream, HeaderSchemaVersionAcceptRejectMatrix)
{
    ScenarioSpec spec = tinySpec();
    ExperimentEngine engine(2);
    StreamRunOptions opts;
    opts.path = tmpPath("schema.jsonl");
    runScenarioStream(spec, engine, opts);

    std::vector<std::string> lines;
    {
        std::ifstream in(opts.path);
        std::string line;
        while (std::getline(in, line))
            lines.push_back(line);
    }
    ASSERT_GE(lines.size(), 2u);

    // A freshly written header records this binary's document schema.
    Json hdr = Json::parse(lines[0]);
    const Json *sv = hdr.find("schema_version");
    ASSERT_NE(sv, nullptr);
    EXPECT_EQ(static_cast<int>(sv->asNumber()), kResultSchemaVersion);

    // Rewrite the stream with a patched header and re-scan it.
    auto withHeader = [&](const Json &header, const std::string &name) {
        std::string path = tmpPath(name);
        std::ofstream out(path, std::ios::binary);
        out << header.dump(0) << '\n';
        for (std::size_t i = 1; i < lines.size(); ++i)
            out << lines[i] << '\n';
        return path;
    };

    // Legacy stream (written before schema versioning): accepted as v1.
    Json legacy = Json::object();
    for (const auto &[k, v] : hdr.asObject())
        if (k != "schema_version")
            legacy.set(k, v);
    StreamScan scan =
        scanStream(withHeader(legacy, "schema_legacy.jsonl"));
    EXPECT_EQ(scan.records.size(), 4u);

    // Older explicit version: accepted.
    Json v1 = legacy;
    v1.set("schema_version", 1);
    EXPECT_EQ(scanStream(withHeader(v1, "schema_v1.jsonl")).records.size(),
              4u);

    // A stream from a newer binary: refused with a clear error.
    Json future = legacy;
    future.set("schema_version", kResultSchemaVersion + 1);
    EXPECT_THROW(scanStream(withHeader(future, "schema_future.jsonl")),
                 FatalError);

    // Nonsense versions: refused.
    Json zero = legacy;
    zero.set("schema_version", 0);
    EXPECT_THROW(scanStream(withHeader(zero, "schema_zero.jsonl")),
                 FatalError);

    // Integers beyond the C++ type's range are refused with a located
    // error instead of converting with undefined behaviour.
    auto expectRefused = [&](const char *member, double value,
                             const std::string &msg) {
        SCOPED_TRACE(member);
        Json h = hdr;
        h.set(member, value);
        try {
            scanStream(withHeader(h, "schema_range.jsonl"));
            ADD_FAILURE() << "accepted " << member << " = " << value;
        } catch (const FatalError &e) {
            EXPECT_NE(std::string(e.what()).find(msg), std::string::npos)
                << e.what();
        }
    };
    expectRefused("schema_version", 1e20,
                  "schema version 1e+20 is newer than this binary's");
    expectRefused("format", 1e20,
                  "member 'format' must be an integer in [-2147483648, "
                  "2147483647] (got 1e+20)");
    expectRefused("format", 1.5, "member 'format' must be an integer in");
    expectRefused("total_runs", 1e30,
                  "member 'total_runs' must be an integer in [0, "
                  "18446744073709551615] (got 1e+30)");
}

TEST(ResultStream, ScanRejectsMidFileCorruption)
{
    ScenarioSpec spec = tinySpec();
    ExperimentEngine engine(2);
    StreamRunOptions opts;
    opts.path = tmpPath("corrupt.jsonl");
    runScenarioStream(spec, engine, opts);

    // Corrupt a *middle* line: that cannot come from a crash of the
    // append-and-flush writer, so it must be an error, not a skip.
    std::vector<std::string> lines;
    {
        std::ifstream in(opts.path);
        std::string line;
        while (std::getline(in, line))
            lines.push_back(line);
    }
    ASSERT_GE(lines.size(), 3u);
    std::string corrupted = tmpPath("corrupt_mid.jsonl");
    {
        std::ofstream out(corrupted, std::ios::binary);
        out << lines[0] << '\n';
        out << "{\"type\": \"result\", \"index\"\n"; // terminated garbage
        for (std::size_t i = 2; i < lines.size(); ++i)
            out << lines[i] << '\n';
    }
    EXPECT_THROW(scanStream(corrupted), FatalError);
}

TEST(ResultStream, TailTornInsideAnEscapedStringIsStillATail)
{
    // Regression: the torn-tail classifier keys on the missing final
    // newline alone, so a tear landing *inside an escape sequence* of a
    // JSON string — after the backslash of '\"', leaving the string
    // open — must still read as a crash tail (dropped, resumable), not
    // as corruption.
    ScenarioSpec spec = tinySpec();
    ExperimentEngine engine(2);
    StreamRunOptions opts;
    opts.path = tmpPath("escape_tail.jsonl");
    runScenarioStream(spec, engine, opts);

    std::vector<std::string> lines;
    {
        std::ifstream in(opts.path);
        std::string line;
        while (std::getline(in, line))
            lines.push_back(line);
    }
    ASSERT_EQ(lines.size(), 5u);

    // Tears at increasing awkwardness: mid-escape (trailing lone
    // backslash), just after an escaped quote (string still open), and
    // a lone opening quote.
    const std::vector<std::string> tails{
        R"({"type":"result","index":9,"point":"a\)",
        R"({"type":"result","index":9,"point":"a\"b)",
        R"({"type":"result","index":9,"point":")",
    };
    for (std::size_t t = 0; t < tails.size(); ++t) {
        const std::string torn =
            tmpPath("escape_tail_" + std::to_string(t) + ".jsonl");
        std::size_t intact_bytes = 0;
        {
            std::ofstream out(torn, std::ios::binary);
            for (const std::string &l : lines) {
                out << l << '\n';
                intact_bytes += l.size() + 1;
            }
            out << tails[t]; // no newline: the crash signature
        }
        StreamScan scan = scanStream(torn);
        EXPECT_TRUE(scan.droppedPartialTail) << tails[t];
        EXPECT_EQ(scan.records.size(), 4u) << tails[t];
        EXPECT_EQ(scan.cleanSize, intact_bytes) << tails[t];

        // The same bytes WITH a terminating newline cannot be a crash
        // of this writer: that is mid-file corruption, a hard error.
        const std::string terminated =
            tmpPath("escape_term_" + std::to_string(t) + ".jsonl");
        {
            std::ofstream out(terminated, std::ios::binary);
            for (const std::string &l : lines)
                out << l << '\n';
            out << tails[t] << '\n';
        }
        EXPECT_THROW(scanStream(terminated), FatalError) << tails[t];
    }
}

TEST(ResultStream, MergeAcceptsMixedV1AndV2ShardHeaders)
{
    // One shard set, three vintages of writer: a version-absent legacy
    // header (reads as v1), an explicit v2, and this binary's header.
    // Merging must accept all three and reproduce the unsharded
    // document bit for bit.
    ScenarioSpec spec = tinySpec();
    ExperimentEngine engine(2);

    StreamRunOptions full;
    full.path = tmpPath("mixed_full.jsonl");
    runScenarioStream(spec, engine, full);
    const Json reference = mergeStreams({full.path}).results;

    std::vector<std::string> shardPaths;
    for (int i = 1; i <= 3; ++i) {
        StreamRunOptions opts;
        opts.path = tmpPath("mixed_shard" + std::to_string(i) + ".jsonl");
        opts.shard = {i, 3};
        runScenarioStream(spec, engine, opts);
        shardPaths.push_back(opts.path);
    }

    // Rewrite shard 1's header as legacy (no schema_version member) and
    // shard 2's as an explicit v2; shard 3 keeps this binary's header.
    auto rewriteHeader = [](const std::string &path, int version) {
        std::vector<std::string> lines;
        {
            std::ifstream in(path);
            std::string line;
            while (std::getline(in, line))
                lines.push_back(line);
        }
        Json hdr = Json::parse(lines[0]);
        Json patched = Json::object();
        for (const auto &[k, v] : hdr.asObject()) {
            if (k == "schema_version") {
                if (version > 0)
                    patched.set(k, version);
                continue;
            }
            patched.set(k, v);
        }
        std::ofstream out(path, std::ios::binary | std::ios::trunc);
        out << patched.dump(0) << '\n';
        for (std::size_t i = 1; i < lines.size(); ++i)
            out << lines[i] << '\n';
    };
    rewriteHeader(shardPaths[0], 0); // legacy: absent -> v1
    rewriteHeader(shardPaths[1], 2);

    MergedStream merged = mergeStreams(shardPaths);
    EXPECT_TRUE(merged.errors.empty());
    EXPECT_TRUE(merged.missingRuns.empty());
    EXPECT_TRUE(merged.results == reference);
}

TEST(ResultSchema, PinnedOlderReaderRefusesNewerDocument)
{
    // A v3 document (per-bank fields) against a reader pinned to v2:
    // the max_version override must produce the upgrade refusal, the
    // same document under the default cap must pass.
    Json doc = Json::object();
    doc.set("schema_version", 3);
    EXPECT_EQ(resultSchemaVersionOf(doc, "'doc'"), 3);
    try {
        (void)resultSchemaVersionOf(doc, "'doc'", /*max_version=*/2);
        FAIL() << "expected FatalError";
    } catch (const FatalError &e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("schema version 3"), std::string::npos)
            << what;
        EXPECT_NE(what.find("2"), std::string::npos) << what;
    }
    // Version-absent documents read as v1 under any cap.
    Json legacy = Json::object();
    EXPECT_EQ(resultSchemaVersionOf(legacy, "'doc'", 2), 1);
}

TEST(ResultSchema, DocumentsStampTheMinimumVersionTheyNeed)
{
    // The stamping ladder: plain results stay version-absent (exact
    // historical bytes), refresh-coupled results stamp 2, bank-grid
    // results stamp 3.
    ScenarioSpec plain = tinySpec();
    ExperimentEngine engine(2);
    Json doc1 = toJson(runScenario(plain, engine));
    EXPECT_EQ(doc1.find("schema_version"), nullptr);

    ScenarioSpec refreshed = tinySpec();
    refreshed.refresh.name = "ddr2_2x";
    Json doc2 = toJson(runScenario(refreshed, engine));
    const Json *v2 = doc2.find("schema_version");
    ASSERT_NE(v2, nullptr);
    EXPECT_EQ(static_cast<int>(v2->asNumber()), 2);

    ScenarioSpec gridded = tinySpec();
    gridded.thermalModel.name = "bank_grid";
    Json doc3 = toJson(runScenario(gridded, engine));
    const Json *v3 = doc3.find("schema_version");
    ASSERT_NE(v3, nullptr);
    EXPECT_EQ(static_cast<int>(v3->asNumber()), kResultSchemaVersion);
}

/** The record line the writer wrote before it wrote text directly:
 *  the DOM record's dump(0) plus its newline. */
std::string
domRecordLine(std::size_t index, const std::string &point,
              const std::string &workload, const std::string &policy,
              const SimResult &r, double wall_s, bool traces)
{
    Json j = Json::object();
    j.set("type", "result");
    j.set("index", static_cast<std::uint64_t>(index));
    j.set("point", point);
    j.set("workload", workload);
    j.set("policy", policy);
    j.set("wall_s", wall_s);
    j.set("result", toJson(r, traces));
    return j.dump(0) + '\n';
}

std::string
fileText(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    return std::string(std::istreambuf_iterator<char>(in),
                       std::istreambuf_iterator<char>());
}

/** Results covering every member group of the schema. */
std::vector<SimResult>
schemaSamples()
{
    SimResult lumped; // empty vectors and traces, default zeros
    lumped.workload = "W1";
    lumped.policy = "DTM-TS";

    SimResult v1 = lumped;
    v1.workload = "quote\" back\\ nl\n tab\t ctl\x01 utf8 \xc3\xa9";
    v1.completed = true;
    v1.runningTime = 63.00999999999603;
    v1.totalInstr = 1e15; // integral
    v1.totalReadGB = 12.0;
    v1.totalWriteGB = -0.0;
    v1.memEnergy = 9007199254740992.0; // 2^53: no longer printed as int
    v1.cpuEnergy = 0.1;
    v1.maxAmb = 110.05;
    v1.peakAmbPerDimm = {100.0, 99.5, 98.25, 97.0};
    v1.peakDramPerDimm = {84.0, 83.5, 82.0, 81.125};
    v1.avgPowerPerDimm = {5.0, 4.5, 4.0, 3.5};
    for (double x : {1.0, 2.5, 3.0})
        v1.ambTrace.add(x);
    v1.dramTrace.add(85.0);
    v1.bwTrace.add(1e-300);

    SimResult v2 = v1;
    v2.refreshBwLossPerDimm = {0.5, 0.25, 0.0, 1.0};
    v2.refreshEnergyPerDimm = {3.0, 2.0, 1.0, 1e-9};

    SimResult v3 = v2;
    v3.bankGridX = 3;
    v3.bankGridZ = 2;
    for (int i = 0; i < 4 * 6; ++i)
        v3.peakBankDramPerDimm.push_back(80.0 + i * 0.375);
    return {lumped, v1, v2, v3};
}

TEST(ResultStream, RecordTextIsTheDomRecordsBytes)
{
    // appendResult writes its record as text, not as a Json tree; the
    // bytes must be the tree's dump(0), for every member group of the
    // schema, traces on and off.
    const std::string path = tmpPath("record_text.jsonl");
    JsonlResultWriter writer(path, tinySpec(), 4, ShardSpec{}, true);
    std::size_t size = fileText(path).size();
    std::size_t index = 0;
    for (const SimResult &r : schemaSamples()) {
        for (bool traces : {false, true}) {
            const std::string point = "inlet=46 \"q\"";
            const double wall_s = index % 2 ? 2.0 : 0.0123;
            writer.appendResult(index, point, r.workload, r.policy, r,
                                wall_s, traces);
            const std::string text = fileText(path);
            EXPECT_EQ(text.substr(size),
                      domRecordLine(index, point, r.workload, r.policy, r,
                                    wall_s, traces))
                << "record " << index;
            // The same schema, straight to text.
            std::string direct;
            JsonTextWriter w(direct);
            writeJson(w, r, traces);
            EXPECT_EQ(direct, toJson(r, traces).dump(0));
            size = text.size();
            ++index;
        }
    }

    // A non-finite number fails as dump() does and leaves no partial
    // line; the next record lands intact.
    SimResult bad = schemaSamples().back();
    bad.maxDram = std::numeric_limits<double>::quiet_NaN();
    try {
        writer.appendResult(index, "p", "w", "q", bad, 1.0, true);
        ADD_FAILURE() << "a NaN result serialized";
    } catch (const FatalError &e) {
        EXPECT_STREQ(e.what(),
                     "fatal: json: cannot serialize a non-finite number");
    }
    EXPECT_EQ(fileText(path).size(), size);
    const SimResult good = schemaSamples().front();
    writer.appendResult(index, "p", "w", "q", good, 1.0, false);
    EXPECT_EQ(fileText(path).substr(size),
              domRecordLine(index, "p", "w", "q", good, 1.0, false));
}

} // namespace
} // namespace memtherm
