#include "core/sim/result_sink.hh"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <utility>

#include "common/logging.hh"

namespace memtherm
{

namespace
{

/** FNV-1a 64-bit, the classic offset basis / prime constants. */
std::uint64_t
fnv1a64(const std::string &text)
{
    std::uint64_t h = 1469598103934665603ULL;
    for (unsigned char c : text) {
        h ^= c;
        h *= 1099511628211ULL;
    }
    return h;
}

std::string
hex64(std::uint64_t v)
{
    static const char digits[] = "0123456789abcdef";
    std::string out(16, '0');
    for (int i = 15; i >= 0; --i) {
        out[static_cast<std::size_t>(i)] = digits[v & 0xf];
        v >>= 4;
    }
    return out;
}

/** Positive-integer env knob; -1 when unset, warn-and-ignore when bad. */
int
envFaultIndex(const char *name)
{
    const char *env = std::getenv(name);
    if (!env)
        return -1;
    char *end = nullptr;
    unsigned long k = std::strtoul(env, &end, 10);
    if (end == env || *end != '\0' || k > 1000000000UL) {
        warn(std::string(name) + "='" + env +
             "' is not a run count; ignoring");
        return -1;
    }
    return static_cast<int>(k);
}

std::string
streamMemberString(const Json &j, const char *key, const std::string &where)
{
    const Json *v = j.find(key);
    if (!v || !v->isString())
        fatal(where + (": missing or non-string member '" + std::string(key) +
                       "'"));
    return v->asString();
}

double
streamMemberNumber(const Json &j, const char *key, const std::string &where)
{
    const Json *v = j.find(key);
    if (!v || !v->isNumber())
        fatal(where + (": missing or non-number member '" + std::string(key) +
                       "'"));
    return v->asNumber();
}

std::size_t
streamMemberIndex(const Json &j, const char *key, const std::string &where)
{
    double v = streamMemberNumber(j, key, where);
    if (v < 0 || v != std::floor(v))
        fatal(where + (": member '" + std::string(key) +
                       "' must be a non-negative integer"));
    return jsonInteger<std::size_t>(
        v, where + ": member '" + std::string(key) + "'");
}

} // namespace

std::string
scenarioSpecHash(const ScenarioSpec &spec)
{
    // The format version is folded in so a stream can never look
    // resumable across a schema change.
    return hex64(fnv1a64(std::to_string(kStreamFormatVersion) + ":" +
                         spec.toJson().dump(0)));
}

ShardSpec
ShardSpec::parse(const std::string &text)
{
    const auto bad = [&] {
        fatal("shard: expected 'i/N' with 1 <= i <= N (got '" + text + "')");
    };
    const std::size_t slash = text.find('/');
    if (slash == std::string::npos || slash == 0 ||
        slash + 1 >= text.size()) {
        bad();
    }
    const std::string a = text.substr(0, slash);
    const std::string b = text.substr(slash + 1);
    for (const std::string &part : {a, b})
        for (char c : part)
            if (c < '0' || c > '9')
                bad();
    // Bounded well below INT_MAX; nobody shards one grid 10^6 ways.
    if (a.size() > 6 || b.size() > 6)
        bad();
    ShardSpec s;
    s.index = std::atoi(a.c_str());
    s.count = std::atoi(b.c_str());
    if (s.index < 1 || s.count < 1 || s.index > s.count)
        bad();
    return s;
}

JsonlResultWriter::JsonlResultWriter(const std::string &path,
                                     const ScenarioSpec &spec,
                                     std::size_t total_runs, ShardSpec shard,
                                     bool traces)
    : path(path), faultAfter(envFaultIndex("MEMTHERM_FAULT_AFTER_RUN"))
{
    out.open(path, std::ios::binary | std::ios::trunc);
    if (!out)
        fatal("stream: cannot open '" + path + "' for writing");

    Json h = Json::object();
    h.set("type", "header");
    h.set("format", kStreamFormatVersion);
    h.set("schema_version", kResultSchemaVersion);
    h.set("scenario", spec.name);
    h.set("spec_hash", scenarioSpecHash(spec));
    h.set("total_runs", static_cast<std::uint64_t>(total_runs));
    if (shard.sharded()) {
        Json sh = Json::object();
        sh.set("index", shard.index);
        sh.set("count", shard.count);
        h.set("shard", std::move(sh));
    }
    h.set("traces", Json(traces));
    h.set("spec", spec.toJson());
    appendLine(h);
}

JsonlResultWriter::JsonlResultWriter(const std::string &path,
                                     std::size_t clean_size)
    : path(path), faultAfter(envFaultIndex("MEMTHERM_FAULT_AFTER_RUN"))
{
    // Drop the crash tail (if any) before appending: everything past the
    // last intact line is garbage by the writer's append-and-flush
    // invariant.
    std::error_code ec;
    std::filesystem::resize_file(path, clean_size, ec);
    if (ec) {
        fatal("stream: cannot truncate '" + path + "' to " +
              std::to_string(clean_size) + " bytes: " + ec.message());
    }
    out.open(path, std::ios::binary | std::ios::app);
    if (!out)
        fatal("stream: cannot open '" + path + "' for appending");
}

void
JsonlResultWriter::appendLine(const Json &record)
{
    std::string text = record.dump(0);
    text += '\n';
    writeLine(text);
}

void
JsonlResultWriter::writeLine(const std::string &text)
{
    // One write call for the whole line, then a flush: a crash between
    // appends leaves only intact lines, a crash mid-append leaves one
    // partial *trailing* line that scanStream() detects and drops.
    out.write(text.data(), static_cast<std::streamsize>(text.size()));
    out.flush();
    if (!out)
        fatal("stream: write to '" + path + "' failed (disk full?)");
}

void
JsonlResultWriter::appendResult(std::size_t index, const std::string &point,
                                const std::string &workload,
                                const std::string &policy, const SimResult &r,
                                double wall_s, bool traces)
{
    // The record's dump(0) bytes, written as text into the reused
    // buffer instead of built as a tree first. A result that cannot
    // serialize (a non-finite number) throws before anything reaches
    // the file.
    line.clear();
    JsonTextWriter w(line);
    w.beginObject();
    jsonMember(w, "type", "result");
    jsonMember(w, "index", static_cast<double>(index));
    jsonMember(w, "point", point);
    jsonMember(w, "workload", workload);
    jsonMember(w, "policy", policy);
    jsonMember(w, "wall_s", wall_s);
    w.key("result");
    writeJson(w, r, traces);
    w.endObject();
    line += '\n';
    writeLine(line);

    // Fault injection: simulate a hard crash (no unwinding, no flush of
    // anything else) once this process has persisted `faultAfter`
    // results. The line above is already on disk — exactly the state a
    // real mid-grid kill leaves behind.
    if (faultAfter >= 0 && ++resultsWritten >= faultAfter)
        std::_Exit(86);
}

void
JsonlResultWriter::appendError(std::size_t index, const std::string &point,
                               const std::string &workload,
                               const std::string &policy,
                               const std::string &error)
{
    Json j = Json::object();
    j.set("type", "error");
    j.set("index", static_cast<std::uint64_t>(index));
    j.set("point", point);
    j.set("workload", workload);
    j.set("policy", policy);
    j.set("error", error);
    appendLine(j);
}

StreamScan
scanStream(const std::string &path, bool keep_results)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        fatal("stream: cannot open '" + path + "'");

    StreamScan scan;
    std::size_t lineno = 0;
    std::string line;
    while (std::getline(in, line)) {
        ++lineno;
        // getline() hitting EOF before a '\n' is the crash signature:
        // the writer always terminates lines, so an unterminated tail
        // is a torn append. Drop it; cleanSize already marks the cut.
        if (in.eof()) {
            scan.droppedPartialTail = true;
            warn("stream '" + path + "': dropping partial trailing line " +
                 std::to_string(lineno) + " (crash tail)");
            break;
        }

        const std::string where =
            "stream '" + path + "' line " + std::to_string(lineno);
        Json j;
        try {
            j = Json::parse(line);
        } catch (const FatalError &e) {
            // Mid-file damage cannot come from a crash of this writer;
            // refuse to guess what the stream meant.
            fatal(where + ": corrupt record: " + e.what());
        }
        if (!j.isObject())
            fatal(where + ": record is not a JSON object");
        const std::string type = streamMemberString(j, "type", where);

        if (lineno == 1) {
            if (type != "header")
                fatal(where + ": first line must be the stream header");
            const int format = jsonInteger<int>(
                streamMemberNumber(j, "format", where),
                where + ": member 'format'");
            if (format != kStreamFormatVersion) {
                fatal(where + ": format " + std::to_string(format) +
                      " does not match this binary's format " +
                      std::to_string(kStreamFormatVersion));
            }
            // Result-document schema: absent means v1 (legacy stream,
            // readable as-is); newer than this binary is refused.
            (void)resultSchemaVersionOf(j, where);
            scan.specHash = streamMemberString(j, "spec_hash", where);
            scan.totalRuns = streamMemberIndex(j, "total_runs", where);
            const Json *tr = j.find("traces");
            if (!tr || !tr->isBool())
                fatal(where + ": missing or non-bool member 'traces'");
            scan.traces = tr->asBool();
            if (const Json *sh = j.find("shard")) {
                scan.shard.index = static_cast<int>(
                    streamMemberIndex(*sh, "index", where + " shard"));
                scan.shard.count = static_cast<int>(
                    streamMemberIndex(*sh, "count", where + " shard"));
            }
            const Json *spec = j.find("spec");
            if (!spec || !spec->isObject())
                fatal(where + ": missing or non-object member 'spec'");
            scan.spec = ScenarioSpec::fromJson(*spec);
            scan.cleanSize += line.size() + 1;
            continue;
        }

        StreamRecord rec;
        if (type == "result") {
            rec.failed = false;
        } else if (type == "error") {
            rec.failed = true;
        } else {
            fatal(where + ": unknown record type '" + type + "'");
        }
        rec.index = streamMemberIndex(j, "index", where);
        if (rec.index >= scan.totalRuns) {
            fatal(where + ": run index " + std::to_string(rec.index) +
                  " is out of range (grid has " +
                  std::to_string(scan.totalRuns) + " runs)");
        }
        rec.point = streamMemberString(j, "point", where);
        rec.workload = streamMemberString(j, "workload", where);
        rec.policy = streamMemberString(j, "policy", where);
        if (rec.failed) {
            rec.error = streamMemberString(j, "error", where);
        } else {
            rec.wallSeconds = streamMemberNumber(j, "wall_s", where);
            const Json *res = j.find("result");
            if (!res || !res->isObject())
                fatal(where + ": missing or non-object member 'result'");
            if (keep_results)
                rec.result = *res;
        }
        scan.records.push_back(std::move(rec));
        scan.cleanSize += line.size() + 1;
    }
    if (lineno == 0)
        fatal("stream '" + path + "' is empty");
    return scan;
}

namespace
{

/**
 * Sink behind runScenarioStream(): persists each result/failure the
 * moment it arrives, under its global grid index.
 */
class StreamWriteSink : public RunSink
{
  public:
    StreamWriteSink(JsonlResultWriter &writer, const GridIndex &grid,
                    bool traces)
        : writer(writer), grid(grid), traces(traces)
    {
    }

    void onResult(std::size_t k, SimResult &&r, double wall_s) override
    {
        writer.appendResult(k, grid.point(k), grid.workload(k),
                            grid.policy(k), r, wall_s, traces);
    }

    void onFailure(std::size_t k, std::exception_ptr err) override
    {
        RunError e = grid.error(k, err);
        writer.appendError(k, e.point, e.workload, e.policy, e.error);
        failures.push_back(std::move(e));
    }

    JsonlResultWriter &writer;
    const GridIndex &grid;
    bool traces;
    std::vector<RunError> failures;
};

} // namespace

StreamRunStats
runScenarioStream(const ScenarioSpec &spec, ExperimentEngine &engine,
                  const StreamRunOptions &opts)
{
    LoweredScenario low = spec.lower();
    const GridIndex grid(low);

    StreamRunStats stats;
    stats.totalRuns = low.totalRuns();

    std::error_code ec;
    const bool exists = std::filesystem::exists(opts.path, ec) && !ec;
    const std::uintmax_t size =
        exists ? std::filesystem::file_size(opts.path, ec) : 0;
    const bool nonEmpty = exists && !ec && size > 0;

    // Which global indices already hold a result. Errored indices stay
    // absent — a resume retries them (most failures are environmental).
    std::vector<bool> completed(stats.totalRuns, false);
    std::size_t cleanSize = 0;
    if (opts.resume && nonEmpty) {
        StreamScan scan = scanStream(opts.path, /*keep_results=*/false);
        const std::string want = scenarioSpecHash(spec);
        if (scan.specHash != want) {
            fatal("stream '" + opts.path +
                  "': scenario spec does not match (stream has " +
                  scan.specHash + ", scenario hashes to " + want +
                  "); refusing to mix results from different scenarios");
        }
        if (scan.totalRuns != stats.totalRuns) {
            fatal("stream '" + opts.path + "': header says " +
                  std::to_string(scan.totalRuns) + " runs but the "
                  "scenario lowers to " + std::to_string(stats.totalRuns));
        }
        if (!(scan.shard == opts.shard)) {
            fatal("stream '" + opts.path + "': header shard " +
                  scan.shard.label() + " does not match --shard " +
                  opts.shard.label());
        }
        if (scan.traces != opts.traces) {
            fatal("stream '" + opts.path + "': header traces flag does "
                  "not match --traces; a stream cannot mix trace and "
                  "trace-free records");
        }
        for (const auto &rec : scan.records)
            if (!rec.failed)
                completed[rec.index] = true;
        cleanSize = scan.cleanSize;
    } else if (!opts.resume && nonEmpty) {
        fatal("stream '" + opts.path + "' already exists and is not "
              "empty; pass --resume to continue it or remove it to "
              "start over");
    }
    const bool resuming = opts.resume && nonEmpty;

    // This shard's slice, minus what the stream already has.
    std::vector<bool> todo(stats.totalRuns, false);
    for (std::size_t k = 0; k < stats.totalRuns; ++k) {
        if (!opts.shard.owns(k))
            continue;
        ++stats.shardRuns;
        if (completed[k])
            ++stats.skipped;
        else
            todo[k] = true;
    }
    stats.executed = stats.shardRuns - stats.skipped;

    JsonlResultWriter writer =
        resuming ? JsonlResultWriter(opts.path, cleanSize)
                 : JsonlResultWriter(opts.path, spec, stats.totalRuns,
                                     opts.shard, opts.traces);

    StreamWriteSink sink(writer, grid, opts.traces);
    runLoweredScenario(low, engine, todo, opts.batchWidth, sink,
                       &stats.batch);

    std::sort(sink.failures.begin(), sink.failures.end());
    stats.failed = sink.failures.size();
    stats.failures = std::move(sink.failures);
    return stats;
}

MergedStream
mergeStreams(const std::vector<std::string> &paths)
{
    if (paths.empty())
        fatal("merge: no stream files given");

    MergedStream out;
    // Global index -> best record seen so far. A result always beats an
    // error (a retry succeeded after a recorded failure); duplicate
    // results keep the first — the engine's determinism makes them
    // bit-identical, so there is nothing to choose between.
    std::vector<const StreamRecord *> best;
    std::vector<StreamScan> scans;
    scans.reserve(paths.size());

    std::string refHash;
    for (const auto &path : paths) {
        StreamScan scan = scanStream(path, /*keep_results=*/true);
        if (scans.empty()) {
            refHash = scan.specHash;
            out.spec = scan.spec;
            out.totalRuns = scan.totalRuns;
            best.assign(scan.totalRuns, nullptr);
        } else {
            if (scan.specHash != refHash) {
                fatal("merge: '" + path + "' records a different "
                      "scenario than '" + paths.front() +
                      "' (spec hashes " + scan.specHash + " vs " +
                      refHash + ")");
            }
            if (scan.totalRuns != out.totalRuns) {
                fatal("merge: '" + path + "' says " +
                      std::to_string(scan.totalRuns) + " runs but '" +
                      paths.front() + "' says " +
                      std::to_string(out.totalRuns));
            }
        }
        scans.push_back(std::move(scan));
    }
    for (const auto &scan : scans) {
        for (const auto &rec : scan.records) {
            const StreamRecord *cur = best[rec.index];
            if (!cur || (cur->failed && !rec.failed))
                best[rec.index] = &rec;
        }
    }

    // Canonical document: re-lower the embedded spec for the grid
    // geometry.
    LoweredScenario low = out.spec.lower();
    if (low.totalRuns() != out.totalRuns) {
        fatal("merge: embedded spec lowers to " +
              std::to_string(low.totalRuns()) + " runs but the header "
              "says " + std::to_string(out.totalRuns) +
              " (stream written by an incompatible version?)");
    }
    const GridIndex grid(low);

    // Slot records by index and emit workloads/policies in sorted order
    // — exactly how toJson(ScenarioResults) iterates its std::map keys —
    // so merged bytes equal `run -o` bytes.
    int version = 1;
    Json pts = Json::array();
    for (std::size_t p = 0; p < low.points.size(); ++p) {
        std::map<std::string, std::map<std::string, const Json *>> suite;
        for (std::size_t j = 0; j < grid.runsPerPoint(); ++j) {
            const std::size_t k = p * grid.runsPerPoint() + j;
            const StreamRecord *rec = best[k];
            if (!rec || rec->failed)
                continue;
            suite[grid.workload(k)][grid.policy(k)] = &rec->result;
            // The members toJson(ScenarioResults) stamps its version by.
            if (rec->result.find("peak_bank_dram_c"))
                version = std::max(version, 3);
            else if (rec->result.find("refresh_bw_loss_per_dimm_gb"))
                version = std::max(version, 2);
        }
        Json results = Json::object();
        for (const auto &[w, per_policy] : suite) {
            Json pw = Json::object();
            for (const auto &[pol, res] : per_policy)
                pw.set(pol, *res);
            results.set(w, std::move(pw));
        }
        Json pj = Json::object();
        pj.set("label", low.points[p].label);
        pj.set("results", std::move(results));
        pts.push(std::move(pj));
    }

    for (std::size_t k = 0; k < out.totalRuns; ++k) {
        const StreamRecord *rec = best[k];
        if (!rec)
            out.missingRuns.push_back(k);
        else if (rec->failed)
            out.errors.push_back(RunError{rec->index, rec->point,
                                          rec->workload, rec->policy,
                                          rec->error});
    }
    out.results =
        resultDocument(out.spec.name, version, std::move(pts), out.errors);
    return out;
}

OnlineAxisAggregator::OnlineAxisAggregator(std::string baseline_policy)
    : baseline(std::move(baseline_policy))
{
}

void
OnlineAxisAggregator::add(const std::string &point,
                          const std::string &workload,
                          const std::string &policy, bool completed,
                          double time_s, double max_amb, double max_dram)
{
    auto [it, fresh] = pointIx.try_emplace(point, points.size());
    if (fresh) {
        points.emplace_back();
        points.back().label = point;
    }
    PointSummary &ps = points[it->second];
    ++ps.runs;
    if (!completed)
        ++ps.incomplete;
    ps.maxAmb = std::max(ps.maxAmb, max_amb);
    ps.maxDram = std::max(ps.maxDram, max_dram);

    // '\0' cannot appear in a label, so the key is collision-free.
    // Only the *baseline's* usability gates normalization — an
    // incomplete non-baseline run still normalizes (its time is the
    // simulation cap, a meaningful lower bound), exactly as the
    // report's per-row column has always behaved.
    Group &g = groups[point + '\0' + workload];
    if (policy == baseline) {
        g.baseSeen = true;
        g.baseUsable = completed && time_s > 0.0;
        g.baseTime = time_s;
        if (g.baseUsable) {
            ps.normSum += 1.0; // the baseline itself, at ratio 1
            ++ps.normN;
            for (double t : g.pending) {
                ps.normSum += t / g.baseTime;
                ++ps.normN;
            }
        }
        // An unusable baseline (incomplete run) makes the whole group's
        // ratios meaningless — the held times are dropped either way.
        g.pending.clear();
        return;
    }
    if (!g.baseSeen) {
        g.pending.push_back(time_s);
    } else if (g.baseUsable) {
        ps.normSum += time_s / g.baseTime;
        ++ps.normN;
    }
}

std::vector<OnlineAxisAggregator::PointSummary>
OnlineAxisAggregator::summaries() const
{
    return points;
}

} // namespace memtherm
