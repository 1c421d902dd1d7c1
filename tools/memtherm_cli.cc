/**
 * @file
 * `memtherm` — the scenario-driven command-line front end.
 *
 *   memtherm run <scenario.json> [options]   execute a scenario file
 *   memtherm merge <stream.jsonl>...         combine result streams
 *   memtherm report <results|stream>...      summarize results
 *   memtherm validate <scenario.json>...     parse + resolve, no runs
 *   memtherm list <catalog>                  print valid names
 *   memtherm trace gen -o <file> [options]   synthesize a memory trace
 *
 * Scenarios are declarative (core/sim/scenario.hh): config overrides,
 * workload/policy names, and sweep axes, all resolved through the
 * registries — an unknown name prints the valid keys instead of
 * aborting. Results serialize through the shared JSON layer, and the
 * --golden mode re-checks a result file within a relative tolerance,
 * which is what the CLI smoke test pins `memtherm run` output with.
 * `report` closes the loop: scenario file -> run -> per-point and
 * per-axis summary tables (and CSV) with running time, max AMB/DRAM
 * temperature, and a normalized-to-baseline column in the spirit of
 * Figures 4.5-4.8, with no custom binary anywhere. The CSV also carries
 * per-DIMM peak-temperature and average-power columns (sized to the
 * widest organization present), so a memory_org or traffic_shape sweep
 * exposes the per-DIMM thermal gradient and heat-source distribution
 * directly.
 *
 * Long grids run crash-safe: `run --stream` appends one JSONL record
 * per finished run (core/sim/result_sink.hh), `--resume` continues an
 * interrupted stream, `--shard i/N` splits one grid across machines,
 * and `merge` folds the streams back into the canonical results JSON —
 * bit-identical to an uninterrupted `run -o`. A failed run becomes an
 * error record (named in the failure summary, nonzero exit) while the
 * rest of the grid streams on. Every file this tool writes (`run -o`,
 * `report --csv`, merged results) lands via write-to-temp-then-rename,
 * so a kill mid-write never leaves a truncated document behind.
 */

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "common/fs_util.hh"
#include "common/logging.hh"
#include "common/table.hh"
#include "core/sim/registry.hh"
#include "core/sim/result_sink.hh"
#include "core/sim/scenario.hh"
#include "dram/trace.hh"

using namespace memtherm;

namespace
{

int
usage(std::ostream &os, int rc)
{
    os << "usage:\n"
          "  memtherm run <scenario.json> [options]\n"
          "      -o <file>        write results as JSON\n"
          "      --stream <file>  append results to a JSONL stream as\n"
          "                       each run finishes (crash-safe)\n"
          "      --resume         continue an interrupted --stream file:\n"
          "                       completed runs are skipped, failed\n"
          "                       runs are retried\n"
          "      --shard <i/N>    execute only shard i of N (1-based,\n"
          "                       deterministic round-robin over the\n"
          "                       grid; requires --stream; combine the\n"
          "                       shard streams with `memtherm merge`)\n"
          "      --traces         include full traces in the JSON output\n"
          "      --threads <n>    engine thread count (default:\n"
          "                       MEMTHERM_THREADS or hardware)\n"
          "      --copies <n>     override the batch depth and drop any\n"
          "                       copies sweep (quick looks, smoke tests)\n"
          "      --batch <k>      share prefixes in chunks of up to k\n"
          "                       runs (default: a thread's share of\n"
          "                       the runs; 1 = unshared; results are\n"
          "                       identical for every k)\n"
          "      --golden <file>  compare results against a reference\n"
          "                       results JSON; nonzero exit on mismatch\n"
          "      --tol <x>        relative tolerance for --golden\n"
          "                       (default 1e-9)\n"
          "      --quiet          suppress the summary table\n"
          "  memtherm merge <stream.jsonl>... [options]\n"
          "      -o <file>        write the combined results as JSON\n"
          "                       (bit-identical to an uninterrupted\n"
          "                       unsharded `memtherm run -o`)\n"
          "      --golden <file>  compare combined results against a\n"
          "                       reference results JSON\n"
          "      --tol <x>        relative tolerance for --golden\n"
          "                       (default 1e-9)\n"
          "      --quiet          suppress the merge summary\n"
          "  memtherm report <results.json|stream.jsonl>... [options]\n"
          "      --baseline <p>   normalization baseline policy (default:\n"
          "                       No-limit when present, else the first\n"
          "                       policy of each workload)\n"
          "      --csv <file>     also write the flat per-run rows as CSV\n"
          "      --quiet          suppress the summary tables\n"
          "  memtherm validate <scenario.json>...\n"
          "  memtherm list policies|workloads|coolings|ambients|platforms"
          "|emergency_levels|dvfs|memory_orgs|traffic_shapes"
          "|refresh_models|thermal_models\n"
          "  memtherm trace gen -o <file> [options]\n"
          "      --pattern <p>    linear (default) or random address\n"
          "                       stream, a la gem5 PyTrafficGen\n"
          "      --count <n>      records to generate (default 1024)\n"
          "      --seed <n>       generator seed (default 42)\n"
          "      --min-addr <a>   range start, hex or decimal (default 0)\n"
          "      --max-addr <a>   range end, exclusive (default "
          "0x1000000)\n"
          "      --block <n>      bytes per access (default 64)\n"
          "      --read-pct <p>   percentage of reads in [0, 100]\n"
          "                       (default 100)\n";
    return rc;
}

int
cmdList(const std::vector<std::string> &args)
{
    if (args.size() != 1)
        return usage(std::cerr, 1);
    const std::string &what = args[0];
    std::vector<std::string> names;
    if (what == "policies")
        names = PolicyRegistry::instance().names();
    else if (what == "workloads")
        names = workloadNames();
    else if (what == "coolings")
        names = coolingNames();
    else if (what == "ambients")
        names = ambientNames();
    else if (what == "platforms")
        names = platformNames();
    else if (what == "emergency_levels")
        names = emergencyLevelNames();
    else if (what == "dvfs")
        names = DvfsRegistry::instance().names();
    else if (what == "memory_orgs")
        names = memoryOrgNames();
    else if (what == "traffic_shapes")
        names = trafficShapeNames();
    else if (what == "refresh_models")
        names = refreshModelNames();
    else if (what == "thermal_models")
        names = thermalModelNames();
    else {
        std::cerr << "memtherm list: unknown catalog '" << what
                  << "' (valid: policies, workloads, coolings, ambients, "
                     "platforms, emergency_levels, dvfs, memory_orgs, "
                     "traffic_shapes, refresh_models, thermal_models)\n";
        return 1;
    }
    for (const auto &n : names)
        std::cout << n << '\n';
    if (what == "workloads")
        std::cout << "<app>x<n> (homogeneous batch, e.g. swimx4)\n";
    if (what == "memory_orgs")
        std::cout << "{channels, dimms} (inline organization, e.g. "
                     "{\"channels\": 2, \"dimms\": 8})\n";
    if (what == "traffic_shapes")
        std::cout << "[s0, s1, ...] (inline per-DIMM share vector summing "
                     "to 1, e.g. [0.5, 0.3, 0.1, 0.1])\n";
    if (what == "refresh_models")
        std::cout << "[{min_temp, bw_fraction, dram_power_w[, "
                     "latency_mult]}, ...] (inline band table, "
                     "ascending min_temp)\n";
    if (what == "thermal_models")
        std::cout << "{grid_x, grid_z[, bank_weights]} (inline per-DIMM "
                     "bank grid, e.g. {\"grid_x\": 4, \"grid_z\": 2})\n";
    return 0;
}

/** @p v read whole as a number; FatalError "<opt> needs a number". */
double
parseNumber(const std::string &opt, const std::string &v)
{
    std::size_t used = 0;
    double x = 0.0;
    try {
        x = std::stod(v, &used);
    } catch (const std::exception &) {
        used = 0;
    }
    if (used != v.size())
        fatal(opt + " needs a number, got '" + v + "'");
    return x;
}

int
cmdTrace(const std::vector<std::string> &args)
{
    if (args.empty() || args[0] != "gen")
        return usage(std::cerr, 1);
    TraceGenConfig cfg;
    std::string out_path;
    for (std::size_t i = 1; i < args.size(); ++i) {
        const std::string &a = args[i];
        auto next = [&](const char *opt) -> std::string {
            if (i + 1 >= args.size())
                fatal(std::string("memtherm trace gen: ") + opt +
                      " needs an argument");
            return args[++i];
        };
        // Addresses and counts: hex (0x-prefixed) or decimal, rejecting
        // trailing garbage and overflow.
        auto nextU64 = [&](const char *opt) -> std::uint64_t {
            std::string v = next(opt);
            std::size_t used = 0;
            std::uint64_t n = 0;
            try {
                n = std::stoull(v, &used, 0);
            } catch (const std::exception &) {
                used = 0;
            }
            if (used != v.size() || v.empty() || v[0] == '-')
                fatal(std::string("memtherm trace gen: ") + opt +
                      " needs a non-negative integer, got '" + v + "'");
            return n;
        };
        if (a == "-o")
            out_path = next("-o");
        else if (a == "--pattern") {
            std::string v = next("--pattern");
            if (v == "linear")
                cfg.pattern = TraceGenConfig::Pattern::Linear;
            else if (v == "random")
                cfg.pattern = TraceGenConfig::Pattern::Random;
            else
                fatal("memtherm trace gen: --pattern must be 'linear' or "
                      "'random', got '" + v + "'");
        } else if (a == "--count")
            cfg.count = nextU64("--count");
        else if (a == "--seed")
            cfg.seed = nextU64("--seed");
        else if (a == "--min-addr")
            cfg.minAddr = nextU64("--min-addr");
        else if (a == "--max-addr")
            cfg.maxAddr = nextU64("--max-addr");
        else if (a == "--block") {
            std::uint64_t b = nextU64("--block");
            if (b == 0 || b > 0xffffffffULL)
                fatal("memtherm trace gen: --block must be in "
                      "[1, 2^32-1]");
            cfg.blockSize = static_cast<std::uint32_t>(b);
        } else if (a == "--read-pct")
            cfg.readPct = parseNumber("memtherm trace gen: --read-pct",
                                      next("--read-pct"));
        else
            fatal("memtherm trace gen: unknown option '" + a + "'");
    }
    if (out_path.empty())
        fatal("memtherm trace gen: -o <file> is required");
    std::vector<TraceRecord> records = generateTrace(cfg);
    saveTrace(out_path, records);
    std::cout << "wrote " << out_path << " (" << records.size()
              << " record(s))\n";
    return 0;
}

int
cmdValidate(const std::vector<std::string> &args)
{
    if (args.empty())
        return usage(std::cerr, 1);
    for (const auto &path : args) {
        ScenarioSpec spec = ScenarioSpec::load(path);
        LoweredScenario low = spec.lower();
        // The full grid arithmetic, so --shard counts can be sized
        // without running anything.
        std::cout << path << ": ok — scenario '" << spec.name << "', "
                  << low.points.size() << " point(s) x "
                  << low.workloads.size() << " workload(s) x "
                  << low.policies.size() << " policy(ies) = "
                  << low.totalRuns() << " run(s), "
                  << low.classes.size() << " equivalence class(es)\n";
    }
    return 0;
}

/** Number rendering for diagnostics; tolerates non-finite values. */
std::string
numForDiag(double v)
{
    if (std::isnan(v))
        return "nan";
    if (std::isinf(v))
        return v > 0 ? "inf" : "-inf";
    return Json::numberToString(v);
}

/**
 * Recursive comparison with a relative tolerance on numbers; on the
 * first mismatch fills @p where / @p detail and returns false. Two NaNs
 * compare equal (a NaN golden entry means "NaN expected here", not a
 * mismatch) and infinities compare by sign.
 */
bool
jsonNear(const Json &a, const Json &b, double tol, const std::string &path,
         std::string &where, std::string &detail)
{
    auto miss = [&](const std::string &d) {
        where = path.empty() ? "(root)" : path;
        detail = d;
        return false;
    };
    if (a.type() != b.type())
        return miss("type mismatch");
    switch (a.type()) {
      case Json::Type::Null:
        return true;
      case Json::Type::Bool:
        return a.asBool() == b.asBool() ? true : miss("bool mismatch");
      case Json::Type::Number: {
          double x = a.asNumber(), y = b.asNumber();
          if (std::isnan(x) && std::isnan(y))
              return true;
          if (!std::isfinite(x) || !std::isfinite(y)) {
              // Equal infinities match; anything else (inf vs finite,
              // inf vs -inf, NaN vs number) is a mismatch. The relative
              // bound below would turn every such pair into NaN > NaN
              // comparisons and misreport them.
              if (x == y)
                  return true;
              return miss(numForDiag(x) + " vs " + numForDiag(y));
          }
          double bound = tol * std::max(std::abs(x), std::abs(y)) + 1e-12;
          if (std::abs(x - y) <= bound)
              return true;
          return miss(numForDiag(x) + " vs " + numForDiag(y));
      }
      case Json::Type::String:
        return a.asString() == b.asString()
                   ? true
                   : miss("'" + a.asString() + "' vs '" + b.asString() +
                          "'");
      case Json::Type::Array: {
          const auto &av = a.asArray(), &bv = b.asArray();
          if (av.size() != bv.size())
              return miss("array length mismatch");
          for (std::size_t i = 0; i < av.size(); ++i) {
              if (!jsonNear(av[i], bv[i], tol,
                            path + "[" + std::to_string(i) + "]", where,
                            detail))
                  return false;
          }
          return true;
      }
      case Json::Type::Object: {
          const auto &ao = a.asObject(), &bo = b.asObject();
          if (ao.size() != bo.size())
              return miss("object size mismatch");
          for (const auto &[k, v] : ao) {
              const Json *bv = b.find(k);
              if (!bv)
                  return miss("missing member '" + k + "'");
              if (!jsonNear(v, *bv, tol, path + "." + k, where, detail))
                  return false;
          }
          return true;
      }
    }
    return miss("unreachable");
}

/**
 * "dimm<k>" for the argmax of a per-DIMM peak-AMB vector (first index
 * wins a tie), "-" when the results carry no per-DIMM data. Makes a
 * remap policy's payoff visible straight from the summary tables,
 * without opening the CSV.
 */
std::string
hottestDimmLabel(const std::vector<double> &peak_amb)
{
    if (peak_amb.empty())
        return "-";
    std::size_t hot = 0;
    for (std::size_t i = 1; i < peak_amb.size(); ++i)
        if (peak_amb[i] > peak_amb[hot])
            hot = i;
    return "dimm" + std::to_string(hot);
}

void
printSummary(const ScenarioResults &results)
{
    Table t("scenario '" + results.scenario + "'",
            {"point", "workload", "policy", "time s", "max AMB C",
             "max DRAM C", "hottest_dimm", "done"});
    for (const auto &pt : results.points) {
        for (const auto &[w, per_policy] : pt.suite) {
            for (const auto &[p, r] : per_policy) {
                t.addRow({pt.label, w, p, Table::num(r.runningTime, 2),
                          Table::num(r.maxAmb, 2),
                          Table::num(r.maxDram, 2),
                          hottestDimmLabel(r.peakAmbPerDimm),
                          r.completed ? "yes" : "NO"});
            }
        }
    }
    t.print(std::cout);
}

/**
 * The failure summary: every failed run, named by grid coordinate.
 * Printed to stderr after all regular output, so the (intact) results
 * of the rest of the grid are never hidden behind the failures.
 */
void
printFailures(const std::string &cmd, const std::vector<RunError> &errors)
{
    std::cerr << cmd << ": " << errors.size() << " run(s) failed:\n";
    for (const auto &e : errors) {
        std::cerr << "  run #" << e.index << " [point '" << e.point
                  << "', workload '" << e.workload << "', policy '"
                  << e.policy << "']: " << e.error << '\n';
    }
}

/**
 * The tail of `run` and `merge`: write @p doc to @p out_path, compare it
 * with @p golden_path, then report @p failures. Failures never hide
 * completed work (the document is still written and compared), but
 * they must not exit 0 either. Returns the exit status.
 */
int
finishResults(const std::string &cmd, const Json &doc,
              const std::string &out_path, const std::string &golden_path,
              double tol, bool quiet, const std::vector<RunError> &failures)
{
    int rc = 0;
    if (!out_path.empty()) {
        doc.save(out_path);
        if (!quiet)
            std::cout << "wrote " << out_path << '\n';
    }
    if (!golden_path.empty()) {
        Json golden = Json::load(golden_path);
        (void)resultSchemaVersionOf(golden, cmd + ": '" + golden_path + "'");
        std::string where, detail;
        if (!jsonNear(doc, golden, tol, "", where, detail)) {
            std::cerr << cmd << ": results diverge from '" << golden_path
                      << "' at " << where << ": " << detail << " (tol "
                      << tol << ")\n";
            rc = 1;
        } else if (!quiet) {
            std::cout << "results match " << golden_path << " (tol " << tol
                      << ")\n";
        }
    }
    if (!failures.empty()) {
        printFailures(cmd, failures);
        rc = 1;
    }
    return rc;
}

/** What prefix sharing bought a run (0 @p width: defaultShareWidth()). */
void
printSharing(int width, const BatchStats &stats)
{
    std::cout << "batch width "
              << (width > 0 ? std::to_string(width) : "auto") << ": "
              << Json::numberToString(stats.simulatedWindows) << " of "
              << Json::numberToString(stats.logicalWindows)
              << " window(s) simulated, prefix hit rate "
              << Json::numberToString(stats.hitRate()) << ", "
              << stats.forks << " fork(s)\n";
}

/**
 * Does @p path hold a JSONL result stream rather than a results JSON?
 * The stream header is always the compact first line, so sniffing it
 * beats trusting file extensions.
 */
bool
looksLikeStream(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::string line;
    if (!in || !std::getline(in, line))
        return false;
    return line.find("\"type\": \"header\"") != std::string::npos ||
           line.find("\"type\":\"header\"") != std::string::npos;
}

/** One run row extracted from a results JSON. */
struct ReportRow
{
    std::string workload;
    std::string policy;
    bool completed = false;
    double time = 0.0;
    double maxAmb = 0.0;
    double maxDram = 0.0;
    double norm = NAN; ///< time / baseline time; NaN when no baseline
    /// Per-DIMM peaks and average power (index 0 nearest the
    /// controller); empty when the results file predates per-DIMM
    /// reporting.
    std::vector<double> peakAmb;
    std::vector<double> peakDram;
    std::vector<double> avgPower;
    /// Per-DIMM refresh feedback (schema v2); empty for runs without a
    /// refresh model and for legacy results files.
    std::vector<double> refreshBw;
    std::vector<double> refreshEnergy;
    /// Per-DIMM maximum over the bank-grid cells (schema v3); empty for
    /// lumped-model runs and for older results files.
    std::vector<double> peakBankMax;
};

/** One sweep point of a results file. */
struct ReportPoint
{
    std::string label;
    std::vector<ReportRow> rows;
};

/** Split a sweep-point label ("cooling=X,inlet=46") into coordinates. */
std::vector<std::pair<std::string, std::string>>
labelCoords(const std::string &label)
{
    std::vector<std::pair<std::string, std::string>> out;
    if (label == "base")
        return out;
    std::size_t start = 0;
    for (;;) {
        std::size_t comma = label.find(',', start);
        std::string part =
            label.substr(start, comma == std::string::npos
                                    ? std::string::npos
                                    : comma - start);
        std::size_t eq = part.find('=');
        if (eq == std::string::npos)
            out.emplace_back(part, "");
        else
            out.emplace_back(part.substr(0, eq), part.substr(eq + 1));
        if (comma == std::string::npos)
            break;
        start = comma + 1;
    }
    return out;
}

/** RFC-4180 quoting: labels contain commas. */
std::string
csvField(const std::string &s)
{
    if (s.find_first_of(",\"\n") == std::string::npos)
        return s;
    std::string out = "\"";
    for (char c : s) {
        if (c == '"')
            out += '"';
        out += c;
    }
    out += '"';
    return out;
}

int
cmdReport(const std::vector<std::string> &args)
{
    std::vector<std::string> inputs;
    std::string csv_path, baseline;
    bool quiet = false;
    for (std::size_t i = 0; i < args.size(); ++i) {
        const std::string &a = args[i];
        auto next = [&](const char *opt) -> std::string {
            if (i + 1 >= args.size())
                fatal(std::string("memtherm report: ") + opt +
                      " needs an argument");
            return args[++i];
        };
        if (a == "--csv")
            csv_path = next("--csv");
        else if (a == "--baseline")
            baseline = next("--baseline");
        else if (a == "--quiet")
            quiet = true;
        else if (!a.empty() && a[0] == '-')
            fatal("memtherm report: unknown option '" + a + "'");
        else
            inputs.push_back(a);
    }
    if (inputs.empty())
        return usage(std::cerr, 1);
    const std::string &results_path = inputs.front();

    // JSONL streams (from `run --stream`) canonicalize through the
    // merge path, so a report over shards or a resumed stream shows
    // exactly what the merged results JSON would. Plain results files
    // come one at a time; streams may come in any number.
    Json doc;
    bool anyStream = false;
    for (const auto &p : inputs)
        anyStream |= looksLikeStream(p);
    if (anyStream) {
        for (const auto &p : inputs) {
            if (!looksLikeStream(p)) {
                fatal("memtherm report: cannot mix results JSON ('" + p +
                      "') with JSONL streams in one report");
            }
        }
        doc = mergeStreams(inputs).results;
    } else {
        if (inputs.size() > 1) {
            fatal("memtherm report: more than one results file given "
                  "(multiple inputs are only supported for JSONL "
                  "streams)");
        }
        doc = Json::load(results_path);
    }
    if (!doc.isObject() || !doc.find("points")) {
        fatal("memtherm report: '" + results_path +
              "' does not look like memtherm results (expected an object "
              "with a 'points' array; produce one with `memtherm run -o`)");
    }
    // Version-absent files are legacy (v1) and read unchanged; a
    // document from a newer binary is refused rather than misread.
    (void)resultSchemaVersionOf(doc, "memtherm report: '" + results_path +
                                         "'");
    const std::string scenario =
        doc.find("scenario") ? doc.at("scenario").asString() : "(unnamed)";
    if (!doc.at("points").isArray())
        fatal("memtherm report: 'points' must be an array");

    std::vector<ReportPoint> points;
    for (const Json &pj : doc.at("points").asArray()) {
        ReportPoint pd;
        pd.label = pj.at("label").asString();
        const Json &res = pj.at("results");
        if (!res.isObject())
            fatal("memtherm report: point 'results' must be an object");
        for (const auto &[w, per_policy] : res.asObject()) {
            if (!per_policy.isObject() || per_policy.asObject().empty()) {
                fatal("memtherm report: results of workload '" + w +
                      "' must be a non-empty object");
            }
            // Baseline of this workload group: --baseline, else No-limit
            // when present, else the group's first policy.
            std::string base = baseline;
            if (base.empty()) {
                base = per_policy.find("No-limit")
                           ? "No-limit"
                           : per_policy.asObject().front().first;
            }
            // An incomplete baseline run's time is the simulation cap,
            // not a running time — normalizing against it would report
            // garbage, so the column stays empty then.
            double base_time = NAN;
            if (const Json *b = per_policy.find(base)) {
                if (b->at("completed").asBool())
                    base_time = b->at("running_time_s").asNumber();
            }
            for (const auto &[p, rj] : per_policy.asObject()) {
                ReportRow row;
                row.workload = w;
                row.policy = p;
                row.completed = rj.at("completed").asBool();
                row.time = rj.at("running_time_s").asNumber();
                row.maxAmb = rj.at("max_amb_c").asNumber();
                row.maxDram = rj.at("max_dram_c").asNumber();
                auto peakList = [&](const char *key,
                                    std::vector<double> &out) {
                    const Json *a = rj.find(key);
                    if (!a || !a->isArray())
                        return;
                    for (const Json &v : a->asArray())
                        out.push_back(v.asNumber());
                };
                peakList("peak_amb_per_dimm_c", row.peakAmb);
                peakList("peak_dram_per_dimm_c", row.peakDram);
                peakList("avg_power_per_dimm_w", row.avgPower);
                peakList("refresh_bw_loss_per_dimm_gb", row.refreshBw);
                peakList("refresh_energy_per_dimm_j", row.refreshEnergy);
                // Schema v3 per-bank peaks: one inner array of cells per
                // DIMM; the CSV carries each DIMM's hottest cell.
                if (const Json *pb = rj.find("peak_bank_dram_c")) {
                    if (pb->isArray()) {
                        for (const Json &dimm : pb->asArray()) {
                            if (!dimm.isArray() ||
                                dimm.asArray().empty())
                                continue;
                            double mx = dimm.asArray()[0].asNumber();
                            for (const Json &c : dimm.asArray())
                                mx = std::max(mx, c.asNumber());
                            row.peakBankMax.push_back(mx);
                        }
                    }
                }
                if (std::isfinite(base_time) && base_time > 0.0)
                    row.norm = row.time / base_time;
                pd.rows.push_back(std::move(row));
            }
        }
        points.push_back(std::move(pd));
    }

    // Failed runs travel with the results ('errors', emitted by run and
    // merge); a summary that silently ignored them would read as a
    // clean grid.
    if (const Json *errs = doc.find("errors")) {
        if (errs->isArray() && !errs->asArray().empty()) {
            std::cerr << "memtherm report: note: "
                      << errs->asArray().size()
                      << " failed run(s) recorded in these results (their "
                         "cells are absent from the tables)\n";
        }
    }

    // A --baseline typo would otherwise just blank every normalization
    // column; report it like any other bad name lookup.
    if (!baseline.empty()) {
        std::vector<std::string> seen;
        bool found = false;
        for (const auto &pd : points) {
            for (const auto &r : pd.rows) {
                found |= (r.policy == baseline);
                if (std::find(seen.begin(), seen.end(), r.policy) ==
                    seen.end())
                    seen.push_back(r.policy);
            }
        }
        if (!found) {
            fatal("memtherm report: baseline policy '" + baseline +
                  "' does not appear in the results (valid: " +
                  joinNames(seen) + ")");
        }
    }

    const std::string base_desc = baseline.empty() ? "No-limit" : baseline;

    if (!quiet) {
        // Per-point detail: the Figures 4.5-4.8 view (running time
        // normalized to the baseline, plus the thermal peaks).
        for (const auto &pd : points) {
            Table t("scenario '" + scenario + "' — point " + pd.label,
                    {"workload", "policy", "time s", "max AMB C",
                     "max DRAM C", "x " + base_desc, "hottest_dimm",
                     "done"});
            for (const auto &r : pd.rows) {
                t.addRow({r.workload, r.policy, Table::num(r.time, 2),
                          Table::num(r.maxAmb, 2), Table::num(r.maxDram, 2),
                          std::isfinite(r.norm) ? Table::num(r.norm, 3)
                                                : "-",
                          hottestDimmLabel(r.peakAmb),
                          r.completed ? "yes" : "NO"});
            }
            t.print(std::cout);
        }

        // Per-axis sweep summary: one row per point, the label split
        // into one column per sweep axis. Aggregation goes through the
        // bounded-memory online accumulator (one state per point, fed
        // one run at a time) — the same machinery that can summarize a
        // grid far too large to hold as a result vector.
        std::string agg_base = baseline;
        if (agg_base.empty()) {
            bool hasNoLimit = false;
            for (const auto &pd : points)
                for (const auto &r : pd.rows)
                    hasNoLimit |= (r.policy == "No-limit");
            if (hasNoLimit)
                agg_base = "No-limit";
            else if (!points.empty() && !points.front().rows.empty())
                agg_base = points.front().rows.front().policy;
        }
        OnlineAxisAggregator agg(agg_base);
        for (const auto &pd : points)
            for (const auto &r : pd.rows)
                agg.add(pd.label, r.workload, r.policy, r.completed,
                        r.time, r.maxAmb, r.maxDram);
        std::map<std::string, OnlineAxisAggregator::PointSummary> byLabel;
        for (const auto &ps : agg.summaries())
            byLabel.emplace(ps.label, ps);

        std::vector<std::string> keys;
        for (const auto &pd : points)
            for (const auto &[k, v] : labelCoords(pd.label))
                if (std::find(keys.begin(), keys.end(), k) == keys.end())
                    keys.push_back(k);
        std::vector<std::string> headers =
            keys.empty() ? std::vector<std::string>{"point"} : keys;
        headers.insert(headers.end(),
                       {"runs", "incomplete", "max AMB C", "max DRAM C",
                        "mean x " + base_desc});
        Table s("scenario '" + scenario + "' — sweep summary", headers);
        for (const auto &pd : points) {
            std::vector<std::string> row;
            if (keys.empty()) {
                row.push_back(pd.label);
            } else {
                const auto coords = labelCoords(pd.label);
                for (const auto &k : keys) {
                    std::string v = "-";
                    for (const auto &[ck, cv] : coords)
                        if (ck == k)
                            v = cv;
                    row.push_back(v);
                }
            }
            const auto it = byLabel.find(pd.label);
            if (it == byLabel.end()) {
                // A point with no rows never reached the aggregator.
                row.insert(row.end(), {"0", "0", "-", "-", "-"});
            } else {
                const auto &ps = it->second;
                row.push_back(std::to_string(ps.runs));
                row.push_back(std::to_string(ps.incomplete));
                row.push_back(Table::num(ps.maxAmb, 2));
                row.push_back(Table::num(ps.maxDram, 2));
                row.push_back(ps.normN
                                  ? Table::num(ps.normSum / ps.normN, 3)
                                  : "-");
            }
            s.addRow(std::move(row));
        }
        s.print(std::cout);
    }

    if (!csv_path.empty()) {
        // Rendered in memory and written via atomicWriteFile, so a kill
        // mid-report never leaves a truncated CSV behind.
        std::ostringstream f;
        // Per-DIMM columns cover the widest organization in the
        // results (an org sweep mixes DIMM counts); runs with fewer
        // DIMMs leave their trailing cells empty.
        std::size_t max_dimms = 0;
        // Refresh columns appear only when some run actually carried a
        // refresh model, so refresh-free reports stay byte-identical to
        // what older binaries wrote; the per-bank columns (schema v3)
        // likewise appear only when a bank-grid run is present.
        std::size_t max_refresh_dimms = 0;
        std::size_t max_bank_dimms = 0;
        for (const auto &pd : points) {
            for (const auto &r : pd.rows) {
                max_dimms = std::max(
                    max_dimms, std::max(r.avgPower.size(),
                                        std::max(r.peakAmb.size(),
                                                 r.peakDram.size())));
                max_refresh_dimms = std::max(
                    max_refresh_dimms, std::max(r.refreshBw.size(),
                                                r.refreshEnergy.size()));
                max_bank_dimms =
                    std::max(max_bank_dimms, r.peakBankMax.size());
            }
        }
        f << "scenario,point,workload,policy,completed,running_time_s,"
             "max_amb_c,max_dram_c,time_vs_base";
        for (std::size_t d = 0; d < max_dimms; ++d)
            f << ",peak_amb_dimm" << d << "_c";
        for (std::size_t d = 0; d < max_dimms; ++d)
            f << ",peak_dram_dimm" << d << "_c";
        for (std::size_t d = 0; d < max_dimms; ++d)
            f << ",avg_power_dimm" << d << "_w";
        for (std::size_t d = 0; d < max_refresh_dimms; ++d)
            f << ",refresh_bw_loss_dimm" << d << "_gb";
        for (std::size_t d = 0; d < max_refresh_dimms; ++d)
            f << ",refresh_energy_dimm" << d << "_j";
        for (std::size_t d = 0; d < max_bank_dimms; ++d)
            f << ",peak_bank_dimm" << d << "_c";
        f << '\n';
        auto cells = [&](const std::vector<double> &vals,
                         std::size_t width) {
            for (std::size_t d = 0; d < width; ++d) {
                f << ',';
                if (d < vals.size())
                    f << numForDiag(vals[d]);
            }
        };
        auto peakCells = [&](const std::vector<double> &peaks) {
            cells(peaks, max_dimms);
        };
        for (const auto &pd : points) {
            for (const auto &r : pd.rows) {
                f << csvField(scenario) << ',' << csvField(pd.label) << ','
                  << csvField(r.workload) << ',' << csvField(r.policy)
                  << ',' << (r.completed ? "true" : "false") << ','
                  << numForDiag(r.time) << ',' << numForDiag(r.maxAmb)
                  << ',' << numForDiag(r.maxDram) << ','
                  << (std::isfinite(r.norm) ? numForDiag(r.norm) : "");
                peakCells(r.peakAmb);
                peakCells(r.peakDram);
                peakCells(r.avgPower);
                cells(r.refreshBw, max_refresh_dimms);
                cells(r.refreshEnergy, max_refresh_dimms);
                cells(r.peakBankMax, max_bank_dimms);
                f << '\n';
            }
        }
        atomicWriteFile(csv_path, f.str());
        if (!quiet)
            std::cout << "wrote " << csv_path << '\n';
    }
    return 0;
}

int
cmdMerge(const std::vector<std::string> &args)
{
    std::vector<std::string> paths;
    std::string out_path, golden_path;
    double tol = 1e-9;
    bool quiet = false;
    for (std::size_t i = 0; i < args.size(); ++i) {
        const std::string &a = args[i];
        auto next = [&](const char *opt) -> std::string {
            if (i + 1 >= args.size())
                fatal(std::string("memtherm merge: ") + opt +
                      " needs an argument");
            return args[++i];
        };
        if (a == "-o")
            out_path = next("-o");
        else if (a == "--golden")
            golden_path = next("--golden");
        else if (a == "--tol")
            tol = parseNumber("memtherm merge: --tol", next("--tol"));
        else if (a == "--quiet")
            quiet = true;
        else if (!a.empty() && a[0] == '-')
            fatal("memtherm merge: unknown option '" + a + "'");
        else
            paths.push_back(a);
    }
    if (paths.empty())
        return usage(std::cerr, 1);

    MergedStream merged = mergeStreams(paths);

    // An incomplete merge would masquerade as a (smaller) clean result;
    // name what is missing instead of emitting it.
    if (!merged.missingRuns.empty()) {
        std::string ix;
        const std::size_t show =
            std::min<std::size_t>(merged.missingRuns.size(), 10);
        for (std::size_t i = 0; i < show; ++i) {
            if (!ix.empty())
                ix += ", ";
            ix += std::to_string(merged.missingRuns[i]);
        }
        if (merged.missingRuns.size() > show)
            ix += ", ...";
        fatal("memtherm merge: " +
              std::to_string(merged.missingRuns.size()) + " of " +
              std::to_string(merged.totalRuns) +
              " run(s) have no record in the given stream(s) (indices " +
              ix + "); run the missing shards or resume the interrupted "
              "stream");
    }

    if (!quiet) {
        std::cout << "merged " << paths.size() << " stream(s): scenario '"
                  << merged.spec.name << "', " << merged.totalRuns
                  << " run(s), " << merged.errors.size()
                  << " failure record(s)\n";
    }
    return finishResults("memtherm merge", merged.results, out_path,
                         golden_path, tol, quiet, merged.errors);
}

int
cmdRun(const std::vector<std::string> &args)
{
    std::string scenario_path, out_path, golden_path;
    std::string stream_path, shard_text;
    double tol = 1e-9;
    int threads = 0;
    int batch_width = 0;
    std::optional<int> copies;
    bool traces = false, quiet = false, resume = false;

    for (std::size_t i = 0; i < args.size(); ++i) {
        const std::string &a = args[i];
        auto next = [&](const char *opt) -> std::string {
            if (i + 1 >= args.size())
                fatal(std::string("memtherm run: ") + opt +
                      " needs an argument");
            return args[++i];
        };
        // Positive-integer options: reject trailing garbage, overflow,
        // and the silently-accepted 0/negative counts alike.
        auto nextPosInt = [&](const char *opt) {
            std::string v = next(opt);
            std::size_t used = 0;
            int n = 0;
            try {
                n = std::stoi(v, &used);
            } catch (const std::exception &) {
                used = 0;
            }
            if (used != v.size() || v.empty() || n < 1)
                fatal(std::string("memtherm run: ") + opt +
                      " needs a positive integer, got '" + v + "'");
            return n;
        };
        if (a == "-o")
            out_path = next("-o");
        else if (a == "--stream")
            stream_path = next("--stream");
        else if (a == "--resume")
            resume = true;
        else if (a == "--shard")
            shard_text = next("--shard");
        else if (a == "--golden")
            golden_path = next("--golden");
        else if (a == "--tol")
            tol = parseNumber("memtherm run: --tol", next("--tol"));
        else if (a == "--threads")
            threads = nextPosInt("--threads");
        else if (a == "--copies")
            copies = nextPosInt("--copies");
        else if (a == "--batch")
            batch_width = nextPosInt("--batch");
        else if (a == "--traces")
            traces = true;
        else if (a == "--quiet")
            quiet = true;
        else if (!a.empty() && a[0] == '-')
            fatal("memtherm run: unknown option '" + a + "'");
        else if (scenario_path.empty())
            scenario_path = a;
        else
            fatal("memtherm run: more than one scenario file given");
    }
    if (scenario_path.empty())
        return usage(std::cerr, 1);
    if (stream_path.empty() && (resume || !shard_text.empty())) {
        fatal("memtherm run: --resume and --shard only make sense with "
              "--stream");
    }
    ShardSpec shard;
    if (!shard_text.empty())
        shard = ShardSpec::parse(shard_text);
    if (shard.sharded() && (!out_path.empty() || !golden_path.empty())) {
        fatal("memtherm run: -o/--golden describe the full grid but a "
              "shard executes only part of it; combine the shard streams "
              "with `memtherm merge` instead");
    }

    ScenarioSpec spec = ScenarioSpec::load(scenario_path);
    if (copies) {
        spec.copiesPerApp = *copies;
        spec.sweepCopies.clear();
    }

    ExperimentEngine engine(threads);
    Json out; // the results document -o and --golden see
    std::vector<RunError> failures;
    if (!stream_path.empty()) {
        StreamRunOptions sopts;
        sopts.path = stream_path;
        sopts.resume = resume;
        sopts.shard = shard;
        sopts.traces = traces;
        sopts.batchWidth = batch_width;
        StreamRunStats stats = runScenarioStream(spec, engine, sopts);

        if (!quiet) {
            std::cout << "stream " << stream_path << ": "
                      << stats.totalRuns << " run(s) in grid";
            if (shard.sharded()) {
                std::cout << ", " << stats.shardRuns << " in shard "
                          << shard.label();
            }
            std::cout << ", " << stats.skipped << " already complete, "
                      << stats.executed << " executed, " << stats.failed
                      << " failed\n";
            printSharing(batch_width, stats.batch);
        }
        failures = std::move(stats.failures);
        // -o/--golden view the stream through the canonical merge, so
        // their bytes cannot differ from `memtherm merge` output.
        if (!out_path.empty() || !golden_path.empty())
            out = mergeStreams({stream_path}).results;
    } else {
        BatchStats batch_stats;
        ScenarioResults results =
            runScenario(spec, engine, batch_width, &batch_stats);
        if (!quiet) {
            printSharing(batch_width, batch_stats);
            printSummary(results);
        }
        out = toJson(results, traces);
        failures = std::move(results.errors);
    }

    return finishResults("memtherm run", out, out_path, golden_path, tol,
                         quiet, failures);
}

} // namespace

int
main(int argc, char **argv)
{
    std::vector<std::string> args(argv + 1, argv + argc);
    if (args.empty() || args[0] == "--help" || args[0] == "-h")
        return usage(args.empty() ? std::cerr : std::cout,
                     args.empty() ? 1 : 0);

    const std::string cmd = args[0];
    const std::vector<std::string> rest(args.begin() + 1, args.end());
    try {
        if (cmd == "run")
            return cmdRun(rest);
        if (cmd == "merge")
            return cmdMerge(rest);
        if (cmd == "report")
            return cmdReport(rest);
        if (cmd == "validate")
            return cmdValidate(rest);
        if (cmd == "list")
            return cmdList(rest);
        if (cmd == "trace")
            return cmdTrace(rest);
    } catch (const FatalError &e) {
        std::cerr << "memtherm: " << e.what() << '\n';
        return 1;
    } catch (const PanicError &e) {
        std::cerr << "memtherm: " << e.what() << '\n';
        return 1;
    }
    std::cerr << "memtherm: unknown command '" << cmd << "'\n";
    return usage(std::cerr, 1);
}
