/**
 * @file
 * memtherm_perfbench: times one benchmark workload and prints a one-line
 * JSON report (end-to-end metrics, per-layer metrics, deterministic
 * counters, the simulated-results digest and the host context).
 *
 *   memtherm_perfbench --workload <name> --scenario <spec.json>
 *       --out-dir <dir> [--seconds <s>] [--trace 0|1]
 *
 * Run from the repository root: the correctness pass reads the example
 * scenarios and goldens by relative path.
 *
 * Passes, in order: the correctness pass (the committed goldens nearest
 * the workload, run through the same code path, untimed, in a child
 * process), set-up (parse, validate, lower; repeated in slices, median),
 * the timed pass (one warm-up repetition of the grid, then repetitions,
 * each followed by a set-up slice, until --seconds have passed), and
 * with --trace 1 the traced pass (DTM decorator, sink spans, layer
 * replays). perfbench/run.py generates the scenario and drives this
 * binary; see perfbench/README.md for the metric definitions.
 *
 * Exit status: 0 when every check passed, 1 when a correctness, digest
 * or failed-run check did not (the report is still printed), 2 on a
 * usage or set-up error, 3 when the build is not fit for timing.
 */

#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <exception>
#include <fstream>
#include <iostream>
#include <numeric>
#include <thread>

#include "bench.hh"
#include "common/logging.hh"
#include "core/sim/result_sink.hh"
#include "dram/trace.hh"

using namespace memtherm;
using namespace perfbench;

namespace
{

struct Options
{
    std::string workload, scenario, outDir;
    double seconds = 10.0;
    bool trace = false;
};

Options
parseOptions(int argc, char **argv)
{
    Options o;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        if (i + 1 >= argc)
            fatal("option " + a + " needs a value");
        const std::string v = argv[++i];
        if (a == "--workload")
            o.workload = v;
        else if (a == "--scenario")
            o.scenario = v;
        else if (a == "--out-dir")
            o.outDir = v;
        else if (a == "--seconds")
            o.seconds = std::stod(v);
        else if (a == "--trace")
            o.trace = v == "1";
        else
            fatal("unknown option " + a);
    }
    if (o.workload.empty() || o.scenario.empty() || o.outDir.empty())
        fatal("--workload, --scenario and --out-dir are required");
    return o;
}

// --- host context and build guard -------------------------------------------

bool
sanitized()
{
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
    return true;
#else
#if defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(memory_sanitizer) ||                                      \
    __has_feature(undefined_behavior_sanitizer)
    return true;
#endif
#endif
    // UBSan under GCC defines no macro; the build records the CMake
    // sanitizer list instead.
    return std::string(PERFBENCH_SANITIZE).size() > 0;
#endif
}

std::string
cpuModel()
{
    std::ifstream in("/proc/cpuinfo");
    std::string line;
    while (std::getline(in, line)) {
        const auto colon = line.find(':');
        const auto start = line.find_first_not_of(" \t", colon + 1);
        if (line.rfind("model name", 0) == 0 && colon != std::string::npos &&
            start != std::string::npos)
            return line.substr(start);
    }
    return "unknown";
}

Json
hostContext()
{
    Json h = Json::object();
    h.set("nproc", static_cast<int>(std::thread::hardware_concurrency()));
    h.set("cpu", cpuModel());
    h.set("compiler", PERFBENCH_COMPILER);
    h.set("build_type", PERFBENCH_BUILD_TYPE);
    h.set("sanitizers", sanitized() ? "yes" : "none");
    return h;
}

/**
 * Seconds the hypervisor has kept this machine's virtual CPUs from
 * running, summed over the CPUs (the steal column of /proc/stat; 0
 * where there is none). Printed beside the timed pass's spread, so a
 * noisy run shows whether the host took time away from it.
 */
double
stolenSeconds()
{
    std::ifstream in("/proc/stat");
    std::string cpu;
    double v = 0.0, steal = 0.0;
    in >> cpu;
    for (int field = 0; field < 8 && in >> v; ++field)
        steal = v;
    return cpu == "cpu" ? steal / static_cast<double>(sysconf(_SC_CLK_TCK))
                        : 0.0;
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // Linux: kB
}

// --- metrics ------------------------------------------------------------------

/** A named group of metrics, each with its unit. */
struct MetricSet
{
    Json obj = Json::object();

    void
    add(const std::string &name, double value, const std::string &unit)
    {
        Json m = Json::object();
        m.set("value", std::isfinite(value) ? value : 0.0);
        m.set("unit", unit);
        obj.set(name, std::move(m));
    }
};

double
ratio(double num, double den)
{
    return den > 0.0 ? num / den : 0.0;
}

double
mean(const std::vector<double> &v)
{
    return v.empty() ? 0.0
                     : std::accumulate(v.begin(), v.end(), 0.0) /
                           static_cast<double>(v.size());
}

/**
 * The median of per-call nanosecond timings, estimated as the mean of
 * the central 10% of the sample (p45..p55): the clock ticks in whole
 * nanoseconds, and calls this repeatable put more than 1% of the
 * sample on the median's nanosecond, so a plain median moves in 1 ns
 * steps.
 */
double
centralMean(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t half = v.size() / 20;
    const std::size_t mid = v.size() / 2;
    const std::size_t lo = mid - std::min(mid, half);
    const std::size_t hi = std::min(v.size(), mid + half + 1);
    return std::accumulate(v.begin() + static_cast<long>(lo),
                           v.begin() + static_cast<long>(hi), 0.0) /
           static_cast<double>(hi - lo);
}

/**
 * Tail level of a pooled sample of @p n: the highest of a few standard
 * percentiles that leaves at least ten samples beyond it (p50 when the
 * sample is too small for any of them). The timed pass fixes it from
 * its minimum sample, so every run of one workload reports the same
 * percentile whatever the host's speed; longer runs only put more
 * samples beyond it.
 */
double
tailLevel(std::size_t n)
{
    constexpr double kLevels[] = {50.0, 75.0, 90.0, 95.0, 99.0, 99.9};
    double level = kLevels[0];
    for (double l : kLevels)
        if (static_cast<double>(n) * (1.0 - l / 100.0) >= 10.0)
            level = l;
    return level;
}

std::string
hex(std::uint64_t v)
{
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

// --- set-up -------------------------------------------------------------------

struct Setup
{
    ScenarioSpec spec;
    LoweredScenario low;
    double parseS = 0.0, lowerS = 0.0, totalS = 0.0;
    double traceLoadS = 0.0, traceDecodeS = 0.0;
    std::size_t traceRecords = 0;
};

/**
 * Parse, validate and lower; totalS is the set-up time a user waits for
 * (lower() loads and decodes the trace itself). The trace layer is then
 * timed on its own, outside totalS, by calling it directly.
 */
Setup
setUp(const std::string &path)
{
    Setup s;
    const auto t0 = Clock::now();
    s.spec = ScenarioSpec::fromJson(Json::load(path));
    s.parseS = secondsSince(t0);
    s.spec.validate();
    const auto t1 = Clock::now();
    s.low = s.spec.lower();
    s.lowerS = secondsSince(t1);
    s.totalS = secondsSince(t0);

    // Without a trace both stages are empty and time only the check.
    std::vector<TraceRecord> records;
    const auto t2 = Clock::now();
    if (!s.spec.trace.empty())
        records = loadTrace(s.spec.trace);
    s.traceLoadS = secondsSince(t2);
    const SimConfig &cfg = s.low.points.front().cfg;
    const auto t3 = Clock::now();
    if (!records.empty())
        (void)decodeTrace(records, cfg.org.nChannels,
                          cfg.org.nDimmsPerChannel,
                          cfg.bankGrid ? cfg.bankGrid->cells() : 0);
    s.traceDecodeS = secondsSince(t3);
    s.traceRecords = records.size();
    return s;
}

// --- the passes --------------------------------------------------------------

struct Report
{
    std::vector<std::string> problems;
    std::size_t attempted = 0, failed = 0;
    std::uint64_t digest = 0; ///< the first timed repetition's
    MetricSet e2e, layers, counters;
};

void
countRep(Report &rep, const RepResult &r)
{
    rep.attempted += r.wallS.size();
    rep.failed += r.failures.size();
    for (const std::string &f : r.failures)
        rep.problems.push_back("run failed: " + f);
}

/** Record a problem when a repetition's digest differs from the first. */
void
checkDigest(Report &rep, const RepResult &r, const char *pass)
{
    if (r.digest != rep.digest)
        rep.problems.push_back(std::string("simulated-results digest ") +
                               hex(r.digest) + " of the " + pass +
                               " pass differs from " + hex(rep.digest));
}

/** The set-up repetitions' times; medians are reported. */
struct SetupTimes
{
    std::vector<double> total, parse, lower, load, decode;
};

/**
 * Seconds of set-up repetitions in one slice. The host's speed shifts
 * in phases of a few seconds, so set-up is not timed in one block: a
 * slice runs before the timed pass and another after every timed
 * repetition, and setup_s is the median over the slices that follow
 * the kept repetitions (timedPass).
 */
constexpr double kSetupSliceS = 0.05;

/** One slice: set-up repetitions for kSetupSliceS (one at least). */
Setup
setUpSlice(const std::string &path, SetupTimes &times)
{
    Setup setup;
    const auto t0 = Clock::now();
    do {
        setup = setUp(path);
        times.total.push_back(setup.totalS);
        times.parse.push_back(setup.parseS);
        times.lower.push_back(setup.lowerS);
        times.load.push_back(setup.traceLoadS);
        times.decode.push_back(setup.traceDecodeS);
    } while (secondsSince(t0) < kSetupSliceS);
    return setup;
}

/**
 * Run the committed goldens nearest the workload through its own code
 * path (runRep with the workload's mode) and compare with their pins.
 * Scenario and golden paths are relative to the repository root, the
 * working directory.
 */
void
correctnessPass(const Options &o, const Mode &mode,
                std::vector<std::string> &problems)
{
    for (const GoldenCheck &g : mode.goldens) {
        const ScenarioSpec spec =
            ScenarioSpec::load("examples/scenarios/" + g.scenario + ".json");
        const LoweredScenario low = spec.lower();
        const auto runs = flattenRuns(low);
        ExperimentEngine engine(mode.threads);
        const std::string out = o.outDir + "/golden-" + g.scenario +
                                (mode.stream ? ".jsonl" : ".json");
        const RepResult r = runRep(mode, spec, low, runs, engine, out);
        for (const std::string &f : r.failures)
            problems.push_back(g.scenario + ": run failed: " + f);
        const Json doc =
            mode.stream ? mergeStreams({out}).results : Json::load(out);
        const Json golden =
            Json::load("tests/data/" + g.scenario + ".golden.json");
        std::string where, detail;
        const bool ok = jsonNear(doc, golden, g.tol, "", where, detail);
        if (!ok)
            problems.push_back(g.scenario + ": diverges from golden at " +
                               where + ": " + detail);
        std::cerr << "correctness: " << g.scenario << " ("
                  << (mode.batchWidth > 0 ? "batched" : "scalar")
                  << (mode.stream ? ", stream" : "") << ", tol " << g.tol
                  << "): " << (ok ? "match" : "MISMATCH") << '\n';
    }
}

/**
 * The correctness pass in a child process, so that its memory does not
 * count toward peak_rss_mb. The child sends its problems back through a
 * pipe, each ended by a NUL byte; an error that keeps it from finishing
 * fails the benchmark as a set-up error. Called before any engine thread
 * exists, so the fork copies a single-threaded process.
 */
void
correctnessInChild(const Options &o, const Mode &mode, Report &rep)
{
    int fds[2];
    if (pipe(fds) != 0)
        fatal("correctness pass: pipe() failed");
    std::cout.flush();
    std::cerr.flush();
    const pid_t pid = fork();
    if (pid < 0)
        fatal("correctness pass: fork() failed");
    if (pid == 0) {
        close(fds[0]);
        int status = 0;
        std::string text;
        try {
            std::vector<std::string> problems;
            correctnessPass(o, mode, problems);
            for (const std::string &p : problems)
                text += p + '\0';
        } catch (const std::exception &e) {
            std::cerr << "memtherm_perfbench: correctness pass: " << e.what()
                      << '\n';
            status = 2;
        }
        for (std::size_t sent = 0; sent < text.size();) {
            const ssize_t n =
                write(fds[1], text.data() + sent, text.size() - sent);
            if (n <= 0) {
                status = 2;
                break;
            }
            sent += static_cast<std::size_t>(n);
        }
        close(fds[1]);
        std::cerr.flush();
        _exit(status);
    }
    close(fds[1]);
    std::string text;
    char buf[4096];
    for (ssize_t n; (n = read(fds[0], buf, sizeof buf)) != 0;)
        if (n > 0)
            text.append(buf, static_cast<std::size_t>(n));
        else if (errno != EINTR)
            break;
    close(fds[0]);
    int status = 0;
    while (waitpid(pid, &status, 0) < 0 && errno == EINTR) {
    }
    if (!WIFEXITED(status) || WEXITSTATUS(status) != 0)
        fatal("the correctness pass did not finish");
    for (std::size_t start = 0, end; start < text.size(); start = end + 1) {
        end = text.find('\0', start);
        rep.problems.push_back(text.substr(start, end - start));
    }
}

/** What the traced pass needs from the timed one. */
struct TimedSummary
{
    double windowsPerS = 0.0;
    double tailLevel = 0.0;
    std::size_t tailBeyond = 0;
};

/**
 * The fewest runs the timed pass pools into its latency sample: at p95
 * that leaves ten runs beyond the tail on every workload.
 */
constexpr std::size_t kPooledRuns = 200;

/**
 * One untimed warm-up repetition, then repetitions, each followed by a
 * set-up slice, until @p o.seconds have passed and at least kPooledRuns
 * runs have been timed. Fills the end-to-end metrics (but
 * failed_run_frac) and the sim/scenario counters.
 *
 * On a shared host other load only ever adds time, and it comes and
 * goes in phases of a few seconds, often longer than one repetition. A
 * median over the whole pass moves with the share of the pass such a
 * phase covers. So the end-to-end times are taken over the kept
 * repetitions only: the fastest few, just enough to pool kPooledRuns
 * latencies, and the set-up slices that follow them. Every repetition
 * does the same simulated work (the digest checks it), so the fastest
 * ones are those the host slowed least.
 */
TimedSummary
timedPass(const Options &o, const Mode &mode, const Setup &setup,
          SetupTimes &setup_times,
          const std::vector<ExperimentEngine::Run> &runs,
          const std::string &out_path, Report &rep)
{
    const std::size_t min_reps =
        (kPooledRuns + runs.size() - 1) / runs.size();
    std::vector<RepResult> timed;
    // setup_times.total[slices[k] .. slices[k + 1]) follow timed[k].
    std::vector<std::size_t> slices{setup_times.total.size()};
    double steal_s = 0.0;
    {
        ExperimentEngine engine(mode.threads);
        const RepResult warm =
            runRep(mode, setup.spec, setup.low, runs, engine, out_path);
        countRep(rep, warm);
        rep.digest = warm.digest;
        steal_s = stolenSeconds();
        const auto t0 = Clock::now();
        while (timed.size() < min_reps || secondsSince(t0) < o.seconds) {
            timed.push_back(
                runRep(mode, setup.spec, setup.low, runs, engine, out_path));
            countRep(rep, timed.back());
            checkDigest(rep, timed.back(), "timed");
            (void)setUpSlice(o.scenario, setup_times);
            slices.push_back(setup_times.total.size());
        }
    }
    steal_s = stolenSeconds() - steal_s;
    const double rss_mb = peakRssMb();

    std::vector<std::size_t> order(timed.size());
    std::iota(order.begin(), order.end(), std::size_t{0});
    std::stable_sort(order.begin(), order.end(),
                     [&](std::size_t a, std::size_t b) {
                         return timed[a].gridS < timed[b].gridS;
                     });
    order.resize(min_reps);

    std::vector<double> all_grid_s, grid_s, wps, latency, host_per_window,
        setup_s;
    for (const RepResult &r : timed)
        all_grid_s.push_back(r.gridS);
    for (std::size_t k : order) {
        const RepResult &r = timed[k];
        setup_s.insert(setup_s.end(),
                       setup_times.total.begin() +
                           static_cast<long>(slices[k]),
                       setup_times.total.begin() +
                           static_cast<long>(slices[k + 1]));
        grid_s.push_back(r.gridS);
        wps.push_back(ratio(r.logicalWindows, r.gridS));
        latency.insert(latency.end(), r.latencyS.begin(), r.latencyS.end());
        host_per_window.push_back(
            ratio(1e9 * std::accumulate(r.wallS.begin(), r.wallS.end(), 0.0),
                  r.simulatedWindows));
    }
    std::cerr << "timed: " << timed.size() << " repetitions, " << min_reps
              << " kept; grid_s min " << quantile(all_grid_s, 0.0)
              << " kept median " << median(grid_s) << " median "
              << median(all_grid_s) << " max " << quantile(all_grid_s, 1.0)
              << "; set-up: " << setup_times.total.size()
              << " repetitions, min " << quantile(setup_times.total, 0.0)
              << " kept median " << median(setup_s) << " median "
              << median(setup_times.total) << " max "
              << quantile(setup_times.total, 1.0) << "; host steal "
              << steal_s << " CPU-s\n";

    TimedSummary sum;
    sum.windowsPerS = median(wps);
    sum.tailLevel = tailLevel(runs.size() * min_reps);
    sum.tailBeyond =
        latency.size() - static_cast<std::size_t>(std::ceil(
                             sum.tailLevel / 100.0 *
                             static_cast<double>(latency.size())));

    rep.e2e.add("windows_per_s", sum.windowsPerS, "1/s");
    rep.e2e.add("grid_s", median(grid_s), "s");
    rep.e2e.add("run_p50_ms", 1e3 * median(latency), "ms");
    rep.e2e.add("run_tail_ms",
                1e3 * quantile(latency, sum.tailLevel / 100.0), "ms");
    rep.e2e.add("setup_s", median(setup_s), "s");
    rep.e2e.add("peak_rss_mb", rss_mb, "MB");
    rep.layers.add("run_tail.pct", sum.tailLevel, "%");
    rep.layers.add("run_tail.beyond", static_cast<double>(sum.tailBeyond),
                   "count");
    rep.layers.add("sim.host_ns_per_simulated_window",
                   median(host_per_window), "ns");

    const RepResult &first = timed.front();
    rep.counters.add("sim.logical_windows", first.logicalWindows, "count");
    rep.counters.add("sim.simulated_windows", first.simulatedWindows,
                     "count");
    rep.counters.add("sim.prefix_hit_rate",
                     1.0 - ratio(first.simulatedWindows,
                                 first.logicalWindows),
                     "frac");
    rep.counters.add("sim.forks", static_cast<double>(first.forks), "count");
    rep.counters.add("engine.threads", mode.threads, "count");
    rep.counters.add("scenario.runs", static_cast<double>(runs.size()),
                     "count");
    rep.counters.add("scenario.classes",
                     static_cast<double>(setup.low.classes.size()), "count");
    rep.counters.add("trace.records",
                     static_cast<double>(setup.traceRecords), "count");
    return sum;
}

/**
 * Repetitions with the DTM decorator installed, each followed by a slice
 * of the layer replays; fills the per-layer host times and the
 * dtm/cpu/refresh/thermal counters.
 */
void
tracedPass(const Mode &mode, const Setup &setup,
           const SetupTimes &setup_times,
           const std::vector<ExperimentEngine::Run> &runs,
           const std::string &out_path, const TimedSummary &timed,
           Report &rep)
{
    constexpr int kReps = 3;
    std::vector<std::vector<DtmRecord>> records(kReps);
    std::vector<RepResult> traced;
    ReplayEstimate est;
    {
        ExperimentEngine engine(mode.threads);
        for (int k = 0; k < kReps; ++k) {
            std::vector<ExperimentEngine::Run> probed = runs;
            installDtmProbes(probed, records[k]);
            traced.push_back(
                runRep(mode, setup.spec, setup.low, probed, engine, out_path));
            countRep(rep, traced.back());
            checkDigest(rep, traced.back(), "traced");
            // A slice of the replays after every repetition, so the
            // replayed costs and the run times they are divided by are
            // taken under the same host conditions.
            ReplayEstimate e =
                replayLayers(setup.low, runs, records[k], 7000, 2000);
            if (k == 0) {
                est = std::move(e);
                continue;
            }
            for (auto [to, from] : {std::pair{&est.solveNs, &e.solveNs},
                                    std::pair{&est.thermalNs, &e.thermalNs},
                                    std::pair{&est.refreshNs, &e.refreshNs}})
                to->insert(to->end(), from->begin(), from->end());
        }
    }

    double host_ns = 0.0, sim_windows = 0.0, refresh_windows = 0.0,
           decide_ns = 0.0;
    std::vector<double> traced_wps, busy, tail_idle, serialize_ms,
        decide_all;
    for (int k = 0; k < kReps; ++k) {
        const RepResult &r = traced[k];
        const double wall =
            std::accumulate(r.wallS.begin(), r.wallS.end(), 0.0);
        host_ns += 1e9 * wall;
        sim_windows += r.simulatedWindows;
        const double sim_per_logical =
            ratio(r.simulatedWindows, r.logicalWindows);
        for (std::size_t i = 0; i < runs.size(); ++i)
            if (!runs[i].cfg.refresh.empty())
                refresh_windows += r.runWindows[i] * sim_per_logical;
        traced_wps.push_back(ratio(r.logicalWindows, r.gridS));
        busy.push_back(ratio(wall, mode.threads * r.gridS));
        // Worker-seconds idle at the end of the grid: from each worker's
        // own last delivery until the grid's results are all delivered,
        // the document dump included; a worker that delivered nothing
        // idled through the whole grid.
        double idle = r.gridS * static_cast<double>(
                                    static_cast<std::size_t>(mode.threads) -
                                    r.workerLastS.size());
        for (double last : r.workerLastS)
            idle += r.gridS - last;
        tail_idle.push_back(idle);
        serialize_ms.push_back(1e3 * r.serializeS);
        for (const DtmRecord &d : records[k])
            for (std::uint32_t ns : d.decideNs) {
                decide_ns += ns;
                decide_all.push_back(ns);
            }
    }

    std::size_t decisions = 0, changes = 0, dimm = 0, hot = 0;
    for (const DtmRecord &d : records.front()) {
        decisions += d.decisions;
        changes += d.actionChanges;
        dimm += d.dimmSamples;
        hot += d.hotSamples;
    }
    for (int k = 1; k < kReps; ++k) {
        std::size_t again = 0;
        for (const DtmRecord &d : records[k])
            again += d.decisions;
        if (again != decisions)
            rep.problems.push_back(
                "dtm.decisions differ between traced repetitions");
    }

    const double cpu_share = ratio(sim_windows * mean(est.solveNs), host_ns);
    const double thermal_share =
        ratio(sim_windows * mean(est.thermalNs), host_ns);
    const double refresh_share =
        ratio(refresh_windows * mean(est.refreshNs), host_ns);
    const double dtm_share = ratio(decide_ns, host_ns);

    MetricSet &l = rep.layers;
    l.add("cpu.solve_ns_p50", centralMean(est.solveNs), "ns");
    l.add("cpu.solve_ns_tail",
          quantile(est.solveNs, tailLevel(est.solveNs.size()) / 100.0),
          "ns");
    l.add("cpu.share", cpu_share, "frac");
    l.add("thermal.advance_ns_p50", centralMean(est.thermalNs), "ns");
    l.add("thermal.share", thermal_share, "frac");
    l.add("refresh.share", refresh_share, "frac");
    l.add("dtm.decide_ns_p50", centralMean(decide_all), "ns");
    l.add("dtm.share", dtm_share, "frac");
    l.add("sim.other_share",
          1.0 - cpu_share - thermal_share - refresh_share - dtm_share,
          "frac");
    l.add("engine.busy_frac", median(busy), "frac");
    l.add("engine.tail_idle_s", median(tail_idle), "s");
    l.add("scenario.parse_ms", 1e3 * median(setup_times.parse), "ms");
    l.add("scenario.lower_ms", 1e3 * median(setup_times.lower), "ms");
    l.add("trace.load_ms", 1e3 * median(setup_times.load), "ms");
    l.add("trace.decode_ms", 1e3 * median(setup_times.decode), "ms");
    l.add("results.serialize_ms", median(serialize_ms), "ms");
    l.add("results.bytes", static_cast<double>(traced.front().bytes),
          "bytes");
    // The fastest traced repetition against the kept timed ones: both
    // are the host's least-slowed figures.
    l.add("bench.tracing_overhead_frac",
          1.0 - ratio(quantile(traced_wps, 1.0), timed.windowsPerS),
          "frac");

    rep.counters.add("dtm.decisions", static_cast<double>(decisions),
                     "count");
    rep.counters.add("dtm.action_changes", static_cast<double>(changes),
                     "count");
    rep.counters.add("cpu.saturated_frac", est.saturatedFrac, "frac");
    rep.counters.add("cpu.shutdown_frac", est.shutdownFrac, "frac");
    rep.counters.add("refresh.hot_band_frac",
                     ratio(static_cast<double>(hot),
                           static_cast<double>(dimm)),
                     "frac");
    rep.counters.add("thermal.cells_per_lane", est.cellsPerLane, "count");
}

int
runBenchmark(const Options &o)
{
    const Mode &mode = modeByName(o.workload);
    if (std::string(PERFBENCH_BUILD_TYPE) != "Release" || sanitized()) {
        std::cerr << "memtherm_perfbench: refusing to time a '"
                  << PERFBENCH_BUILD_TYPE << "' build"
                  << (sanitized() ? " with sanitizers" : "")
                  << "; configure with -DCMAKE_BUILD_TYPE=Release and no "
                     "MEMTHERM_SANITIZE\n";
        return 3;
    }

    Report rep;
    correctnessInChild(o, mode, rep);
    SetupTimes setup_times;
    const Setup setup = setUpSlice(o.scenario, setup_times);
    const std::vector<ExperimentEngine::Run> runs = flattenRuns(setup.low);
    const std::string out_path =
        o.outDir + "/results" + (mode.stream ? ".jsonl" : ".json");

    const TimedSummary timed =
        timedPass(o, mode, setup, setup_times, runs, out_path, rep);
    if (o.trace)
        tracedPass(mode, setup, setup_times, runs, out_path, timed, rep);
    rep.e2e.add("failed_run_frac",
                ratio(static_cast<double>(rep.failed),
                      static_cast<double>(rep.attempted)),
                "frac");

    Json out = Json::object();
    out.set("workload", mode.name);
    out.set("host", hostContext());
    out.set("digest", hex(rep.digest));
    out.set("tail", "p" + Json::numberToString(timed.tailLevel) + ", " +
                        std::to_string(timed.tailBeyond) + " runs beyond");
    out.set("correct", rep.problems.empty());
    out.set("attempted", static_cast<std::uint64_t>(rep.attempted));
    out.set("failed", static_cast<std::uint64_t>(rep.failed));
    Json problems = Json::array();
    for (const std::string &p : rep.problems)
        problems.push(p);
    out.set("problems", std::move(problems));
    out.set("end_to_end", rep.e2e.obj);
    out.set("layers", rep.layers.obj);
    out.set("counters", rep.counters.obj);
    std::cout << out.dump(0) << std::endl;
    return rep.problems.empty() ? 0 : 1;
}

} // namespace

int
main(int argc, char **argv)
{
    try {
        return runBenchmark(parseOptions(argc, argv));
    } catch (const std::exception &e) {
        std::cerr << "memtherm_perfbench: " << e.what() << '\n';
        return 2;
    }
}
