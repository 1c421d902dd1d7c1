/**
 * @file
 * Perf-trajectory smoke harness (not a paper figure).
 *
 * Times a small Chapter 4 suite twice — serially (one engine thread)
 * and in parallel — verifies the two produce bit-identical results, and
 * writes BENCH_perf.json so successive PRs can track wall-clock,
 * windows/second, and parallel speedup. Built on demand:
 *
 *   cmake --build build --target perf_smoke && ./build/perf_smoke
 *
 * The suite is described as a declarative ScenarioSpec and executed
 * through runScenario(), so this harness also times the scenario code
 * path the `memtherm` CLI uses; the JSON goes through the shared
 * writer (common/json.hh). The parallel thread count comes from
 * MEMTHERM_THREADS when set, otherwise 4 (the acceptance
 * configuration). Expected speedup is roughly min(threads, hardware
 * cores, concurrent runs); on a 1-core host serial and parallel times
 * are equal by construction.
 */

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.hh"
#include "common/json.hh"
#include "common/logging.hh"
#include "core/sim/scenario.hh"

using namespace memtherm;
using namespace memtherm::bench;

namespace
{

/** The ch4 mini-suite: small batches, full policy spread. */
ScenarioSpec
miniSuite()
{
    ScenarioSpec spec;
    spec.name = "ch4_mini";
    spec.copiesPerApp = 8;
    spec.workloads = {"W1", "W2", "W3", "W4"};
    spec.policies = {"No-limit", "DTM-TS", "DTM-BW", "DTM-ACG",
                     "DTM-CDVFS"};
    return spec;
}

/**
 * The policy-sweep grid for the batched pass: the full Chapter 4 policy
 * lineup (PID variants included) over the same mixes. A wide policy
 * axis is exactly where shared-prefix batching pays — every policy of a
 * workload rides one simulated lane until its decisions diverge.
 */
ScenarioSpec
policySweep()
{
    ScenarioSpec spec = miniSuite();
    spec.name = "ch4_policy_sweep";
    spec.policies = {"No-limit",  "DTM-TS",      "DTM-BW",
                     "DTM-ACG",   "DTM-CDVFS",   "DTM-BW+PID",
                     "DTM-ACG+PID", "DTM-CDVFS+PID"};
    // The Fig. 4.9-style inlet axis: at the cool points no policy ever
    // acts, so all eight runs of a workload share one simulated lane
    // end to end; at the hot point they share the warm-up prefix.
    spec.sweepTInlet = {38.0, 44.0, 50.0};
    return spec;
}

double
seconds(std::chrono::steady_clock::time_point a,
        std::chrono::steady_clock::time_point b)
{
    return std::chrono::duration<double>(b - a).count();
}

/** Total simulated windows across a suite. */
double
totalWindows(const SuiteResults &r, Seconds window)
{
    double n = 0.0;
    for (const auto &[w, per_policy] : r)
        for (const auto &[p, res] : per_policy)
            n += res.runningTime / window;
    return n;
}

bool
identical(const SimResult &a, const SimResult &b)
{
    return a.runningTime == b.runningTime && a.totalInstr == b.totalInstr &&
           a.totalReadGB == b.totalReadGB &&
           a.totalWriteGB == b.totalWriteGB &&
           a.totalL2Misses == b.totalL2Misses &&
           a.memEnergy == b.memEnergy && a.cpuEnergy == b.cpuEnergy &&
           a.maxAmb == b.maxAmb && a.maxDram == b.maxDram &&
           a.timeAboveAmbTdp == b.timeAboveAmbTdp &&
           a.timeAboveDramTdp == b.timeAboveDramTdp &&
           a.ambTrace.values() == b.ambTrace.values() &&
           a.dramTrace.values() == b.dramTrace.values() &&
           a.inletTrace.values() == b.inletTrace.values() &&
           a.cpuPowerTrace.values() == b.cpuPowerTrace.values() &&
           a.bwTrace.values() == b.bwTrace.values();
}

bool
identical(const SuiteResults &a, const SuiteResults &b)
{
    if (a.size() != b.size())
        return false;
    for (const auto &[w, per_policy] : a) {
        auto it = b.find(w);
        if (it == b.end() || it->second.size() != per_policy.size())
            return false;
        for (const auto &[p, res] : per_policy) {
            auto jt = it->second.find(p);
            if (jt == it->second.end() || !identical(res, jt->second))
                return false;
        }
    }
    return true;
}

} // namespace

int
main()
{
    ScenarioSpec spec = miniSuite();
    const std::size_t n_runs = spec.lower().totalRuns();

    int par_threads = 4;
    if (const char *env = std::getenv("MEMTHERM_THREADS")) {
        int n = std::atoi(env);
        if (n >= 1)
            par_threads = n;
    }
    unsigned hw = std::thread::hardware_concurrency();

    std::printf("perf_smoke: %zu runs (%zu workloads x %zu policies), "
                "%d parallel threads, %u hardware threads\n",
                n_runs, spec.workloads.size(), spec.policies.size(),
                par_threads, hw);

    // Warm-up run: touches every code path once so neither timed pass
    // pays first-touch costs the other doesn't.
    {
        ScenarioSpec warm = spec;
        warm.workloads = {spec.workloads[0]};
        warm.policies = {spec.policies[0]};
        ExperimentEngine warm_engine(1);
        runScenario(warm, warm_engine, 1);
    }

    // Width 1 (no prefix sharing) in the scalar and refresh passes, so
    // windows/s stays comparable with the earlier trajectory entries.
    auto t0 = std::chrono::steady_clock::now();
    ExperimentEngine serial(1);
    ScenarioResults r_serial = runScenario(spec, serial, 1);
    auto t1 = std::chrono::steady_clock::now();
    ExperimentEngine parallel(par_threads);
    ScenarioResults r_par = runScenario(spec, parallel, 1);
    auto t2 = std::chrono::steady_clock::now();

    double serial_s = seconds(t0, t1);
    double parallel_s = seconds(t1, t2);
    Seconds window = makeCh4Config(coolingAohs15(), false).window;
    double windows = totalWindows(r_serial.points[0].suite, window);
    bool bit_identical =
        identical(r_serial.points[0].suite, r_par.points[0].suite);
    double speedup = parallel_s > 0.0 ? serial_s / parallel_s : 0.0;

    std::printf("serial   %.3f s (%.0f windows/s)\n", serial_s,
                windows / serial_s);
    std::printf("parallel %.3f s (%.0f windows/s), speedup %.2fx\n",
                parallel_s, windows / parallel_s, speedup);
    std::printf("results bit-identical: %s\n",
                bit_identical ? "yes" : "NO");

    // Cores the parallel pass can actually use: the engine spawns
    // par_threads workers but the host pins throughput at its core
    // count. Normalizing by this makes the number comparable across
    // machines — on a 1-core container the raw "speedup" reads as a
    // meaningless ~1x while per-core throughput stays honest.
    unsigned cores_used = hw > 0
                              ? std::min(static_cast<unsigned>(par_threads),
                                         hw)
                              : static_cast<unsigned>(par_threads);
    if (cores_used < 1)
        cores_used = 1;
    double per_core = windows / parallel_s / cores_used;
    std::printf("per-core %.0f windows/s over %u core(s)\n", per_core,
                cores_used);

    // Batched pass: the policy-sweep grid, scalar vs. `--batch`-style
    // shared-prefix execution, both on one engine thread so the ratio is
    // a pure per-core measure of what prefix sharing buys.
    ScenarioSpec sweep = policySweep();
    ExperimentEngine batch_engine(1);
    auto t3 = std::chrono::steady_clock::now();
    ScenarioResults r_sweep_scalar = runScenario(sweep, batch_engine, 1);
    auto t4 = std::chrono::steady_clock::now();
    BatchStats bstats;
    ScenarioResults r_sweep_batched = runScenario(
        sweep, batch_engine, static_cast<int>(sweep.policies.size()),
        &bstats);
    auto t5 = std::chrono::steady_clock::now();

    double sweep_scalar_s = seconds(t3, t4);
    double sweep_batched_s = seconds(t4, t5);
    double sweep_windows = 0.0;
    bool batched_identical =
        r_sweep_batched.points.size() == r_sweep_scalar.points.size();
    for (std::size_t p = 0; p < r_sweep_scalar.points.size(); ++p) {
        sweep_windows +=
            totalWindows(r_sweep_scalar.points[p].suite, window);
        batched_identical =
            batched_identical &&
            identical(r_sweep_scalar.points[p].suite,
                      r_sweep_batched.points[p].suite);
    }
    double batched_speedup =
        sweep_batched_s > 0.0 ? sweep_scalar_s / sweep_batched_s : 0.0;

    std::printf("policy sweep (%zu policies): scalar %.3f s "
                "(%.0f windows/s), batched %.3f s (%.0f windows/s)\n",
                sweep.policies.size(), sweep_scalar_s,
                sweep_windows / sweep_scalar_s, sweep_batched_s,
                sweep_windows / sweep_batched_s);
    std::printf("batched speedup %.2fx, prefix hit rate %.3f, "
                "%zu fork(s), batched results bit-identical: %s\n",
                batched_speedup, bstats.hitRate(), bstats.forks,
                batched_identical ? "yes" : "NO");

    // Refresh-coupled pass: the temperature->refresh feedback adds a
    // per-window band lookup, a bandwidth derate, and a DRAM power
    // injection to every DIMM. Time a refresh-coupled slice of the
    // suite so the trajectory records what the coupling costs.
    ScenarioSpec rspec = miniSuite();
    rspec.name = "ch4_mini_refresh";
    rspec.workloads = {"W1"};
    rspec.refresh = RefreshSpec{"ddr2_2x", {}};
    ExperimentEngine refresh_engine(1);
    auto t6 = std::chrono::steady_clock::now();
    ScenarioResults r_refresh = runScenario(rspec, refresh_engine, 1);
    auto t7 = std::chrono::steady_clock::now();

    double refresh_s = seconds(t6, t7);
    double refresh_windows =
        totalWindows(r_refresh.points[0].suite, window);
    bool refresh_coupled = true;
    for (const auto &[w, per_policy] : r_refresh.points[0].suite)
        for (const auto &[p, res] : per_policy)
            refresh_coupled =
                refresh_coupled && !res.refreshBwLossPerDimm.empty();
    std::printf("refresh-coupled (ddr2_2x) %.3f s (%.0f windows/s), "
                "per-DIMM loss recorded: %s\n",
                refresh_s, refresh_windows / refresh_s,
                refresh_coupled ? "yes" : "NO");

    Json entry = Json::object();
    entry.set("runs", static_cast<double>(n_runs));
    entry.set("copies_per_app", *spec.copiesPerApp);
    entry.set("threads", par_threads);
    entry.set("hardware_threads", static_cast<double>(hw));
    entry.set("cores_used", static_cast<double>(cores_used));
    entry.set("windows", std::round(windows));
    entry.set("serial_seconds", serial_s);
    entry.set("parallel_seconds", parallel_s);
    entry.set("windows_per_sec_serial", windows / serial_s);
    entry.set("windows_per_sec_parallel", windows / parallel_s);
    entry.set("windows_per_sec_per_core", per_core);
    entry.set("speedup", speedup);
    entry.set("bit_identical", bit_identical);
    entry.set("sweep_policies",
              static_cast<double>(sweep.policies.size()));
    entry.set("sweep_windows", std::round(sweep_windows));
    entry.set("sweep_scalar_seconds", sweep_scalar_s);
    entry.set("sweep_batched_seconds", sweep_batched_s);
    entry.set("windows_per_sec_batched", sweep_windows / sweep_batched_s);
    entry.set("batched_speedup", batched_speedup);
    entry.set("prefix_hit_rate", bstats.hitRate());
    entry.set("batched_forks", static_cast<double>(bstats.forks));
    entry.set("batched_bit_identical", batched_identical);
    entry.set("refresh_windows", std::round(refresh_windows));
    entry.set("refresh_seconds", refresh_s);
    entry.set("windows_per_sec_refresh", refresh_windows / refresh_s);
    entry.set("refresh_coupled", refresh_coupled);

    // Append to the trajectory so successive PRs accumulate a history
    // instead of overwriting a single snapshot. A pre-trajectory (flat)
    // or unreadable file restarts the array.
    Json out = Json::object();
    out.set("suite", spec.name);
    Json traj = Json::array();
    try {
        Json prev = Json::load("BENCH_perf.json");
        if (const Json *arr = prev.find("trajectory")) {
            if (arr->isArray())
                for (const Json &e : arr->asArray())
                    traj.push(e);
        }
    } catch (const FatalError &) {
        // no previous file (or an unparsable one): start fresh
    }
    traj.push(std::move(entry));
    out.set("trajectory", std::move(traj));
    try {
        out.save("BENCH_perf.json");
    } catch (const FatalError &e) {
        std::fprintf(stderr, "%s\n", e.what());
        return 1;
    }
    std::printf("wrote BENCH_perf.json (%zu trajectory entries)\n",
                out.at("trajectory").asArray().size());

    return (bit_identical && batched_identical && refresh_coupled) ? 0
                                                                   : 1;
}
