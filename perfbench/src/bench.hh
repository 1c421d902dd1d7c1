/**
 * @file
 * Shared pieces of the memtherm performance benchmark: the workload
 * execution modes, one timed repetition of a scenario grid through the
 * library's public entry points (ExperimentEngine::run/runBatched with
 * the benchmark's own RunSink, JsonlResultWriter for streams), and the
 * layer probes of the traced pass (a forwarding DtmPolicy decorator and
 * out-of-loop replays of the level-1 solve, the thermal advance and the
 * refresh band lookup).
 */

#ifndef PERFBENCH_BENCH_HH
#define PERFBENCH_BENCH_HH

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <tuple>
#include <vector>

#include "core/sim/scenario.hh"

namespace perfbench
{

using memtherm::LoweredScenario;
using memtherm::ScenarioSpec;
using Clock = std::chrono::steady_clock;

inline double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/** Median of @p v (0 for an empty sample); reorders @p v. */
double median(std::vector<double> v);

/** Value at quantile @p q in [0, 1] (nearest rank); reorders @p v. */
double quantile(std::vector<double> v, double q);

/** A committed golden the correctness pass reproduces. */
struct GoldenCheck
{
    std::string scenario; ///< examples/scenarios/<scenario>.json
    double tol;           ///< relative tolerance of the ctest pin
};

/** How one benchmark workload drives the engine and delivers results. */
struct Mode
{
    std::string name;
    int threads;    ///< ExperimentEngine worker count
    int batchWidth; ///< 0 = scalar run(); > 0 = runBatched() width
    bool stream;    ///< JSONL stream with traces; else one document
    std::vector<GoldenCheck> goldens;
};

/** The mode named @p name; FatalError for an unknown workload. */
const Mode &modeByName(const std::string &name);

/** What one repetition of a grid produced and cost. */
struct RepResult
{
    double gridS = 0.0; ///< first dispatch -> last result delivered
    std::vector<double> wallS;      ///< per run, as the engine timed it
    std::vector<double> latencyS;   ///< per run, wall + sink delivery
    /// per engine worker that delivered, its last delivery since grid start
    std::vector<double> workerLastS;
    std::vector<std::string> failures; ///< "index: what()" per failure
    std::uint64_t digest = 0; ///< hash of every simulated result
    double logicalWindows = 0.0;
    double simulatedWindows = 0.0;
    std::size_t forks = 0;
    std::vector<double> runWindows; ///< per run, logical windows
    double serializeS = 0.0;        ///< result serialization + writes
    std::uintmax_t bytes = 0;       ///< size of the results output
};

/**
 * Execute @p runs (the lowered grid of @p spec, in grid order) once on
 * @p engine the way @p mode says, delivering to @p out_path: a results
 * document (what `memtherm run -o` writes) or a JSONL stream with
 * traces (what `memtherm run --stream --traces` writes).
 */
RepResult runRep(const Mode &mode, const ScenarioSpec &spec,
                 const LoweredScenario &low,
                 const std::vector<memtherm::ExperimentEngine::Run> &runs,
                 memtherm::ExperimentEngine &engine,
                 const std::string &out_path);

/** The lowered grid's runs, concatenated in global grid order. */
std::vector<memtherm::ExperimentEngine::Run>
flattenRuns(const LoweredScenario &low);

/**
 * Compare a results document with a golden one: numbers within a
 * relative @p tol (the `memtherm run --golden` rule), everything else
 * exactly. Members named "traces" on the @p actual side are skipped,
 * so a stream written with traces compares against a trace-free
 * golden. Fills @p where / @p detail on the first mismatch.
 */
bool jsonNear(const memtherm::Json &actual, const memtherm::Json &golden,
              double tol, const std::string &path, std::string &where,
              std::string &detail);

// --- traced pass ------------------------------------------------------

/**
 * What the DTM decorator of one run records: decision counts and
 * per-call host times, plus the distinct operating points the policy
 * chose (the level-1 solve's inputs), each with how often it was chosen
 * and the sensor reading of its first occurrence.
 */
struct DtmRecord
{
    /// (memory on, bandwidth cap, DVFS level, active cores)
    using Key = std::tuple<bool, double, std::size_t, int>;
    struct Point
    {
        std::size_t count = 0;
        double t = 0.0;                  ///< first decision time (s)
        std::vector<double> dramPerDimm; ///< reading at that decision
    };
    std::map<Key, Point> points;
    std::vector<std::uint32_t> decideNs;
    std::size_t decisions = 0;
    std::size_t actionChanges = 0;
    std::size_t dimmSamples = 0; ///< per-DIMM readings at decisions
    std::size_t hotSamples = 0;  ///< of those, in the top refresh band
};

/**
 * Install the forwarding DtmPolicy decorator through Run::factory: each
 * run builds its policy exactly as the engine would (its own factory,
 * or PolicyRegistry from the run's configuration) and wraps it so every
 * decide() is timed and recorded into @p records[i]. Results are
 * unchanged — the decorator forwards decide(), name() and reset().
 */
void installDtmProbes(std::vector<memtherm::ExperimentEngine::Run> &runs,
                      std::vector<DtmRecord> &records);

/** Host-time estimates of the in-loop layers, from replays. */
struct ReplayEstimate
{
    std::vector<double> solveNs;   ///< sampled solvePerfWindow calls
    double saturatedFrac = 0.0;    ///< decision-weighted
    double shutdownFrac = 0.0;     ///< decisions with memory off
    std::vector<double> thermalNs; ///< ambient + memory thermal advance
    std::vector<double> refreshNs; ///< per-window band lookup + staging
    double cellsPerLane = 0.0;     ///< thermal nodes per lane
};

/**
 * Replay the window loop's inner layers from outside, on the operating
 * points @p records captured: @p solves solvePerfWindow calls on the
 * runs' own apps, configuration and DTM actions, sampled in proportion
 * to how often each point was chosen (a fixed-seed sample, so the
 * fractions repeat exactly); then, on each grid point's configuration,
 * @p windows windows of MemoryThermalModel::advance (stage, commit,
 * finish) with the sampled traffic, and of the RefreshModel::bandAt
 * staging when refresh is on.
 */
ReplayEstimate replayLayers(
    const LoweredScenario &low,
    const std::vector<memtherm::ExperimentEngine::Run> &runs,
    const std::vector<DtmRecord> &records, int solves, int windows);

} // namespace perfbench

#endif // PERFBENCH_BENCH_HH
