/**
 * @file
 * Declarative scenario API.
 *
 * A ScenarioSpec is a serializable description of one experiment: the
 * base configuration (by catalog names — cooling, ambient model, or a
 * Chapter 5 platform), override knobs, the workload and policy name
 * lists, and optional sweep axes (memory organization, per-DIMM traffic
 * shape, cooling, inlet temperature, batch depth, sensor noise, DTM
 * decision interval, emergency ladder, DVFS operating table,
 * temperature-coupled refresh model, thermal model resolution) whose
 * cross product spans a configuration grid.
 * Specs lower to ExperimentEngine run lists and round-trip losslessly
 * through JSON, so an experiment is data (a scenario file fed to the
 * `memtherm` CLI), not a hand-written binary.
 *
 * Every name in a spec resolves through core/sim/registry.hh, so a typo
 * reports the valid keys instead of aborting.
 */

#ifndef MEMTHERM_CORE_SIM_SCENARIO_HH
#define MEMTHERM_CORE_SIM_SCENARIO_HH

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/json.hh"
#include "core/sim/engine.hh"
#include "core/thermal/bank_grid.hh"

namespace memtherm
{

/**
 * One scenario, lowered: the configuration points of the sweep grid and
 * the engine runs of each point (workload-major, then policy, matching
 * the spec's list order).
 */
struct LoweredScenario
{
    struct Point
    {
        std::string label; ///< sweep coordinates, e.g. "inlet=46"; "base"
        SimConfig cfg;     ///< the point's configuration
        std::vector<ExperimentEngine::Run> runs;
    };

    std::vector<Point> points;
    std::vector<std::string> workloads; ///< resolved names, spec order
    std::vector<std::string> policies;

    /**
     * Policy-independent equivalence classes over the concatenated run
     * list (global grid order): each class spans runs that differ only
     * by policy — same point configuration, same workload — so a
     * batched engine may share their simulated prefix. Derived
     * structurally from the lowering order (runs are workload-major
     * with the policy fastest): one class of size policies.size() per
     * (point, workload) — except on Chapter 5 platforms, where
     * ch5EngineRun adjusts the configuration per policy (the SR1500AL
     * "No-limit" room-ambient protocol), so every run is its own class.
     */
    std::vector<ExperimentEngine::RunClass> classes;

    /** Total run count across all points. */
    std::size_t totalRuns() const;
};

/**
 * One failed run of a scenario grid, identified well enough to debug
 * (the grid coordinate and the run's identity, not just a bare what()).
 */
struct RunError
{
    std::size_t index = 0; ///< global run index in spec grid order
    std::string point;     ///< sweep-point label
    std::string workload;
    std::string policy;
    std::string error; ///< the exception's what()

    /// Orders by index first (indices are unique within one grid).
    auto operator<=>(const RunError &) const = default;
};

/**
 * The grid coordinate of a global run index: run k lives at point
 * k / (W*P), workload (k % (W*P)) / P and policy k % P, for W workloads
 * and P policies. The in-memory and stream sinks and mergeStreams()
 * all name runs through this one map.
 */
class GridIndex
{
  public:
    /** @p low must outlive the index. */
    explicit GridIndex(const LoweredScenario &low)
        : low(low), perPoint(low.workloads.size() * low.policies.size())
    {
    }
    explicit GridIndex(LoweredScenario &&) = delete;

    std::size_t runsPerPoint() const { return perPoint; }
    const std::string &point(std::size_t k) const
    {
        return low.points[k / perPoint].label;
    }
    const std::string &workload(std::size_t k) const
    {
        return low.workloads[(k % perPoint) / low.policies.size()];
    }
    const std::string &policy(std::size_t k) const
    {
        return low.policies[k % low.policies.size()];
    }

    /** Run @p k's failure record; @p err is the exception it threw. */
    RunError error(std::size_t k, std::exception_ptr err) const;

  private:
    const LoweredScenario &low;
    std::size_t perPoint;
};

/**
 * One memory organization a spec names: a catalog entry
 * (registry.hh memoryOrgNames(), e.g. "ch4_4x4" or "2x4") or an inline
 * {channels, dimms} pair for organizations the catalog lacks. A
 * default-constructed value means "keep the base configuration's
 * organization". When both a name and an inline pair are set, the name
 * wins (the serialized form never carries both).
 */
struct MemoryOrgSpec
{
    std::string name;                   ///< catalog name; empty -> inline
    std::optional<MemoryOrgConfig> org; ///< inline organization

    bool operator==(const MemoryOrgSpec &) const = default;

    bool empty() const { return name.empty() && !org; }

    /** Sweep-label coordinate: the catalog name, or "<c>x<d>" inline. */
    std::string label() const;

    /**
     * The organization this spec denotes: catalog lookup (FatalError
     * listing the valid keys) or the inline pair (FatalError when a
     * count is non-positive).
     */
    MemoryOrgConfig resolve() const;
};

/**
 * One per-DIMM traffic shape a spec names: a catalog entry
 * (registry.hh trafficShapeNames(), e.g. "hot_dimm0") or an inline
 * share vector for distributions the catalog lacks. A
 * default-constructed value means "keep uniform address interleave".
 * Catalog shapes are parameterized by the DIMM count, so they fit any
 * memory organization; an inline vector's arity must match the
 * resolved organization's DIMMs per channel. When both a name and
 * shares are set, the name wins (the serialized form never carries
 * both).
 */
struct TrafficShapeSpec
{
    std::string name;           ///< catalog name; empty -> inline
    std::vector<double> shares; ///< inline per-DIMM share vector

    bool operator==(const TrafficShapeSpec &) const = default;

    bool empty() const { return name.empty() && shares.empty(); }

    /** Sweep-label coordinate: the catalog name, or "s0|s1|..." inline. */
    std::string label() const;

    /**
     * The share vector this spec denotes for an @p n_dimms chain:
     * catalog lookup (FatalError listing the valid keys) or the
     * validated inline vector (FatalError on negative or non-finite
     * shares, a sum off 1 by more than 1e-9, or an arity mismatch).
     */
    std::vector<double> resolve(int n_dimms) const;
};

/**
 * One temperature-coupled refresh model a spec names: a catalog entry
 * (registry.hh refreshModelNames() — "none", "ddr2_2x", "aldram") or an
 * inline band table for models the catalog lacks. A default-constructed
 * value means "no refresh feedback", and so does the catalog's "none"
 * (a run with `refresh: "none"` is bit-identical to one with the knob
 * unset). When both a name and bands are set, the name wins (the
 * serialized form never carries both).
 */
struct RefreshSpec
{
    std::string name;               ///< catalog name; empty -> inline
    std::vector<RefreshBand> bands; ///< inline band table

    bool operator==(const RefreshSpec &) const = default;

    bool empty() const { return name.empty() && bands.empty(); }

    /**
     * Sweep-label coordinate: the catalog name, or the bands rendered
     * "minTemp:bwFraction:dramPower[:latencyMult]" joined with "|"
     * inline (":" and "|" keep the coordinate free of the label
     * grammar's reserved "," and "=").
     */
    std::string label() const;

    /**
     * The refresh model this spec denotes: catalog lookup (FatalError
     * listing the valid keys) or the validated inline band table
     * (FatalError on non-finite values, a bw_fraction outside [0, 1), a
     * negative dram_power_w, a non-positive latency_mult, or band
     * floors not strictly increasing).
     */
    RefreshModel resolve() const;
};

/**
 * One thermal-model resolution a spec names: a catalog entry
 * (registry.hh thermalModelNames() — "lumped", "bank_grid") or an
 * inline {grid_x, grid_z[, bank_weights]} object for grids the catalog
 * lacks. A default-constructed value means "the lumped per-DIMM model",
 * and so does the catalog's "lumped" (a run with
 * `thermal_model: "lumped"` is bit-identical to one with the knob
 * unset). When both a name and an inline grid are set, the name wins
 * (the serialized form never carries both).
 */
struct ThermalModelSpec
{
    std::string name;                   ///< catalog name; empty -> inline
    std::optional<BankGridConfig> grid; ///< inline grid

    bool operator==(const ThermalModelSpec &) const = default;

    bool empty() const { return name.empty() && !grid; }

    /**
     * Sweep-label coordinate: the catalog name, or "<x>x<z>" inline
     * (with the bank weights appended "w0|w1|..." after ":" when the
     * inline grid carries them — ":" and "|" keep the coordinate free
     * of the label grammar's reserved "," and "=").
     */
    std::string label() const;

    /**
     * The thermal model this spec denotes: catalog lookup (FatalError
     * listing the valid keys) or the validated inline grid (FatalError
     * on non-positive dimensions, more than 1024 cells, or bank weights
     * of the wrong arity, non-finite, negative, or summing off 1 by
     * more than 1e-9). The lumped model is grid == std::nullopt.
     */
    ThermalModelConfig resolve() const;
};

/**
 * Declarative description of an experiment. Field defaults mirror the
 * Chapter 4 platform; std::nullopt means "keep the base configuration's
 * value" (makeCh4Config's, or the platform's when `platform` is set).
 */
struct ScenarioSpec
{
    std::string name;
    std::string description;

    /**
     * Chapter 5 testbed platform name ("PE1950", "SR1500AL"). When set,
     * the platform supplies the base configuration and the Chapter 5
     * policy lineup applies (including the paper's protocol: the
     * SR1500AL "No-limit" baseline runs at a 26 C room ambient); the
     * `cooling`/`ambient` fields and the cooling sweep are rejected.
     */
    std::string platform;

    std::string cooling = "AOHS_1.5"; ///< Table 3.2 column name
    std::string ambient = "isolated"; ///< "isolated" or "integrated"

    /// Emergency-ladder catalog name for the leveled Chapter 4 schemes
    /// (empty = the Table 4.3 ladder). Rejected for platform scenarios.
    std::string emergencyLevels;
    /// DvfsRegistry table name (empty = the base configuration's table).
    /// Rejected for platform scenarios.
    std::string dvfs;

    /// Memory organization (catalog name or inline {channels, dimms});
    /// empty keeps the base organization. Rejected for platform
    /// scenarios (the testbed hardware fixes its DIMM population).
    MemoryOrgSpec memoryOrg;

    /// Per-DIMM traffic shape (catalog name or inline share vector);
    /// empty keeps uniform address interleave. Shapes resolve against
    /// each grid point's memory organization. Rejected for platform
    /// scenarios (the testbed's traffic distribution is measured, not
    /// modeled).
    TrafficShapeSpec trafficShape;

    /// Temperature-coupled DRAM refresh/timing model (catalog name or
    /// inline band table); empty — like the catalog's "none" — disables
    /// the feedback edge. Rejected for platform scenarios (the
    /// testbed's DRAM refreshes for real).
    RefreshSpec refresh;

    /// Thermal model resolution (catalog name or inline grid object);
    /// empty — like the catalog's "lumped" — keeps the paper's lumped
    /// per-DIMM model. Rejected for platform scenarios (the testbed
    /// measures its real DIMMs at DIMM granularity).
    ThermalModelSpec thermalModel;

    /// Path to a memory-access trace file (dram/trace.hh) whose decoded
    /// address stream supplies the per-DIMM traffic distribution — and,
    /// when the bank-grid thermal model is active, the per-bank heat
    /// weights — in place of the traffic_shape catalog. Mutually
    /// exclusive with the traffic_shape knob and sweep (the trace IS
    /// the measured distribution), and with inline bank_weights (the
    /// trace supplies them). Relative paths resolve against the
    /// process's working directory. Empty keeps the modeled shapes; a
    /// trace-free run is bit-identical to builds that predate traces.
    /// Rejected for platform scenarios.
    std::string trace;

    std::optional<double> tInlet;          ///< system inlet override (C)
    std::optional<int> copiesPerApp;       ///< batch depth override
    std::optional<double> instrScale;      ///< instruction-volume scale
    std::optional<double> maxSimTime;      ///< simulation horizon (s)
    std::optional<double> dtmInterval;     ///< policy decision period (s)
    /// Remap decision period (s) for the traffic-remap policy family;
    /// must be >= the simulator window and a whole multiple of the
    /// effective dtm_interval at every grid point. Rejected for
    /// platform scenarios (no modeled traffic distribution to remap).
    std::optional<double> remapInterval;
    /// DTM-remap-hyst release band (C) below the TDPs. Rejected for
    /// platform scenarios.
    std::optional<double> remapHysteresis;
    std::optional<double> sensorNoiseSigma;
    std::optional<double> sensorQuant;
    std::optional<std::uint64_t> sensorSeed;

    std::vector<std::string> workloads; ///< registry names / "<app>x<n>"
    std::vector<std::string> policies;  ///< registry names

    /// Sweep axes; the grid is their cross product (empty = base value).
    /// An axis supersedes the matching scalar override. Values must be
    /// finite and free of duplicates (duplicates would collapse sweep
    /// points onto one result key).
    std::vector<MemoryOrgSpec> sweepMemoryOrg;
    std::vector<TrafficShapeSpec> sweepTrafficShape;
    std::vector<std::string> sweepCooling;
    std::vector<double> sweepTInlet;
    std::vector<int> sweepCopies;
    std::vector<double> sweepSensorNoise;
    std::vector<double> sweepDtmInterval;
    std::vector<std::string> sweepEmergencyLevels;
    std::vector<std::string> sweepDvfs;
    std::vector<RefreshSpec> sweepRefresh;
    std::vector<ThermalModelSpec> sweepThermalModel;

    bool operator==(const ScenarioSpec &) const = default;

    /**
     * Resolve every name and check sweep axes; FatalError (listing the
     * valid keys) on the first problem. lower() and runScenario()
     * validate implicitly.
     */
    void validate() const;

    /** Lower to the configuration grid and its engine run lists. */
    LoweredScenario lower() const;

    /** Serialize (omits unset optionals; lossless round-trip). */
    Json toJson() const;

    /** Parse; FatalError on unknown members, bad types, or bad names. */
    static ScenarioSpec fromJson(const Json &j);

    /** Load a scenario file. */
    static ScenarioSpec load(const std::string &path);

    /** Write a scenario file. */
    void save(const std::string &path) const;
};

/**
 * The keys of the sweep axes (`sweep.<key>`, each also a `config`
 * knob), in grid order: the first axis varies slowest, and point labels
 * list their coordinates in this order.
 */
const std::vector<std::string> &sweepAxisKeys();

/**
 * Results of a scenario: one SuiteResults per sweep point, in grid
 * order, keyed [workload][policy] exactly like runSuite(). A failed run
 * contributes a RunError instead of a suite entry — the rest of the
 * grid's results survive one bad run.
 */
struct ScenarioResults
{
    struct Point
    {
        std::string label;
        SuiteResults suite;
    };

    std::string scenario; ///< the spec's name
    std::vector<Point> points;
    std::vector<RunError> errors; ///< failed runs, in grid-index order
};

/**
 * Default prefix-sharing width on @p threads (>= 1) engine threads. A
 * chunk is one pool task, so it holds at most one thread's even share
 * of the runs (runs / threads, and no more than the widest class),
 * narrowed so each class splits evenly: whole classes on one thread.
 */
int defaultShareWidth(const std::vector<ExperimentEngine::RunClass> &classes,
                      int threads);

/**
 * The scenario layer's one execution path: flatten @p low's runs in
 * global grid order, apply MEMTHERM_FAULT_FAIL_RUN (a global run index
 * whose policy factory then throws, so it names the same run under
 * every shard and resume), keep the runs @p selected marks, restrict
 * each equivalence class to them and make one
 * ExperimentEngine::runBatched() call at @p batch_width (1 = unshared,
 * < 1 = defaultShareWidth() on @p engine's threads). Class membership
 * never changes a member's bits, so every width and selection gives
 * each run the bits of its unshared twin. @p sink receives global run
 * indices; @p stats, when non-null, accumulates the batch counters.
 */
void runLoweredScenario(const LoweredScenario &low, ExperimentEngine &engine,
                        const std::vector<bool> &selected, int batch_width,
                        RunSink &sink, BatchStats *stats = nullptr);

/**
 * Execute every run of a scenario through runLoweredScenario(). A run
 * that throws becomes a RunError in the returned results; every other
 * run's result is still delivered.
 */
ScenarioResults runScenario(const ScenarioSpec &spec,
                            ExperimentEngine &engine, int batch_width = 0,
                            BatchStats *stats = nullptr);

/** Convenience overload: a default-sized engine (MEMTHERM_THREADS). */
ScenarioResults runScenario(const ScenarioSpec &spec);

/**
 * Version of the result-document schema this binary writes. Version 1
 * is the historical member set (no `schema_version` member — every file
 * written before versioning reads as v1); version 2 added the per-DIMM
 * refresh fields (`refresh_bw_loss_per_dimm_gb` /
 * `refresh_energy_per_dimm_j`); version 3 added the per-bank fields of
 * the bank-grid thermal model (`bank_grid` / `peak_bank_dram_c`).
 * toJson(ScenarioResults) stamps the *minimum* version the document's
 * members imply — a top-level `schema_version` of 3 only when a v3-only
 * member is present, 2 when only v2-only members are, nothing for the
 * historical member set — so every document keeps its exact historical
 * bytes until it actually uses a newer field; JSONL stream headers
 * (core/sim/result_sink.hh) carry the binary's version unconditionally.
 */
inline constexpr int kResultSchemaVersion = 3;

/**
 * Effective schema version of a result document or stream header: the
 * `schema_version` member when present, else 1. FatalError when the
 * member is not a positive integer, or names a version newer than
 * @p max_version (the binary's kResultSchemaVersion by default; tests
 * pin older values to exercise the refusal) — a clear upgrade message
 * instead of a misparse. @p where prefixes the diagnostic (e.g. the
 * file path).
 */
int resultSchemaVersionOf(const Json &doc, const std::string &where,
                          int max_version = kResultSchemaVersion);

/**
 * Serialize results. @p traces includes the full temperature/power
 * traces (large); otherwise only scalar aggregates are emitted.
 */
Json toJson(const SimResult &r, bool traces = false);
/** toJson(r, traces) as text appended to @p out, without the tree; the
 *  bytes are identical to its dump(0) (one schema serves both). */
void writeJson(JsonTextWriter &out, const SimResult &r, bool traces = false);
Json toJson(const SuiteResults &r, bool traces = false);
Json toJson(const ScenarioResults &r, bool traces = false);

/**
 * A results document from its parts, in member order: `scenario`,
 * `schema_version` (only when @p schema_version > 1, the minimum
 * version the document's results imply), `points`, and `errors` (only
 * when non-empty). toJson(ScenarioResults) and mergeStreams() both
 * build through it, so a merged stream cannot drift from `run -o`.
 */
Json resultDocument(const std::string &scenario, int schema_version,
                    Json points, const std::vector<RunError> &errors);

} // namespace memtherm

#endif // MEMTHERM_CORE_SIM_SCENARIO_HH
