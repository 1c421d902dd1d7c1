/**
 * @file
 * The two-level thermal simulator (Section 4.3.1, Fig. 4.1).
 *
 * Level 1 (the paper's cycle-accurate M5 + FBDIMM simulator) is the
 * analytic performance model in src/cpu: for each 10 ms window it produces
 * the IPC and memory throughput of the current design point (active cores,
 * frequency/voltage, bandwidth cap). Level 2 ("MEMSpot") consumes those
 * windows: it evaluates the FBDIMM power model, advances the thermal RC
 * network and the ambient node, and invokes the DTM policy at every DTM
 * interval. Batch-job scheduling (N copies of each application, round-
 * robin core assignment, Section 4.3.2) lives here too.
 *
 * There is one window loop, runBatch(): one workload under K policies.
 * A trajectory (a Lane plus the policies riding on it) runs window by
 * window to its end. At a DTM decision where its policies' actions
 * differ, the lane is forked: each extra action gets a copy of the
 * pre-decision lane (an exact snapshot: thermal state, ambient node,
 * batch-job progress, sensor RNG position) with that action applied,
 * which waits on a worklist and continues from the same window later.
 * Every run therefore stays bit-identical to a from-scratch run of its
 * policy alone, and policies that never diverge (common on cool
 * operating points) share the entire simulation. run() is the K=1 call.
 */

#ifndef MEMTHERM_CORE_SIM_THERMAL_SIMULATOR_HH
#define MEMTHERM_CORE_SIM_THERMAL_SIMULATOR_HH

#include "common/rng.hh"
#include "core/dtm/dtm_policy.hh"
#include "core/sim/sim_config.hh"
#include "core/sim/sim_result.hh"
#include "core/thermal/ambient_model.hh"
#include "core/thermal/memory_thermal.hh"
#include "workloads/workload.hh"

namespace memtherm
{

/**
 * Counters of one batched execution (ThermalSimulator::runBatch, or a
 * whole grid via ExperimentEngine::runBatched). A "logical" window is a
 * window-step credited to a run; a "simulated" window is one actually
 * computed. Shared-prefix execution makes simulated <= logical; the gap
 * is the work saved.
 */
struct BatchStats
{
    double logicalWindows = 0.0;   ///< window-steps credited to runs
    double simulatedWindows = 0.0; ///< window-steps actually computed
    std::size_t forks = 0;         ///< lane forks (policy divergences)

    /** Fraction of logical windows served by a shared prefix. */
    double
    hitRate() const
    {
        return logicalWindows > 0.0
                   ? 1.0 - simulatedWindows / logicalWindows
                   : 0.0;
    }

    void
    add(const BatchStats &o)
    {
        logicalWindows += o.logicalWindows;
        simulatedWindows += o.simulatedWindows;
        forks += o.forks;
    }
};

/**
 * Per-run memo of the level-1 task inputs that are pure functions of an
 * application and a small integer: mpkiAtSharers(app.cache, s) for
 * s = 1..cores L2 sharers, and the time-slicing refill cost
 * switchMpki(app.refillLines, app.nominalGips, rotationSlice). A flat
 * table with one row per distinct app of the mix; each entry is computed
 * on its first use, so a panicIfNot in either function fires in the same
 * window and with the same text as an unmemoized call would (a bad
 * nominalGips still panics only in a run that time-shares). Entries are
 * the functions' own results, so the memo is bit-exact.
 */
class TaskInputTable
{
  public:
    /** Empty table for @p mix on @p cores cores. */
    TaskInputTable(const Workload &mix, int cores, Seconds rotation_slice);

    /** Row of @p app, which must be one of the mix's apps. */
    std::size_t row(const AppDescriptor *app) const;

    /** mpkiAtSharers(app.cache, sharers), 1 <= @p sharers <= cores. */
    double mpkiAt(std::size_t row, int sharers);

    /** switchMpki(app.refillLines, app.nominalGips, rotation slice). */
    double switchCost(std::size_t row);

  private:
    std::vector<const AppDescriptor *> apps; ///< distinct, one per row
    std::size_t cores;
    Seconds slice;
    // Not-yet-computed entries hold NaN (a NaN result is recomputed on
    // every use, which is still exact).
    std::vector<double> sharedMpki; ///< row-major, rows x cores
    std::vector<double> refillMpki; ///< one per row
};

/**
 * Runs one (workload, policy) experiment to batch completion.
 */
class ThermalSimulator
{
  public:
    explicit ThermalSimulator(SimConfig cfg);

    /**
     * Reusable working memory for run()/runBatch().
     *
     * The window loop executes up to maxSimTime / window (potentially
     * millions of) iterations; every per-window container lives here or
     * in the Lane, so the steady state performs no heap allocation.
     * Invariants:
     *  - the loop refills each buffer before reading it and never reads
     *    a value left over from a previous window or a previous run, so
     *    a Scratch may be reused across runs in any order;
     *  - the two things kept across runs are memos keyed by value on
     *    their full inputs: the bank-grid slopes (the grid, weights
     *    included, and the DIMM count, compared with ==) and the phase
     *    factors (an app's phase fields and the window length, compared
     *    bit for bit). A run is served only what was computed from
     *    inputs equal to its own, so reuse in any order still gives
     *    bit-identical results;
     *  - a Scratch must not be shared by two concurrent run() calls.
     *    The ExperimentEngine keeps one per worker thread (and a
     *    one-thread engine one for its inline calls), so a worker
     *    resolves each distinct grid's slopes and computes each phase
     *    profile's factors once for its life.
     *
     * Per-run state (core job slots, the schedule, thermal state, RNG,
     * the task-input memo, the refresh derating) lives in Lane, not
     * here, so lanes can be forked without touching the scratch and a
     * Scratch reused across configs never serves one run's inputs to
     * another.
     */
    struct Scratch
    {
        std::vector<double> activities;     ///< per-core activity factors
        WindowPerf perf;                    ///< level-1 window solution
        /// Bank-overlay slopes of the last grid run here, shared by
        /// every lane (and fork) built from equal inputs.
        BankSlopeMemo bankSlopes;
        /// Phase factors of every phase profile and window length run
        /// here; a lane's schedule holds its tasks' keys.
        PhaseFactorTable phases;
    };

    /**
     * Which program copies run in the current window, and every level-1
     * input of theirs that only an event changes. Rebuilt (windowPre)
     * at a retirement, at a rotation slice while cores time-share, and
     * when the DTM action's active-core count changes; otherwise each
     * window only rewrites the tasks' mpki from the phase table.
     */
    struct Schedule
    {
        /// One scheduled program copy.
        struct Entry
        {
            std::size_t slot = 0;  ///< its core slot
            int pool = -1;         ///< its batch pool index
            /// mpkiAtSharers at its L2 sharer count (TaskInputTable).
            double sharedMpki = 0.0;
            /// Its time-slicing refill mpki; used only when time-shared.
            double switchCost = 0.0;
            /// Its PhaseFactorTable key in the run's Scratch.
            std::size_t phase = PhaseFactorTable::kConstant;
        };

        bool stale = true;   ///< rebuild before the next window
        int activeCores = 0; ///< the action's count it was built for
        int nActive = 0;     ///< cores running (clamped to occupied)
        bool timeShared = false;
        std::vector<Entry> entries; ///< by ascending slot
        /// The level-1 window inputs, one per entry: the app's constant
        /// fields, mpki rewritten every window.
        std::vector<CoreTask> tasks;

        /** Room for @p cores entries, so rebuilds never allocate. */
        void reserve(std::size_t cores);
    };

    /**
     * The refresh feedback's current operating point: a function of
     * each DIMM's refresh band and of the traffic shares only, so it is
     * rebuilt (and the thermal model's refresh power set) only when one
     * of them changes, not every window.
     */
    struct RefreshDerating
    {
        bool stale = true;              ///< shares changed: rebuild
        std::vector<std::size_t> band;  ///< per-DIMM band index
        MemSystemPerf perf;             ///< the derated memory system
        std::vector<Watts> power;       ///< per-DIMM refresh power
        /// Per-DIMM addends of one window to the result's refresh
        /// bandwidth loss (GB) and refresh energy (J).
        std::vector<double> lossAdd;
        std::vector<double> energyAdd;
    };

    /**
     * The complete mutable state of one in-flight run: everything a
     * window-step reads or writes that belongs to the run rather than to
     * the shared scratch. It holds no pointer into itself (the job slots
     * are pool indices), so its implicit copy is an exact double-copy:
     * a forked lane continues bit-identically to the lane it was copied
     * from. Its schedule's phase keys refer to the Scratch of the
     * runBatch() call that built it.
     */
    struct Lane
    {
        /** Fresh run at t = 0; a bank grid's slopes come from
         *  @p slopes when given (see MemoryThermalModel). */
        Lane(const SimConfig &cfg, const Workload &mix,
             BankSlopeMemo *slopes = nullptr);

        SimResult res;
        BatchJob batch;
        /// Per-core job slots: batch pool indices, -1 for an idle core.
        std::vector<int> slot;
        Schedule sched;                          ///< this window's tasks
        TaskInputTable inputs;                   ///< level-1 input memo
        RefreshDerating derating; ///< refresh feedback (cfg.refresh only)
        AmbientModel ambient;
        MemoryThermalModel mem;
        Rng sensorRng;
        DtmAction action;
        ThermalReading reading;
        /// Pending migration-cost traffic (GB) from a remap decision,
        /// spent in the window that applied it.
        double remapBurstGb = 0.0;
        Seconds nextDtm = 0.0;
        Seconds nextRotation = 0.0;
        Seconds nextTrace = 0.0;
        std::size_t rotation = 0;
        /// A DTM decision landed in the window in progress (cleared by
        /// windowPost()).
        bool decided = false;
        Seconds t = 0.0;
        bool live = true; ///< batch unfinished and t < maxSimTime
        // Window-step intermediates carried from the pre phase (through
        // the temperature sweep) into the post phase.
        Watts pendingCpuPower = 0.0;
        Celsius pendingInlet = 0.0;
        GBps pendingRead = 0.0;
        GBps pendingWrite = 0.0;
    };

    /**
     * Simulate the workload's batch job under the policy. The policy is
     * reset() first; a fresh thermal state (idle at ambient) is used.
     * Allocates a private Scratch; prefer the Scratch overload when
     * running many experiments back to back.
     */
    SimResult run(const Workload &mix, DtmPolicy &policy) const;

    /** As run() above, but reusing caller-owned working memory: the
     *  one-policy runBatch(). */
    SimResult run(const Workload &mix, DtmPolicy &policy,
                  Scratch &scratch) const;

    /**
     * Simulate one workload under every policy in @p policies (all
     * reset() first), sharing the simulated prefix between runs whose
     * policies have made identical decisions so far. Returns one
     * SimResult per policy, in order; each is bit-identical to what
     * run(mix, *policies[i]) returns, whatever the order of
     * @p policies. @p stats, when non-null, is overwritten with this
     * batch's counters.
     *
     * The policies must be distinct objects (each receives its own
     * decide() stream) and there must be at least one.
     */
    std::vector<SimResult> runBatch(const Workload &mix,
                                    const std::vector<DtmPolicy *> &policies,
                                    Scratch &scratch,
                                    BatchStats *stats = nullptr) const;

    const SimConfig &config() const { return cfg; }

  private:
    /** Reserve every scratch buffer for the configured core count. */
    void reserveScratch(Scratch &scratch) const;

    /** Rebuild lane.sched from the slots, rotation and action. */
    void buildSchedule(Lane &lane, Scratch &scratch) const;

    /** Rebuild lane.derating from lane.derating.band and the shares;
     *  sets the thermal model's refresh power. */
    void buildDerating(Lane &lane) const;

    /** Read the sensors into lane.reading (consumes sensor RNG draws). */
    void senseLane(Lane &lane) const;

    /**
     * Apply a DTM decision to a lane: store the action, actuate a remap
     * if the action carries shares, advance the decision clock. At a
     * fork the same already-computed action is applied to the copied
     * lane, which must not re-run the policy.
     */
    void applyDecision(Lane &lane, const DtmAction &a) const;

    /**
     * The window step up to and including staging the thermal advance:
     * scheduling, level-1 solve, progress/retirement, power, ambient.
     * Leaves the lane's thermal model staged (stable targets written);
     * the caller commits the temperature sweep, then calls windowPost().
     */
    void windowPre(Lane &lane, Scratch &scratch) const;

    /** Finish the window: peaks/energy fold, traces, time advance;
     *  clears lane.decided. */
    void windowPost(Lane &lane) const;

    /** Fill the end-of-run summary fields of lane.res. */
    void finalizeLane(Lane &lane) const;

    SimConfig cfg;
};

} // namespace memtherm

#endif // MEMTHERM_CORE_SIM_THERMAL_SIMULATOR_HH
