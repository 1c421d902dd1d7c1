/**
 * @file
 * Analytic multicore performance model — the level-1 simulator substitute.
 *
 * The paper's first-level (cycle-accurate M5 + FBDIMM) simulator produces,
 * for every workload and design point, per-10ms-window traces of IPC and
 * memory throughput. This model produces the same quantities analytically:
 *
 *   cycles/instr = cpiCore + (mpki/1000) * L_ns * f_GHz * (1 - mlpOverlap)
 *
 * where the effective memory latency L is the idle latency when the memory
 * system is unsaturated, and otherwise the unique latency at which total
 * demanded throughput equals the sustainable bandwidth — memory-bound
 * tasks absorb the queueing latency, compute-bound tasks keep their rate,
 * which is the qualitative behavior of a real bandwidth-shared memory
 * system.
 *
 * The latency is the fixed point of the queueing map impliedLatency().
 * The result is defined as what a fixed 60-step bisection of
 * "L < implied(L)" returns, and the solver returns that exact double
 * while evaluating the map about 5 times per window on Chapter 4-like
 * inputs instead of 62:
 *
 *   - Certified bracket. Every operation in the map is a correctly
 *     rounded, monotone floating-point operation, so the predicate
 *     "L < implied(L)" is monotone in floating point, not only in the
 *     reals: a bracket [below, above] where it holds at `below` and
 *     fails at `above` decides it at every point outside the bracket.
 *     The first evaluation, at the idle latency L0, already gives one:
 *     [L0, implied(L0)].
 *   - Model steps narrow the bracket to adjacent doubles: a local
 *     quadratic model far from the root (bandwidth/demand is nearly
 *     linear in L), then Newton on the computed residual, with the
 *     demand slope from the same per-task sweep.
 *   - Bisection replay. The reference bisection then runs unchanged —
 *     same bracket growth, same 60 midpoints — but evaluates the map
 *     only at midpoints strictly inside the bracket (after a full
 *     narrowing there are none). Every predicate outcome equals the
 *     reference's, so every midpoint, and the returned latency, is
 *     bit-identical to it. Once the bisection's ends share a binade
 *     and the remaining steps are enough to close them onto the
 *     bracket's two adjacent doubles, its result is known to be the
 *     upper one, and the replay stops there.
 *   - Per-window constants. The terms of a task's demand that do not
 *     depend on the latency (mpki / 1000, 1 - mlpOverlap, f * 1e9,
 *     1 + specFrac * (f / fmax) and the stall per ns) are computed once
 *     per window, each by the same operation on the same operands as
 *     the reference's subexpression, so they have the same bits.
 *     Everything left keeps the reference's order:
 *     (ips * mpki) / 1000 and the two / bytesPerGB stay divisions, since
 *     a multiply by a rounded reciprocal, or a reordered product, would
 *     round differently.
 *   - The demand slope feeds only the model steps, so only the
 *     narrowing trials compute it; the replay and the fill never read
 *     it.
 *   - Reused fill. The result's per-task rates and traffic are the map
 *     evaluated at the returned latency. When that latency is the
 *     bracket's upper end and the end is a narrowing trial (every
 *     solved window of the Chapter 4 and 5 grids), that trial already
 *     computed them, through the same code at the same latency, so it
 *     supplies them bit for bit; otherwise (zero demand, an open
 *     bracket, a replay that ends elsewhere) the fill is evaluated. The
 *     fill is never counted in WindowPerf::evaluations.
 *
 * Monotonicity, and with it exactness, holds for physical inputs:
 * non-negative mpki, writeFrac, specFrac, queueFactor and lineBytes,
 * positive cpiCore, mlpOverlap <= 1.
 */

#ifndef MEMTHERM_CPU_PERF_MODEL_HH
#define MEMTHERM_CPU_PERF_MODEL_HH

#include <vector>

#include "common/units.hh"

namespace memtherm
{

/**
 * Per-core task characteristics for one simulation window. The caller
 * (workload layer) folds cache-sharing and time-slice effects into mpki.
 */
struct CoreTask
{
    double cpiCore = 0.6;     ///< core cycles/instr excluding L2 misses
    double mpki = 10.0;       ///< effective L2 misses per kilo-instruction
    double writeFrac = 0.3;   ///< writeback bytes per fill byte
    double specFrac = 0.1;    ///< speculative read traffic fraction @fmax
    double mlpOverlap = 0.7;  ///< fraction of miss latency hidden by MLP
};

/** Memory-system characteristics seen by the performance model. */
struct MemSystemPerf
{
    double idleLatencyNs = 105.0;  ///< unloaded L2-miss round trip
    GBps peakBandwidth = 21.3;     ///< sustainable combined read+write
    double maxUtilization = 0.92;  ///< fraction of peak reachable
    double queueFactor = 0.015;     ///< latency growth: 1 + k*rho/(1-rho)
    double lineBytes = 64.0;       ///< L2 line (transfer unit)
};

/** Solved performance of one window. */
struct WindowPerf
{
    std::vector<double> ips;        ///< instructions/second per task
    std::vector<GBps> taskTraffic;  ///< read+write throughput per task
    GBps totalRead = 0.0;
    GBps totalWrite = 0.0;
    double latencyNs = 0.0;         ///< effective memory latency used
    bool saturated = false;         ///< bandwidth constraint was binding
    /// Evaluations of the queueing map the solve made (the reference
    /// 60-step bisection makes 62); deterministic, so a host-independent
    /// measure of level-1 solver work per window.
    int evaluations = 0;
};

/**
 * Solve one window.
 *
 * @param tasks   running tasks (one per active core); may be empty
 * @param freq    current core frequency (GHz)
 * @param fmax    reference (maximum) frequency (GHz)
 * @param cap     bandwidth cap imposed by DTM (GB/s); use +inf for none
 *                and 0 for a fully shut-down memory (no task progress
 *                unless a task has mpki == 0)
 * @param mem     memory-system characteristics
 */
WindowPerf solvePerfWindow(const std::vector<CoreTask> &tasks, GHz freq,
                           GHz fmax, GBps cap, const MemSystemPerf &mem);

/**
 * Allocation-free variant of solvePerfWindow(): clears and refills
 * @p out in place, reusing its vectors' capacity. The simulator's window
 * loop calls this once per window with a scratch WindowPerf so the
 * steady state does not touch the heap.
 */
void solvePerfWindow(const std::vector<CoreTask> &tasks, GHz freq,
                     GHz fmax, GBps cap, const MemSystemPerf &mem,
                     WindowPerf &out);

/**
 * The queueing map whose fixed point solvePerfWindow() finds:
 * L0 * (1 + k * rho / (1 - rho)), rho = min(D(L) / cap_eff, 0.9999),
 * where D(L) is the tasks' total demand at latency @p latency_ns and
 * cap_eff = min(cap, peak * maxUtilization) — defined for cap_eff above
 * the solver's 1e-9 GB/s shutdown threshold. The solver evaluates
 * exactly this function; it is exposed so tests can pin that
 * "L < impliedLatency(L)" stays monotone in floating point, which the
 * solver's exactness rests on.
 */
double impliedLatency(const std::vector<CoreTask> &tasks, GHz freq,
                      GHz fmax, GBps cap, const MemSystemPerf &mem,
                      double latency_ns);

} // namespace memtherm

#endif // MEMTHERM_CPU_PERF_MODEL_HH
