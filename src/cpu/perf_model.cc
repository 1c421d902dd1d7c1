#include "cpu/perf_model.hh"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>

#include "common/logging.hh"

namespace memtherm
{

namespace
{

constexpr double rhoMax = 0.9999;  ///< utilization clamp of the queueing map

/** Per-task demand at a given effective latency. */
struct Demand
{
    double ips = 0.0;
    GBps read = 0.0;
    GBps write = 0.0;
    double slope = 0.0;  ///< d(read + write) / d(latency_ns)
};

Demand
taskDemand(const CoreTask &t, GHz f, GHz fmax, double latency_ns,
           const MemSystemPerf &mem)
{
    double stall_cpi =
        t.mpki / 1000.0 * latency_ns * f * (1.0 - t.mlpOverlap);
    double cpi = t.cpiCore + stall_cpi;
    Demand d;
    d.ips = f * 1e9 / cpi;
    double miss_rate = d.ips * t.mpki / 1000.0; // misses per second
    double spec = t.specFrac * (f / fmax);
    d.read = miss_rate * mem.lineBytes * (1.0 + spec) / bytesPerGB;
    d.write = miss_rate * mem.lineBytes * t.writeFrac / bytesPerGB;
    // Traffic is proportional to 1/cpi, and cpi is linear in latency.
    double stall_per_ns = t.mpki / 1000.0 * f * (1.0 - t.mlpOverlap);
    d.slope = -(d.read + d.write) * stall_per_ns / cpi;
    return d;
}

/** The queueing map evaluated at one trial latency. */
struct Trial
{
    double latency = 0.0;
    GBps total = 0.0;     ///< total demand D(latency)
    double slope = 0.0;   ///< dD / d(latency)
    double implied = 0.0; ///< L0 * (1 + k * rho / (1 - rho))

    /** The solve's predicate: the root lies above this trial. */
    bool below() const { return latency < implied; }
};

/**
 * One window's fixed-point problem. at() is the only place the map is
 * evaluated: the model steps, the replay and the final fill all go
 * through it, so every one of them sees the same bits.
 */
struct QueueingMap
{
    const std::vector<CoreTask> &tasks;
    GHz freq;
    GHz fmax;
    GBps capEff;
    const MemSystemPerf &mem;

    /**
     * Evaluate at @p latency_ns; with @p out set, also append each
     * task's rate and traffic to it.
     */
    Trial
    at(double latency_ns, WindowPerf *out = nullptr) const
    {
        Trial t;
        t.latency = latency_ns;
        for (const auto &task : tasks) {
            Demand d = taskDemand(task, freq, fmax, latency_ns, mem);
            t.total += d.read + d.write;
            t.slope += d.slope;
            if (out) {
                out->ips.push_back(d.ips);
                out->taskTraffic.push_back(d.read + d.write);
                out->totalRead += d.read;
                out->totalWrite += d.write;
            }
        }
        double rho = std::min(t.total / capEff, rhoMax);
        t.implied = mem.idleLatencyNs *
                    (1.0 + mem.queueFactor * rho / (1.0 - rho));
        return t;
    }
};

GBps
effectiveCap(GBps cap, const MemSystemPerf &mem)
{
    // The physical channel saturates below its raw peak (scheduling and
    // bank-conflict losses); a DTM traffic cap, however, is an exact
    // budget enforced by row-activation counting (Section 5.2.1).
    return std::min(cap, mem.peakBandwidth * mem.maxUtilization);
}

/**
 * Next trial latency proposed from trial @p t. Far from the root,
 * R(L) = cap_eff / D(L) is nearly linear in L (exactly so for one task,
 * whose demand is a / (c + b * L)), so with R replaced by its tangent
 * the fixed point L = L0 * (1 + k * rho / (1 - rho)), rho = 1 / R,
 * becomes the quadratic (L - L0) * (R(L) - 1) = k * L0, solved in
 * closed form. R is concave, so the step lands at or below the
 * unclamped root. Within rounding of the root R - 1 cancels, so there
 * the step is Newton on the computed residual L - implied(L) instead.
 * Proposals only choose which trials are made, never the result.
 */
double
proposeLatency(const QueueingMap &map, const Trial &t)
{
    const double l0 = map.mem.idleLatencyNs;
    const double qk = map.mem.queueFactor;
    const double residual = t.latency - t.implied;
    if (std::fabs(residual) < 1e-10 * t.latency) {
        // d implied / dL; zero where the clamp holds rho fixed.
        double rho = t.total / map.capEff;
        double di = rho < rhoMax ? l0 * qk / ((1.0 - rho) * (1.0 - rho)) *
                                       t.slope / map.capEff
                                 : 0.0;
        return t.latency - residual / (1.0 - di);
    }
    const double r = map.capEff / t.total;
    const double dr = -r * t.slope / t.total;
    // A v^2 + B v - C = 0 in v = L - L0, taking the positive root in
    // its cancellation-free form.
    const double a = dr;
    const double b = r - dr * (t.latency - l0) - 1.0;
    const double c = qk * l0;
    const double disc = std::sqrt(b * b + 4.0 * a * c);
    return l0 + (b >= 0.0 ? 2.0 * c / (b + disc) : (disc - b) / (2.0 * a));
}

/**
 * Narrow the certified bracket — the predicate holds at @p below and
 * fails at @p above — towards adjacent doubles, starting from trial
 * @p t. A step that leaves the bracket means the model has converged to
 * within rounding of an end, so the root is the next double inside it;
 * the exception is a step below the bracket from a trial at its top,
 * which says nothing about the root, so it bisects (as does a NaN
 * step). Each trial lands strictly inside, so the bracket shrinks every
 * step; the step bound only caps the work, since the replay decides
 * whatever the bracket leaves open.
 */
void
narrowBracket(const QueueingMap &map, Trial t, double &below,
              double &above, int &evaluations)
{
    constexpr double inf = std::numeric_limits<double>::infinity();
    for (int step = 0; step < 64 && std::nextafter(below, inf) < above;
         ++step) {
        double x = proposeLatency(map, t);
        if (x >= above)
            x = std::nextafter(above, 0.0);
        else if (x <= below && t.latency == below)
            x = std::nextafter(below, inf);
        if (!(below < x && x < above))
            x = 0.5 * (below + above);
        t = map.at(x);
        ++evaluations;
        (t.below() ? below : above) = x;
    }
}

/**
 * Whether a bisection of [@p lo, @p hi] reaches adjacent doubles within
 * @p steps steps; answered only for the case it can be decided without
 * running it, lo and hi in one binade. There the doubles are the
 * multiples of one spacing, and the midpoint 0.5 * (lo + hi) rounds to
 * within half a spacing of the real one, so a step leaves at most
 * ceil(n / 2) of the n spacings between the ends, and the midpoint stays
 * in the binade: ceil(log2 n) steps reach adjacent doubles.
 */
bool
settlesWithin(double lo, double hi, int steps)
{
    const auto a = std::bit_cast<std::uint64_t>(lo);
    const auto b = std::bit_cast<std::uint64_t>(hi);
    return (a >> 52) == (b >> 52) && a < b &&
           std::bit_width(b - a - 1) <= static_cast<unsigned>(steps);
}

/** Reset an out-param WindowPerf, keeping its vectors' capacity. */
void
clearPerf(WindowPerf &out)
{
    out.ips.clear();
    out.taskTraffic.clear();
    out.totalRead = 0.0;
    out.totalWrite = 0.0;
    out.latencyNs = 0.0;
    out.saturated = false;
    out.evaluations = 0;
}

} // namespace

WindowPerf
solvePerfWindow(const std::vector<CoreTask> &tasks, GHz freq, GHz fmax,
                GBps cap, const MemSystemPerf &mem)
{
    WindowPerf out;
    solvePerfWindow(tasks, freq, fmax, cap, mem, out);
    return out;
}

double
impliedLatency(const std::vector<CoreTask> &tasks, GHz freq, GHz fmax,
               GBps cap, const MemSystemPerf &mem, double latency_ns)
{
    return QueueingMap{tasks, freq, fmax, effectiveCap(cap, mem), mem}
        .at(latency_ns)
        .implied;
}

void
solvePerfWindow(const std::vector<CoreTask> &tasks, GHz freq, GHz fmax,
                GBps cap, const MemSystemPerf &mem, WindowPerf &out)
{
    panicIfNot(freq > 0.0 && fmax >= freq, "solvePerfWindow: bad frequency");
    panicIfNot(cap >= 0.0, "solvePerfWindow: negative bandwidth cap");

    clearPerf(out);
    if (tasks.empty())
        return;

    GBps cap_eff = effectiveCap(cap, mem);

    // Memory fully shut down: tasks with misses make no progress.
    if (cap_eff <= 1e-9) {
        out.latencyNs = std::numeric_limits<double>::infinity();
        out.saturated = true;
        for (const auto &t : tasks) {
            if (t.mpki <= 0.0) {
                out.ips.push_back(freq * 1e9 / t.cpiCore);
            } else {
                out.ips.push_back(0.0);
            }
            out.taskTraffic.push_back(0.0);
        }
        return;
    }

    // Self-consistent queueing fixed point: the effective miss latency is
    //   L = L0 * (1 + k * rho / (1 - rho)),  rho = D(L) / cap_eff
    // D(L) is strictly decreasing in L, so
    //   f(L) = L - L0 * (1 + k * rho(L) / (1 - rho(L)))
    // is strictly increasing and has a unique root. Delivered throughput
    // is continuous in demand: far below saturation L ~= L0; when demand
    // exceeds the cap, rho -> 1 and delivery approaches the cap from
    // below, with memory-bound tasks absorbing the queueing latency while
    // compute-bound tasks keep their rate.
    const QueueingMap map{tasks, freq, fmax, cap_eff, mem};
    const double l0 = mem.idleLatencyNs;
    const Trial first = map.at(l0);
    out.evaluations = 1;

    // Certified bracket: the predicate holds at every point <= below and
    // fails at every point >= above. If it holds at L0, implied(L0) is
    // an upper end, since implied(implied(L0)) <= implied(L0); otherwise
    // it fails from L0 on.
    double below = -std::numeric_limits<double>::infinity();
    double above = l0;
    if (first.below()) {
        below = l0;
        above = first.implied;
        narrowBracket(map, first, below, above, out.evaluations);
    }
    auto holds = [&](double latency) {
        if (latency <= below)
            return true;
        if (latency >= above)
            return false;
        ++out.evaluations;
        return map.at(latency).below();
    };

    // The reference bisection, replayed: same bracket growth, same 60
    // midpoints, so the same double comes out. With the bracket closed
    // to adjacent doubles, lo <= below < above <= hi throughout, so once
    // the bisection is sure to settle on adjacent doubles within its
    // remaining steps, those are below and above, every later midpoint
    // rounds onto one of them, and it ends at above.
    const bool closed = std::nextafter(below, above) == above;
    double lo = l0;
    double hi = std::max(l0 * 2.0, first.implied);
    while (holds(hi) && hi < l0 * 1e7)
        hi *= 2.0;
    for (int i = 0; i < 60; ++i) {
        if (closed && settlesWithin(lo, hi, 60 - i)) {
            hi = above;
            break;
        }
        double mid = 0.5 * (lo + hi);
        if (holds(mid)) {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    out.latencyNs = hi;
    out.ips.reserve(tasks.size());
    out.taskTraffic.reserve(tasks.size());
    out.saturated = map.at(hi, &out).total / cap_eff > 0.85;
}

} // namespace memtherm
