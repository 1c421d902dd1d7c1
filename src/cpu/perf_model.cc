#include "cpu/perf_model.hh"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <span>

#include "common/logging.hh"

namespace memtherm
{

namespace
{

constexpr double rhoMax = 0.9999;  ///< utilization clamp of the queueing map

/**
 * std::nextafter(@p x, @p to), as a bit step when @p x is positive and
 * finite (every bracket end the solver steps from a physical window);
 * other values take the library call. Consecutive positive doubles have
 * consecutive bit patterns, so the step is exact.
 */
inline double
nextToward(double x, double to)
{
    if (x > 0.0 && x < std::numeric_limits<double>::infinity()) {
        const auto bits = std::bit_cast<std::uint64_t>(x);
        if (to > x)
            return std::bit_cast<double>(bits + 1);
        if (to < x)
            return std::bit_cast<double>(bits - 1);
    }
    return std::nextafter(x, to);
}

/**
 * A task's demand terms that do not depend on the latency, computed once
 * per window, each by the same operation on the same operands as the
 * matching subexpression of the reference evaluation, so every trial
 * sees the same bits; and the task's rate and traffic at the latest
 * trial and at the kept one. QueueingMap writes each task's entry whole
 * when it is built; no member initializers, so the unused stack slots
 * of a TermStore cost nothing.
 */
struct TaskTerms
{
    double mpkiK;      ///< mpki / 1000
    double keep;       ///< 1 - mlpOverlap: the share of a miss not hidden
    double readScale;  ///< 1 + specFrac * (f / fmax): fills + speculation
    double stallPerNs; ///< mpki / 1000 * f * (1 - mlpOverlap) = dcpi/dL
    double ips;
    GBps traffic;
    double keptIps;
    GBps keptTraffic;
};

/**
 * Storage for one window's TaskTerms, on the stack up to 16 tasks (more
 * cores than any modelled platform); larger task sets spill to the heap.
 */
class TermStore
{
  public:
    std::span<TaskTerms>
    take(std::size_t n)
    {
        if (n <= local.size())
            return {local.data(), n};
        spill.resize(n);
        return spill;
    }

  private:
    std::array<TaskTerms, 16> local;
    std::vector<TaskTerms> spill;
};

/** The queueing map evaluated at one trial latency. */
struct Trial
{
    double latency = 0.0;
    GBps total = 0.0;     ///< total demand D(latency)
    GBps read = 0.0;      ///< read part of the total, summed per task
    GBps write = 0.0;     ///< write part of the total, summed per task
    double slope = 0.0;   ///< dD / d(latency); model-step trials only
    double implied = 0.0; ///< L0 * (1 + k * rho / (1 - rho))

    /** The solve's predicate: the root lies above this trial. */
    bool below() const { return latency < implied; }
};

/**
 * One window's fixed-point problem. at() is the only place the map is
 * evaluated: the model steps, the replay and the fill all go through
 * it, so every one of them sees the same bits.
 */
struct QueueingMap
{
    QueueingMap(const std::vector<CoreTask> &tasks, GHz freq, GHz fmax,
                GBps cap_eff, const MemSystemPerf &mem,
                std::span<TaskTerms> terms)
        : tasks(tasks), freq(freq), fHz(freq * 1e9), capEff(cap_eff),
          mem(mem), terms(terms)
    {
        const double f_rel = freq / fmax;
        for (std::size_t i = 0; i < tasks.size(); ++i) {
            const CoreTask &t = tasks[i];
            const double mpki_k = t.mpki / 1000.0;
            const double keep = 1.0 - t.mlpOverlap;
            terms[i] = TaskTerms{.mpkiK = mpki_k,
                                 .keep = keep,
                                 .readScale = 1.0 + t.specFrac * f_rel,
                                 .stallPerNs = mpki_k * freq * keep,
                                 .ips = 0.0,
                                 .traffic = 0.0,
                                 .keptIps = 0.0,
                                 .keptTraffic = 0.0};
        }
    }

    /**
     * Evaluate at @p latency_ns, leaving each task's rate and traffic
     * in its terms; with @p Slope, also the demand slope, which only
     * the model steps read.
     */
    template <bool Slope>
    Trial
    at(double latency_ns)
    {
        Trial t;
        t.latency = latency_ns;
        for (std::size_t i = 0; i < tasks.size(); ++i) {
            const CoreTask &task = tasks[i];
            TaskTerms &k = terms[i];
            const double cpi =
                task.cpiCore + k.mpkiK * latency_ns * freq * k.keep;
            k.ips = fHz / cpi;
            // Misses per second, as bytes on the channel.
            const double miss_bytes =
                k.ips * task.mpki / 1000.0 * mem.lineBytes;
            const GBps read = miss_bytes * k.readScale / bytesPerGB;
            const GBps write = miss_bytes * task.writeFrac / bytesPerGB;
            k.traffic = read + write;
            t.total += k.traffic;
            t.read += read;
            t.write += write;
            // Traffic is proportional to 1/cpi, and cpi is linear in
            // latency.
            if constexpr (Slope)
                t.slope += -k.traffic * k.stallPerNs / cpi;
        }
        const double rho = std::min(t.total / capEff, rhoMax);
        t.implied = mem.idleLatencyNs *
                    (1.0 + mem.queueFactor * rho / (1.0 - rho));
        return t;
    }

    /** Keep trial @p t, the latest evaluated, with its per-task values. */
    void
    keep(const Trial &t)
    {
        kept = t;
        for (TaskTerms &k : terms) {
            k.keptIps = k.ips;
            k.keptTraffic = k.traffic;
        }
    }

    /**
     * Write each task's rate and traffic at @p latency_ns, and their
     * totals, into @p out; returns the total demand. The kept trial
     * supplies them when it was made at exactly this latency; otherwise
     * the map is evaluated here.
     */
    GBps
    fill(double latency_ns, WindowPerf &out)
    {
        if (latency_ns != kept.latency)
            keep(at<false>(latency_ns));
        out.ips.reserve(tasks.size());
        out.taskTraffic.reserve(tasks.size());
        for (const TaskTerms &k : terms) {
            out.ips.push_back(k.keptIps);
            out.taskTraffic.push_back(k.keptTraffic);
        }
        out.totalRead = kept.read;
        out.totalWrite = kept.write;
        return kept.total;
    }

    const std::vector<CoreTask> &tasks;
    GHz freq;
    double fHz; ///< freq * 1e9
    GBps capEff;
    const MemSystemPerf &mem;
    std::span<TaskTerms> terms;
    /// The kept trial (latency NaN until one is kept).
    Trial kept{std::numeric_limits<double>::quiet_NaN()};
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
narrowBracket(QueueingMap &map, Trial t, double &below, double &above,
              int &evaluations)
{
    constexpr double inf = std::numeric_limits<double>::infinity();
    for (int step = 0; step < 64 && nextToward(below, inf) < above;
         ++step) {
        double x = proposeLatency(map, t);
        if (x >= above)
            x = nextToward(above, 0.0);
        else if (x <= below && t.latency == below)
            x = nextToward(below, inf);
        if (!(below < x && x < above))
            x = 0.5 * (below + above);
        t = map.at<true>(x);
        ++evaluations;
        if (t.below()) {
            below = x;
        } else {
            // The fill's candidate: the replay most often ends here.
            above = x;
            map.keep(t);
        }
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
    TermStore store;
    return QueueingMap(tasks, freq, fmax, effectiveCap(cap, mem), mem,
                       store.take(tasks.size()))
        .at<false>(latency_ns)
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
    TermStore store;
    QueueingMap map(tasks, freq, fmax, cap_eff, mem,
                    store.take(tasks.size()));
    const double l0 = mem.idleLatencyNs;
    const Trial first = map.at<true>(l0);
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
        return map.at<false>(latency).below();
    };

    // The reference bisection, replayed: same bracket growth, same 60
    // midpoints, so the same double comes out. With the bracket closed
    // to adjacent doubles, lo <= below < above <= hi throughout, so once
    // the bisection is sure to settle on adjacent doubles within its
    // remaining steps, those are below and above, every later midpoint
    // rounds onto one of them, and it ends at above.
    const bool closed = nextToward(below, above) == above;
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
    out.saturated = map.fill(hi, out) / cap_eff > 0.85;
}

} // namespace memtherm
