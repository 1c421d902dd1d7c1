/**
 * @file
 * Unit and property tests for the analytic performance model.
 *
 * The solver's exactness layer compares it bit for bit against the
 * reference 60-step bisection it replaced, kept below as the oracle,
 * over seeded random task sets and named edge cases; the case count
 * scales with the MEMTHERM_FUZZ_CASES environment variable (default
 * 1000, 10000 in the CI sanitizer job). Every case derives from a fixed
 * seed, so a failure reproduces by case index.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "common/logging.hh"
#include "common/rng.hh"
#include "cpu/perf_model.hh"

namespace memtherm
{
namespace
{

constexpr double kInf = std::numeric_limits<double>::infinity();

CoreTask
streamTask()
{
    CoreTask t;
    t.cpiCore = 0.6;
    t.mpki = 40.0;
    t.writeFrac = 0.4;
    t.specFrac = 0.1;
    t.mlpOverlap = 0.84;
    return t;
}

CoreTask
computeTask()
{
    CoreTask t;
    t.cpiCore = 0.8;
    t.mpki = 0.2;
    t.writeFrac = 0.2;
    t.specFrac = 0.05;
    t.mlpOverlap = 0.5;
    return t;
}

TEST(PerfModel, EmptyTaskList)
{
    WindowPerf p = solvePerfWindow({}, 3.2, 3.2, kInf, {});
    EXPECT_TRUE(p.ips.empty());
    EXPECT_DOUBLE_EQ(p.totalRead + p.totalWrite, 0.0);
}

TEST(PerfModel, SingleTaskUnsaturated)
{
    MemSystemPerf mem;
    WindowPerf p = solvePerfWindow({streamTask()}, 3.2, 3.2, kInf, mem);
    ASSERT_EQ(p.ips.size(), 1u);
    EXPECT_GT(p.ips[0], 0.5e9);
    EXPECT_FALSE(p.saturated);
    // Latency stays near idle at low utilization.
    EXPECT_LT(p.latencyNs, mem.idleLatencyNs * 1.2);
}

TEST(PerfModel, ReadWriteSplitMatchesWriteFrac)
{
    CoreTask t = streamTask();
    t.specFrac = 0.0;
    WindowPerf p = solvePerfWindow({t}, 3.2, 3.2, kInf, {});
    EXPECT_NEAR(p.totalWrite / p.totalRead, t.writeFrac, 1e-9);
}

TEST(PerfModel, FourTasksSaturateChannel)
{
    MemSystemPerf mem;
    std::vector<CoreTask> tasks(4, streamTask());
    for (auto &t : tasks)
        t.mpki = 120.0;
    WindowPerf p = solvePerfWindow(tasks, 3.2, 3.2, kInf, mem);
    EXPECT_TRUE(p.saturated);
    double total = p.totalRead + p.totalWrite;
    EXPECT_LE(total, mem.peakBandwidth * mem.maxUtilization + 1e-6);
    // The queueing knee is soft: delivery approaches the cap from below.
    EXPECT_GT(total, mem.peakBandwidth * mem.maxUtilization * 0.85);
}

TEST(PerfModel, HardCapRespected)
{
    std::vector<CoreTask> tasks(4, streamTask());
    WindowPerf p = solvePerfWindow(tasks, 3.2, 3.2, 6.4, {});
    EXPECT_LE(p.totalRead + p.totalWrite, 6.4 + 1e-9);
    EXPECT_TRUE(p.saturated);
}

TEST(PerfModel, ThroughputMonotoneInCap)
{
    // Delivered throughput must be continuous and non-decreasing in the
    // cap — the regression that motivated the queueing fixed point.
    std::vector<CoreTask> tasks(4, streamTask());
    double prev = 0.0;
    for (double cap = 2.0; cap < 26.0; cap += 0.5) {
        WindowPerf p = solvePerfWindow(tasks, 3.2, 3.2, cap, {});
        double total = p.totalRead + p.totalWrite;
        EXPECT_GE(total, prev - 1e-6) << "cap " << cap;
        prev = total;
    }
}

TEST(PerfModel, ComputeTaskKeepsRateUnderContention)
{
    // A compute-bound task shares the window with three heavy streamers;
    // the streamers absorb the queueing latency.
    MemSystemPerf mem;
    std::vector<CoreTask> tasks(3, streamTask());
    for (auto &t : tasks)
        t.mpki = 60.0;
    tasks.push_back(computeTask());
    WindowPerf p = solvePerfWindow(tasks, 3.2, 3.2, 6.4, mem);
    WindowPerf solo = solvePerfWindow({computeTask()}, 3.2, 3.2, kInf, mem);
    EXPECT_GT(p.ips[3], 0.8 * solo.ips[0]);
    // Streamers lose far more.
    WindowPerf stream_solo =
        solvePerfWindow({tasks[0]}, 3.2, 3.2, kInf, mem);
    EXPECT_LT(p.ips[0], 0.5 * stream_solo.ips[0]);
}

TEST(PerfModel, MemoryOffStopsMissingTasks)
{
    std::vector<CoreTask> tasks{streamTask(), computeTask()};
    tasks[1].mpki = 0.0;
    WindowPerf p = solvePerfWindow(tasks, 3.2, 3.2, 0.0, {});
    EXPECT_DOUBLE_EQ(p.ips[0], 0.0);
    EXPECT_GT(p.ips[1], 0.0); // pure-compute task keeps running
    EXPECT_DOUBLE_EQ(p.totalRead + p.totalWrite, 0.0);
}

TEST(PerfModel, LowerFrequencyLowersDemand)
{
    std::vector<CoreTask> tasks(4, streamTask());
    WindowPerf fast = solvePerfWindow(tasks, 3.2, 3.2, kInf, {});
    WindowPerf slow = solvePerfWindow(tasks, 0.8, 3.2, kInf, {});
    EXPECT_LT(slow.totalRead + slow.totalWrite,
              fast.totalRead + fast.totalWrite);
    // ... but memory-bound work degrades sub-linearly with frequency.
    EXPECT_GT(slow.ips[0], 0.4 * fast.ips[0]);
}

TEST(PerfModel, SpeculativeTrafficScalesWithFrequency)
{
    CoreTask t = streamTask();
    t.writeFrac = 0.0;
    WindowPerf fast = solvePerfWindow({t}, 3.2, 3.2, kInf, {});
    WindowPerf slow = solvePerfWindow({t}, 1.6, 3.2, kInf, {});
    double fast_bpi = fast.totalRead * 1e9 / fast.ips[0];
    double slow_bpi = slow.totalRead * 1e9 / slow.ips[0];
    // Bytes per instruction shrink at lower frequency (fewer speculative
    // fetches) — the DTM-CDVFS traffic-reduction mechanism (Sec. 4.4.2).
    EXPECT_LT(slow_bpi, fast_bpi);
    EXPECT_NEAR(fast_bpi / slow_bpi, (1.0 + 0.1) / (1.0 + 0.05), 1e-6);
}

TEST(PerfModel, HigherMpkiMeansMoreTraffic)
{
    CoreTask lo = streamTask(), hi = streamTask();
    hi.mpki = lo.mpki * 2.0;
    WindowPerf a = solvePerfWindow({lo}, 3.2, 3.2, kInf, {});
    WindowPerf b = solvePerfWindow({hi}, 3.2, 3.2, kInf, {});
    EXPECT_GT(b.totalRead, a.totalRead);
    EXPECT_LT(b.ips[0], a.ips[0]);
}

TEST(PerfModel, InvalidArgsPanic)
{
    EXPECT_THROW(solvePerfWindow({streamTask()}, 0.0, 3.2, kInf, {}),
                 PanicError);
    EXPECT_THROW(solvePerfWindow({streamTask()}, 3.2, 1.6, kInf, {}),
                 PanicError);
    EXPECT_THROW(solvePerfWindow({streamTask()}, 3.2, 3.2, -1.0, {}),
                 PanicError);
}

/**
 * Property sweep: conservation — per-task traffic sums to the totals —
 * and positivity across a grid of operating points.
 */
class PerfSweep : public ::testing::TestWithParam<std::tuple<double, double>>
{
};

TEST_P(PerfSweep, ConservationAndBounds)
{
    auto [freq, cap] = GetParam();
    std::vector<CoreTask> tasks{streamTask(), streamTask(), computeTask(),
                                streamTask()};
    WindowPerf p = solvePerfWindow(tasks, freq, 3.2, cap, {});
    double sum = 0.0;
    for (GBps t : p.taskTraffic)
        sum += t;
    EXPECT_NEAR(sum, p.totalRead + p.totalWrite, 1e-9);
    for (double ips : p.ips) {
        EXPECT_GE(ips, 0.0);
        EXPECT_LT(ips, freq * 1e9 / 0.4); // bounded by core CPI
    }
    EXPECT_LE(p.totalRead + p.totalWrite, std::min(cap, 21.3) + 1e-9);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, PerfSweep,
    ::testing::Combine(::testing::Values(0.8, 1.6, 2.8, 3.2),
                       ::testing::Values(3.2, 6.4, 12.8, 19.2, 25.6)));

// --- exactness against the reference bisection --------------------------

/**
 * The solver as it was before the certified-bracket rewrite: a bracket
 * doubling plus a fixed 60-step bisection, evaluating the queueing map
 * 62 times per window. Its results define the model's outputs, so it is
 * kept verbatim as the test oracle.
 */
namespace oracle
{

struct Demand
{
    double ips = 0.0;
    GBps read = 0.0;
    GBps write = 0.0;
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
    return d;
}

GBps
totalDemand(const std::vector<CoreTask> &tasks, GHz f, GHz fmax,
            double latency_ns, const MemSystemPerf &mem)
{
    GBps total = 0.0;
    for (const auto &t : tasks) {
        Demand d = taskDemand(t, f, fmax, latency_ns, mem);
        total += d.read + d.write;
    }
    return total;
}

WindowPerf
solve(const std::vector<CoreTask> &tasks, GHz freq, GHz fmax, GBps cap,
      const MemSystemPerf &mem)
{
    WindowPerf out;
    if (tasks.empty())
        return out;
    GBps cap_eff = std::min(cap, mem.peakBandwidth * mem.maxUtilization);
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
        return out;
    }
    const double l0 = mem.idleLatencyNs;
    const double qk = mem.queueFactor;
    const double rho_max = 0.9999;
    auto implied = [&](double latency) {
        ++out.evaluations;
        double rho = std::min(
            totalDemand(tasks, freq, fmax, latency, mem) / cap_eff,
            rho_max);
        return l0 * (1.0 + qk * rho / (1.0 - rho));
    };
    double lo = l0;
    double hi = std::max(l0 * 2.0, implied(l0));
    while (hi < implied(hi) && hi < l0 * 1e7)
        hi *= 2.0;
    for (int i = 0; i < 60; ++i) {
        double mid = 0.5 * (lo + hi);
        if (mid < implied(mid)) {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    double l = hi;
    bool saturated =
        totalDemand(tasks, freq, fmax, l, mem) / cap_eff > 0.85;
    out.latencyNs = l;
    out.saturated = saturated;
    for (const auto &t : tasks) {
        Demand d = taskDemand(t, freq, fmax, l, mem);
        out.ips.push_back(d.ips);
        out.taskTraffic.push_back(d.read + d.write);
        out.totalRead += d.read;
        out.totalWrite += d.write;
    }
    return out;
}

} // namespace oracle

std::size_t
fuzzCases()
{
    if (const char *env = std::getenv("MEMTHERM_FUZZ_CASES")) {
        char *end = nullptr;
        const unsigned long v = std::strtoul(env, &end, 10);
        if (end && *end == '\0' && v > 0)
            return static_cast<std::size_t>(v);
    }
    return 1000;
}

bool
sameBits(double a, double b)
{
    return std::memcmp(&a, &b, sizeof a) == 0;
}

/** One level-1 solve's inputs. */
struct SolveCase
{
    std::vector<CoreTask> tasks;
    GHz freq = 3.2;
    GHz fmax = 3.2;
    GBps cap = kInf;
    MemSystemPerf mem;
};

/**
 * Every result field of the solver bit-identical to the oracle's.
 * `evaluations` is a work counter, not a result, and differs by design.
 */
void
expectMatchesOracle(const SolveCase &c, const std::string &what)
{
    WindowPerf want = oracle::solve(c.tasks, c.freq, c.fmax, c.cap, c.mem);
    WindowPerf got = solvePerfWindow(c.tasks, c.freq, c.fmax, c.cap, c.mem);
    EXPECT_TRUE(sameBits(got.latencyNs, want.latencyNs))
        << what << ": latency " << got.latencyNs << " vs oracle "
        << want.latencyNs;
    EXPECT_TRUE(sameBits(got.totalRead, want.totalRead)) << what;
    EXPECT_TRUE(sameBits(got.totalWrite, want.totalWrite)) << what;
    EXPECT_EQ(got.saturated, want.saturated) << what;
    ASSERT_EQ(got.ips.size(), want.ips.size()) << what;
    ASSERT_EQ(got.taskTraffic.size(), want.taskTraffic.size()) << what;
    for (std::size_t i = 0; i < want.ips.size(); ++i) {
        EXPECT_TRUE(sameBits(got.ips[i], want.ips[i]))
            << what << ": ips[" << i << "]";
        EXPECT_TRUE(sameBits(got.taskTraffic[i], want.taskTraffic[i]))
            << what << ": taskTraffic[" << i << "]";
    }
}

/** A random task with mpki from zero through tiny to extreme. */
CoreTask
randomTask(Rng &rng)
{
    CoreTask t;
    t.cpiCore = rng.uniform(0.3, 2.0);
    switch (rng.below(4)) {
      case 0: t.mpki = 0.0; break;
      case 1: t.mpki = rng.uniform(1e-9, 1e-6); break;
      case 2: t.mpki = rng.uniform(0.0, 60.0); break;
      default: t.mpki = rng.uniform(0.0, 2000.0); break;
    }
    t.writeFrac = rng.uniform(0.0, 1.0);
    t.specFrac = rng.uniform(0.0, 0.3);
    t.mlpOverlap = rng.uniform(0.0, 0.95);
    return t;
}

/**
 * 0-8 random tasks, queueFactor 0 to 3, idle latency and peak bandwidth
 * around the platform values (the refresh derating scales both), and a
 * cap that is unlimited, zero, just above the shutdown threshold, or in
 * the DTM range.
 */
SolveCase
randomCase(Rng &rng)
{
    SolveCase c;
    const std::size_t n = rng.below(9);
    for (std::size_t i = 0; i < n; ++i)
        c.tasks.push_back(randomTask(rng));
    c.fmax = 3.2;
    c.freq = rng.uniform(0.4, 3.2);
    c.mem.queueFactor = rng.below(4) == 0 ? 0.0 : rng.uniform(0.0, 3.0);
    c.mem.idleLatencyNs = rng.uniform(50.0, 200.0);
    c.mem.peakBandwidth = rng.uniform(5.0, 30.0);
    switch (rng.below(4)) {
      case 0: c.cap = kInf; break;
      case 1: c.cap = 0.0; break;
      case 2: c.cap = 1e-8; break;
      default: c.cap = rng.uniform(0.5, 25.0); break;
    }
    return c;
}

TEST(PerfModelExactness, RandomTaskSetsMatchReferenceBitForBit)
{
    Rng rng(0x5eedULL);
    const std::size_t cases = 20 * fuzzCases();
    for (std::size_t i = 0; i < cases; ++i) {
        expectMatchesOracle(randomCase(rng), "case " + std::to_string(i));
        if (HasFailure())
            return;
    }
}

TEST(PerfModelExactness, EdgeCasesMatchReferenceBitForBit)
{
    const MemSystemPerf mem;
    const double cap_eff = mem.peakBandwidth * mem.maxUtilization;
    std::vector<CoreTask> streams(4, streamTask());

    // Unsaturated: one light task, latency just above idle.
    SolveCase light{{computeTask()}, 3.2, 3.2, kInf, mem};
    EXPECT_FALSE(oracle::solve(light.tasks, 3.2, 3.2, kInf, mem).saturated);
    expectMatchesOracle(light, "unsaturated");

    // Cap-limited: four streamers under a DTM cap.
    SolveCase capped{streams, 3.2, 3.2, 6.4, mem};
    EXPECT_TRUE(oracle::solve(streams, 3.2, 3.2, 6.4, mem).saturated);
    expectMatchesOracle(capped, "cap-limited");

    // The rho_max clamp binds at the root: demand there still exceeds
    // 0.9999 of the cap.
    SolveCase clamped{streams, 3.2, 3.2, 0.05, mem};
    {
        WindowPerf ref = oracle::solve(streams, 3.2, 3.2, 0.05, mem);
        EXPECT_GE(ref.totalRead + ref.totalWrite, 0.9999 * 0.05);
    }
    expectMatchesOracle(clamped, "rho_max clamp");

    // Shutdown: the cap is at or below the 1e-9 GB/s threshold.
    for (GBps cap : {0.0, 1e-9, 5e-10}) {
        SolveCase off{streams, 3.2, 3.2, cap, mem};
        off.tasks.push_back(computeTask());
        off.tasks.back().mpki = 0.0;
        EXPECT_TRUE(std::isinf(solvePerfWindow(off.tasks, 3.2, 3.2, cap,
                                               mem).latencyNs));
        expectMatchesOracle(off, "shutdown cap " + std::to_string(cap));
    }

    // Zero demand: implied(L0) == L0, so the root is the idle latency.
    std::vector<CoreTask> idle(3, computeTask());
    for (auto &t : idle)
        t.mpki = 0.0;
    EXPECT_EQ(impliedLatency(idle, 3.2, 3.2, kInf, mem, mem.idleLatencyNs),
              mem.idleLatencyNs);
    expectMatchesOracle({idle, 3.2, 3.2, kInf, mem}, "zero demand");
    expectMatchesOracle({idle, 3.2, 3.2, 6.4, mem}, "zero demand capped");

    // The L0 * 1e7 bracket ceiling: a queue factor so steep, and a cap
    // so low, that the clamped root lies past it.
    MemSystemPerf steep = mem;
    steep.queueFactor = 2000.0;
    SolveCase ceiling{streams, 3.2, 3.2, 1e-8, steep};
    EXPECT_GT(oracle::solve(streams, 3.2, 3.2, 1e-8, steep).latencyNs,
              steep.idleLatencyNs * 1e7);
    expectMatchesOracle(ceiling, "ceiling");

    // Zero queue factor: the latency is pinned at idle.
    MemSystemPerf flat = mem;
    flat.queueFactor = 0.0;
    expectMatchesOracle({streams, 3.2, 3.2, 6.4, flat}, "zero queueFactor");

    // Demand exactly at the cap's edge, across frequencies.
    for (GHz f : {0.8, 1.6, 2.4, 3.2})
        expectMatchesOracle({streams, f, 3.2, cap_eff, mem},
                            "cap_eff at " + std::to_string(f) + " GHz");
}

TEST(PerfModelExactness, FallbackFillsMatchReferenceBitForBit)
{
    // The fill reuses the last narrowing trial when the replay ends on
    // it. These windows must evaluate the fill instead, and their
    // evaluation counts show the path each takes.
    const MemSystemPerf mem;

    // Zero demand: the first trial is not below the root, so there is
    // no narrowing trial at all.
    CoreTask idle = computeTask();
    idle.mpki = 0.0;
    SolveCase zero{{idle}, 3.2, 3.2, kInf, mem};
    EXPECT_EQ(solvePerfWindow(zero.tasks, 3.2, 3.2, kInf, mem).evaluations,
              1);
    expectMatchesOracle(zero, "fallback fill: zero demand");

    // Unclosed bracket: a queue factor so extreme that the first
    // bracket [L0, implied(L0)] runs from 105 to about 3e305, and the
    // 64 narrowing steps leave it open (1 + 64 evaluations).
    MemSystemPerf steep = mem;
    steep.queueFactor = 1e306;
    SolveCase unclosed{{computeTask()}, 3.2, 3.2, kInf, steep};
    EXPECT_EQ(
        solvePerfWindow(unclosed.tasks, 3.2, 3.2, kInf, steep).evaluations,
        65);
    expectMatchesOracle(unclosed, "fallback fill: unclosed bracket");

    // The same on a wide channel: the bracket stays open around a root
    // near 4e282, and the replay evaluates its midpoints (every
    // evaluation past the 65 the narrowing can make).
    MemSystemPerf wide = steep;
    wide.queueFactor = 1e304;
    wide.peakBandwidth = 1e6;
    SolveCase midpoints{{streamTask()}, 3.2, 3.2, kInf, wide};
    EXPECT_GT(solvePerfWindow(midpoints.tasks, 3.2, 3.2, kInf, wide)
                  .evaluations,
              65);
    expectMatchesOracle(midpoints, "fallback fill: replay midpoints");
}

TEST(PerfModelExactness, RootsAtPowersOfTwoMatchReference)
{
    // The replay's early exit reasons about binades, and a root on a
    // binade boundary is where the bisection's ends straddle one longest.
    // For each load shape, find the idle latency whose root is the
    // boundary (the root rises with L0), then step L0 a double at a time
    // so the roots land on both sides of it.
    std::vector<CoreTask> light{computeTask()};
    std::vector<CoreTask> streams(4, streamTask());
    struct Shape
    {
        const char *name;
        std::vector<CoreTask> tasks;
        GBps cap;
    };
    for (const Shape &shape :
         {Shape{"unsaturated", light, kInf}, Shape{"capped", streams, 6.4},
          Shape{"clamped", streams, 0.05}}) {
        MemSystemPerf mem;
        auto root = [&](double l0) {
            mem.idleLatencyNs = l0;
            return solvePerfWindow(shape.tasks, 3.2, 3.2, shape.cap, mem)
                .latencyNs;
        };
        // The first three powers of two the root can reach (it is at
        // least L0, so L0 = target overshoots).
        const double first = std::exp2(std::floor(std::log2(root(1.0))) + 1);
        for (double target : {first, 2 * first, 4 * first}) {
            double lo = 1.0, hi = target;
            for (int i = 0; i < 200; ++i) {
                double mid = 0.5 * (lo + hi);
                (root(mid) < target ? lo : hi) = mid;
            }
            int below = 0, at_or_above = 0;
            double l0 = hi;
            for (int k = 0; k < 300; ++k)
                l0 = std::nextafter(l0, 0.0);
            for (int k = 0; k < 600; ++k) {
                l0 = std::nextafter(l0, kInf);
                mem.idleLatencyNs = l0;
                (root(l0) < target ? below : at_or_above) += 1;
                expectMatchesOracle({shape.tasks, 3.2, 3.2, shape.cap, mem},
                                    std::string(shape.name) + " near " +
                                        std::to_string(target));
            }
            EXPECT_GT(below, 0) << shape.name << " " << target;
            EXPECT_GT(at_or_above, 0) << shape.name << " " << target;
            if (HasFailure())
                return;
        }
    }
}

/**
 * Four tasks with Table 4.1-like characteristics under the default
 * memory system, unlimited or under a 2-12 GB/s DTM cap, at the four
 * DVFS levels: the shape of the Chapter 4 windows.
 */
SolveCase
ch4LikeCase(Rng &rng)
{
    SolveCase c;
    for (int i = 0; i < 4; ++i) {
        CoreTask t;
        t.cpiCore = rng.uniform(0.45, 1.2);
        t.mpki = rng.uniform(0.5, 55.0);
        t.writeFrac = rng.uniform(0.15, 0.45);
        t.specFrac = rng.uniform(0.05, 0.15);
        t.mlpOverlap = rng.uniform(0.55, 0.87);
        c.tasks.push_back(t);
    }
    c.freq = 0.8 * static_cast<double>(1 + rng.below(4));
    c.cap = rng.below(2) == 0 ? kInf : rng.uniform(2.0, 12.0);
    return c;
}

TEST(PerfModelWork, EvaluationsPerSolveOnCh4LikeWindows)
{
    // The reference makes 62 evaluations per window (bracket start, one
    // doubling test, 60 midpoints); the certified bracket leaves the
    // replay almost nothing to evaluate. The counter is deterministic,
    // so this bound is exact, not a timing.
    Rng rng(0xc4ULL);
    const std::size_t cases = 10 * fuzzCases();
    double sum = 0.0;
    for (std::size_t i = 0; i < cases; ++i) {
        SolveCase c = ch4LikeCase(rng);
        WindowPerf p = solvePerfWindow(c.tasks, c.freq, c.fmax, c.cap, c.mem);
        ASSERT_GE(p.evaluations, 1);
        sum += p.evaluations;
        if (i < 16) {
            EXPECT_EQ(oracle::solve(c.tasks, c.freq, c.fmax, c.cap, c.mem)
                          .evaluations,
                      62);
            expectMatchesOracle(c, "ch4 case " + std::to_string(i));
        }
    }
    const double mean = sum / static_cast<double>(cases);
    EXPECT_LE(mean, 8.0) << "mean evaluations per solve";
}

TEST(PerfModelWork, DegenerateWindowsCountTheirEvaluations)
{
    EXPECT_EQ(solvePerfWindow({}, 3.2, 3.2, kInf, {}).evaluations, 0);
    EXPECT_EQ(solvePerfWindow({streamTask()}, 3.2, 3.2, 0.0, {}).evaluations,
              0);
    // Zero demand: the first evaluation certifies the root at L0.
    CoreTask idle = computeTask();
    idle.mpki = 0.0;
    EXPECT_EQ(solvePerfWindow({idle}, 3.2, 3.2, kInf, {}).evaluations, 1);
}

// --- the monotone predicate the replay relies on -------------------------

/** Bit pattern of a non-negative double; ordered like the doubles. */
std::uint64_t
orderedBits(double x)
{
    std::uint64_t u;
    std::memcpy(&u, &x, sizeof u);
    return u;
}

double
fromOrderedBits(std::uint64_t u)
{
    double x;
    std::memcpy(&x, &u, sizeof x);
    return x;
}

/**
 * The replay takes "L < implied(L)" as decided everywhere outside the
 * certified bracket, which holds because the predicate is monotone in
 * floating point. The test finds the double where it flips (bisecting
 * bit patterns between just below L0, where it holds, and the solved
 * latency, where it fails) and walks the 64 doubles either side: it
 * must flip exactly once. The narrowing steps work in exactly this
 * neighbourhood, where rounding noise would show.
 */
TEST(PerfModelMonotone, PredicateFlipsOnceAroundTheRoot)
{
    Rng rng(0x40707ULL);
    const std::size_t cases = fuzzCases();
    std::size_t walked = 0;
    for (std::size_t i = 0; i < cases; ++i) {
        SolveCase c = randomCase(rng);
        WindowPerf p = solvePerfWindow(c.tasks, c.freq, c.fmax, c.cap, c.mem);
        // The map is only evaluated above the shutdown threshold.
        if (c.tasks.empty() || std::isinf(p.latencyNs))
            continue;
        auto holds = [&](double latency) {
            return latency < impliedLatency(c.tasks, c.freq, c.fmax, c.cap,
                                            c.mem, latency);
        };
        std::uint64_t lo = orderedBits(std::nextafter(c.mem.idleLatencyNs, 0.0));
        std::uint64_t hi = orderedBits(p.latencyNs);
        ASSERT_TRUE(holds(fromOrderedBits(lo))) << "case " << i;
        ASSERT_FALSE(holds(fromOrderedBits(hi))) << "case " << i;
        while (hi - lo > 1) {
            std::uint64_t mid = lo + (hi - lo) / 2;
            (holds(fromOrderedBits(mid)) ? lo : hi) = mid;
        }
        int flips = 0;
        bool prev = holds(fromOrderedBits(hi - 64));
        EXPECT_TRUE(prev) << "case " << i << ": 64 ULP below the flip";
        for (std::uint64_t u = hi - 63; u <= hi + 64; ++u) {
            bool now = holds(fromOrderedBits(u));
            flips += now != prev;
            prev = now;
        }
        EXPECT_FALSE(prev) << "case " << i << ": 64 ULP above the flip";
        EXPECT_EQ(flips, 1) << "case " << i;
        ++walked;
        if (HasFailure())
            return;
    }
    EXPECT_GT(walked, cases / 2);
}

TEST(PerfModelMonotone, ImpliedLatencyNeverRisesWithLatency)
{
    Rng rng(0x9a125ULL);
    const std::size_t cases = 10 * fuzzCases();
    for (std::size_t i = 0; i < cases; ++i) {
        SolveCase c = randomCase(rng);
        if (c.cap <= 1e-9)
            continue; // shutdown: the solver never evaluates the map
        const double l0 = c.mem.idleLatencyNs;
        double x = l0 * std::exp(rng.uniform(0.0, 12.0));
        double y = rng.below(2) == 0 ? std::nextafter(x, kInf)
                                     : l0 * std::exp(rng.uniform(0.0, 12.0));
        if (y < x)
            std::swap(x, y);
        const double ix =
            impliedLatency(c.tasks, c.freq, c.fmax, c.cap, c.mem, x);
        const double iy =
            impliedLatency(c.tasks, c.freq, c.fmax, c.cap, c.mem, y);
        ASSERT_GE(ix, iy) << "case " << i << ": implied(" << x << ") < implied("
                          << y << ")";
        // Hence the predicate can only go from true to false.
        ASSERT_FALSE(y < iy && !(x < ix)) << "case " << i;
    }
}

} // namespace
} // namespace memtherm
