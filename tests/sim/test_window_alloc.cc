/**
 * @file
 * Pins the allocation-free window loop: once a run is set up, stepping
 * a window performs no heap allocation, on the scalar run() path, on
 * the batched runBatch() path (shared prefix plus forks), and with
 * refresh feedback, the per-bank grid and traffic remapping enabled.
 *
 * Every configuration runs twice, for N and 2N windows (maxSimTime 50
 * and 100 s, the default 50 copies per app so the batch never finishes
 * first). Set-up costs the same in both runs, so the difference is
 * what the extra N windows allocated. Only the sampled traces still
 * grow (one vector reallocation per trace per doubling), so the
 * difference must stay under a small constant per result. A check that
 * built a heap string per call would add tens of allocations per
 * window, hundreds of thousands in all.
 *
 * Two events may still allocate, because they build new state rather
 * than step the loop: a batched fork (a new Lane), and a remap
 * migration, whose DtmAction returns the new share vector by value (at
 * most one per remap interval, 100 windows by default).
 */

#include <gtest/gtest.h>

#include <cstddef>
#include <memory>
#include <string>
#include <vector>

#include "../common/alloc_counter.hh"
#include "core/sim/experiment.hh"
#include "core/sim/registry.hh"

namespace memtherm
{
namespace
{

using test::allocationsDuring;

constexpr Seconds kShortRun = 50.0; // N = 5000 windows
constexpr Seconds kLongRun = 100.0; // 2N

/// Allowed growth per result when the window count doubles: one
/// reallocation for each of the five sampled traces, plus headroom.
constexpr long kSlackPerResult = 8;

/** No-limit plus the Chapter 4 lineup with its PID variants. */
std::vector<std::string>
ch4Lineup()
{
    std::vector<std::string> names{"No-limit"};
    for (const std::string &n : ch4PolicyNames())
        names.push_back(n);
    return names;
}

PolicyBuildContext
contextOf(const SimConfig &cfg)
{
    return PolicyBuildContext{cfg.dtmInterval, cfg.emergencyLevels,
                              cfg.remapInterval, cfg.remapHysteresis,
                              cfg.trafficShares};
}

/** Allocations of one scalar run() of @p policy_name for @p max_time. */
long
scalarRunAllocations(SimConfig cfg, const std::string &policy_name,
                     Seconds max_time)
{
    cfg.maxSimTime = max_time;
    ThermalSimulator sim(cfg);
    ThermalSimulator::Scratch scratch;
    const Workload mix = workloadMix("W1");
    auto policy = PolicyRegistry::instance().make(policy_name,
                                                  contextOf(cfg));
    SimResult r;
    const std::size_t n = allocationsDuring(
        [&] { r = sim.run(mix, *policy, scratch); });
    EXPECT_FALSE(r.completed) << policy_name << ": batch finished early";
    EXPECT_GE(r.runningTime, max_time - cfg.window) << policy_name;
    return static_cast<long>(n);
}

/**
 * Doubling the window count of every @p names run adds nothing beyond
 * the trace slack and @p event_allowance.
 */
void
expectScalarWindowsAllocationFree(const SimConfig &cfg,
                                  const std::vector<std::string> &names,
                                  long event_allowance = 0)
{
    for (const std::string &name : names) {
        // Warm-up: one-time static initialization lands here, not in
        // the measured pair.
        scalarRunAllocations(cfg, name, kShortRun);
        const long n = scalarRunAllocations(cfg, name, kShortRun);
        const long n2 = scalarRunAllocations(cfg, name, kLongRun);
        EXPECT_LE(n2 - n, kSlackPerResult + event_allowance)
            << name << ": " << n << " allocations for 5000 windows, "
            << n2 << " for 10000";
    }
}

TEST(WindowAlloc, ScalarRunEveryCh4Policy)
{
    expectScalarWindowsAllocationFree(makeCh4Config(coolingAohs15(), false),
                                      ch4Lineup());
}

/**
 * Refresh feedback (per-DIMM band lookup every window), an 8x8 bank
 * grid on a 4x8 organization, and remap policies that migrate traffic
 * shares at their decision period. Each migration may allocate its
 * action's share vector (one per remap boundary at most); every other
 * window must allocate nothing.
 */
TEST(WindowAlloc, ScalarRunRefreshBankGridRemap)
{
    SimConfig cfg = makeCh4Config(coolingAohs15(), false);
    cfg.org = MemoryOrgConfig{4, 8};
    cfg.bankGrid = BankGridConfig{8, 8, {}};
    cfg.refresh = refreshModelByName("ddr2_2x");
    const long extra_remap_boundaries =
        static_cast<long>((kLongRun - kShortRun) / cfg.remapInterval);
    expectScalarWindowsAllocationFree(
        cfg, {"No-limit", "DTM-TS", "DTM-remap", "DTM-TS+remap"},
        extra_remap_boundaries);
}

struct BatchAllocs
{
    long allocations = 0;
    std::size_t forks = 0;
};

BatchAllocs
batchRunAllocations(SimConfig cfg, Seconds max_time)
{
    cfg.maxSimTime = max_time;
    ThermalSimulator sim(cfg);
    ThermalSimulator::Scratch scratch;
    const Workload mix = workloadMix("W1");
    std::vector<std::unique_ptr<DtmPolicy>> policies;
    std::vector<DtmPolicy *> ptrs;
    for (const std::string &name : ch4Lineup()) {
        policies.push_back(
            PolicyRegistry::instance().make(name, contextOf(cfg)));
        ptrs.push_back(policies.back().get());
    }
    BatchStats stats;
    std::vector<SimResult> out;
    const std::size_t n = allocationsDuring(
        [&] { out = sim.runBatch(mix, ptrs, scratch, &stats); });
    for (const SimResult &r : out)
        EXPECT_FALSE(r.completed) << r.policy << ": batch finished early";
    return {static_cast<long>(n), stats.forks};
}

/**
 * The batched path: the whole lineup on one worklist of trajectories,
 * each run to its end, with noisy sensors, so the shared lane forks and
 * every decision window partitions the members of each group.
 */
TEST(WindowAlloc, RunBatchFullLineupNoisySensors)
{
    SimConfig cfg = makeCh4Config(coolingAohs15(), false);
    cfg.sensorNoiseSigma = 0.25;
    cfg.sensorSeed = 20261018;

    batchRunAllocations(cfg, kShortRun); // warm-up
    const BatchAllocs n = batchRunAllocations(cfg, kShortRun);
    const BatchAllocs n2 = batchRunAllocations(cfg, kLongRun);
    ASSERT_GE(n.forks, 1u) << "the batch never forked";
    // Forks copy a lane and may allocate; the comparison is like for
    // like only if the longer run forked no more often.
    ASSERT_EQ(n.forks, n2.forks);
    const long results = static_cast<long>(ch4Lineup().size());
    EXPECT_LE(n2.allocations - n.allocations, kSlackPerResult * results)
        << n.allocations << " allocations for 5000 windows, "
        << n2.allocations << " for 10000";
}

} // namespace
} // namespace memtherm
