/**
 * @file
 * Integration tests for the two-level thermal simulator.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "cache/miss_model.hh"
#include "common/logging.hh"
#include "common/rng.hh"
#include "core/sim/experiment.hh"
#include "core/sim/registry.hh"
#include "core/sim/scenario.hh"
#include "testbed/platform.hh"
#include "workloads/spec_catalog.hh"

namespace memtherm
{
namespace
{

/** A small but thermally meaningful configuration. */
SimConfig
smallConfig()
{
    SimConfig cfg = makeCh4Config(coolingAohs15(), false);
    cfg.copiesPerApp = 8;
    cfg.instrScale = 1.0;
    cfg.traceSample = 1.0;
    return cfg;
}

TEST(ThermalSimulator, NoLimitCompletesAndHeats)
{
    SimConfig cfg = smallConfig();
    ThermalSimulator sim(cfg);
    auto policy = makeCh4Policy("No-limit");
    SimResult r = sim.run(workloadMix("W1"), *policy);
    EXPECT_TRUE(r.completed);
    EXPECT_GT(r.runningTime, 50.0);
    // W1 is memory-hot: without DTM the AMB exceeds its TDP.
    EXPECT_GT(r.maxAmb, 110.0);
    EXPECT_GT(r.timeAboveAmbTdp, 0.0);
    EXPECT_GT(r.totalTrafficGB(), 100.0);
    EXPECT_GT(r.totalInstr, 1e11);
}

TEST(ThermalSimulator, DtmKeepsTemperatureAtOrBelowTdp)
{
    SimConfig cfg = smallConfig();
    ThermalSimulator sim(cfg);
    for (const char *name : {"DTM-TS", "DTM-BW", "DTM-ACG", "DTM-CDVFS"}) {
        auto policy = makeCh4Policy(name);
        SimResult r = sim.run(workloadMix("W1"), *policy);
        EXPECT_TRUE(r.completed) << name;
        // The DTM interval plus RC inertia allow only epsilon overshoot.
        EXPECT_LE(r.maxAmb, 110.05) << name;
        EXPECT_LE(r.maxDram, 85.05) << name;
    }
}

TEST(ThermalSimulator, DtmCostsTimeButSavesHeat)
{
    SimConfig cfg = smallConfig();
    ThermalSimulator sim(cfg);
    auto base = makeCh4Policy("No-limit");
    auto ts = makeCh4Policy("DTM-TS");
    SimResult rb = sim.run(workloadMix("W1"), *base);
    SimResult rt = sim.run(workloadMix("W1"), *ts);
    EXPECT_GT(rt.runningTime, rb.runningTime * 1.2);
    EXPECT_LT(rt.maxAmb, rb.maxAmb);
    // Same batch -> same instruction volume.
    EXPECT_NEAR(rt.totalInstr, rb.totalInstr, rb.totalInstr * 0.01);
}

TEST(ThermalSimulator, AcgReducesTraffic)
{
    SimConfig cfg = smallConfig();
    ThermalSimulator sim(cfg);
    auto ts = makeCh4Policy("DTM-TS");
    auto acg = makeCh4Policy("DTM-ACG");
    SimResult rt = sim.run(workloadMix("W1"), *ts);
    SimResult ra = sim.run(workloadMix("W1"), *acg);
    // Section 4.4.2: ACG cuts total memory traffic via fewer L2 misses
    // and runs faster than TS.
    EXPECT_LT(ra.totalTrafficGB(), rt.totalTrafficGB() * 0.95);
    EXPECT_LT(ra.runningTime, rt.runningTime);
    EXPECT_LT(ra.totalL2Misses, rt.totalL2Misses * 0.95);
}

TEST(ThermalSimulator, CdvfsSavesCpuEnergy)
{
    SimConfig cfg = smallConfig();
    ThermalSimulator sim(cfg);
    auto ts = makeCh4Policy("DTM-TS");
    auto cdvfs = makeCh4Policy("DTM-CDVFS");
    SimResult rt = sim.run(workloadMix("W1"), *ts);
    SimResult rc = sim.run(workloadMix("W1"), *cdvfs);
    EXPECT_LT(rc.cpuEnergy, rt.cpuEnergy * 0.80);
}

TEST(ThermalSimulator, BwBurnsCpuEnergy)
{
    // DTM-BW leaves the processor spinning at full speed (Section 4.4.3).
    SimConfig cfg = smallConfig();
    ThermalSimulator sim(cfg);
    auto ts = makeCh4Policy("DTM-TS");
    auto bw = makeCh4Policy("DTM-BW");
    SimResult rt = sim.run(workloadMix("W1"), *ts);
    SimResult rb = sim.run(workloadMix("W1"), *bw);
    EXPECT_GT(rb.cpuEnergy, rt.cpuEnergy * 1.2);
}

TEST(ThermalSimulator, IntegratedModelRunsHotter)
{
    // With CPU->memory coupling the same workload reaches emergency more
    // easily; the run takes longer under the same policy.
    SimConfig iso = smallConfig();
    SimConfig integ = makeCh4Config(coolingAohs15(), true);
    integ.copiesPerApp = iso.copiesPerApp;
    ThermalSimulator sim_iso(iso), sim_int(integ);
    auto p1 = makeCh4Policy("DTM-BW");
    auto p2 = makeCh4Policy("DTM-BW");
    SimResult r_iso = sim_iso.run(workloadMix("W5"), *p1);
    SimResult r_int = sim_int.run(workloadMix("W5"), *p2);
    // Integrated inlet rises above its 45C baseline.
    EXPECT_GT(r_int.inletTrace.max(), 47.0);
}

TEST(ThermalSimulator, TracesCoverRun)
{
    SimConfig cfg = smallConfig();
    ThermalSimulator sim(cfg);
    auto policy = makeCh4Policy("DTM-TS");
    SimResult r = sim.run(workloadMix("W6"), *policy);
    EXPECT_NEAR(r.ambTrace.duration(), r.runningTime, 2.0);
    EXPECT_GT(r.ambTrace.max(), 100.0);
    EXPECT_EQ(r.ambTrace.size(), r.cpuPowerTrace.size());
}

TEST(ThermalSimulator, EnergyEqualsPowerIntegral)
{
    SimConfig cfg = smallConfig();
    ThermalSimulator sim(cfg);
    auto policy = makeCh4Policy("DTM-BW");
    SimResult r = sim.run(workloadMix("W8"), *policy);
    // The 1 Hz CPU power trace integral must approximate the exact
    // accumulated energy.
    EXPECT_NEAR(r.cpuPowerTrace.integral(), r.cpuEnergy,
                0.02 * r.cpuEnergy);
}

TEST(ThermalSimulator, DeterministicRuns)
{
    SimConfig cfg = smallConfig();
    ThermalSimulator sim(cfg);
    auto p1 = makeCh4Policy("DTM-ACG");
    auto p2 = makeCh4Policy("DTM-ACG");
    SimResult a = sim.run(workloadMix("W3"), *p1);
    SimResult b = sim.run(workloadMix("W3"), *p2);
    EXPECT_DOUBLE_EQ(a.runningTime, b.runningTime);
    EXPECT_DOUBLE_EQ(a.totalTrafficGB(), b.totalTrafficGB());
    EXPECT_DOUBLE_EQ(a.memEnergy, b.memEnergy);
}

TEST(ThermalSimulator, ConfigValidation)
{
    SimConfig cfg = smallConfig();
    cfg.window = 0.02;
    cfg.dtmInterval = 0.01; // interval < window is invalid
    EXPECT_THROW(ThermalSimulator{cfg}, PanicError);
}

// --- the per-lane task-input table ----------------------------------------

bool
sameBits(double a, double b)
{
    return std::memcmp(&a, &b, sizeof a) == 0;
}

/** The message a call fails with ("" when it does not throw). */
std::string
panicText(const std::function<void()> &call)
{
    try {
        call();
    } catch (const PanicError &e) {
        return e.what();
    }
    return "";
}

/**
 * Every entry of @p table, read twice (first use, then the filled
 * entry), memcmp-equal to the direct call it memoizes.
 */
void
expectTableExact(TaskInputTable &table, const Workload &mix, int cores,
                 Seconds slice, const std::string &what)
{
    for (const AppDescriptor *app : mix.apps) {
        const std::size_t row = table.row(app);
        for (int pass = 0; pass < 2; ++pass) {
            for (int s = 1; s <= cores; ++s) {
                EXPECT_TRUE(sameBits(table.mpkiAt(row, s),
                                     mpkiAtSharers(app->cache, s)))
                    << what << ": " << app->name << " sharers " << s;
            }
            EXPECT_TRUE(sameBits(
                table.switchCost(row),
                switchMpki(app->refillLines, app->nominalGips, slice)))
                << what << ": " << app->name << " slice " << slice;
        }
    }
}

TEST(TaskInputTable, EveryCatalogAppMatchesDirectCalls)
{
    Workload all;
    all.name = "catalog";
    for (const AppDescriptor &app : SpecCatalog::instance().all())
        all.apps.push_back(&app);
    ASSERT_GE(all.apps.size(), 12u);
    for (Seconds slice : {0.001, 0.01, 0.1, 1.0}) {
        TaskInputTable table(all, 8, slice);
        expectTableExact(table, all, 8, slice,
                         "slice " + std::to_string(slice));
    }
}

TEST(TaskInputTable, LaneTablesMatchOnCh4AndCh5Configs)
{
    // Chapter 4: one L2 shared by all cores. Chapter 5: one L2 per
    // two-core socket (sharers 1..2), a 100 ms slice.
    SimConfig ch4 = makeCh4Config(coolingAohs15(), false);
    SimConfig ch5 = sr1500al().sim;
    ASSERT_FALSE(ch4.perSocketL2);
    ASSERT_TRUE(ch5.perSocketL2);
    for (const SimConfig *cfg : {&ch4, &ch5}) {
        for (const char *mix_name : {"W1", "W6", "W11"}) {
            const Workload mix = workloadMix(mix_name);
            ThermalSimulator::Lane lane(*cfg, mix);
            expectTableExact(lane.inputs, mix, cfg->nCores,
                             cfg->rotationSlice, mix_name);
            // A forked lane (a copy) carries the filled table.
            ThermalSimulator::Lane fork = lane;
            expectTableExact(fork.inputs, mix, cfg->nCores,
                             cfg->rotationSlice,
                             std::string(mix_name) + " fork");
        }
    }
}

/** W1 with one app replaced by @p bad (a modified copy of it). */
Workload
mixWith(const AppDescriptor &bad)
{
    Workload w = workloadMix("W1");
    w.name = "W1-bad";
    w.apps[1] = &bad;
    return w;
}

/** A short Chapter 4 run in which DTM-ACG gates cores: it time-shares. */
SimConfig
timeSharingConfig()
{
    SimConfig cfg = makeCh4Config(coolingAohs15(), false);
    cfg.copiesPerApp = 8;
    return cfg;
}

TEST(TaskInputTable, BadMissCurvePanicsWithTheDirectCallsMessage)
{
    AppDescriptor bad = *workloadMix("W1").apps[1];
    bad.cache.mpkiSolo = 0.0;
    const std::string want =
        panicText([&] { mpkiAtSharers(bad.cache, 4.0); });
    ASSERT_FALSE(want.empty());
    ThermalSimulator sim(timeSharingConfig());
    auto policy = makeCh4Policy("No-limit");
    EXPECT_EQ(panicText([&] { sim.run(mixWith(bad), *policy); }), want);
}

TEST(TaskInputTable, BadNominalGipsPanicsOnlyWhenTimeSharing)
{
    AppDescriptor bad = *workloadMix("W1").apps[1];
    bad.nominalGips = 0.0;
    const std::string want =
        panicText([&] { switchMpki(bad.refillLines, 0.0, 0.1); });
    ASSERT_FALSE(want.empty());
    ThermalSimulator sim(timeSharingConfig());
    // No-limit never gates a core, so the refill cost is never needed.
    auto no_limit = makeCh4Policy("No-limit");
    EXPECT_TRUE(sim.run(mixWith(bad), *no_limit).completed);
    auto acg = makeCh4Policy("DTM-ACG");
    EXPECT_EQ(panicText([&] { sim.run(mixWith(bad), *acg); }), want);
}

// --- bit pin of the window loop ------------------------------------------

std::uint64_t
fnv1a(const std::string &bytes, std::uint64_t h)
{
    for (unsigned char c : bytes) {
        h ^= c;
        h *= 0x100000001b3ULL;
    }
    return h;
}

TEST(ThermalSimulator, WindowLoopBitsArePinned)
{
    // The goldens compare at 1e-9, so a hot-path change that moves bits
    // can still pass them. This pins the exact bytes of the full result
    // documents, traces included, of a small grid: Chapter 4 W1-W2 under
    // the five Chapter 4 policies, a DTM-ACG run that time-shares (the
    // switchMpki path), and a Chapter 5 per-socket-L2 run. A deliberate
    // change of results updates the constant (the failure prints the new
    // one). The bytes also depend on the libm's pow, sin and exp; the
    // constant is from glibc on x86-64.
    std::uint64_t h = 0xcbf29ce484222325ULL;
    auto add = [&](const SimResult &r) {
        h = fnv1a(toJson(r, true).dump(), h);
    };

    SimConfig ch4 = makeCh4Config(coolingAohs15(), false);
    ch4.copiesPerApp = 1;
    ThermalSimulator sim4(ch4);
    for (const char *mix : {"W1", "W2"}) {
        for (const char *name :
             {"No-limit", "DTM-TS", "DTM-BW", "DTM-ACG", "DTM-CDVFS"}) {
            auto policy = makeCh4Policy(name);
            add(sim4.run(workloadMix(mix), *policy));
        }
    }

    ThermalSimulator shared(timeSharingConfig());
    auto acg = makeCh4Policy("DTM-ACG");
    add(shared.run(workloadMix("W1"), *acg));

    Platform p = sr1500al();
    p.sim.copiesPerApp = 1;
    ThermalSimulator sim5(p.sim);
    auto acg5 = makeCh5Policy(p, "DTM-ACG");
    add(sim5.run(workloadMix("W11"), *acg5));

    EXPECT_EQ(h, 0x3e93ca5faabeb16aULL) << std::hex << "0x" << h;
}

/** Seeded non-uniform heat shares: @p blocks blocks of @p cells, each
 *  summing to 1. */
std::vector<double>
seededBankWeights(std::uint64_t seed, int blocks, int cells)
{
    Rng rng(seed);
    std::vector<double> w(static_cast<std::size_t>(blocks) * cells);
    for (int b = 0; b < blocks; ++b) {
        double *block = w.data() + static_cast<std::size_t>(b) * cells;
        double sum = 0.0;
        for (int c = 0; c < cells; ++c)
            sum += block[c] = rng.uniform(0.1, 1.0);
        for (int c = 0; c < cells; ++c)
            block[c] /= sum;
    }
    return w;
}

std::unique_ptr<DtmPolicy>
registryPolicy(const std::string &name, const SimConfig &cfg)
{
    return PolicyRegistry::instance().make(
        name, PolicyBuildContext{cfg.dtmInterval, cfg.emergencyLevels,
                                 cfg.remapInterval, cfg.remapHysteresis,
                                 cfg.trafficShares});
}

TEST(ThermalSimulator, RefreshBankRemapBitsArePinned)
{
    // WindowLoopBitsArePinned for the paths its grid leaves out:
    // ddr2_2x refresh driven into its 2x band, a 32x32 bank grid with
    // seeded per-DIMM weights on a 4x8 organization, the remap
    // policies, a runBatch fork, and one Scratch reused across two
    // weight sets and two DIMM counts (its bank-slope memo must never
    // serve one grid's slopes to another). Same hash, same libm caveat.
    std::uint64_t h = 0xcbf29ce484222325ULL;
    auto add = [&](const SimResult &r) {
        h = fnv1a(toJson(r, true).dump(), h);
    };
    const Workload mix = workloadMix("W1");

    SimConfig cfg = makeCh4Config(coolingFdhs10(), false);
    cfg.ambient.tInlet = 46.0;
    cfg.org = MemoryOrgConfig{4, 8};
    cfg.refresh = refreshModelByName("ddr2_2x");
    cfg.trafficShares = {0.3, 0.1, 0.1, 0.1, 0.1, 0.1, 0.1, 0.1};
    cfg.copiesPerApp = 4;
    cfg.maxSimTime = 300.0;
    cfg.bankGrid = BankGridConfig{32, 32, seededBankWeights(31, 8, 1024)};

    ThermalSimulator::Scratch scratch;
    ThermalSimulator sim(cfg);
    Celsius hottest = 0.0;
    for (const char *name : {"No-limit", "DTM-remap", "DTM-TS+remap"}) {
        auto policy = registryPolicy(name, cfg);
        const SimResult r = sim.run(mix, *policy, scratch);
        hottest = std::max(hottest, r.maxDram);
        add(r);
    }
    EXPECT_GT(hottest, refreshModelByName("ddr2_2x").bands.back().minTemp)
        << "no run reached the 2x refresh band";

    std::vector<std::unique_ptr<DtmPolicy>> owned;
    std::vector<DtmPolicy *> lineup;
    for (const char *name : {"DTM-TS", "DTM-remap", "DTM-TS+remap"}) {
        owned.push_back(registryPolicy(name, cfg));
        lineup.push_back(owned.back().get());
    }
    BatchStats stats;
    for (const SimResult &r : sim.runBatch(mix, lineup, scratch, &stats))
        add(r);
    EXPECT_GE(stats.forks, 1u) << "the batch never forked";

    // A second weight set (one block every DIMM shares), the same grid
    // on four DIMMs, then the first grid again, all on one Scratch.
    SimConfig alike = cfg;
    alike.bankGrid->weights = seededBankWeights(32, 1, 1024);
    SimConfig four = alike;
    four.org = MemoryOrgConfig{4, 4};
    four.trafficShares = {0.4, 0.2, 0.2, 0.2};
    for (const SimConfig *c : {&alike, &four, &cfg}) {
        ThermalSimulator s(*c);
        auto policy = registryPolicy("DTM-TS+remap", *c);
        add(s.run(mix, *policy, scratch));
    }

    EXPECT_EQ(h, 0xf768524225e084bfULL) << std::hex << "0x" << h;
}

} // namespace
} // namespace memtherm
