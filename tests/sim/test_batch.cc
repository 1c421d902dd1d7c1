/**
 * @file
 * Tests for shared-prefix execution: the ThermalBatchState field arrays,
 * exact copies of the thermal model and of a simulator lane (the fork
 * primitive), fork-from-snapshot bit-identity for every registered
 * policy family (including mid-run remap share state and the
 * sensor-noise RNG stream position), independence from the policy
 * order, chunked engine execution and its window counters, failure
 * isolation, equivalence-class derivation, and scenario-level
 * batched-vs-scalar equality.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/logging.hh"
#include "core/sim/engine.hh"
#include "core/sim/registry.hh"
#include "core/sim/scenario.hh"
#include "core/thermal/memory_thermal.hh"
#include "core/thermal/thermal_batch.hh"

namespace memtherm
{
namespace
{

/**
 * A configuration that exercises every batching hazard at once: noisy
 * sensors (the fork must preserve the RNG stream position), a skewed
 * traffic shape plus a remap period (the remap family migrates shares
 * mid-run), and a batch small enough to finish fast.
 */
SimConfig
batchyConfig()
{
    SimConfig cfg = makeCh4Config(coolingAohs15(), false);
    cfg.copiesPerApp = 2;
    cfg.sensorNoiseSigma = 0.3;
    cfg.sensorSeed = 20260808;
    cfg.trafficShares = {0.55, 0.25, 0.12, 0.08};
    cfg.remapInterval = 0.25;
    return cfg;
}

PolicyBuildContext
contextOf(const SimConfig &cfg)
{
    return PolicyBuildContext{cfg.dtmInterval, cfg.emergencyLevels,
                              cfg.remapInterval, cfg.remapHysteresis,
                              cfg.trafficShares};
}

/** Exact (bitwise) equality of two results, traces included. */
void
expectIdentical(const SimResult &a, const SimResult &b)
{
    EXPECT_EQ(a.workload, b.workload);
    EXPECT_EQ(a.policy, b.policy);
    EXPECT_EQ(a.completed, b.completed);
    EXPECT_EQ(a.runningTime, b.runningTime);
    EXPECT_EQ(a.totalInstr, b.totalInstr);
    EXPECT_EQ(a.totalReadGB, b.totalReadGB);
    EXPECT_EQ(a.totalWriteGB, b.totalWriteGB);
    EXPECT_EQ(a.totalL2Misses, b.totalL2Misses);
    EXPECT_EQ(a.memEnergy, b.memEnergy);
    EXPECT_EQ(a.cpuEnergy, b.cpuEnergy);
    EXPECT_EQ(a.maxAmb, b.maxAmb);
    EXPECT_EQ(a.maxDram, b.maxDram);
    EXPECT_EQ(a.timeAboveAmbTdp, b.timeAboveAmbTdp);
    EXPECT_EQ(a.timeAboveDramTdp, b.timeAboveDramTdp);
    EXPECT_EQ(a.peakAmbPerDimm, b.peakAmbPerDimm);
    EXPECT_EQ(a.peakDramPerDimm, b.peakDramPerDimm);
    EXPECT_EQ(a.avgPowerPerDimm, b.avgPowerPerDimm);
    EXPECT_EQ(a.refreshBwLossPerDimm, b.refreshBwLossPerDimm);
    EXPECT_EQ(a.refreshEnergyPerDimm, b.refreshEnergyPerDimm);
    EXPECT_EQ(a.bankGridX, b.bankGridX);
    EXPECT_EQ(a.bankGridZ, b.bankGridZ);
    EXPECT_EQ(a.peakBankDramPerDimm, b.peakBankDramPerDimm);
    EXPECT_EQ(a.ambTrace.values(), b.ambTrace.values());
    EXPECT_EQ(a.dramTrace.values(), b.dramTrace.values());
    EXPECT_EQ(a.inletTrace.values(), b.inletTrace.values());
    EXPECT_EQ(a.cpuPowerTrace.values(), b.cpuPowerTrace.values());
    EXPECT_EQ(a.bwTrace.values(), b.bwTrace.values());
}

TEST(ThermalBatchState, InitSetsEveryField)
{
    ThermalBatchState st(4);
    EXPECT_EQ(st.dimms(), 4);
    EXPECT_EQ(st.bankCells(), 0);
    st.init(10.0, 2.0, 42.0);
    for (int i = 0; i < 4; ++i) {
        EXPECT_EQ(st.ambTemp()[i], 42.0);
        EXPECT_EQ(st.dramTemp()[i], 42.0);
        EXPECT_EQ(st.peakAmb()[i], 42.0);
        EXPECT_EQ(st.peakDram()[i], 42.0);
        EXPECT_EQ(st.energy()[i], 0.0);
    }
    EXPECT_EQ(st.energyTime(), 0.0);
}

TEST(ThermalBatchState, AdvanceMatchesExponentialStep)
{
    ThermalBatchState st(2);
    st.init(10.0, 2.0, 50.0);
    st.stableAmb()[0] = 90.0;
    st.stableAmb()[1] = 70.0;
    st.stableDram()[0] = 80.0;
    st.stableDram()[1] = 60.0;
    const Seconds dt = 0.5;
    st.ensureDecay(dt);
    st.advance();
    const double da = 1.0 - std::exp(-dt / 10.0);
    const double dd = 1.0 - std::exp(-dt / 2.0);
    EXPECT_EQ(st.ambTemp()[0], 50.0 + (90.0 - 50.0) * da);
    EXPECT_EQ(st.ambTemp()[1], 50.0 + (70.0 - 50.0) * da);
    EXPECT_EQ(st.dramTemp()[0], 50.0 + (80.0 - 50.0) * dd);
    EXPECT_EQ(st.dramTemp()[1], 50.0 + (60.0 - 50.0) * dd);
}

TEST(ThermalBatchState, CopyIsExact)
{
    ThermalBatchState st(3);
    st.init(5.0, 1.0, 33.0);
    st.stableAmb()[0] = 61.0;
    st.stableDram()[2] = 71.5;
    st.energy()[1] = 123.25;
    st.energyTime() = 7.0;
    st.ensureDecay(0.25);
    const ThermalBatchState copy = st;
    for (int i = 0; i < 3; ++i) {
        EXPECT_EQ(copy.ambTemp()[i], st.ambTemp()[i]);
        EXPECT_EQ(copy.dramTemp()[i], st.dramTemp()[i]);
        EXPECT_EQ(copy.stableAmb()[i], st.stableAmb()[i]);
        EXPECT_EQ(copy.stableDram()[i], st.stableDram()[i]);
        EXPECT_EQ(copy.peakAmb()[i], st.peakAmb()[i]);
        EXPECT_EQ(copy.peakDram()[i], st.peakDram()[i]);
        EXPECT_EQ(copy.energy()[i], st.energy()[i]);
    }
    EXPECT_EQ(copy.energyTime(), 7.0);
    EXPECT_EQ(copy.decayAmb(), st.decayAmb());
    EXPECT_EQ(copy.decayDram(), st.decayDram());
    // The copy owns its arrays.
    EXPECT_NE(copy.ambTemp(), st.ambTemp());
}

TEST(ThermalBatchState, Panics)
{
    EXPECT_THROW(ThermalBatchState(0), PanicError);
    EXPECT_THROW(ThermalBatchState(1, -1), PanicError);
    ThermalBatchState st(2);
    EXPECT_THROW(st.init(0.0, 1.0, 0.0), PanicError);
    EXPECT_THROW(st.ensureDecay(-1.0), PanicError);
}

/** Every per-DIMM observable of two models is equal, double for double. */
void
expectSameThermalState(const MemoryThermalModel &a,
                       const MemoryThermalModel &b)
{
    const MemoryThermalSample ca = a.current();
    const MemoryThermalSample cb = b.current();
    EXPECT_EQ(ca.hottestAmb, cb.hottestAmb);
    EXPECT_EQ(ca.hottestDram, cb.hottestDram);
    const std::vector<DimmTemps> ta = a.dimmTemps();
    const std::vector<DimmTemps> tb = b.dimmTemps();
    const std::vector<DimmTemps> pa = a.dimmPeaks();
    const std::vector<DimmTemps> pb = b.dimmPeaks();
    ASSERT_EQ(ta.size(), tb.size());
    ASSERT_EQ(pa.size(), pb.size());
    for (std::size_t i = 0; i < ta.size(); ++i) {
        EXPECT_EQ(ta[i].amb, tb[i].amb);
        EXPECT_EQ(ta[i].dram, tb[i].dram);
        EXPECT_EQ(pa[i].amb, pb[i].amb);
        EXPECT_EQ(pa[i].dram, pb[i].dram);
    }
    EXPECT_EQ(a.dimmAvgPower(), b.dimmAvgPower());
    EXPECT_EQ(a.bankPeaks(), b.bankPeaks());
    EXPECT_EQ(a.trafficShares(), b.trafficShares());
    EXPECT_EQ(a.refreshDramPower(), b.refreshDramPower());
}

/**
 * A copied model is the fork primitive: it starts equal to the original
 * double for double, continues bit-identically under the same inputs,
 * and is independent of it under different ones.
 */
TEST(MemoryThermalModel, CopyIsExactAndIndependent)
{
    const SimConfig cfg = batchyConfig();
    MemoryThermalModel model(cfg.org, cfg.cooling, DimmPowerModel{}, 40.0,
                             cfg.trafficShares);
    model.setRefreshDramPower({0.1, 0.2, 0.3, 0.4});
    for (int w = 0; w < 50; ++w)
        model.advance(4.0 + 0.1 * w, 2.0, 44.0, cfg.window);

    MemoryThermalModel copy = model;
    expectSameThermalState(model, copy);
    for (int w = 0; w < 50; ++w) {
        model.advance(9.0, 3.0, 45.0, cfg.window);
        copy.advance(9.0, 3.0, 45.0, cfg.window);
    }
    expectSameThermalState(model, copy);

    // Copy-assignment is as exact, and the two stay independent.
    MemoryThermalModel assigned(cfg.org, cfg.cooling, DimmPowerModel{},
                                0.0);
    assigned = model;
    expectSameThermalState(model, assigned);
    const MemoryThermalSample before = copy.current();
    model.advance(20.0, 10.0, 50.0, 1.0);
    EXPECT_EQ(copy.current().hottestDram, before.hottestDram);
    EXPECT_NE(model.current().hottestDram, before.hottestDram);
}

/**
 * A copied Lane is an exact snapshot: thermal state, job slots (pool
 * indices, so nothing needs rebasing), batch progress and RNG position.
 */
TEST(ThermalSimulatorLane, CopyIsExact)
{
    const SimConfig cfg = batchyConfig();
    const Workload mix = workloadMix("W1");
    ThermalSimulator::Lane lane(cfg, mix);
    for (int w = 0; w < 20; ++w)
        lane.mem.advance(6.0, 3.0, 45.0, cfg.window);
    lane.batch.at(lane.slot[0])->remainingInstr = 17.0;
    lane.sensorRng.gaussian();
    lane.t = 0.2;

    ThermalSimulator::Lane copy = lane;
    expectSameThermalState(lane.mem, copy.mem);
    EXPECT_EQ(copy.slot, lane.slot);
    ASSERT_GE(lane.slot[0], 0);
    EXPECT_EQ(copy.batch.at(copy.slot[0])->remainingInstr, 17.0);
    EXPECT_NE(copy.batch.at(copy.slot[0]), lane.batch.at(lane.slot[0]));
    EXPECT_EQ(copy.batch.finished(), lane.batch.finished());
    EXPECT_EQ(copy.sensorRng.gaussian(), lane.sensorRng.gaussian());
    EXPECT_EQ(copy.t, lane.t);
    EXPECT_EQ(copy.live, lane.live);
}

/**
 * The central pin: for EVERY registered policy, the batched run forked
 * from the shared prefix is bit-identical to a from-scratch scalar run.
 * All registry policies ride in one batch, so every family's divergence
 * point forces a fork, the remap family carries migrated share state
 * across it, and the noisy sensors pin the RNG stream position.
 */
TEST(RunBatch, ForkedRunsBitIdenticalToScalarForEveryPolicy)
{
    const SimConfig cfg = batchyConfig();
    const Workload mix = workloadMix("W1");
    const std::vector<std::string> names =
        PolicyRegistry::instance().names();
    ASSERT_GE(names.size(), 8u);

    ThermalSimulator sim(cfg);
    ThermalSimulator::Scratch scratch;

    std::vector<std::unique_ptr<DtmPolicy>> policies;
    std::vector<DtmPolicy *> ptrs;
    for (const auto &n : names) {
        policies.push_back(
            PolicyRegistry::instance().make(n, contextOf(cfg)));
        ptrs.push_back(policies.back().get());
    }

    BatchStats stats;
    std::vector<SimResult> batched =
        sim.runBatch(mix, ptrs, scratch, &stats);
    ASSERT_EQ(batched.size(), names.size());

    // The batch must have actually forked and actually shared: a zero
    // fork count would make the fork-identity claim vacuous, and a zero
    // hit rate would mean no prefix was ever shared.
    EXPECT_GT(stats.forks, 0u);
    EXPECT_GT(stats.hitRate(), 0.0);
    EXPECT_LE(stats.simulatedWindows, stats.logicalWindows);

    double window_sum = 0.0;
    for (std::size_t i = 0; i < names.size(); ++i) {
        auto fresh =
            PolicyRegistry::instance().make(names[i], contextOf(cfg));
        SimResult scalar = sim.run(mix, *fresh, scratch);
        expectIdentical(batched[i], scalar);
        window_sum += scalar.runningTime / cfg.window;
    }
    // Logical windows account every run's full trajectory.
    EXPECT_NEAR(stats.logicalWindows, window_sum, 1e-6 * window_sum);
}

/**
 * Fork-identity survives the temperature->refresh feedback edge. The
 * refresh model reads the lane's own per-DIMM DRAM temperatures every
 * window and feeds power back into the same lane, so a forked lane that
 * mis-copied any thermal state would diverge within one window. Every
 * registered policy rides in one refresh-coupled batch and must stay
 * bit-identical to its from-scratch scalar run.
 */
TEST(RunBatch, ForkedRunsBitIdenticalUnderRefreshCoupling)
{
    SimConfig cfg = batchyConfig();
    cfg.refresh = refreshModelByName("ddr2_2x");
    const Workload mix = workloadMix("W1");
    const std::vector<std::string> names =
        PolicyRegistry::instance().names();

    ThermalSimulator sim(cfg);
    ThermalSimulator::Scratch scratch;

    std::vector<std::unique_ptr<DtmPolicy>> policies;
    std::vector<DtmPolicy *> ptrs;
    for (const auto &n : names) {
        policies.push_back(
            PolicyRegistry::instance().make(n, contextOf(cfg)));
        ptrs.push_back(policies.back().get());
    }

    BatchStats stats;
    std::vector<SimResult> batched =
        sim.runBatch(mix, ptrs, scratch, &stats);
    ASSERT_EQ(batched.size(), names.size());
    EXPECT_GT(stats.forks, 0u);
    EXPECT_GT(stats.hitRate(), 0.0);

    for (std::size_t i = 0; i < names.size(); ++i) {
        auto fresh =
            PolicyRegistry::instance().make(names[i], contextOf(cfg));
        SimResult scalar = sim.run(mix, *fresh, scratch);
        expectIdentical(batched[i], scalar);
        // The coupling actually ran: the nominal DDR2 band charges
        // every DIMM a nonzero refresh tax from the first window.
        ASSERT_FALSE(batched[i].refreshBwLossPerDimm.empty());
        for (double loss : batched[i].refreshBwLossPerDimm)
            EXPECT_GT(loss, 0.0);
        for (Joules e : batched[i].refreshEnergyPerDimm)
            EXPECT_GT(e, 0.0);
    }
}

/**
 * Forks run in worklist order, not in policy order, so the results must
 * not depend on it: the full lineup, reversed, gives the same result per
 * policy, bit for bit, and the same counters.
 */
TEST(RunBatch, PolicyOrderDoesNotMatter)
{
    const SimConfig cfg = batchyConfig();
    const Workload mix = workloadMix("W1");
    const std::vector<std::string> names =
        PolicyRegistry::instance().names();
    ThermalSimulator sim(cfg);
    ThermalSimulator::Scratch scratch;

    auto runInOrder = [&](const std::vector<std::string> &order,
                          BatchStats &stats) {
        std::vector<std::unique_ptr<DtmPolicy>> policies;
        std::vector<DtmPolicy *> ptrs;
        for (const auto &n : order) {
            policies.push_back(
                PolicyRegistry::instance().make(n, contextOf(cfg)));
            ptrs.push_back(policies.back().get());
        }
        return sim.runBatch(mix, ptrs, scratch, &stats);
    };

    const std::vector<std::string> reversed(names.rbegin(), names.rend());
    BatchStats fwd_stats, rev_stats;
    const std::vector<SimResult> fwd = runInOrder(names, fwd_stats);
    const std::vector<SimResult> rev = runInOrder(reversed, rev_stats);
    ASSERT_EQ(fwd.size(), names.size());
    ASSERT_EQ(rev.size(), names.size());
    EXPECT_GT(fwd_stats.forks, 0u);
    for (std::size_t i = 0; i < names.size(); ++i)
        expectIdentical(fwd[i], rev[names.size() - 1 - i]);
    EXPECT_EQ(fwd_stats.logicalWindows, rev_stats.logicalWindows);
    EXPECT_EQ(fwd_stats.forks, rev_stats.forks);
}

/** Identical policies never diverge: one lane serves the whole batch. */
TEST(RunBatch, IdenticalPoliciesShareTheEntireRun)
{
    SimConfig cfg = makeCh4Config(coolingAohs15(), false);
    cfg.copiesPerApp = 1;
    const Workload mix = workloadMix("W2");
    ThermalSimulator sim(cfg);
    ThermalSimulator::Scratch scratch;

    auto a = PolicyRegistry::instance().make("No-limit", contextOf(cfg));
    auto b = PolicyRegistry::instance().make("No-limit", contextOf(cfg));
    std::vector<DtmPolicy *> ptrs{a.get(), b.get()};
    BatchStats stats;
    std::vector<SimResult> batched =
        sim.runBatch(mix, ptrs, scratch, &stats);
    expectIdentical(batched[0], batched[1]);
    EXPECT_EQ(stats.forks, 0u);
    EXPECT_NEAR(stats.hitRate(), 0.5, 1e-9);
}

/** Collects results positionally; failures recorded by index. */
class TestSink : public RunSink
{
  public:
    explicit TestSink(std::size_t n) : results(n), ok(n, false) {}

    void onResult(std::size_t i, SimResult &&r, double) override
    {
        results[i] = std::move(r);
        ok[i] = true;
    }

    void onFailure(std::size_t i, std::exception_ptr) override
    {
        failed.push_back(i);
    }

    std::vector<SimResult> results;
    std::vector<bool> ok;
    std::vector<std::size_t> failed;
};

std::vector<ExperimentEngine::Run>
classRuns(const SimConfig &cfg, const Workload &mix,
          const std::vector<std::string> &policy_names)
{
    std::vector<ExperimentEngine::Run> runs;
    for (const auto &n : policy_names)
        runs.push_back({cfg, mix, n, {}});
    return runs;
}

/**
 * Engine-level batching: every chunk width gives results bit-identical
 * to the scalar engine, under both the inline (1-thread) and threaded
 * engines.
 */
TEST(RunBatched, EveryChunkWidthMatchesScalarEngine)
{
    const SimConfig cfg = batchyConfig();
    const Workload mix = workloadMix("W1");
    const std::vector<std::string> names{"No-limit", "DTM-TS", "DTM-BW",
                                         "DTM-ACG", "DTM-CDVFS"};
    auto runs = classRuns(cfg, mix, names);
    const std::vector<ExperimentEngine::RunClass> classes{
        {0, runs.size()}};

    ExperimentEngine serial(1);
    std::vector<SimResult> reference = serial.run(runs);

    for (int width : {1, 2, 3, 5, 0}) {
        for (int threads : {1, 3}) {
            ExperimentEngine engine(threads);
            TestSink sink(runs.size());
            BatchStats stats;
            engine.runBatched(runs, classes, width, sink, &stats);
            EXPECT_TRUE(sink.failed.empty());
            for (std::size_t i = 0; i < runs.size(); ++i) {
                ASSERT_TRUE(sink.ok[i]);
                expectIdentical(sink.results[i], reference[i]);
            }
            EXPECT_GT(stats.logicalWindows, 0.0);
            EXPECT_GE(stats.logicalWindows, stats.simulatedWindows);
        }
    }
}

/**
 * Singleton classes share nothing, and their window counters are the
 * exact integer window counts of the runs (not running time divided by
 * the window, which lands a hair below the integer).
 */
TEST(RunBatched, SingletonClassesCountExactWindows)
{
    SimConfig cfg = makeCh4Config(coolingAohs15(), false);
    cfg.copiesPerApp = 1;
    std::vector<ExperimentEngine::Run> runs;
    for (const char *w : {"W1", "W2"})
        runs.push_back({cfg, workloadMix(w), "DTM-TS", {}});
    const std::vector<ExperimentEngine::RunClass> classes{{0, 1}, {1, 1}};

    ExperimentEngine engine(1);
    TestSink sink(runs.size());
    BatchStats stats;
    engine.runBatched(runs, classes, 4, sink, &stats);
    ASSERT_TRUE(sink.failed.empty());

    double windows = 0.0;
    for (const SimResult &r : sink.results)
        windows += std::round(r.runningTime / cfg.window);
    EXPECT_EQ(stats.logicalWindows, windows);
    EXPECT_EQ(stats.simulatedWindows, windows);
    EXPECT_EQ(stats.forks, 0u);
}

/** A bad policy fails only its own run; chunk-mates still complete. */
TEST(RunBatched, PolicyBuildFailureIsIsolated)
{
    SimConfig cfg = makeCh4Config(coolingAohs15(), false);
    cfg.copiesPerApp = 1;
    const Workload mix = workloadMix("W1");
    auto runs = classRuns(cfg, mix, {"No-limit", "bogus", "DTM-TS"});
    const std::vector<ExperimentEngine::RunClass> classes{{0, 3}};

    ExperimentEngine engine(1);
    TestSink sink(3);
    engine.runBatched(runs, classes, 3, sink, nullptr);
    ASSERT_EQ(sink.failed.size(), 1u);
    EXPECT_EQ(sink.failed[0], 1u);
    EXPECT_TRUE(sink.ok[0]);
    EXPECT_TRUE(sink.ok[2]);

    // The surviving runs are still bit-identical to scalar execution.
    ExperimentEngine serial(1);
    auto good = classRuns(cfg, mix, {"No-limit", "DTM-TS"});
    std::vector<SimResult> reference = serial.run(good);
    expectIdentical(sink.results[0], reference[0]);
    expectIdentical(sink.results[2], reference[1]);
}

/** Delegates to a registry policy; throws on its @c throwAt-th decide(). */
class FaultyPolicy : public DtmPolicy
{
  public:
    FaultyPolicy(std::unique_ptr<DtmPolicy> inner, int throw_at)
        : inner(std::move(inner)), throwAt(throw_at)
    {
    }

    DtmAction decide(const ThermalReading &r, Seconds now) override
    {
        if (++calls == throwAt)
            throw std::runtime_error("decide() failed on purpose");
        return inner->decide(r, now);
    }
    std::string name() const override { return inner->name(); }
    void reset() override { inner->reset(); }

  private:
    std::unique_ptr<DtmPolicy> inner;
    int throwAt;
    int calls = 0;
};

/**
 * A policy that throws mid-simulation inside a shared class fails only
 * its own run: the chunk's other members are rerun alone and deliver
 * the bits of their unshared runs.
 */
TEST(RunBatched, MidRunFailureFailsOnlyItsRun)
{
    const SimConfig cfg = batchyConfig();
    const Workload mix = workloadMix("W1");
    auto runs = classRuns(cfg, mix,
                          {"No-limit", "DTM-TS", "DTM-BW", "DTM-ACG"});
    const std::size_t faulty = 2;
    runs[faulty].factory = [](const SimConfig &c, const std::string &name) {
        return std::make_unique<FaultyPolicy>(
            PolicyRegistry::instance().make(name, contextOf(c)), 5);
    };
    const std::vector<ExperimentEngine::RunClass> classes{
        {0, runs.size()}};

    ExperimentEngine serial(1);
    TestSink reference(runs.size());
    serial.run(runs, reference);
    ASSERT_EQ(reference.failed, (std::vector<std::size_t>{faulty}));

    for (int threads : {1, 3}) {
        ExperimentEngine engine(threads);
        TestSink sink(runs.size());
        engine.runBatched(runs, classes, 0, sink, nullptr);
        EXPECT_EQ(sink.failed, (std::vector<std::size_t>{faulty}));
        for (std::size_t i = 0; i < runs.size(); ++i) {
            if (i == faulty)
                continue;
            ASSERT_TRUE(sink.ok[i]) << "run " << i;
            expectIdentical(sink.results[i], reference.results[i]);
        }
    }
}

TEST(RunBatched, RejectsNonTilingClasses)
{
    SimConfig cfg = makeCh4Config(coolingAohs15(), false);
    cfg.copiesPerApp = 1;
    auto runs = classRuns(cfg, workloadMix("W1"), {"No-limit", "DTM-TS"});
    ExperimentEngine engine(1);
    TestSink sink(2);
    EXPECT_THROW(engine.runBatched(runs, {{0, 1}}, 2, sink, nullptr),
                 PanicError);
    EXPECT_THROW(engine.runBatched(runs, {{1, 1}, {0, 1}}, 2, sink,
                                   nullptr),
                 PanicError);
}

/**
 * The default width holds a chunk to one thread's even share of the
 * runs and splits classes evenly: whole classes on one thread, no
 * sharing when the runs barely cover the threads.
 */
TEST(Scenario, DefaultShareWidthHoldsChunksToAThreadsShare)
{
    using Classes = std::vector<ExperimentEngine::RunClass>;
    const Classes one_of_8{{0, 8}};
    const Classes one_of_9{{0, 9}};
    const Classes four_of_2{{0, 2}, {2, 2}, {4, 2}, {6, 2}};
    const Classes four_of_3{{0, 3}, {3, 3}, {6, 3}, {9, 3}};
    const Classes uneven{{0, 5}, {5, 1}};
    const Classes singles{{0, 1}, {1, 1}, {2, 1}};

    EXPECT_EQ(defaultShareWidth(one_of_8, 1), 8);
    EXPECT_EQ(defaultShareWidth(four_of_2, 1), 2);
    EXPECT_EQ(defaultShareWidth(uneven, 1), 5);
    EXPECT_EQ(defaultShareWidth(one_of_8, 2), 4);
    EXPECT_EQ(defaultShareWidth(one_of_9, 2), 3); // 3+3+3, not 4+4+1
    EXPECT_EQ(defaultShareWidth(one_of_8, 3), 2);
    EXPECT_EQ(defaultShareWidth(one_of_8, 4), 2);
    EXPECT_EQ(defaultShareWidth(one_of_8, 16), 1);
    EXPECT_EQ(defaultShareWidth(four_of_2, 4), 2);
    EXPECT_EQ(defaultShareWidth(four_of_2, 8), 1);
    EXPECT_EQ(defaultShareWidth(four_of_3, 4), 3);
    EXPECT_EQ(defaultShareWidth(uneven, 4), 1);
    EXPECT_EQ(defaultShareWidth(singles, 4), 1);
    EXPECT_EQ(defaultShareWidth({}, 4), 1);
}

/** lower() derives one class per (point, workload), policy-fastest. */
TEST(Scenario, EquivalenceClassesFromLowering)
{
    ScenarioSpec spec;
    spec.name = "classes";
    spec.workloads = {"W1", "W2"};
    spec.policies = {"No-limit", "DTM-TS", "DTM-BW"};
    spec.sweepTInlet = {30.0, 44.0};
    spec.copiesPerApp = 1;

    LoweredScenario low = spec.lower();
    ASSERT_EQ(low.totalRuns(), 12u);
    ASSERT_EQ(low.classes.size(), 4u);
    std::size_t base = 0;
    for (const auto &c : low.classes) {
        EXPECT_EQ(c.first, base);
        EXPECT_EQ(c.count, 3u);
        base += c.count;
    }
}

/** Platform runs are singleton classes (per-policy config tweaks). */
TEST(Scenario, PlatformScenariosGetSingletonClasses)
{
    ScenarioSpec spec;
    spec.name = "plat";
    spec.platform = "SR1500AL";
    spec.workloads = {"W1"};
    spec.policies = {"No-limit", "DTM-BW"};
    spec.copiesPerApp = 1;

    LoweredScenario low = spec.lower();
    ASSERT_EQ(low.classes.size(), low.totalRuns());
    for (std::size_t i = 0; i < low.classes.size(); ++i) {
        EXPECT_EQ(low.classes[i].first, i);
        EXPECT_EQ(low.classes[i].count, 1u);
    }
}

/** Scenario-level: every sharing width equals unshared, run for run. */
TEST(Scenario, EverySharingWidthMatchesUnshared)
{
    ScenarioSpec spec;
    spec.name = "batched_vs_scalar";
    spec.workloads = {"W1"};
    spec.policies = {"No-limit", "DTM-TS", "DTM-BW", "DTM-ACG"};
    spec.copiesPerApp = 1;
    spec.sensorNoiseSigma = 0.25;
    spec.sensorSeed = 77;

    ExperimentEngine engine(2);
    BatchStats unshared_stats;
    ScenarioResults scalar = runScenario(spec, engine, 1, &unshared_stats);
    ASSERT_TRUE(scalar.errors.empty());
    EXPECT_EQ(unshared_stats.hitRate(), 0.0);

    for (int width : {0, 2, 4}) {
        BatchStats stats;
        ScenarioResults batched = runScenario(spec, engine, width, &stats);
        ASSERT_TRUE(batched.errors.empty());
        ASSERT_EQ(batched.points.size(), scalar.points.size());
        for (std::size_t p = 0; p < scalar.points.size(); ++p) {
            EXPECT_EQ(batched.points[p].label, scalar.points[p].label);
            for (const auto &[w, by_policy] : scalar.points[p].suite) {
                for (const auto &[pol, r] : by_policy) {
                    ASSERT_TRUE(
                        batched.points[p].suite.at(w).count(pol));
                    expectIdentical(batched.points[p].suite.at(w).at(pol),
                                    r);
                }
            }
        }
        EXPECT_GT(stats.hitRate(), 0.0) << "width " << width;
    }
}

} // namespace
} // namespace memtherm
