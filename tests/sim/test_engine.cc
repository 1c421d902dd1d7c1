/**
 * @file
 * Unit tests for the parallel ExperimentEngine: thread-count resolution,
 * bit-exact determinism of parallel vs. serial execution, the runGrid
 * sweep API, and a golden-value regression pinning single-run results to
 * the seed model.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>

#include "common/logging.hh"
#include "core/sim/engine.hh"

namespace memtherm
{
namespace
{

/** Small Chapter 4 setup shared by the engine tests. */
SimConfig
smallConfig()
{
    SimConfig cfg = makeCh4Config(coolingAohs15(), false);
    cfg.copiesPerApp = 2;
    return cfg;
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
    EXPECT_EQ(a.ambTrace.values(), b.ambTrace.values());
    EXPECT_EQ(a.dramTrace.values(), b.dramTrace.values());
    EXPECT_EQ(a.inletTrace.values(), b.inletTrace.values());
    EXPECT_EQ(a.cpuPowerTrace.values(), b.cpuPowerTrace.values());
    EXPECT_EQ(a.bwTrace.values(), b.bwTrace.values());
}

TEST(ExperimentEngine, ThreadCountResolution)
{
    EXPECT_EQ(ExperimentEngine(1).threads(), 1);
    EXPECT_EQ(ExperimentEngine(3).threads(), 3);
    EXPECT_GE(ExperimentEngine::defaultThreads(), 1);

    setenv("MEMTHERM_THREADS", "5", 1);
    EXPECT_EQ(ExperimentEngine::defaultThreads(), 5);
    EXPECT_EQ(ExperimentEngine(0).threads(), 5);
    EXPECT_EQ(ExperimentEngine(2).threads(), 2); // explicit wins
    unsetenv("MEMTHERM_THREADS");
}

TEST(ExperimentEngine, ParallelMatchesSerialBitExactly)
{
    SimConfig cfg = smallConfig();
    std::vector<Workload> ws{workloadMix("W1"), workloadMix("W4")};
    std::vector<std::string> pols{"No-limit", "DTM-TS", "DTM-ACG+PID"};

    // The reference: the historical serial loop, one simulator reused
    // across runs (each run re-seeds its own sensor RNG stream from
    // cfg.sensorSeed, so run order cannot leak between results).
    ThermalSimulator sim(cfg);
    SuiteResults serial;
    for (const auto &w : ws) {
        for (const auto &pname : pols) {
            auto policy = makeCh4Policy(pname, cfg.dtmInterval);
            serial[w.name][pname] = sim.run(w, *policy);
        }
    }

    ExperimentEngine pooled(4);
    SuiteResults parallel = pooled.runSuite(cfg, ws, pols);

    ASSERT_EQ(parallel.size(), serial.size());
    for (const auto &[wname, per_policy] : serial) {
        ASSERT_EQ(parallel.count(wname), 1u);
        ASSERT_EQ(parallel.at(wname).size(), per_policy.size());
        for (const auto &[pname, res] : per_policy) {
            SCOPED_TRACE(wname + "/" + pname);
            expectIdentical(parallel.at(wname).at(pname), res);
        }
    }

    // An engine with one thread (inline mode) agrees too.
    ExperimentEngine inline_engine(1);
    SuiteResults serial_engine = inline_engine.runSuite(cfg, ws, pols);
    for (const auto &[wname, per_policy] : serial)
        for (const auto &[pname, res] : per_policy)
            expectIdentical(serial_engine.at(wname).at(pname), res);
}

TEST(ExperimentEngine, RunPreservesInputOrder)
{
    SimConfig cfg = smallConfig();
    Workload w1 = workloadMix("W1");

    ExperimentEngine engine(4);
    std::vector<ExperimentEngine::Run> runs{
        {cfg, w1, "DTM-ACG", {}},
        {cfg, w1, "No-limit", {}},
        {cfg, w1, "DTM-TS", {}},
    };
    std::vector<SimResult> results = engine.run(runs);
    ASSERT_EQ(results.size(), 3u);
    EXPECT_EQ(results[0].policy, "DTM-ACG");
    EXPECT_EQ(results[1].policy, "No-limit");
    EXPECT_EQ(results[2].policy, "DTM-TS");
}

TEST(ExperimentEngine, RunGridMatchesPerConfigSuites)
{
    std::vector<SimConfig> cfgs;
    for (double inlet : {46.0, 50.0}) {
        SimConfig cfg = smallConfig();
        cfg.ambient.tInlet = inlet;
        cfgs.push_back(cfg);
    }
    std::vector<Workload> ws{workloadMix("W1")};
    std::vector<std::string> pols{"No-limit", "DTM-BW"};

    ExperimentEngine engine(4);
    GridResults grid = engine.runGrid(cfgs, ws, pols);
    ASSERT_EQ(grid.size(), cfgs.size());

    for (std::size_t c = 0; c < cfgs.size(); ++c) {
        SuiteResults one = engine.runSuite(cfgs[c], ws, pols);
        for (const auto &[wname, per_policy] : one)
            for (const auto &[pname, res] : per_policy) {
                SCOPED_TRACE("cfg " + std::to_string(c) + " " + wname +
                             "/" + pname);
                expectIdentical(grid[c].at(wname).at(pname), res);
            }
    }

    // The hotter room must actually change the outcome (the sweep isn't
    // degenerate). Running time is window-quantized, so compare the peak
    // temperature, which tracks the inlet directly.
    EXPECT_LT(grid[0].at("W1").at("DTM-BW").maxAmb,
              grid[1].at("W1").at("DTM-BW").maxAmb);
}

TEST(ExperimentEngine, ScratchReuseAcrossHeterogeneousRuns)
{
    // One worker executes both runs back to back with one Scratch; a
    // fresh engine runs them in separate batches. Any cross-run leakage
    // through the scratch buffers would diverge.
    SimConfig cfg4 = smallConfig();
    SimConfig cfg8 = smallConfig();
    cfg8.nCores = 8;
    cfg8.cpuPowerTable = TableCpuPowerModel{8};
    Workload w1 = workloadMix("W1");

    ExperimentEngine seq(1);
    std::vector<SimResult> chained = seq.run({
        {cfg8, w1, "DTM-ACG", {}},
        {cfg4, w1, "DTM-ACG", {}},
    });

    ExperimentEngine fresh1(1), fresh2(1);
    std::vector<SimResult> alone8 = fresh1.run({{cfg8, w1, "DTM-ACG", {}}});
    std::vector<SimResult> alone4 = fresh2.run({{cfg4, w1, "DTM-ACG", {}}});

    expectIdentical(chained[0], alone8[0]);
    expectIdentical(chained[1], alone4[0]);
}

TEST(ExperimentEngine, PolicyErrorsPropagate)
{
    SimConfig cfg = smallConfig();
    Workload w1 = workloadMix("W1");
    ExperimentEngine engine(2);
    std::vector<ExperimentEngine::Run> runs{
        {cfg, w1, "No-limit", {}},
        {cfg, w1, "not-a-policy", {}},
    };
    EXPECT_THROW(engine.run(runs), FatalError);
}

TEST(ExperimentEngine, ErrorsCarryTheFailingRunsIdentity)
{
    SimConfig cfg = smallConfig();
    Workload w1 = workloadMix("W1");
    ExperimentEngine engine(2);
    std::vector<ExperimentEngine::Run> runs{
        {cfg, w1, "No-limit", {}},
        {cfg, w1, "not-a-policy", {}},
    };
    try {
        engine.run(runs);
        FAIL() << "expected FatalError";
    } catch (const FatalError &e) {
        // A bare what() from a large grid is undebuggable; the label
        // must name the run, not just the symptom.
        const std::string msg = e.what();
        EXPECT_NE(msg.find("run #1"), std::string::npos) << msg;
        EXPECT_NE(msg.find("workload 'W1'"), std::string::npos) << msg;
        EXPECT_NE(msg.find("policy 'not-a-policy'"), std::string::npos)
            << msg;
    }
}

/** Records everything the engine hands it, for the sink-contract tests. */
class RecordingSink : public RunSink
{
  public:
    void onResult(std::size_t i, SimResult &&r, double wall_s) override
    {
        results.emplace_back(i, std::move(r));
        wall.push_back(wall_s);
    }

    void onFailure(std::size_t i, std::exception_ptr err) override
    {
        failures.emplace_back(i, err);
    }

    std::vector<std::pair<std::size_t, SimResult>> results;
    std::vector<double> wall;
    std::vector<std::pair<std::size_t, std::exception_ptr>> failures;
};

TEST(ExperimentEngine, SinkReceivesEveryRunExactlyOnce)
{
    SimConfig cfg = smallConfig();
    Workload w1 = workloadMix("W1");
    std::vector<ExperimentEngine::Run> runs{
        {cfg, w1, "No-limit", {}},
        {cfg, w1, "DTM-BW", {}},
        {cfg, w1, "DTM-TS", {}},
    };

    ExperimentEngine engine(4);
    std::vector<SimResult> reference = engine.run(runs);

    RecordingSink sink;
    engine.run(runs, sink);
    ASSERT_EQ(sink.results.size(), runs.size());
    EXPECT_TRUE(sink.failures.empty());

    std::vector<bool> seen(runs.size(), false);
    for (const auto &[i, r] : sink.results) {
        ASSERT_LT(i, runs.size());
        EXPECT_FALSE(seen[i]) << "index " << i << " delivered twice";
        seen[i] = true;
        SCOPED_TRACE("run " + std::to_string(i));
        expectIdentical(r, reference[i]);
    }
    for (double w : sink.wall)
        EXPECT_GE(w, 0.0);
}

TEST(ExperimentEngine, SinkIsolatesPerRunFailures)
{
    SimConfig cfg = smallConfig();
    Workload w1 = workloadMix("W1");
    // Run 1 fails at policy construction; the rest must still deliver.
    std::vector<ExperimentEngine::Run> runs{
        {cfg, w1, "No-limit", {}},
        {cfg, w1, "not-a-policy", {}},
        {cfg, w1, "DTM-BW", {}},
    };

    ExperimentEngine engine(2);
    RecordingSink sink;
    engine.run(runs, sink); // must not throw
    ASSERT_EQ(sink.failures.size(), 1u);
    EXPECT_EQ(sink.failures[0].first, 1u);
    EXPECT_THROW(std::rethrow_exception(sink.failures[0].second),
                 FatalError);
    ASSERT_EQ(sink.results.size(), 2u);
}

/** Runs the same grid again on the engine from inside every delivery. */
class NestedRunSink : public RecordingSink
{
  public:
    NestedRunSink(ExperimentEngine &e,
                  const std::vector<ExperimentEngine::Run> &r)
        : engine(e), runs(r)
    {
    }

    void onResult(std::size_t i, SimResult &&r, double wall_s) override
    {
        nested.push_back(engine.run(runs));
        RecordingSink::onResult(i, std::move(r), wall_s);
    }

    ExperimentEngine &engine;
    const std::vector<ExperimentEngine::Run> &runs;
    std::vector<std::vector<SimResult>> nested;
};

TEST(ExperimentEngine, SerialScratchServesRepeatedAndNestedCalls)
{
    // A one-thread engine keeps its scratch across calls; a call made
    // while it is in use (here, from the sink) runs on a fresh one.
    // Every result must equal a fresh engine's.
    SimConfig cfg = smallConfig();
    std::vector<ExperimentEngine::Run> runs{
        {cfg, workloadMix("W1"), "DTM-ACG", {}},
        {cfg, workloadMix("W2"), "No-limit", {}},
    };
    ExperimentEngine fresh(1);
    const std::vector<SimResult> reference = fresh.run(runs);

    ExperimentEngine engine(1);
    for (int call = 0; call < 2; ++call) {
        const std::vector<SimResult> again = engine.run(runs);
        for (std::size_t i = 0; i < runs.size(); ++i)
            expectIdentical(again[i], reference[i]);
    }

    NestedRunSink sink(engine, runs);
    engine.run(runs, sink);
    ASSERT_EQ(sink.results.size(), runs.size());
    ASSERT_EQ(sink.nested.size(), runs.size());
    for (const auto &[i, r] : sink.results)
        expectIdentical(r, reference[i]);
    for (const std::vector<SimResult> &inner : sink.nested)
        for (std::size_t i = 0; i < runs.size(); ++i)
            expectIdentical(inner[i], reference[i]);
}

/**
 * Golden regression: single-run results must stay bit-compatible with
 * the seed model (values captured from the pre-engine serial simulator
 * at copiesPerApp = 4). A tight relative tolerance (1e-9) guards
 * against accidental model drift while tolerating FP-contraction
 * differences across compilers.
 */
TEST(ExperimentEngine, GoldenSingleRunRegression)
{
    SimConfig cfg = makeCh4Config(coolingAohs15(), false);
    cfg.copiesPerApp = 4;
    Workload w1 = workloadMix("W1");

    struct Golden
    {
        const char *policy;
        double runningTime, totalInstr, totalReadGB, totalWriteGB;
        double totalL2Misses, memEnergy, cpuEnergy, maxAmb, maxDram;
        double timeAboveAmbTdp;
    };
    const Golden goldens[] = {
        {"No-limit", 52.839999999998057, 208073310463.33276,
         709.69764028742793, 207.86325668079581, 9920390319.6735783,
         6893.4374632337567, 13703.255000001236, 112.16090148399269,
         79.249043801909778, 15.439999999999715},
        {"DTM-ACG", 63.009999999996033, 208126113185.9162,
         637.58129234000114, 192.5737074714973, 8931736234.944952,
         7649.0557728926588, 13195.790000001522, 109.36011129133601,
         78.4633038644576, 0.0},
        {"DTM-CDVFS+PID", 65.699999999996706, 208075313472.96118,
         687.4861431146926, 206.41235944805516, 9844933639.7374935,
         8036.8237674004495, 11698.669750002215, 109.83255692828109,
         78.690995731864703, 0.0},
    };

    auto near = [](double v, double g) {
        double tol = std::abs(g) * 1e-9 + 1e-12;
        EXPECT_NEAR(v, g, tol);
    };

    ThermalSimulator sim(cfg);
    for (const Golden &g : goldens) {
        SCOPED_TRACE(g.policy);
        auto policy = makeCh4Policy(g.policy, cfg.dtmInterval);
        SimResult r = sim.run(w1, *policy);
        near(r.runningTime, g.runningTime);
        near(r.totalInstr, g.totalInstr);
        near(r.totalReadGB, g.totalReadGB);
        near(r.totalWriteGB, g.totalWriteGB);
        near(r.totalL2Misses, g.totalL2Misses);
        near(r.memEnergy, g.memEnergy);
        near(r.cpuEnergy, g.cpuEnergy);
        near(r.maxAmb, g.maxAmb);
        near(r.maxDram, g.maxDram);
        near(r.timeAboveAmbTdp, g.timeAboveAmbTdp);
    }
}

} // namespace
} // namespace memtherm
