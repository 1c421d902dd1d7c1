/**
 * @file
 * google-benchmark microbenchmarks of the analytic models that dominate
 * MEMSpot's per-window cost.
 */

#include <benchmark/benchmark.h>

#include <limits>

#include "core/sim/experiment.hh"

using namespace memtherm;

namespace
{

void
BM_SolvePerfWindowUnsaturated(benchmark::State &state)
{
    std::vector<CoreTask> tasks(4);
    for (auto &t : tasks)
        t.mpki = 8.0;
    for (auto _ : state) {
        WindowPerf p = solvePerfWindow(
            tasks, 3.2, 3.2, std::numeric_limits<double>::infinity(), {});
        benchmark::DoNotOptimize(p.totalRead);
    }
    state.SetItemsProcessed(state.iterations());
}

void
BM_SolvePerfWindowSaturated(benchmark::State &state)
{
    std::vector<CoreTask> tasks(4);
    for (auto &t : tasks)
        t.mpki = 60.0;
    for (auto _ : state) {
        WindowPerf p = solvePerfWindow(tasks, 3.2, 3.2, 6.4, {});
        benchmark::DoNotOptimize(p.totalRead);
    }
    state.SetItemsProcessed(state.iterations());
}

void
BM_SolvePerfWindowOneTask(benchmark::State &state)
{
    // One streaming task, unconstrained, through the allocation-free
    // overload: per-task work is minimal, so this shows the fixed cost
    // of the solve (a chain of dependent divisions per evaluation).
    CoreTask stream;
    stream.cpiCore = 0.55;
    stream.mpki = 50.0;
    stream.writeFrac = 0.45;
    stream.specFrac = 0.10;
    stream.mlpOverlap = 0.86;
    std::vector<CoreTask> tasks(1, stream);
    WindowPerf p;
    for (auto _ : state) {
        solvePerfWindow(tasks, 3.2, 3.2,
                        std::numeric_limits<double>::infinity(), {}, p);
        benchmark::DoNotOptimize(p.totalRead);
    }
    state.counters["evaluations"] = p.evaluations;
    state.SetItemsProcessed(state.iterations());
}

void
BM_SolvePerfWindowCapLimited(benchmark::State &state)
{
    // Four streaming (swim-like) tasks under a 6.4 GB/s DTM cap, through
    // the simulator's allocation-free overload; `evaluations` is the
    // solver's deterministic work per window (the reference bisection
    // made 62).
    CoreTask stream;
    stream.cpiCore = 0.55;
    stream.mpki = 50.0;
    stream.writeFrac = 0.45;
    stream.specFrac = 0.10;
    stream.mlpOverlap = 0.86;
    std::vector<CoreTask> tasks(4, stream);
    WindowPerf p;
    for (auto _ : state) {
        solvePerfWindow(tasks, 3.2, 3.2, 6.4, {}, p);
        benchmark::DoNotOptimize(p.totalRead);
    }
    state.counters["evaluations"] = p.evaluations;
    state.SetItemsProcessed(state.iterations());
}

void
BM_MemoryThermalAdvance(benchmark::State &state)
{
    MemoryThermalModel m(MemoryOrgConfig{4, 4}, coolingAohs15(),
                         DimmPowerModel{}, 50.0);
    for (auto _ : state) {
        MemoryThermalSample s = m.advance(10.0, 3.0, 50.0, 0.01);
        benchmark::DoNotOptimize(s.hottestAmb);
    }
    state.SetItemsProcessed(state.iterations());
}

void
BM_MemSpotWindow(benchmark::State &state)
{
    // End-to-end per-window cost of the level-2 simulator.
    SimConfig cfg = makeCh4Config(coolingAohs15(), false);
    cfg.copiesPerApp = 1;
    cfg.instrScale = 0.02;
    ThermalSimulator sim(cfg);
    Workload w1 = workloadMix("W1");
    for (auto _ : state) {
        auto policy = makeCh4Policy("DTM-ACG");
        SimResult r = sim.run(w1, *policy);
        benchmark::DoNotOptimize(r.runningTime);
    }
}

BENCHMARK(BM_SolvePerfWindowUnsaturated);
BENCHMARK(BM_SolvePerfWindowSaturated);
BENCHMARK(BM_SolvePerfWindowOneTask);
BENCHMARK(BM_SolvePerfWindowCapLimited);
BENCHMARK(BM_MemoryThermalAdvance);
BENCHMARK(BM_MemSpotWindow)->Unit(benchmark::kMillisecond);

} // namespace

BENCHMARK_MAIN();
