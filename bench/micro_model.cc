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

/// Windows a phase benchmark cycles through: the table's reserve, so
/// the lookups never grow it.
constexpr std::size_t kPhaseWindows = PhaseFactorTable::kReserve;

void
BM_PhaseFactor4(benchmark::State &state)
{
    // The per-window phase factors of a 4-core W1 window as direct
    // calls: one sin per scheduled copy, at its accumulated CPU time.
    const Workload w1 = workloadMix("W1");
    double t[4] = {0.0, 0.0, 0.0, 0.0};
    std::size_t k = 0;
    for (auto _ : state) {
        for (int i = 0; i < 4; ++i) {
            benchmark::DoNotOptimize(phaseFactor(*w1.apps[i], t[i]));
            t[i] += 0.01;
        }
        if (++k == kPhaseWindows) {
            k = 0;
            for (double &ti : t)
                ti = 0.0;
        }
    }
    state.SetItemsProcessed(state.iterations());
}

void
BM_PhaseTable4(benchmark::State &state)
{
    // The same four factors as lookups in a filled PhaseFactorTable, as
    // the window loop reads them.
    const Workload w1 = workloadMix("W1");
    PhaseFactorTable table;
    std::size_t key[4];
    for (int i = 0; i < 4; ++i) {
        key[i] = table.key(*w1.apps[i], 0.01);
        table.at(key[i], kPhaseWindows - 1);
    }
    std::size_t k = 0;
    for (auto _ : state) {
        for (int i = 0; i < 4; ++i)
            benchmark::DoNotOptimize(table.at(key[i], k));
        if (++k == kPhaseWindows)
            k = 0;
    }
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
BENCHMARK(BM_PhaseFactor4);
BENCHMARK(BM_PhaseTable4);
BENCHMARK(BM_MemoryThermalAdvance);
BENCHMARK(BM_MemSpotWindow)->Unit(benchmark::kMillisecond);

} // namespace

BENCHMARK_MAIN();
