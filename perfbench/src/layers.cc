/**
 * @file
 * Layer probes of the traced pass. The DTM layer is measured in place
 * by a forwarding decorator. The level-1 solve, the thermal advance and
 * the refresh lookup run inside the simulator's window loop, where the
 * benchmark cannot put a span without touching src/, so they are
 * replayed from outside on the operating points the decorator recorded.
 */

#include <algorithm>
#include <cmath>
#include <memory>
#include <random>
#include <utility>

#include "bench.hh"
#include "cache/miss_model.hh"
#include "core/power/power_model.hh"
#include "core/sim/registry.hh"
#include "core/thermal/ambient_model.hh"
#include "cpu/perf_model.hh"

namespace perfbench
{

using namespace memtherm;

namespace
{

/** Forwards every call to the wrapped policy; times and records decide(). */
class TracingPolicy : public DtmPolicy
{
  public:
    TracingPolicy(std::unique_ptr<DtmPolicy> inner, DtmRecord &rec,
                  const RefreshModel &refresh)
        : inner(std::move(inner)), rec(rec), refresh(refresh)
    {
    }

    DtmAction
    decide(const ThermalReading &r, Seconds now) override
    {
        const auto t0 = Clock::now();
        DtmAction a = inner->decide(r, now);
        const auto ns =
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                Clock::now() - t0)
                .count();
        rec.decideNs.push_back(static_cast<std::uint32_t>(ns));

        if (!(a == last))
            ++rec.actionChanges;
        last = a;
        ++rec.decisions;

        auto [it, fresh] = rec.points.try_emplace(DtmRecord::Key{
            a.memoryOn, a.bandwidthCap, a.dvfsLevel, a.activeCores});
        if (fresh) {
            it->second.t = now;
            it->second.dramPerDimm = r.dramPerDimm;
        }
        ++it->second.count;

        if (!refresh.empty()) {
            const RefreshBand &top = refresh.bands.back();
            for (Celsius t : r.dramPerDimm) {
                ++rec.dimmSamples;
                rec.hotSamples += &refresh.bandAt(t) == &top ? 1 : 0;
            }
        }
        return a;
    }

    std::string name() const override { return inner->name(); }

    void
    reset() override
    {
        inner->reset();
        last = DtmAction{};
    }

  private:
    std::unique_ptr<DtmPolicy> inner;
    DtmRecord &rec;
    const RefreshModel &refresh;
    DtmAction last; ///< previous decision (the default before the first)
};

/**
 * The level-1 window inputs of operating point @p key on run @p r:
 * the run's apps on the active cores, with the simulator's cache
 * sharing, phase and time-slice adjustments.
 */
std::vector<CoreTask>
windowTasks(const ExperimentEngine::Run &r, const DtmRecord::Key &key,
            Seconds t)
{
    const auto &apps = r.workload.apps;
    const int occupied = std::min(
        r.cfg.nCores, static_cast<int>(apps.size()) * r.cfg.copiesPerApp);
    const int active = std::clamp(std::get<3>(key), 0, occupied);
    const bool time_shared = active > 0 && active < occupied;
    std::vector<CoreTask> tasks;
    for (int k = 0; k < active; ++k) {
        const AppDescriptor &app =
            *apps[static_cast<std::size_t>(k) % apps.size()];
        double mpki = mpkiAtSharers(app.cache, active) * phaseFactor(app, t);
        if (time_shared)
            mpki += switchMpki(app.refillLines, app.nominalGips,
                               r.cfg.rotationSlice);
        CoreTask task;
        task.cpiCore = app.cpiCore;
        task.mpki = mpki;
        task.writeFrac = app.writeFrac;
        task.specFrac = app.specFrac;
        task.mlpOverlap = app.mlpOverlap;
        tasks.push_back(task);
    }
    return tasks;
}

/** The memory system the solve sees, derated by the refresh bands. */
MemSystemPerf
deratedMemory(const SimConfig &cfg, const std::vector<double> &dram)
{
    MemSystemPerf mem = cfg.memPerf;
    if (cfg.refresh.empty() || dram.empty())
        return mem;
    double loss = 0.0, lat = 0.0;
    for (std::size_t i = 0; i < dram.size(); ++i) {
        const double share = cfg.trafficShares.empty()
                                 ? 1.0 / static_cast<double>(dram.size())
                                 : cfg.trafficShares[i];
        const RefreshBand &band = cfg.refresh.bandAt(dram[i]);
        loss += share * band.bwFraction;
        lat += share * band.latencyMult;
    }
    mem.peakBandwidth *= std::max(0.0, 1.0 - loss);
    mem.idleLatencyNs *= lat;
    return mem;
}

double
nanosSince(Clock::time_point t0)
{
    return std::chrono::duration<double, std::nano>(Clock::now() - t0)
        .count();
}

} // namespace

void
installDtmProbes(std::vector<ExperimentEngine::Run> &runs,
                 std::vector<DtmRecord> &records)
{
    records.assign(runs.size(), DtmRecord{});
    for (std::size_t i = 0; i < runs.size(); ++i) {
        DtmRecord *rec = &records[i];
        PolicyFactory inner = std::move(runs[i].factory);
        runs[i].factory = [inner, rec](const SimConfig &cfg,
                                       const std::string &name) {
            std::unique_ptr<DtmPolicy> p =
                inner ? inner(cfg, name)
                      : PolicyRegistry::instance().make(
                            name, PolicyBuildContext{
                                      cfg.dtmInterval, cfg.emergencyLevels,
                                      cfg.remapInterval,
                                      cfg.remapHysteresis,
                                      cfg.trafficShares});
            // @p cfg is the Run's own configuration, which the caller's
            // run list keeps alive for the whole engine call.
            return std::make_unique<TracingPolicy>(std::move(p), *rec,
                                                   cfg.refresh);
        };
    }
}

ReplayEstimate
replayLayers(const LoweredScenario &low,
             const std::vector<ExperimentEngine::Run> &runs,
             const std::vector<DtmRecord> &records, int solves, int windows)
{
    ReplayEstimate est;

    // --- level-1 solve: sample the recorded operating points in
    //     proportion to how often the policies chose them ---------------
    struct Op
    {
        std::size_t run;
        DtmRecord::Key key;
        const DtmRecord::Point *point;
    };
    std::vector<Op> ops;
    std::vector<double> weights;
    double decisions = 0.0, shutdown = 0.0;
    for (std::size_t i = 0; i < records.size(); ++i)
        for (const auto &[key, pt] : records[i].points) {
            ops.push_back(Op{i, key, &pt});
            weights.push_back(static_cast<double>(pt.count));
            decisions += static_cast<double>(pt.count);
            if (!std::get<0>(key))
                shutdown += static_cast<double>(pt.count);
        }
    est.shutdownFrac = decisions > 0.0 ? shutdown / decisions : 0.0;

    // Each sample's solved traffic, so the thermal replay below sees the
    // same mix of loads (memory shutdown included) as the window loop.
    WindowPerf perf;
    std::vector<std::pair<GBps, GBps>> traffic;
    if (!ops.empty()) {
        std::mt19937_64 rng(20070609);
        std::discrete_distribution<std::size_t> pick(weights.begin(),
                                                     weights.end());
        est.solveNs.reserve(static_cast<std::size_t>(solves));
        std::size_t saturated = 0;
        for (int s = -1; s < solves; ++s) {
            const Op &op = ops[pick(rng)];
            const ExperimentEngine::Run &r = runs[op.run];
            const std::vector<CoreTask> tasks =
                windowTasks(r, op.key, op.point->t);
            const MemSystemPerf mem =
                deratedMemory(r.cfg, op.point->dramPerDimm);
            const GHz freq = r.cfg.dvfs.at(std::get<2>(op.key)).freq;
            const GBps cap = std::get<0>(op.key) ? std::get<1>(op.key) : 0.0;
            const auto t0 = Clock::now();
            solvePerfWindow(tasks, freq, r.cfg.dvfs.maxFreq(), cap, mem,
                            perf);
            const double ns = nanosSince(t0);
            if (s < 0)
                continue; // untimed warm-up call
            est.solveNs.push_back(ns);
            traffic.emplace_back(perf.totalRead, perf.totalWrite);
            saturated += perf.saturated ? 1 : 0;
        }
        est.saturatedFrac =
            static_cast<double>(saturated) / std::max(solves, 1);
    }

    // --- thermal advance and refresh staging, per grid point ------------
    if (traffic.empty())
        traffic.emplace_back(0.0, 0.0);
    for (const auto &pt : low.points) {
        const SimConfig &cfg = pt.cfg;
        AmbientModel ambient(cfg.ambient);
        MemoryThermalModel mem(cfg.org, cfg.cooling, DimmPowerModel{},
                               ambient.temperature(), cfg.trafficShares,
                               cfg.bankGrid);
        mem.resetToStable(0.0, 0.0, ambient.temperature());
        const double cells =
            cfg.org.nDimmsPerChannel *
            (2.0 + (cfg.bankGrid ? cfg.bankGrid->cells() : 0));
        est.cellsPerLane = std::max(est.cellsPerLane, cells);
        const double sum_v_ipc = cfg.nCores * cfg.dvfs.at(0).volts;
        const Watts cpu_power =
            cfg.cpuPowerTable.power(cfg.nCores, 0, false);
        std::vector<Celsius> amb, dram;
        std::vector<Watts> refresh_power;
        for (int w = 0; w < windows; ++w) {
            if (!cfg.refresh.empty()) {
                const auto t0 = Clock::now();
                mem.currentPerDimm(amb, dram);
                refresh_power.resize(dram.size());
                for (std::size_t i = 0; i < dram.size(); ++i)
                    refresh_power[i] = cfg.refresh.bandAt(dram[i]).dramPower;
                mem.setRefreshDramPower(refresh_power);
                est.refreshNs.push_back(nanosSince(t0));
            }
            const auto t0 = Clock::now();
            const Celsius inlet =
                ambient.advance(sum_v_ipc, cpu_power, cfg.window);
            const auto &[read, write] =
                traffic[static_cast<std::size_t>(w) % traffic.size()];
            mem.stageAdvance(read, write, inlet, cfg.window);
            mem.commitStaged();
            (void)mem.finishAdvance(cfg.window);
            est.thermalNs.push_back(nanosSince(t0));
        }
    }
    return est;
}

} // namespace perfbench
