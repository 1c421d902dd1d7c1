#include "core/sim/thermal_simulator.hh"

#include <algorithm>
#include <cmath>
#include <limits>
#include <span>
#include <utility>
#include <vector>

#include "common/logging.hh"

namespace memtherm
{

namespace
{

/** Apply sensor quantization and noise to an exact temperature. */
Celsius
senseTemp(Celsius exact, double sigma, double quant, Rng &rng)
{
    Celsius t = exact;
    if (sigma > 0.0)
        t += sigma * rng.gaussian();
    if (quant > 0.0)
        t = std::floor(t / quant) * quant;
    return t;
}

} // namespace

TaskInputTable::TaskInputTable(const Workload &mix, int cores,
                               Seconds rotation_slice)
    : cores(static_cast<std::size_t>(cores)), slice(rotation_slice)
{
    for (const AppDescriptor *app : mix.apps)
        if (std::find(apps.begin(), apps.end(), app) == apps.end())
            apps.push_back(app);
    constexpr double unset = std::numeric_limits<double>::quiet_NaN();
    sharedMpki.assign(apps.size() * this->cores, unset);
    refillMpki.assign(apps.size(), unset);
}

std::size_t
TaskInputTable::row(const AppDescriptor *app) const
{
    const auto it = std::find(apps.begin(), apps.end(), app);
    panicIfNot(it != apps.end(), "TaskInputTable: app is not in the mix");
    return static_cast<std::size_t>(it - apps.begin());
}

double
TaskInputTable::mpkiAt(std::size_t row, int sharers)
{
    double &v =
        sharedMpki[row * cores + static_cast<std::size_t>(sharers - 1)];
    if (std::isnan(v))
        v = mpkiAtSharers(apps[row]->cache, static_cast<double>(sharers));
    return v;
}

double
TaskInputTable::switchCost(std::size_t row)
{
    double &v = refillMpki[row];
    if (std::isnan(v)) {
        const AppDescriptor &app = *apps[row];
        v = switchMpki(app.refillLines, app.nominalGips, slice);
    }
    return v;
}

SimConfig
makeCh4Config(const CoolingConfig &cooling, bool integrated)
{
    SimConfig cfg;
    cfg.cooling = cooling;
    cfg.ambient =
        integrated ? integratedAmbient(cooling) : isolatedAmbient(cooling);
    // xi calibration: Eq. 3.6's xi converts (V * IPCref) to heat. The
    // paper's measured cores commit near one instruction per reference
    // cycle; this model's memory-bound tasks run near a third of that,
    // so xi scales up by the same factor to represent the same processor
    // power (full-load preheat ~9 C at the default interaction degree).
    cfg.ambient.psiCpuMemXi *= 3.0;
    return cfg;
}

ThermalSimulator::ThermalSimulator(SimConfig c) : cfg(std::move(c))
{
    panicIfNot(cfg.window > 0.0, "ThermalSimulator: window must be > 0");
    panicIfNot(cfg.dtmInterval >= cfg.window,
               "ThermalSimulator: DTM interval must be >= window");
    panicIfNot(cfg.nCores >= 1, "ThermalSimulator: need >= 1 core");
}

ThermalSimulator::Lane::Lane(const SimConfig &cfg, const Workload &mix,
                             BankSlopeMemo *slopes)
    : batch(mix, cfg.copiesPerApp, cfg.instrScale),
      inputs(mix, cfg.nCores, cfg.rotationSlice),
      ambient(cfg.ambient),
      mem(cfg.org, cfg.cooling, DimmPowerModel{}, ambient.temperature(),
          cfg.trafficShares, cfg.bankGrid, slopes),
      sensorRng(cfg.sensorSeed),
      nextRotation(cfg.rotationSlice),
      nextTrace(cfg.traceSample)
{
    res.workload = mix.name;
    res.ambTrace = TimeSeries(cfg.traceSample);
    res.dramTrace = TimeSeries(cfg.traceSample);
    res.inletTrace = TimeSeries(cfg.traceSample);
    res.cpuPowerTrace = TimeSeries(cfg.traceSample);
    res.bwTrace = TimeSeries(cfg.traceSample);

    // Core slots; round-robin dispatch from the batch queue.
    slot.assign(static_cast<std::size_t>(cfg.nCores), -1);
    for (int &s : slot)
        s = batch.indexOf(batch.nextPending());

    // The machine idles long enough before the run for temperatures to
    // settle (the measurement protocol of Section 5.4.1). Refresh power
    // is not set yet, so the settled state is refresh-free; the feedback
    // edge engages from the first window.
    mem.resetToStable(0.0, 0.0, ambient.temperature());

    sched.reserve(slot.size());
    if (!cfg.refresh.empty()) {
        const std::size_t n =
            static_cast<std::size_t>(cfg.org.nDimmsPerChannel);
        res.refreshBwLossPerDimm.assign(n, 0.0);
        res.refreshEnergyPerDimm.assign(n, 0.0);
        derating.band.assign(n, 0);
        derating.power.assign(n, 0.0);
        derating.lossAdd.assign(n, 0.0);
        derating.energyAdd.assign(n, 0.0);
    }
    if (cfg.bankGrid) {
        res.bankGridX = cfg.bankGrid->x;
        res.bankGridZ = cfg.bankGrid->z;
    }

    live = !batch.done() && t < cfg.maxSimTime;
}

void
ThermalSimulator::Schedule::reserve(std::size_t cores)
{
    entries.reserve(cores);
    tasks.reserve(cores);
}

void
ThermalSimulator::reserveScratch(Scratch &scratch) const
{
    const std::size_t n_cores = static_cast<std::size_t>(cfg.nCores);
    scratch.activities.reserve(n_cores);
    scratch.perf.ips.reserve(n_cores);
    scratch.perf.taskTraffic.reserve(n_cores);
}

void
ThermalSimulator::senseLane(Lane &lane) const
{
    MemoryThermalSample cur = lane.mem.current();
    lane.reading.amb = senseTemp(cur.hottestAmb, cfg.sensorNoiseSigma,
                                 cfg.sensorQuant, lane.sensorRng);
    lane.reading.dram = senseTemp(cur.hottestDram, cfg.sensorNoiseSigma,
                                  cfg.sensorQuant, lane.sensorRng);
    lane.reading.inlet = lane.ambient.temperature();
    // Exact per-DIMM temperatures (ideal sensors) — feeding them
    // through the noisy scalar path would consume extra RNG
    // draws and shift every pinned golden.
    lane.mem.currentPerDimm(lane.reading.ambPerDimm,
                            lane.reading.dramPerDimm);
}

void
ThermalSimulator::applyDecision(Lane &lane, const DtmAction &a) const
{
    lane.action = a;
    if (!a.trafficShares.empty()) {
        double moved = lane.mem.setTrafficShares(a.trafficShares);
        lane.remapBurstGb = moved * cfg.remapCostGbPerShare;
        lane.derating.stale = true;
    }
    lane.nextDtm += cfg.dtmInterval;
    lane.decided = true;
}

void
ThermalSimulator::buildSchedule(Lane &lane, Scratch &scratch) const
{
    Schedule &sched = lane.sched;
    const std::vector<int> &slot = lane.slot;
    const std::size_t n_occupied = static_cast<std::size_t>(std::count_if(
        slot.begin(), slot.end(), [](int p) { return p >= 0; }));
    sched.stale = false;
    sched.activeCores = lane.action.activeCores;
    sched.nActive = std::clamp(sched.activeCores, 0,
                               static_cast<int>(n_occupied));
    sched.timeShared = sched.nActive > 0 &&
                       sched.nActive < static_cast<int>(n_occupied);

    // --- pick the slots that run: the occupied ones at positions
    // rotation, rotation + 1, ..., rotation + nActive - 1 (mod the
    // occupied count), in ascending slot order.
    sched.entries.clear();
    const std::size_t n_active = static_cast<std::size_t>(sched.nActive);
    const std::size_t first = n_occupied ? lane.rotation % n_occupied : 0;
    std::size_t pos = 0;
    for (std::size_t i = 0; i < slot.size(); ++i) {
        if (slot[i] < 0)
            continue;
        if ((pos + n_occupied - first) % n_occupied < n_active) {
            Schedule::Entry e;
            e.slot = i;
            e.pool = slot[i];
            sched.entries.push_back(e);
        }
        ++pos;
    }

    // --- per-task inputs ---------------------------------------------
    // L2 sharers — Chapter 4: one shared L2 across all cores. Chapter 5:
    // one L2 per 2-core socket.
    sched.tasks.clear();
    for (Schedule::Entry &e : sched.entries) {
        int sharers = static_cast<int>(sched.entries.size());
        if (cfg.perSocketL2) {
            sharers = 0;
            for (const Schedule::Entry &o : sched.entries)
                if (o.slot / 2 == e.slot / 2)
                    ++sharers;
        }
        const BatchJob::Instance *inst = lane.batch.at(e.pool);
        const AppDescriptor &app = *inst->app;
        const std::size_t row = lane.inputs.row(inst->app);
        e.sharedMpki = lane.inputs.mpkiAt(row, sharers);
        if (sched.timeShared)
            e.switchCost = lane.inputs.switchCost(row);
        e.phase = scratch.phases.key(app, cfg.window);
        CoreTask task;
        task.cpiCore = app.cpiCore;
        task.writeFrac = app.writeFrac;
        task.specFrac = app.specFrac;
        task.mlpOverlap = app.mlpOverlap;
        sched.tasks.push_back(task);
    }
}

void
ThermalSimulator::buildDerating(Lane &lane) const
{
    // Each DIMM's band steals its bandwidth fraction from the DIMM's
    // share of the sustainable bandwidth and scales the idle latency
    // (AL-DRAM timing margins); its refresh power rides on the DIMM's
    // DRAM devices in the thermal model's power evaluation.
    RefreshDerating &d = lane.derating;
    const std::vector<double> &shares = lane.mem.trafficShares();
    const std::size_t n_dimms = d.band.size();
    const Seconds dt = cfg.window;
    double loss_frac = 0.0;
    double lat_mult = 0.0;
    for (std::size_t i = 0; i < n_dimms; ++i) {
        const RefreshBand &band = cfg.refresh.bands[d.band[i]];
        const double share =
            shares.empty() ? 1.0 / static_cast<double>(n_dimms)
                           : shares[i];
        loss_frac += share * band.bwFraction;
        lat_mult += share * band.latencyMult;
        d.power[i] = band.dramPower;
        d.lossAdd[i] = cfg.memPerf.peakBandwidth *
                       cfg.memPerf.maxUtilization * share *
                       band.bwFraction * dt;
        d.energyAdd[i] = band.dramPower * dt;
    }
    d.perf = cfg.memPerf;
    d.perf.peakBandwidth *= std::max(0.0, 1.0 - loss_frac);
    d.perf.idleLatencyNs *= lat_mult;
    lane.mem.setRefreshDramPower(d.power);
    d.stale = false;
}

void
ThermalSimulator::windowPre(Lane &lane, Scratch &scratch) const
{
    const Seconds dt = cfg.window;
    const Seconds eps = dt * 1e-6;
    const GHz fmax = cfg.dvfs.maxFreq();

    Schedule &sched = lane.sched;
    std::vector<CoreTask> &tasks = sched.tasks;
    std::vector<double> &activities = scratch.activities;
    WindowPerf &perf = scratch.perf;

    // --- schedule: pick the slots that run this window --------------
    if (lane.t + eps >= lane.nextRotation) {
        ++lane.rotation;
        lane.nextRotation += cfg.rotationSlice;
        // Without time-sharing every occupied slot runs, whatever the
        // rotation.
        if (sched.timeShared)
            sched.stale = true;
    }
    if (sched.stale || sched.activeCores != lane.action.activeCores)
        buildSchedule(lane, scratch);

    // --- level-1 window tasks: this window's phase of each copy ------
    const DvfsState &dv = cfg.dvfs.at(lane.action.dvfsLevel);
    for (std::size_t i = 0; i < tasks.size(); ++i) {
        const Schedule::Entry &e = sched.entries[i];
        const BatchJob::Instance *inst = lane.batch.at(e.pool);
        double mpki = e.sharedMpki *
                      scratch.phases.at(e.phase, inst->scheduledWindows);
        if (sched.timeShared)
            mpki += e.switchCost;
        tasks[i].mpki = mpki;
    }

    GBps cap = lane.action.memoryOn ? lane.action.bandwidthCap : 0.0;
    if (cfg.refresh.empty()) {
        solvePerfWindow(tasks, dv.freq, fmax, cap, cfg.memPerf, perf);
    } else {
        // Refresh feedback (temperature -> performance): each DIMM's
        // current DRAM temperature selects a refresh band, and the
        // level-1 solve sees the memory system those bands derate
        // (buildDerating). Bands are re-read every window, so the rate
        // follows the temperature at window granularity; the derating
        // is rebuilt only when a band or the shares change.
        RefreshDerating &d = lane.derating;
        const std::span<const Celsius> dram = lane.mem.dramTemps();
        bool changed = d.stale;
        for (std::size_t i = 0; i < dram.size(); ++i) {
            const std::size_t band = static_cast<std::size_t>(
                &cfg.refresh.bandAt(dram[i]) - cfg.refresh.bands.data());
            if (band != d.band[i]) {
                d.band[i] = band;
                changed = true;
            }
        }
        if (changed)
            buildDerating(lane);
        for (std::size_t i = 0; i < dram.size(); ++i) {
            lane.res.refreshBwLossPerDimm[i] += d.lossAdd[i];
            lane.res.refreshEnergyPerDimm[i] += d.energyAdd[i];
        }
        solvePerfWindow(tasks, dv.freq, fmax, cap, d.perf, perf);
    }

    // DTM control overhead: a decision window loses dtmOverhead of
    // useful execution time (Table 4.1).
    double progress_scale = 1.0;
    if (lane.decided && cfg.dtmOverhead > 0.0) {
        progress_scale =
            std::max(0.0, 1.0 - cfg.dtmOverhead / cfg.window);
    }

    // --- progress + retirement ---------------------------------------
    double sum_v_ipc = 0.0;
    for (std::size_t i = 0; i < tasks.size(); ++i) {
        const Schedule::Entry &e = sched.entries[i];
        BatchJob::Instance *inst = lane.batch.at(e.pool);
        double instrs = perf.ips[i] * dt * progress_scale;
        inst->remainingInstr -= instrs;
        ++inst->scheduledWindows;
        lane.res.totalInstr += instrs;
        lane.res.totalL2Misses += instrs * tasks[i].mpki / 1000.0;
        sum_v_ipc += dv.volts * (perf.ips[i] / (fmax * 1e9));
        if (inst->remainingInstr <= 0.0) {
            lane.batch.retire(inst);
            lane.slot[e.slot] =
                lane.batch.indexOf(lane.batch.nextPending());
            sched.stale = true;
        }
    }

    GBps read = perf.totalRead * progress_scale;
    GBps write = perf.totalWrite * progress_scale;
    if (lane.remapBurstGb > 0.0) {
        // Migration cost: the page-copy burst of a remap rides in
        // the window that applied it — half reads (source DIMMs),
        // half writes (destination). It heats the memory and counts
        // as traffic but retires no instructions, so remapping is
        // never free.
        GBps burst = lane.remapBurstGb / dt;
        read += 0.5 * burst;
        write += 0.5 * burst;
        lane.remapBurstGb = 0.0;
    }
    lane.res.totalReadGB += read * dt;
    lane.res.totalWriteGB += write * dt;

    // --- power + staged thermal --------------------------------------
    Watts cpu_power;
    if (cfg.cpuPowerActivity) {
        activities.clear();
        if (lane.action.memoryOn) {
            for (std::size_t i = 0; i < tasks.size(); ++i) {
                double cpi_total = dv.freq * 1e9 /
                                   std::max(perf.ips[i], 1.0);
                activities.push_back(std::clamp(
                    tasks[i].cpiCore / cpi_total, 0.0, 1.0));
            }
        }
        cpu_power =
            cfg.cpuPowerActivity->power(activities, lane.action.dvfsLevel);
    } else {
        bool halted = !lane.action.memoryOn;
        cpu_power = cfg.cpuPowerTable.power(
            halted ? 0 : sched.nActive, lane.action.dvfsLevel, halted);
    }

    Celsius inlet = lane.ambient.advance(sum_v_ipc, cpu_power, dt);
    lane.mem.stageAdvance(read, write, inlet, dt);

    lane.pendingCpuPower = cpu_power;
    lane.pendingInlet = inlet;
    lane.pendingRead = read;
    lane.pendingWrite = write;
}

void
ThermalSimulator::windowPost(Lane &lane) const
{
    const Seconds dt = cfg.window;
    const Seconds eps = dt * 1e-6;

    MemoryThermalSample ms = lane.mem.finishAdvance(dt);

    lane.res.memEnergy += ms.subsystemPower * dt;
    lane.res.cpuEnergy += lane.pendingCpuPower * dt;
    lane.res.maxAmb = std::max(lane.res.maxAmb, ms.hottestAmb);
    lane.res.maxDram = std::max(lane.res.maxDram, ms.hottestDram);
    if (ms.hottestAmb > cfg.limits.ambTdp)
        lane.res.timeAboveAmbTdp += dt;
    if (ms.hottestDram > cfg.limits.dramTdp)
        lane.res.timeAboveDramTdp += dt;

    if (lane.t + eps >= lane.nextTrace) {
        lane.res.ambTrace.add(ms.hottestAmb);
        lane.res.dramTrace.add(ms.hottestDram);
        lane.res.inletTrace.add(lane.pendingInlet);
        lane.res.cpuPowerTrace.add(lane.pendingCpuPower);
        lane.res.bwTrace.add(lane.pendingRead + lane.pendingWrite);
        lane.nextTrace += cfg.traceSample;
    }

    lane.t += dt;
    lane.live = !lane.batch.done() && lane.t < cfg.maxSimTime;
    lane.decided = false;
}

void
ThermalSimulator::finalizeLane(Lane &lane) const
{
    lane.res.completed = lane.batch.done();
    lane.res.runningTime = lane.t;
    std::vector<DimmTemps> peaks = lane.mem.dimmPeaks();
    lane.res.peakAmbPerDimm.reserve(peaks.size());
    lane.res.peakDramPerDimm.reserve(peaks.size());
    for (const DimmTemps &p : peaks) {
        lane.res.peakAmbPerDimm.push_back(p.amb);
        lane.res.peakDramPerDimm.push_back(p.dram);
    }
    lane.res.avgPowerPerDimm = lane.mem.dimmAvgPower();
    lane.res.peakBankDramPerDimm = lane.mem.bankPeaks();
}

SimResult
ThermalSimulator::run(const Workload &mix, DtmPolicy &policy) const
{
    Scratch scratch;
    return run(mix, policy, scratch);
}

SimResult
ThermalSimulator::run(const Workload &mix, DtmPolicy &policy,
                      Scratch &scratch) const
{
    return std::move(runBatch(mix, {&policy}, scratch).front());
}

std::vector<SimResult>
ThermalSimulator::runBatch(const Workload &mix,
                           const std::vector<DtmPolicy *> &policies,
                           Scratch &scratch, BatchStats *stats) const
{
    const std::size_t n_pol = policies.size();
    panicIfNot(n_pol >= 1, "runBatch: need >= 1 policy");
    for (DtmPolicy *p : policies) {
        panicIfNot(p != nullptr, "runBatch: null policy");
        p->reset();
    }
    reserveScratch(scratch);

    /// One trajectory: a lane plus the policies riding on it.
    struct Group
    {
        Lane lane;
        std::vector<std::size_t> members; ///< indices into `policies`
    };
    // Trajectories not yet run to their end. Every fork moves >= 1
    // member into a new group, so at most n_pol groups exist at once.
    std::vector<Group> work;
    work.reserve(n_pol);
    work.push_back(Group{Lane(cfg, mix, &scratch.bankSlopes), {}});
    work.back().members.resize(n_pol);
    for (std::size_t m = 0; m < n_pol; ++m)
        work.back().members[m] = m;

    BatchStats local;
    // Per-decision scratch: the members' actions and, per distinct
    // action, the member lists of the split. The inner bucket vectors
    // are kept across decisions (only the first uniq.size() are in use)
    // so the steady state reuses their capacity instead of allocating.
    std::vector<DtmAction> actions;
    std::vector<std::size_t> uniq; // position of each distinct action
    std::vector<std::vector<std::size_t>> buckets;

    // Sense once, ask every member's policy, and fork the lane where
    // their actions diverge. Sense BEFORE forking: the sensor draws land
    // in the shared RNG, so every member's stream position matches the
    // one draw its from-scratch run would have made here.
    auto decide = [&](Group &g) {
        Lane &lane = g.lane;
        senseLane(lane);
        if (g.members.size() == 1) {
            applyDecision(lane, policies[g.members[0]]->decide(lane.reading,
                                                               lane.t));
            return;
        }
        actions.clear();
        for (std::size_t m : g.members)
            actions.push_back(policies[m]->decide(lane.reading, lane.t));
        // Partition members by action equality, first-seen order.
        uniq.clear();
        for (std::size_t i = 0; i < actions.size(); ++i) {
            std::size_t b = uniq.size();
            for (std::size_t k = 0; k < uniq.size(); ++k) {
                if (actions[uniq[k]] == actions[i]) {
                    b = k;
                    break;
                }
            }
            if (b == uniq.size()) {
                uniq.push_back(i);
                if (buckets.size() < uniq.size())
                    buckets.emplace_back();
                buckets[b].clear();
            }
            buckets[b].push_back(g.members[i]);
        }
        // Forks copy the PRE-decision lane (lane is not mutated until
        // every copy is taken), then each gets its own action applied —
        // exactly what its members' from-scratch runs would have
        // computed here. They take this window's step when popped.
        for (std::size_t b = 1; b < uniq.size(); ++b) {
            panicIfNot(work.size() + 1 < n_pol,
                       "runBatch: lane budget exceeded");
            work.push_back(Group{lane, std::move(buckets[b])});
            // A copied vector holds only its size; give the fork's
            // schedule room for every core so its rebuilds never
            // allocate.
            work.back().lane.sched.reserve(lane.slot.size());
            applyDecision(work.back().lane, actions[uniq[b]]);
            ++local.forks;
        }
        applyDecision(lane, actions[uniq[0]]);
        // Swap, not move: the old member list's capacity returns to the
        // bucket for the next decision.
        g.members.swap(buckets[0]);
    };

    std::vector<SimResult> out(n_pol);
    const Seconds eps = cfg.window * 1e-6;
    while (!work.empty()) {
        Group g = std::move(work.back());
        work.pop_back();
        Lane &lane = g.lane;
        while (lane.live) {
            // A fork arrives with this window's decision applied.
            if (!lane.decided && lane.t + eps >= lane.nextDtm)
                decide(g);
            windowPre(lane, scratch);
            lane.mem.commitStaged();
            windowPost(lane);
            local.simulatedWindows += 1.0;
            local.logicalWindows += static_cast<double>(g.members.size());
        }

        finalizeLane(lane);
        for (std::size_t k = 0; k < g.members.size(); ++k) {
            const std::size_t m = g.members[k];
            if (k + 1 == g.members.size())
                out[m] = std::move(lane.res);
            else
                out[m] = lane.res;
            out[m].policy = policies[m]->name();
        }
    }
    if (stats)
        *stats = local;
    return out;
}

} // namespace memtherm
