#include "core/thermal/memory_thermal.hh"

#include <algorithm>
#include <cmath>

#include "common/logging.hh"

namespace memtherm
{

namespace
{

BankSlopes
bankSlopesOf(const BankGridConfig &grid, int n_dimms)
{
    return resolveBankSlopes(resolveBankCellWeights(grid, n_dimms), n_dimms,
                             grid.cells());
}

/** The chain length, once the organization and shares are checked. */
int
checkedDimms(const MemoryOrgConfig &org, const std::vector<double> &shares)
{
    panicIfNot(org.nChannels >= 1 && org.nDimmsPerChannel >= 1,
               "MemoryThermalModel: bad organization");
    panicIfNot(shares.empty() ||
                   static_cast<int>(shares.size()) == org.nDimmsPerChannel,
               "MemoryThermalModel: traffic share arity");
    return org.nDimmsPerChannel;
}

} // namespace

MemoryThermalModel::MemoryThermalModel(const MemoryOrgConfig &org,
                                       const CoolingConfig &cooling,
                                       const DimmPowerModel &power,
                                       Celsius t0,
                                       std::vector<double> traffic_shares,
                                       std::optional<BankGridConfig>
                                           bank_grid)
    : orgCfg(org), pwr(power), cool(cooling),
      shares(std::move(traffic_shares)), grid(std::move(bank_grid)),
      st(checkedDimms(orgCfg, shares), grid ? grid->cells() : 0)
{
    if (grid)
        slopes = bankSlopesOf(*grid, orgCfg.nDimmsPerChannel);
    st.init(cool.tauAmb, cool.tauDram, t0);
}

const std::vector<DimmPower> &
MemoryThermalModel::channelPower(GBps total_read, GBps total_write) const
{
    GBps ch_read = total_read / orgCfg.nChannels;
    GBps ch_write = total_write / orgCfg.nChannels;
    decomposeChannelTraffic(ch_read, ch_write, orgCfg.nDimmsPerChannel,
                            shares, trafficScratch);
    powerScratch.resize(trafficScratch.size());
    for (std::size_t i = 0; i < trafficScratch.size(); ++i) {
        bool last = static_cast<int>(i) == orgCfg.nDimmsPerChannel - 1;
        powerScratch[i] = pwr.power(trafficScratch[i], last);
    }
    // Refresh feedback: temperature-dependent refresh power rides on
    // the DRAM devices, so it reaches the stable-temperature targets,
    // the per-DIMM energy accumulators and the subsystem power alike.
    if (!refreshDram.empty())
        for (std::size_t i = 0; i < powerScratch.size(); ++i)
            powerScratch[i].dram += refreshDram[i];
    return powerScratch;
}

void
MemoryThermalModel::setRefreshDramPower(const std::vector<Watts> &w)
{
    panicIfNot(w.empty() ||
                   static_cast<int>(w.size()) == orgCfg.nDimmsPerChannel,
               "MemoryThermalModel: refresh power arity");
    for (Watts p : w)
        panicIfNot(std::isfinite(p) && p >= 0.0,
                   "MemoryThermalModel: refresh power must be finite "
                   "and non-negative");
    refreshDram.assign(w.begin(), w.end());
}

void
MemoryThermalModel::stageAdvance(GBps total_read, GBps total_write,
                                 Celsius ambient, Seconds dt)
{
    st.ensureDecay(dt);
    const auto &powers = channelPower(total_read, total_write);
    double *sa = st.stableAmb();
    double *sd = st.stableDram();
    for (std::size_t i = 0; i < powers.size(); ++i) {
        sa[i] = stableAmbAt(ambient, powers[i]);
        sd[i] = stableDramAt(ambient, powers[i]);
    }
    if (grid) {
        double *sv = st.stableBankRc();
        for (std::size_t i = 0; i < powers.size(); ++i)
            sv[i] = stableBankRcAt(powers[i]);
    }
}

MemoryThermalSample
MemoryThermalModel::finishAdvance(Seconds dt)
{
    MemoryThermalSample s;
    Watts channel_power = 0.0;
    const double *amb = st.ambTemp();
    const double *dram = st.dramTemp();
    double *pa = st.peakAmb();
    double *pd = st.peakDram();
    double *e = st.energy();
    for (std::size_t i = 0; i < powerScratch.size(); ++i) {
        s.hottestAmb = std::max(s.hottestAmb, amb[i]);
        s.hottestDram = std::max(s.hottestDram, dram[i]);
        pa[i] = std::max(pa[i], amb[i]);
        pd[i] = std::max(pd[i], dram[i]);
        e[i] += powerScratch[i].total() * dt;
        channel_power += powerScratch[i].total();
    }
    if (grid) {
        const int cells = slopes.cells;
        const double *v = st.bankRc();
        BankLine *env = st.bankEnvelope();
        for (std::size_t i = 0; i < powerScratch.size(); ++i)
            bankEnvelopeInsert(slopes.x.data() + i * cells, slopes.count[i],
                               env + i * cells, BankLine{dram[i], v[i]});
    }
    st.energyTime() += dt;
    s.subsystemPower = channel_power * orgCfg.nChannels;
    return s;
}

MemoryThermalSample
MemoryThermalModel::advance(GBps total_read, GBps total_write,
                            Celsius ambient, Seconds dt)
{
    stageAdvance(total_read, total_write, ambient, dt);
    commitStaged();
    return finishAdvance(dt);
}

Celsius
MemoryThermalModel::stableHottestAmb(GBps total_read, GBps total_write,
                                     Celsius ambient) const
{
    const auto &powers = channelPower(total_read, total_write);
    Celsius hottest = ambient;
    for (const auto &p : powers)
        hottest = std::max(hottest, stableAmbAt(ambient, p));
    return hottest;
}

Celsius
MemoryThermalModel::stableHottestDram(GBps total_read, GBps total_write,
                                      Celsius ambient) const
{
    const auto &powers = channelPower(total_read, total_write);
    Celsius hottest = ambient;
    for (const auto &p : powers)
        hottest = std::max(hottest, stableDramAt(ambient, p));
    return hottest;
}

Watts
MemoryThermalModel::subsystemPower(GBps total_read, GBps total_write) const
{
    const auto &powers = channelPower(total_read, total_write);
    Watts channel_power = 0.0;
    for (const auto &p : powers)
        channel_power += p.total();
    return channel_power * orgCfg.nChannels;
}

MemoryThermalSample
MemoryThermalModel::current() const
{
    MemoryThermalSample s;
    const double *amb = st.ambTemp();
    const double *dram = st.dramTemp();
    for (int i = 0; i < orgCfg.nDimmsPerChannel; ++i) {
        s.hottestAmb = std::max(s.hottestAmb, amb[i]);
        s.hottestDram = std::max(s.hottestDram, dram[i]);
    }
    return s;
}

std::vector<DimmTemps>
MemoryThermalModel::dimmTemps() const
{
    std::vector<DimmTemps> out;
    out.reserve(static_cast<std::size_t>(orgCfg.nDimmsPerChannel));
    const double *amb = st.ambTemp();
    const double *dram = st.dramTemp();
    for (int i = 0; i < orgCfg.nDimmsPerChannel; ++i)
        out.push_back({amb[i], dram[i]});
    return out;
}

void
MemoryThermalModel::currentPerDimm(std::vector<Celsius> &amb,
                                   std::vector<Celsius> &dram) const
{
    const std::size_t n =
        static_cast<std::size_t>(orgCfg.nDimmsPerChannel);
    amb.resize(n);
    dram.resize(n);
    const double *a = st.ambTemp();
    const double *d = st.dramTemp();
    for (std::size_t i = 0; i < n; ++i) {
        amb[i] = a[i];
        dram[i] = d[i];
    }
}

double
MemoryThermalModel::setTrafficShares(const std::vector<double> &new_shares)
{
    const int n = orgCfg.nDimmsPerChannel;
    panicIfNot(new_shares.empty() ||
                   static_cast<int>(new_shares.size()) == n,
               "MemoryThermalModel: traffic share arity");
    double sum = 0.0;
    for (double s : new_shares) {
        panicIfNot(std::isfinite(s) && s >= 0.0,
                   "MemoryThermalModel: traffic shares must be finite "
                   "and non-negative");
        sum += s;
    }
    panicIfNot(new_shares.empty() || std::abs(sum - 1.0) < 1e-9,
               "MemoryThermalModel: traffic shares must sum to 1");
    const double uniform = 1.0 / n;
    double l1 = 0.0;
    for (int i = 0; i < n; ++i) {
        double oldv = shares.empty() ? uniform : shares[i];
        double newv = new_shares.empty() ? uniform : new_shares[i];
        l1 += std::abs(newv - oldv);
    }
    // Copy-assign into the existing buffer: a remap migration reuses
    // its capacity instead of allocating.
    shares = new_shares;
    return 0.5 * l1;
}

std::vector<DimmTemps>
MemoryThermalModel::dimmPeaks() const
{
    std::vector<DimmTemps> out;
    out.reserve(static_cast<std::size_t>(orgCfg.nDimmsPerChannel));
    const double *pa = st.peakAmb();
    const double *pd = st.peakDram();
    for (int i = 0; i < orgCfg.nDimmsPerChannel; ++i)
        out.push_back({pa[i], pd[i]});
    return out;
}

std::vector<Celsius>
MemoryThermalModel::bankPeaks() const
{
    if (!grid)
        return {};
    const int cells = slopes.cells;
    const BankLine *env = st.bankEnvelope();
    std::vector<Celsius> out(slopes.slot.size());
    for (std::size_t i = 0; i < out.size(); ++i) {
        const std::size_t base = i / cells * cells;
        out[i] = bankEnvelopeQuery(slopes.x.data() + base,
                                   slopes.count[i / cells], env + base,
                                   slopes.slot[i]);
    }
    return out;
}

std::vector<Watts>
MemoryThermalModel::dimmAvgPower() const
{
    const std::size_t n =
        static_cast<std::size_t>(orgCfg.nDimmsPerChannel);
    std::vector<Watts> out(n, 0.0);
    const Seconds elapsed = st.energyTime();
    if (elapsed > 0.0) {
        const double *e = st.energy();
        for (std::size_t i = 0; i < n; ++i)
            out[i] = e[i] / elapsed;
    }
    return out;
}

void
MemoryThermalModel::reset(Celsius t)
{
    const int n = orgCfg.nDimmsPerChannel;
    double *amb = st.ambTemp();
    double *dram = st.dramTemp();
    double *pa = st.peakAmb();
    double *pd = st.peakDram();
    double *e = st.energy();
    for (int i = 0; i < n; ++i) {
        amb[i] = t;
        dram[i] = t;
        pa[i] = t;
        pd[i] = t;
        e[i] = 0.0;
    }
    if (grid) {
        for (int i = 0; i < n; ++i)
            st.bankRc()[i] = 0.0;
        st.seedBankEnvelope();
    }
    st.energyTime() = 0.0;
}

void
MemoryThermalModel::resetToStable(GBps total_read, GBps total_write,
                                  Celsius ambient)
{
    const auto &powers = channelPower(total_read, total_write);
    double *amb = st.ambTemp();
    double *dram = st.dramTemp();
    double *pa = st.peakAmb();
    double *pd = st.peakDram();
    double *e = st.energy();
    for (std::size_t i = 0; i < powers.size(); ++i) {
        amb[i] = stableAmbAt(ambient, powers[i]);
        dram[i] = stableDramAt(ambient, powers[i]);
        pa[i] = amb[i];
        pd[i] = dram[i];
        e[i] = 0.0;
    }
    if (grid) {
        double *v = st.bankRc();
        for (std::size_t i = 0; i < powers.size(); ++i)
            v[i] = stableBankRcAt(powers[i]);
        st.seedBankEnvelope();
    }
    st.energyTime() = 0.0;
}

} // namespace memtherm
