/**
 * @file
 * Property tests pinning the bank-grid thermal overlay against the
 * lumped per-DIMM model (the correctness contract of
 * core/thermal/bank_grid.hh):
 *
 *  - under uniform per-bank traffic every bank cell is bit-identical to
 *    the lumped DRAM node, across organizations, traffic shapes and
 *    refresh models over seeded random inputs;
 *  - the smoothing operator conserves the weight sum and fixes constant
 *    fields, so the grid's mean target tracks the lumped target for
 *    arbitrary random weight vectors (<= 1e-6 relative);
 *  - `thermal_model: "lumped"` is bit-identical to leaving the knob
 *    unset, and a grid-free result carries no per-bank fields;
 *  - batched/forked lanes are bit-identical to scalar runs with the
 *    grid active;
 *  - the affine overlay's envelope peaks match the per-cell RC
 *    iteration it replaced (kept here as the oracle) within 1e-9
 *    relative on a 4x8 organization with a 32x32 grid, under DTM-TS
 *    shutdowns, remap policies, ddr2_2x refresh and forks;
 *  - concentrated weights expose a per-bank hotspot >= 5 C above the
 *    lumped DIMM peak (the bank_hotspot example's headline);
 *  - ThermalModelSpec and lower() report bad grids and conflicting
 *    knobs as FatalError with the documented messages.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <iostream>
#include <limits>
#include <memory>
#include <numeric>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/logging.hh"
#include "common/rng.hh"
#include "core/power/dimm_traffic.hh"
#include "core/sim/engine.hh"
#include "core/sim/refresh_model.hh"
#include "core/sim/registry.hh"
#include "core/sim/scenario.hh"
#include "core/thermal/bank_grid.hh"
#include "core/thermal/memory_thermal.hh"
#include "dram/trace.hh"

namespace memtherm
{
namespace
{

/** Random non-negative weight vector summing to 1. */
std::vector<double>
randomWeights(Rng &rng, int n)
{
    std::vector<double> w(n);
    double sum = 0.0;
    for (double &v : w) {
        v = rng.uniform() + 1e-3; // bounded away from all-zero
        sum += v;
    }
    for (double &v : w)
        v /= sum;
    return w;
}

/** Exact (bitwise) equality of two results, per-bank fields included. */
void
expectIdentical(const SimResult &a, const SimResult &b)
{
    EXPECT_EQ(a.workload, b.workload);
    EXPECT_EQ(a.policy, b.policy);
    EXPECT_EQ(a.completed, b.completed);
    EXPECT_EQ(a.runningTime, b.runningTime);
    EXPECT_EQ(a.totalInstr, b.totalInstr);
    EXPECT_EQ(a.memEnergy, b.memEnergy);
    EXPECT_EQ(a.cpuEnergy, b.cpuEnergy);
    EXPECT_EQ(a.maxAmb, b.maxAmb);
    EXPECT_EQ(a.maxDram, b.maxDram);
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
    EXPECT_EQ(a.bwTrace.values(), b.bwTrace.values());
}

// --- primitive layer --------------------------------------------------

TEST(BankGridPrimitives, UniformWeightsResolveToExactlyOne)
{
    // The uniform fast path must write exactly 1.0 (no 1/N round-trip):
    // this is what makes a uniform cell bit-identical to the lumped
    // DRAM node.
    for (auto [x, z, dimms] : {std::tuple{4, 2, 4}, {1, 1, 1}, {8, 4, 8}}) {
        BankGridConfig g{x, z, {}};
        std::vector<double> w = resolveBankCellWeights(g, dimms);
        ASSERT_EQ(w.size(), static_cast<std::size_t>(dimms) * g.cells());
        for (double v : w)
            EXPECT_EQ(v, 1.0);
    }
}

TEST(BankGridPrimitives, SmoothingConservesSumOnRandomFields)
{
    Rng rng(20260808);
    for (auto [x, z] : {std::tuple{4, 2}, {1, 1}, {1, 8}, {5, 3}}) {
        BankGridConfig g{x, z, {}};
        for (int trial = 0; trial < 50; ++trial) {
            std::vector<double> w = randomWeights(rng, g.cells());
            std::vector<double> out(w.size());
            smoothBankCells(g, w.data(), out.data());
            const double before =
                std::accumulate(w.begin(), w.end(), 0.0);
            const double after =
                std::accumulate(out.begin(), out.end(), 0.0);
            EXPECT_NEAR(after, before, 1e-12);
            // Smoothing contracts toward the mean: no new extrema.
            const double lo = *std::min_element(w.begin(), w.end());
            const double hi = *std::max_element(w.begin(), w.end());
            for (double v : out) {
                EXPECT_GE(v, lo - 1e-12);
                EXPECT_LE(v, hi + 1e-12);
            }
        }
    }
}

TEST(BankGridPrimitives, SmoothingFixesConstantFieldsExactly)
{
    // Constant fields must be *exact* fixed points (the flux sums to
    // exactly 0.0), another link in the uniform == lumped bit-identity.
    BankGridConfig g{4, 2, {}};
    std::vector<double> w(g.cells(), 1.0);
    std::vector<double> out(w.size(), -1.0);
    smoothBankCells(g, w.data(), out.data());
    for (double v : out)
        EXPECT_EQ(v, 1.0);
}

TEST(BankGridPrimitives, ScaledWeightsAverageOnePerDimmBlock)
{
    // sum(weights) == 1 and smoothing conserves the sum, so the scaled
    // (x cells) weights average exactly 1 per DIMM block — which is why
    // the grid's mean stable target reproduces the lumped target for
    // ANY weight vector (the <= 1e-6 contract, met at ~1e-15 here).
    Rng rng(7);
    for (int trial = 0; trial < 100; ++trial) {
        BankGridConfig g{1 + static_cast<int>(rng.below(6)),
                         1 + static_cast<int>(rng.below(6)),
                         {}};
        const int dimms = 1 + static_cast<int>(rng.below(8));
        g.weights = randomWeights(rng, g.cells());
        std::vector<double> w = resolveBankCellWeights(g, dimms);
        for (int d = 0; d < dimms; ++d) {
            double mean = 0.0;
            for (int c = 0; c < g.cells(); ++c)
                mean += w[d * g.cells() + c];
            mean /= g.cells();
            EXPECT_NEAR(mean, 1.0, 1e-6);
        }
    }
}

TEST(BankGridPrimitives, PerDimmWeightBlocksResolveIndependently)
{
    // The trace decoder hands resolveBankCellWeights nDimms*cells()
    // entries; each DIMM's block must resolve exactly as it would alone.
    Rng rng(99);
    BankGridConfig per_dimm{2, 2, {}};
    const int dimms = 3;
    for (int d = 0; d < dimms; ++d) {
        auto w = randomWeights(rng, per_dimm.cells());
        per_dimm.weights.insert(per_dimm.weights.end(), w.begin(),
                                w.end());
    }
    std::vector<double> all = resolveBankCellWeights(per_dimm, dimms);
    for (int d = 0; d < dimms; ++d) {
        BankGridConfig one{2, 2,
                           {per_dimm.weights.begin() +
                                d * per_dimm.cells(),
                            per_dimm.weights.begin() +
                                (d + 1) * per_dimm.cells()}};
        std::vector<double> solo = resolveBankCellWeights(one, 1);
        for (int c = 0; c < per_dimm.cells(); ++c)
            EXPECT_EQ(all[d * per_dimm.cells() + c], solo[c]);
    }
}

TEST(BankGridPrimitives, Panics)
{
    EXPECT_THROW(resolveBankCellWeights(BankGridConfig{0, 2, {}}, 4),
                 PanicError);
    EXPECT_THROW(resolveBankCellWeights(BankGridConfig{4, 2, {}}, 0),
                 PanicError);
    // Wrong arity: neither cells() nor nDimms*cells().
    EXPECT_THROW(
        resolveBankCellWeights(BankGridConfig{2, 2, {0.5, 0.5}}, 2),
        PanicError);
    EXPECT_THROW(resolveBankCellWeights(
                     BankGridConfig{1, 2, {0.5, -0.5}}, 1),
                 PanicError);
    EXPECT_THROW(
        resolveBankCellWeights(
            BankGridConfig{1, 2, {0.5, std::nan("")}}, 1),
        PanicError);
}

// --- simulator layer --------------------------------------------------

SimConfig
baseConfig()
{
    SimConfig cfg = makeCh4Config(coolingAohs15(), false);
    cfg.copiesPerApp = 1;
    return cfg;
}

/**
 * The headline property: across organizations, traffic shapes and
 * refresh models (with seeded random shares in the mix), a run with the
 * uniform bank grid is bit-identical to the lumped run on every
 * pre-existing field, and every bank cell's peak equals its DIMM's
 * lumped peak bitwise — the grid's "mean reproduces the lumped model"
 * contract at its strongest (exact, not just <= 1e-6).
 */
TEST(BankGridSim, UniformGridBitIdenticalToLumpedAcrossConfigs)
{
    Rng rng(20260808);
    struct Case
    {
        MemoryOrgConfig org;
        std::string refresh;
        bool random_shares;
    };
    const std::vector<Case> cases = {
        {{4, 4}, "", false},        {{4, 4}, "ddr2_2x", true},
        {{2, 8}, "", true},         {{2, 8}, "aldram", false},
        {{1, 2}, "ddr2_2x", false},
    };
    for (const Case &c : cases) {
        SimConfig cfg = baseConfig();
        cfg.org = c.org;
        if (!c.refresh.empty())
            cfg.refresh = refreshModelByName(c.refresh);
        if (c.random_shares)
            cfg.trafficShares =
                randomWeights(rng, cfg.org.nDimmsPerChannel);

        SimConfig grid_cfg = cfg;
        grid_cfg.bankGrid = BankGridConfig{}; // uniform 4x2

        ThermalSimulator lumped(cfg);
        ThermalSimulator gridded(grid_cfg);
        auto p1 = makeCh4Policy("DTM-BW");
        auto p2 = makeCh4Policy("DTM-BW");
        SimResult a = lumped.run(workloadMix("W1"), *p1);
        SimResult b = gridded.run(workloadMix("W1"), *p2);

        // Lumped result carries no bank fields; the grid run does.
        EXPECT_EQ(a.bankGridX, 0);
        EXPECT_TRUE(a.peakBankDramPerDimm.empty());
        EXPECT_EQ(b.bankGridX, 4);
        EXPECT_EQ(b.bankGridZ, 2);
        const int cells = 8;
        const int dimms = cfg.org.nDimmsPerChannel;
        ASSERT_EQ(b.peakBankDramPerDimm.size(),
                  static_cast<std::size_t>(dimms) * cells);

        // Every pre-existing field is bitwise unchanged by the overlay.
        EXPECT_EQ(a.runningTime, b.runningTime);
        EXPECT_EQ(a.maxDram, b.maxDram);
        EXPECT_EQ(a.maxAmb, b.maxAmb);
        EXPECT_EQ(a.memEnergy, b.memEnergy);
        EXPECT_EQ(a.peakDramPerDimm, b.peakDramPerDimm);
        EXPECT_EQ(a.peakAmbPerDimm, b.peakAmbPerDimm);
        EXPECT_EQ(a.refreshBwLossPerDimm, b.refreshBwLossPerDimm);
        EXPECT_EQ(a.dramTrace.values(), b.dramTrace.values());

        // ... and under uniform weights every cell IS its DIMM's lumped
        // DRAM node, bit for bit.
        for (int d = 0; d < dimms; ++d)
            for (int c = 0; c < cells; ++c)
                EXPECT_EQ(b.peakBankDramPerDimm[d * cells + c],
                          a.peakDramPerDimm[d]);
    }
}

/**
 * Concentrated weights expose a hotspot the lumped model cannot see:
 * the worst bank runs >= 5 C above the lumped per-DIMM peak, while the
 * lumped-driven fields stay bitwise unchanged (the grid is a diagnostic
 * overlay, not a feedback path).
 */
TEST(BankGridSim, ConcentratedWeightsExposeHotspotLumpedMisses)
{
    SimConfig cfg = baseConfig();
    cfg.copiesPerApp = 2;

    SimConfig hot = cfg;
    hot.bankGrid = BankGridConfig{
        4, 2, {0.65, 0.05, 0.05, 0.05, 0.05, 0.05, 0.05, 0.05}};

    ThermalSimulator lumped(cfg);
    ThermalSimulator gridded(hot);
    auto p1 = makeCh4Policy("No-limit");
    auto p2 = makeCh4Policy("No-limit");
    SimResult a = lumped.run(workloadMix("W1"), *p1);
    SimResult b = gridded.run(workloadMix("W1"), *p2);

    EXPECT_EQ(a.maxDram, b.maxDram);
    EXPECT_EQ(a.peakDramPerDimm, b.peakDramPerDimm);

    ASSERT_FALSE(b.peakBankDramPerDimm.empty());
    const double worst_bank = *std::max_element(
        b.peakBankDramPerDimm.begin(), b.peakBankDramPerDimm.end());
    const double worst_dimm = *std::max_element(
        a.peakDramPerDimm.begin(), a.peakDramPerDimm.end());
    EXPECT_GE(worst_bank, worst_dimm + 5.0);
}

/**
 * For random weight vectors the grid's per-DIMM mean peak tracks the
 * lumped peak within 1e-6 relative: the weights average 1 after
 * scaling/smoothing and the per-cell step is linear in the weight, so
 * the mean trajectory is the lumped trajectory up to rounding.
 */
TEST(BankGridSim, RandomWeightGridMeanTracksLumpedPeak)
{
    Rng rng(1234);
    SimConfig cfg = baseConfig();

    for (int trial = 0; trial < 3; ++trial) {
        SimConfig grid_cfg = cfg;
        BankGridConfig g{4, 2, {}};
        g.weights = randomWeights(rng, g.cells());
        grid_cfg.bankGrid = g;

        ThermalSimulator lumped(cfg);
        ThermalSimulator gridded(grid_cfg);
        auto p1 = makeCh4Policy("No-limit");
        auto p2 = makeCh4Policy("No-limit");
        SimResult a = lumped.run(workloadMix("W2"), *p1);
        SimResult b = gridded.run(workloadMix("W2"), *p2);

        const int dimms = cfg.org.nDimmsPerChannel;
        ASSERT_EQ(b.peakBankDramPerDimm.size(),
                  static_cast<std::size_t>(dimms) * g.cells());
        for (int d = 0; d < dimms; ++d) {
            double mean = 0.0;
            for (int c = 0; c < g.cells(); ++c)
                mean += b.peakBankDramPerDimm[d * g.cells() + c];
            mean /= g.cells();
            // Peaks are maxima of monotone-ish trajectories, so the
            // mean-of-peaks can sit slightly above the peak-of-means;
            // both stay within the contract's 1e-6 relative band plus
            // a small absolute allowance for transient crossings.
            EXPECT_NEAR(mean, a.peakDramPerDimm[d],
                        1e-6 * a.peakDramPerDimm[d] + 0.05);
        }
    }
}

/** Batched/forked lanes are bit-identical to scalar with the grid on. */
TEST(BankGridSim, ForkedLanesBitIdenticalToScalarWithGridActive)
{
    SimConfig cfg = baseConfig();
    cfg.copiesPerApp = 2;
    cfg.sensorNoiseSigma = 0.3;
    cfg.trafficShares = {0.55, 0.25, 0.12, 0.08};
    cfg.refresh = refreshModelByName("ddr2_2x");
    cfg.bankGrid = BankGridConfig{
        4, 2, {0.3, 0.1, 0.1, 0.1, 0.1, 0.1, 0.1, 0.1}};

    const std::vector<std::string> names{"No-limit", "DTM-TS", "DTM-BW",
                                         "DTM-ACG"};
    ThermalSimulator sim(cfg);
    ThermalSimulator::Scratch scratch;
    PolicyBuildContext ctx{cfg.dtmInterval, cfg.emergencyLevels,
                           cfg.remapInterval, cfg.remapHysteresis,
                           cfg.trafficShares};

    std::vector<std::unique_ptr<DtmPolicy>> policies;
    std::vector<DtmPolicy *> ptrs;
    for (const auto &n : names) {
        policies.push_back(PolicyRegistry::instance().make(n, ctx));
        ptrs.push_back(policies.back().get());
    }

    BatchStats stats;
    std::vector<SimResult> batched =
        sim.runBatch(workloadMix("W1"), ptrs, scratch, &stats);
    ASSERT_EQ(batched.size(), names.size());
    EXPECT_GT(stats.forks, 0u); // the identity claim must not be vacuous

    for (std::size_t i = 0; i < names.size(); ++i) {
        auto fresh = PolicyRegistry::instance().make(names[i], ctx);
        SimResult scalar = sim.run(workloadMix("W1"), *fresh, scratch);
        ASSERT_FALSE(scalar.peakBankDramPerDimm.empty());
        expectIdentical(batched[i], scalar);
    }
}

// --- affine overlay vs. the per-cell oracle ---------------------------

TEST(BankOverlayPrimitives, SlopesAreSortedDistinctAndIndexTheirCells)
{
    Rng rng(31);
    const int dimms = 3;
    BankGridConfig g{5, 3, {}};
    g.weights = randomWeights(rng, g.cells());
    const std::vector<double> w = resolveBankCellWeights(g, dimms);
    const BankSlopes s = resolveBankSlopes(w, dimms, g.cells());
    ASSERT_EQ(s.cells, g.cells());
    for (int d = 0; d < dimms; ++d) {
        const double *x = s.x.data() + d * g.cells();
        const int n = s.count[d];
        ASSERT_GE(n, 1);
        for (int i = 1; i < n; ++i)
            EXPECT_LT(x[i - 1], x[i]);
        for (int c = 0; c < g.cells(); ++c) {
            const int slot = s.slot[d * g.cells() + c];
            ASSERT_GE(slot, 0);
            ASSERT_LT(slot, n);
            EXPECT_EQ(x[slot], w[d * g.cells() + c] - 1.0);
        }
    }
    // Uniform weights: one slope, exactly 0, per DIMM.
    const BankSlopes u =
        resolveBankSlopes(resolveBankCellWeights({4, 2, {}}, 2), 2, 8);
    EXPECT_EQ(u.count, (std::vector<int>{1, 1}));
    EXPECT_EQ(u.x[0], 0.0);
    EXPECT_EQ(u.x[8], 0.0);
}

TEST(BankOverlayPrimitives, EnvelopeMatchesBruteForceMaximum)
{
    Rng rng(2026);
    for (int trial = 0; trial < 200; ++trial) {
        const int n = 1 + static_cast<int>(rng.below(64));
        std::vector<double> x(n);
        double at = -1.0;
        for (double &v : x)
            v = at += 0.01 + rng.uniform();
        const BankLine seed{40.0 + rng.uniform(), rng.uniform() - 0.5};
        std::vector<BankLine> nodes(n, seed);
        std::vector<BankLine> lines{seed};
        const int inserts = static_cast<int>(rng.below(200));
        for (int k = 0; k < inserts; ++k) {
            const BankLine l{40.0 + 10.0 * rng.uniform(),
                             4.0 * (rng.uniform() - 0.5)};
            bankEnvelopeInsert(x.data(), n, nodes.data(), l);
            lines.push_back(l);
        }
        for (int i = 0; i < n; ++i) {
            double best = -std::numeric_limits<double>::infinity();
            for (const BankLine &l : lines)
                best = std::max(best, l.at(x[i]));
            EXPECT_NEAR(bankEnvelopeQuery(x.data(), n, nodes.data(), i),
                        best, 1e-12 * std::abs(best));
        }
    }
}

TEST(BankOverlayPrimitives, BatchStateStepsSeedsAndCopiesTheOverlay)
{
    ThermalBatchState st(2, 3);
    st.init(5.0, 2.0, 40.0);
    // init seeds every node with (t0, V = 0).
    for (int i = 0; i < 6; ++i) {
        EXPECT_EQ(st.bankEnvelope()[i].t, 40.0);
        EXPECT_EQ(st.bankEnvelope()[i].v, 0.0);
    }
    st.stableDram()[0] = st.stableDram()[1] = 40.0;
    st.stableBankRc()[0] = 3.0;
    st.stableBankRc()[1] = -1.5;
    st.ensureDecay(0.5);
    st.advance();
    const double dd = 1.0 - std::exp(-0.5 / 2.0);
    EXPECT_EQ(st.bankRc()[0], 3.0 * dd);
    EXPECT_EQ(st.bankRc()[1], -1.5 * dd);
    // Reseeding restarts DIMM d's envelope from (T_dram, V).
    st.seedBankEnvelope();
    EXPECT_EQ(st.bankEnvelope()[4].t, st.dramTemp()[1]);
    EXPECT_EQ(st.bankEnvelope()[4].v, st.bankRc()[1]);
    st.bankEnvelope()[2] = BankLine{41.0, 0.25};
    const ThermalBatchState copy = st;
    for (int i = 0; i < 2; ++i) {
        EXPECT_EQ(copy.bankRc()[i], st.bankRc()[i]);
        EXPECT_EQ(copy.stableBankRc()[i], st.stableBankRc()[i]);
    }
    for (int i = 0; i < 6; ++i) {
        EXPECT_EQ(copy.bankEnvelope()[i].t, st.bankEnvelope()[i].t);
        EXPECT_EQ(copy.bankEnvelope()[i].v, st.bankEnvelope()[i].v);
    }
    EXPECT_NE(copy.bankEnvelope(), st.bankEnvelope());
    // The lumped layout allocates no overlay.
    ThermalBatchState lumped(2);
    EXPECT_EQ(lumped.bankRc(), nullptr);
    EXPECT_EQ(lumped.bankEnvelope(), nullptr);
}

/**
 * The bank grid as it was before the affine overlay, kept as the test
 * oracle: one Eq. 3.5 RC node per cell stepped toward Eq. 3.4 with the
 * DIMM's DRAM power scaled by the cell's weight, and a running maximum
 * per cell — 8192 updates per window on a 4x8 organization at 32x32.
 */
class PerCellOracle
{
  public:
    PerCellOracle(const MemoryOrgConfig &org, const CoolingConfig &cool,
                  const BankGridConfig &grid)
        : org(org), cool(cool), cells(grid.cells()),
          w(resolveBankCellWeights(grid, org.nDimmsPerChannel)),
          temp(w.size()), peak(w.size())
    {
    }

    void
    resetToStable(GBps read, GBps write, Celsius ambient,
                  const std::vector<double> &shares)
    {
        const std::vector<DimmPower> p = power(read, write, shares, {});
        for (std::size_t i = 0; i < w.size(); ++i)
            temp[i] = peak[i] = target(ambient, p[i / cells], w[i]);
    }

    void
    advance(GBps read, GBps write, Celsius ambient, Seconds dt,
            const std::vector<double> &shares,
            const std::vector<Watts> &refresh)
    {
        const double dd = 1.0 - std::exp(-dt / cool.tauDram);
        const std::vector<DimmPower> p = power(read, write, shares, refresh);
        for (std::size_t i = 0; i < w.size(); ++i) {
            temp[i] += (target(ambient, p[i / cells], w[i]) - temp[i]) * dd;
            peak[i] = std::max(peak[i], temp[i]);
        }
    }

    const std::vector<Celsius> &peaks() const { return peak; }

  private:
    std::vector<DimmPower>
    power(GBps read, GBps write, const std::vector<double> &shares,
          const std::vector<Watts> &refresh) const
    {
        const std::vector<DimmTraffic> traffic = decomposeChannelTraffic(
            read / org.nChannels, write / org.nChannels,
            org.nDimmsPerChannel, shares);
        std::vector<DimmPower> p;
        for (std::size_t d = 0; d < traffic.size(); ++d) {
            p.push_back(
                DimmPowerModel{}.power(traffic[d], d + 1 == traffic.size()));
            if (!refresh.empty())
                p.back().dram += refresh[d];
        }
        return p;
    }

    Celsius
    target(Celsius ambient, const DimmPower &p, double wc) const
    {
        return ambient + p.amb * cool.psiAmbToDram +
               (p.dram * wc) * cool.psiDram;
    }

    MemoryOrgConfig org;
    CoolingConfig cool;
    std::size_t cells;
    std::vector<double> w;
    std::vector<Celsius> temp;
    std::vector<Celsius> peak;
};

/** How much of the driven run's behavior a case actually exercised. */
struct OverlayCoverage
{
    int shutdownWindows = 0;
    int remaps = 0;
    int hotBandSamples = 0;
};

/**
 * Drive a MemoryThermalModel and the oracle with the same seeded inputs
 * the simulator would produce: random traffic and a wandering inlet, DTM
 * decisions every 10 windows from the registered @p policy (shutdowns
 * zero the traffic, remaps replace the shares), and ddr2_2x refresh
 * power from each DIMM's band. Halfway, a fork (a copy of the model)
 * continues with the same inputs; it and a second copy must end
 * byte-identical to the original. Returns the largest relative
 * error of the overlay peaks against the oracle.
 */
double
overlayErrorVsOracle(const BankGridConfig &grid, const std::string &policy,
                     std::uint64_t seed, OverlayCoverage &cov)
{
    const MemoryOrgConfig org{4, 8};
    const CoolingConfig cool = coolingFdhs10();
    const SimConfig sim = makeCh4Config(cool, false);
    const RefreshModel refresh = refreshModelByName("ddr2_2x");
    const Seconds dt = sim.window;
    const int windows = 10000;

    std::vector<double> shares{0.37, 0.09, 0.09, 0.09,
                               0.09, 0.09, 0.09, 0.09};
    PolicyBuildContext ctx{sim.dtmInterval, sim.emergencyLevels, 0.25,
                           sim.remapHysteresis, shares};
    auto pol = PolicyRegistry::instance().make(policy, ctx);

    Rng rng(seed);
    Celsius ambient = 45.0;
    MemoryThermalModel model(org, cool, DimmPowerModel{}, ambient, shares,
                             grid);
    PerCellOracle oracle(org, cool, grid);
    model.resetToStable(0.0, 0.0, ambient);
    oracle.resetToStable(0.0, 0.0, ambient, shares);
    std::optional<MemoryThermalModel> fork;

    // A fork holds the original's temperatures, peaks and bank
    // envelope, double for double, from the fork on.
    auto expectForkEqual = [&] {
        EXPECT_EQ(fork->bankPeaks(), model.bankPeaks());
        const std::vector<DimmTemps> ft = fork->dimmTemps();
        const std::vector<DimmTemps> mt = model.dimmTemps();
        ASSERT_EQ(ft.size(), mt.size());
        for (std::size_t d = 0; d < mt.size(); ++d) {
            EXPECT_EQ(ft[d].amb, mt[d].amb);
            EXPECT_EQ(ft[d].dram, mt[d].dram);
        }
    };

    DtmAction action;
    std::vector<Celsius> amb, dram;
    std::vector<Watts> refresh_w(org.nDimmsPerChannel);
    for (int win = 0; win < windows; ++win) {
        model.currentPerDimm(amb, dram);
        if (win % 10 == 0) {
            ThermalReading r;
            r.amb = *std::max_element(amb.begin(), amb.end());
            r.dram = *std::max_element(dram.begin(), dram.end());
            r.inlet = ambient;
            r.ambPerDimm = amb;
            r.dramPerDimm = dram;
            action = pol->decide(r, win * dt);
            if (!action.trafficShares.empty()) {
                shares = action.trafficShares;
                model.setTrafficShares(shares);
                if (fork)
                    fork->setTrafficShares(shares);
                ++cov.remaps;
            }
        }
        for (std::size_t d = 0; d < dram.size(); ++d) {
            refresh_w[d] = refresh.bandAt(dram[d]).dramPower;
            cov.hotBandSamples +=
                refresh_w[d] > refresh.bands.front().dramPower;
        }
        model.setRefreshDramPower(refresh_w);
        if (fork)
            fork->setRefreshDramPower(refresh_w);

        GBps read = 6.0 + 12.0 * rng.uniform();
        GBps write = read * 0.5 * rng.uniform();
        if (!action.memoryOn) {
            read = write = 0.0;
            ++cov.shutdownWindows;
        } else if (read + write > action.bandwidthCap) {
            const double f = action.bandwidthCap / (read + write);
            read *= f;
            write *= f;
        }
        ambient = std::clamp(ambient + 0.2 * (rng.uniform() - 0.5), 43.0,
                             47.0);

        model.advance(read, write, ambient, dt);
        oracle.advance(read, write, ambient, dt, shares, refresh_w);
        if (fork)
            fork->advance(read, write, ambient, dt);
        if (win == windows / 2) {
            fork.emplace(model);
            expectForkEqual();
        }
    }
    expectForkEqual();

    const std::vector<Celsius> got = model.bankPeaks();
    const std::vector<Celsius> &want = oracle.peaks();
    EXPECT_EQ(got.size(), want.size());
    double worst = 0.0;
    for (std::size_t i = 0; i < got.size() && i < want.size(); ++i)
        worst = std::max(worst, std::abs(got[i] - want[i]) /
                                    std::abs(want[i]));

    // Forks and copies carry V and the envelope exactly.
    EXPECT_EQ(fork->bankPeaks(), got);
    EXPECT_EQ(MemoryThermalModel(model).bankPeaks(), got);
    const std::vector<DimmTemps> fp = fork->dimmPeaks();
    const std::vector<DimmTemps> mp = model.dimmPeaks();
    for (std::size_t d = 0; d < mp.size(); ++d) {
        EXPECT_EQ(fp[d].amb, mp[d].amb);
        EXPECT_EQ(fp[d].dram, mp[d].dram);
    }
    return worst;
}

/**
 * A seeded skewed trace decoded against a 4x8 organization with a 32x32
 * grid: 40% of accesses on DIMM 0 and half on 16 hot banks, laid out in
 * the decoder's block interleave (channel, DIMM, then bank cell).
 */
TraceProfile
skewedTraceProfile(std::uint64_t seed)
{
    const std::uint64_t channels = 4, dimms = 8, cells = 1024;
    Rng rng(seed);
    std::vector<std::uint64_t> hot(16);
    for (auto &b : hot)
        b = rng.below(cells);
    std::vector<TraceRecord> recs(60000);
    for (TraceRecord &r : recs) {
        const std::uint64_t ch = rng.below(channels);
        const std::uint64_t d =
            rng.uniform() < 0.4 ? 0 : rng.below(dimms);
        const std::uint64_t bank =
            rng.uniform() < 0.5 ? hot[rng.below(16)] : rng.below(cells);
        const std::uint64_t row = rng.below(1 << 16);
        r.addr = (((row * cells + bank) * dimms + d) * channels + ch) * 64;
        r.write = rng.uniform() < 0.3;
    }
    return decodeTrace(recs, channels, dimms, cells);
}

TEST(BankOverlay, EnvelopePeaksMatchPerCellOracle)
{
    Rng rng(20261020);
    const BankGridConfig random_grid{32, 32, randomWeights(rng, 32 * 32)};
    const BankGridConfig trace_grid{32, 32,
                                    skewedTraceProfile(7).bankWeights};
    ASSERT_EQ(trace_grid.weights.size(), 8u * 1024u);

    // Each policy once, alternating the two weight sets.
    const std::vector<std::pair<std::string, const BankGridConfig *>>
        cases{{"DTM-TS", &random_grid},
              {"DTM-remap", &trace_grid},
              {"DTM-remap-hyst", &random_grid},
              {"DTM-TS+remap", &trace_grid}};
    double worst = 0.0;
    OverlayCoverage cov;
    std::uint64_t seed = 1;
    for (const auto &[policy, grid] : cases) {
        SCOPED_TRACE(policy);
        const double err = overlayErrorVsOracle(*grid, policy, seed++, cov);
        EXPECT_LE(err, 1e-9);
        worst = std::max(worst, err);
    }
    // The comparison must not be vacuous: memory shut down, shares
    // moved, and DIMMs reached the hot refresh band.
    EXPECT_GT(cov.shutdownWindows, 0);
    EXPECT_GT(cov.remaps, 0);
    EXPECT_GT(cov.hotBandSamples, 0);
    std::cout << "[ overlay  ] max relative peak error vs per-cell oracle: "
              << worst << " (shutdown windows " << cov.shutdownWindows
              << ", remaps " << cov.remaps << ", hot-band samples "
              << cov.hotBandSamples << ")\n";
}

/**
 * The batched engine on the overlay at full size: trace-decoded shares
 * and per-DIMM weights on a 4x8 organization with a 32x32 grid, ddr2_2x
 * refresh and the remap lineup. Every forked lane equals its scalar run.
 */
TEST(BankOverlay, ForkedLanesBitIdenticalOnTraceDecoded32x32Grid)
{
    const TraceProfile prof = skewedTraceProfile(11);

    SimConfig cfg = makeCh4Config(coolingFdhs10(), false);
    cfg.copiesPerApp = 4;
    cfg.org = {4, 8};
    cfg.ambient.tInlet = 46.0;
    cfg.remapInterval = 0.25;
    cfg.trafficShares = prof.dimmShares;
    cfg.refresh = refreshModelByName("ddr2_2x");
    cfg.bankGrid = BankGridConfig{32, 32, prof.bankWeights};

    const std::vector<std::string> names{"DTM-TS", "DTM-remap",
                                         "DTM-remap-hyst", "DTM-TS+remap"};
    ThermalSimulator sim(cfg);
    ThermalSimulator::Scratch scratch;
    PolicyBuildContext ctx{cfg.dtmInterval, cfg.emergencyLevels,
                           cfg.remapInterval, cfg.remapHysteresis,
                           cfg.trafficShares};
    std::vector<std::unique_ptr<DtmPolicy>> policies;
    std::vector<DtmPolicy *> ptrs;
    for (const auto &n : names) {
        policies.push_back(PolicyRegistry::instance().make(n, ctx));
        ptrs.push_back(policies.back().get());
    }
    BatchStats stats;
    std::vector<SimResult> batched =
        sim.runBatch(workloadMix("W1"), ptrs, scratch, &stats);
    ASSERT_EQ(batched.size(), names.size());
    EXPECT_GT(stats.forks, 0u);
    for (std::size_t i = 0; i < names.size(); ++i) {
        auto fresh = PolicyRegistry::instance().make(names[i], ctx);
        SimResult scalar = sim.run(workloadMix("W1"), *fresh, scratch);
        ASSERT_EQ(scalar.peakBankDramPerDimm.size(), 8u * 1024u);
        expectIdentical(batched[i], scalar);
    }
}

// --- scenario layer ---------------------------------------------------

ScenarioSpec
tinySpec()
{
    ScenarioSpec s;
    s.name = "grid_knob";
    s.workloads = {"W1"};
    s.policies = {"No-limit"};
    s.copiesPerApp = 1;
    s.maxSimTime = 400.0;
    return s;
}

TEST(BankGridScenario, LumpedKnobBitIdenticalToUnset)
{
    ScenarioSpec plain = tinySpec();
    ScenarioSpec knobbed = tinySpec();
    knobbed.thermalModel.name = "lumped";

    ExperimentEngine engine(1);
    ScenarioResults a = runScenario(plain, engine);
    ScenarioResults b = runScenario(knobbed, engine);
    ASSERT_EQ(a.points.size(), 1u);
    ASSERT_EQ(b.points.size(), 1u);
    const SimResult &ra = a.points[0].suite.at("W1").at("No-limit");
    const SimResult &rb = b.points[0].suite.at("W1").at("No-limit");
    expectIdentical(ra, rb);
    EXPECT_TRUE(ra.peakBankDramPerDimm.empty());
    // ... and the serialized documents are the same bytes, so goldens
    // written before the knob existed stay valid.
    EXPECT_EQ(toJson(a).dump(2), toJson(b).dump(2));
}

TEST(BankGridScenario, CatalogAndSweepLowering)
{
    // The catalog resolves; the sweep axis becomes odometer axis 10
    // with "thermal=<label>" coordinates.
    EXPECT_EQ(thermalModelNames(),
              (std::vector<std::string>{"lumped", "bank_grid"}));
    EXPECT_FALSE(thermalModelByName("lumped").grid.has_value());
    ASSERT_TRUE(thermalModelByName("bank_grid").grid.has_value());
    EXPECT_EQ(thermalModelByName("bank_grid").grid->x, 4);
    EXPECT_EQ(thermalModelByName("bank_grid").grid->z, 2);
    EXPECT_FALSE(tryThermalModel("nope").has_value());

    ScenarioSpec s = tinySpec();
    ThermalModelSpec inline_grid;
    inline_grid.grid = BankGridConfig{2, 2, {0.7, 0.1, 0.1, 0.1}};
    s.sweepThermalModel = {ThermalModelSpec{"lumped", {}},
                           ThermalModelSpec{"bank_grid", {}},
                           inline_grid};
    LoweredScenario low = s.lower();
    ASSERT_EQ(low.points.size(), 3u);
    EXPECT_EQ(low.points[0].label, "thermal=lumped");
    EXPECT_EQ(low.points[1].label, "thermal=bank_grid");
    EXPECT_EQ(low.points[2].label, "thermal=2x2:0.7|0.1|0.1|0.1");
    EXPECT_FALSE(low.points[0].cfg.bankGrid.has_value());
    ASSERT_TRUE(low.points[1].cfg.bankGrid.has_value());
    EXPECT_TRUE(low.points[1].cfg.bankGrid->weights.empty());
    ASSERT_TRUE(low.points[2].cfg.bankGrid.has_value());
    EXPECT_EQ(low.points[2].cfg.bankGrid->weights.size(), 4u);
}

TEST(BankGridScenario, SpecValidationErrors)
{
    auto expectFatal = [](const ThermalModelSpec &t,
                          const std::string &needle) {
        try {
            t.resolve();
            FAIL() << "expected FatalError for " << needle;
        } catch (const FatalError &e) {
            EXPECT_NE(std::string(e.what()).find(needle),
                      std::string::npos)
                << e.what();
        }
    };
    ThermalModelSpec bad;
    expectFatal(bad, "empty thermal model");
    bad.grid = BankGridConfig{0, 2, {}};
    expectFatal(bad, "grid dimensions must be >= 1");
    bad.grid = BankGridConfig{64, 64, {}};
    expectFatal(bad, "the limit is 1024");
    bad.grid = BankGridConfig{2, 2, {0.5, 0.5}};
    expectFatal(bad, "2 bank weight(s) but the grid has 4 cell(s)");
    bad.grid = BankGridConfig{1, 2, {0.5, -0.5}};
    expectFatal(bad, "must not be negative");
    bad.grid = BankGridConfig{1, 2, {0.5, 0.4}};
    expectFatal(bad, "must sum to 1");
    // Unknown catalog names list the valid keys.
    ThermalModelSpec typo;
    typo.name = "bankgrid";
    try {
        typo.resolve();
        FAIL() << "expected FatalError";
    } catch (const FatalError &e) {
        EXPECT_NE(std::string(e.what()).find("lumped"),
                  std::string::npos)
            << e.what();
    }
}

TEST(BankGridScenario, LoweringConflictsAreFatal)
{
    auto expectLowerFatal = [](const ScenarioSpec &s,
                               const std::string &needle) {
        try {
            s.lower();
            FAIL() << "expected FatalError for " << needle;
        } catch (const FatalError &e) {
            EXPECT_NE(std::string(e.what()).find(needle),
                      std::string::npos)
                << e.what();
        }
    };

    // Platform scenarios measure real DIMMs; no modeled grid or trace.
    ScenarioSpec plat;
    plat.name = "p";
    plat.platform = "PE1950";
    plat.workloads = {"W1"};
    plat.policies = {"No-limit"};
    plat.thermalModel.name = "bank_grid";
    expectLowerFatal(plat, "remove the thermal_model member and sweep");
    plat.thermalModel = {};
    plat.trace = "whatever.trace";
    expectLowerFatal(plat, "remove the trace member");

    // Duplicate sweep entries: "bank_grid" and its inline equivalent
    // collide by *resolved* model.
    ScenarioSpec dup = tinySpec();
    ThermalModelSpec inline_default;
    inline_default.grid = BankGridConfig{4, 2, {}};
    dup.sweepThermalModel = {ThermalModelSpec{"bank_grid", {}},
                             inline_default};
    expectLowerFatal(dup, "same thermal model as 'bank_grid'");

    // A trace owns the traffic distribution and the bank weights.
    ScenarioSpec t = tinySpec();
    t.trace = "x.trace";
    t.trafficShape.name = "hot_dimm0";
    expectLowerFatal(t, "remove the traffic_shape member");
    t.trafficShape = {};
    t.thermalModel.grid = BankGridConfig{4, 2, {0.65, 0.05, 0.05, 0.05,
                                                0.05, 0.05, 0.05, 0.05}};
    expectLowerFatal(t, "remove the thermal model's bank_weights");
}

TEST(BankGridScenario, ThermalModelRoundTripsThroughJson)
{
    ScenarioSpec s = tinySpec();
    s.thermalModel.name = "bank_grid";
    ThermalModelSpec inline_grid;
    inline_grid.grid = BankGridConfig{2, 4, {}};
    ThermalModelSpec weighted;
    weighted.grid =
        BankGridConfig{1, 2, {0.75, 0.25}};
    s.sweepThermalModel = {ThermalModelSpec{"lumped", {}}, inline_grid,
                           weighted};

    const std::string once = s.toJson().dump(2);
    ScenarioSpec back = ScenarioSpec::fromJson(Json::parse(once));
    EXPECT_EQ(back, s);
    EXPECT_EQ(back.toJson().dump(2), once);
}

} // namespace
} // namespace memtherm
