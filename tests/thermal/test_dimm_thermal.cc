/**
 * @file
 * Unit tests for the per-DIMM thermal equations (Eqs. 3.3-3.5), checked
 * through a one-DIMM MemoryThermalModel, whose hottest DIMM is that DIMM.
 */

#include <gtest/gtest.h>

#include "core/power/dimm_traffic.hh"
#include "core/thermal/memory_thermal.hh"

namespace memtherm
{
namespace
{

/** One DIMM on one channel: the hottest DIMM is that DIMM. */
MemoryThermalModel
oneDimm(const CoolingConfig &cooling, Celsius t0)
{
    return MemoryThermalModel(MemoryOrgConfig{1, 1}, cooling,
                              DimmPowerModel{}, t0);
}

TEST(DimmThermal, StableTemperatureEquations)
{
    auto m = oneDimm(coolingAohs15(), 50.0);
    DimmTraffic t;
    t.localRead = 3.0;
    t.localWrite = 1.0;
    const DimmPower p = m.powerModel().power(t, true);
    // Eq. 3.3: TA + P_AMB * PsiAMB + P_DRAM * PsiDRAM_AMB.
    EXPECT_NEAR(m.stableHottestAmb(3.0, 1.0, 50.0),
                50.0 + p.amb * 9.3 + p.dram * 3.4, 1e-12);
    // Eq. 3.4: TA + P_AMB * PsiAMB_DRAM + P_DRAM * PsiDRAM.
    EXPECT_NEAR(m.stableHottestDram(3.0, 1.0, 50.0),
                50.0 + p.amb * 4.1 + p.dram * 4.0, 1e-12);
}

TEST(DimmThermal, IdleStableWellAboveAmbient)
{
    // With idle power only, the AMB still sits tens of degrees above
    // its inlet (idle AMB power is substantial: 4-5 W).
    auto m = oneDimm(coolingAohs15(), 50.0);
    EXPECT_GT(m.stableHottestAmb(0.0, 0.0, 50.0), 50.0 + 30.0);
}

TEST(DimmThermal, AdvanceMovesTowardStable)
{
    auto m = oneDimm(coolingAohs15(), 50.0);
    const MemoryThermalSample s1 = m.advance(3.0, 1.0, 50.0, 10.0);
    EXPECT_GT(s1.hottestAmb, 50.0);
    EXPECT_LT(s1.hottestAmb, m.stableHottestAmb(3.0, 1.0, 50.0));
    const MemoryThermalSample s2 = m.advance(3.0, 1.0, 50.0, 10.0);
    EXPECT_GT(s2.hottestAmb, s1.hottestAmb);
    EXPECT_GT(s2.hottestDram, s1.hottestDram);
}

TEST(DimmThermal, AmbHeatsFasterThanDram)
{
    // tau_AMB = 50 s vs tau_DRAM = 100 s: after the same step the AMB has
    // covered a larger fraction of its gap.
    auto m = oneDimm(coolingAohs15(), 50.0);
    const MemoryThermalSample s = m.advance(3.0, 1.0, 50.0, 25.0);
    const double amb_frac =
        (s.hottestAmb - 50.0) / (m.stableHottestAmb(3.0, 1.0, 50.0) - 50.0);
    const double dram_frac = (s.hottestDram - 50.0) /
                             (m.stableHottestDram(3.0, 1.0, 50.0) - 50.0);
    EXPECT_GT(amb_frac, 0.0);
    EXPECT_LT(amb_frac, 1.0);
    EXPECT_GT(amb_frac, dram_frac);
}

TEST(DimmThermal, ConvergenceToStable)
{
    auto m = oneDimm(coolingFdhs10(), 45.0);
    for (int i = 0; i < 200; ++i)
        m.advance(2.5, 0.8, 45.0, 10.0);
    EXPECT_NEAR(m.current().hottestAmb, m.stableHottestAmb(2.5, 0.8, 45.0),
                1e-6);
    EXPECT_NEAR(m.current().hottestDram,
                m.stableHottestDram(2.5, 0.8, 45.0), 1e-6);
}

TEST(DimmThermal, HigherAmbientRaisesStable)
{
    // A hotter inlet raises both stable points by exactly as much.
    auto m = oneDimm(coolingAohs15(), 50.0);
    EXPECT_NEAR(m.stableHottestAmb(3.0, 1.0, 55.0) -
                    m.stableHottestAmb(3.0, 1.0, 50.0),
                5.0, 1e-12);
    EXPECT_NEAR(m.stableHottestDram(3.0, 1.0, 55.0) -
                    m.stableHottestDram(3.0, 1.0, 50.0),
                5.0, 1e-12);
}

TEST(DimmThermal, ResetRestoresTemperature)
{
    auto m = oneDimm(coolingAohs15(), 50.0);
    m.advance(3.0, 1.0, 50.0, 100.0);
    m.reset(50.0);
    EXPECT_DOUBLE_EQ(m.current().hottestAmb, 50.0);
    EXPECT_DOUBLE_EQ(m.current().hottestDram, 50.0);
}

} // namespace
} // namespace memtherm
