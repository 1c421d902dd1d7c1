/**
 * @file
 * Unit tests for the string-keyed registries: completeness (every
 * documented name resolves), error-returning lookups, and diagnostics
 * that list the valid keys.
 */

#include <gtest/gtest.h>

#include "common/logging.hh"
#include "core/dtm/basic_policies.hh"
#include "core/sim/experiment.hh"
#include "core/sim/registry.hh"
#include "testbed/platform.hh"

namespace memtherm
{
namespace
{

TEST(PolicyRegistry, EveryCh4NameResolves)
{
    auto &reg = PolicyRegistry::instance();
    std::vector<std::string> lineup = ch4PolicyNames(true);
    lineup.push_back("No-limit");
    for (const auto &name : lineup) {
        SCOPED_TRACE(name);
        EXPECT_TRUE(reg.contains(name));
        std::string error;
        auto p = reg.tryMake(name, 0.01, &error);
        ASSERT_NE(p, nullptr) << error;
        EXPECT_EQ(error, "");
    }
    // The non-PID subset is covered by the full lineup.
    for (const auto &name : ch4PolicyNames(false))
        EXPECT_TRUE(reg.contains(name));
}

TEST(PolicyRegistry, UnknownNameListsValidKeys)
{
    auto &reg = PolicyRegistry::instance();
    std::string error;
    EXPECT_EQ(reg.tryMake("DTM-TURBO", 0.01, &error), nullptr);
    EXPECT_NE(error.find("unknown policy 'DTM-TURBO'"), std::string::npos)
        << error;
    EXPECT_NE(error.find("No-limit"), std::string::npos) << error;
    EXPECT_NE(error.find("DTM-CDVFS+PID"), std::string::npos) << error;

    // tryMake without an error sink is quiet; make() throws the same
    // diagnostic; the makeCh4Policy wrapper keeps its FatalError contract.
    EXPECT_EQ(reg.tryMake("DTM-TURBO", 0.01), nullptr);
    EXPECT_THROW(reg.make("DTM-TURBO", 0.01), FatalError);
    EXPECT_THROW(makeCh4Policy("DTM-TS+PID"), FatalError);
    try {
        reg.make("DTM-TURBO", 0.01);
        FAIL() << "expected FatalError";
    } catch (const FatalError &e) {
        EXPECT_NE(std::string(e.what()).find("valid:"), std::string::npos)
            << e.what();
    }
}

TEST(PolicyRegistry, CustomPoliciesRegister)
{
    auto &reg = PolicyRegistry::instance();
    ASSERT_FALSE(reg.contains("TEST-custom"));
    reg.add("TEST-custom", [](const PolicyBuildContext &) {
        return std::make_unique<NoLimitPolicy>();
    });
    EXPECT_TRUE(reg.contains("TEST-custom"));
    auto p = reg.tryMake("TEST-custom", 0.01);
    ASSERT_NE(p, nullptr);
    EXPECT_EQ(p->name(), "No-limit");

    auto names = reg.names();
    EXPECT_EQ(names.back(), "TEST-custom");
}

TEST(Catalogs, CoolingNamesResolve)
{
    auto names = coolingNames();
    ASSERT_EQ(names.size(), 6u); // 2 spreaders x 3 air velocities
    for (const auto &n : names) {
        SCOPED_TRACE(n);
        auto c = tryCooling(n);
        ASSERT_TRUE(c.has_value());
        EXPECT_EQ(c->name(), n); // the key is the config's own name
    }
    EXPECT_EQ(coolingByName("AOHS_1.5").psiAmb, coolingAohs15().psiAmb);
    EXPECT_FALSE(tryCooling("WATER_9000").has_value());
    try {
        coolingByName("WATER_9000");
        FAIL() << "expected FatalError";
    } catch (const FatalError &e) {
        EXPECT_NE(std::string(e.what()).find("FDHS_1.0"), std::string::npos)
            << e.what();
    }
}

TEST(Catalogs, AmbientPresetsResolve)
{
    CoolingConfig cooling = coolingAohs15();
    for (const auto &n : ambientNames()) {
        SCOPED_TRACE(n);
        EXPECT_TRUE(tryAmbient(n, cooling).has_value());
    }
    EXPECT_EQ(ambientByName("isolated", cooling).psiCpuMemXi, 0.0);
    EXPECT_GT(ambientByName("integrated", cooling).psiCpuMemXi, 0.0);
    EXPECT_FALSE(tryAmbient("underwater", cooling).has_value());
    EXPECT_THROW(ambientByName("underwater", cooling), FatalError);
}

TEST(Catalogs, WorkloadNamesResolve)
{
    for (const auto &n : workloadNames()) {
        SCOPED_TRACE(n);
        auto w = tryWorkload(n);
        ASSERT_TRUE(w.has_value());
        EXPECT_EQ(w->name, n);
        EXPECT_FALSE(w->apps.empty());
    }

    // Homogeneous "<app>x<n>" batches.
    auto homo = tryWorkload("swimx4");
    ASSERT_TRUE(homo.has_value());
    EXPECT_EQ(homo->apps.size(), 4u);
    EXPECT_EQ(homo->apps[0]->name, "swim");

    EXPECT_FALSE(tryWorkload("W99").has_value());
    EXPECT_FALSE(tryWorkload("nosuchappx4").has_value());
    EXPECT_FALSE(tryWorkload("swimx0").has_value());
    // Overflowing copy counts are bad names, not internal errors.
    EXPECT_FALSE(tryWorkload("swimx99999999999999999999").has_value());
    EXPECT_THROW(workloadByName("W99"), FatalError);
}

TEST(PolicyRegistry, BuildContextLaddersApplyToLeveledSchemes)
{
    auto &reg = PolicyRegistry::instance();
    EmergencyLevels pe = emergencyLevelsByName("pe1950");

    for (const char *name : {"DTM-BW", "DTM-ACG", "DTM-CDVFS"}) {
        SCOPED_TRACE(name);
        auto p = reg.make(name, PolicyBuildContext{.dtmInterval = 0.01,
                                                   .emergencyLevels = pe});
        auto *lp = dynamic_cast<LeveledPolicy *>(p.get());
        ASSERT_NE(lp, nullptr);
        EXPECT_EQ(lp->levelTable().ambBounds(), pe.ambBounds());
        EXPECT_EQ(lp->levelTable().dramBounds(), pe.dramBounds());
    }

    // The default context (and the Seconds overloads) keep Table 4.3.
    auto p = reg.make("DTM-BW", 0.01);
    auto *lp = dynamic_cast<LeveledPolicy *>(p.get());
    ASSERT_NE(lp, nullptr);
    EXPECT_EQ(lp->levelTable().ambBounds(),
              ch4EmergencyLevels().ambBounds());

    // The Chapter 4 action tables are five rows; other depths are a
    // usable configuration error, not a panic.
    EmergencyLevels shallow({100.0}, {80.0});
    EXPECT_THROW(reg.make("DTM-BW",
                          PolicyBuildContext{.dtmInterval = 0.01,
                                             .emergencyLevels = shallow}),
                 FatalError);
}

TEST(Catalogs, EmergencyLevelNamesResolve)
{
    for (const auto &n : emergencyLevelNames()) {
        SCOPED_TRACE(n);
        auto l = tryEmergencyLevels(n);
        ASSERT_TRUE(l.has_value());
        // Every catalog ladder fits the five-level Chapter 4 tables.
        EXPECT_EQ(l->numLevels(), 5);
    }
    EXPECT_EQ(emergencyLevelsByName("ch4").ambBounds(),
              ch4EmergencyLevels().ambBounds());
    // The Table 5.1 variants carry the platform AMB ladders with the
    // DRAM boundaries parked out of reach.
    EmergencyLevels pe = emergencyLevelsByName("pe1950");
    EXPECT_EQ(pe.ambBounds(), pe1950().ambBounds);
    EXPECT_GE(pe.dramBounds().front(), 200.0);
    EXPECT_LT(emergencyLevelsByName("sr1500al_tdp90").ambBounds().back(),
              emergencyLevelsByName("sr1500al").ambBounds().back());

    EXPECT_FALSE(tryEmergencyLevels("lava").has_value());
    try {
        emergencyLevelsByName("lava");
        FAIL() << "expected FatalError";
    } catch (const FatalError &e) {
        EXPECT_NE(std::string(e.what()).find("sr1500al"), std::string::npos)
            << e.what();
    }
}

TEST(Catalogs, DvfsRegistryResolvesAndAcceptsRuntimeTables)
{
    auto &reg = DvfsRegistry::instance();
    for (const auto &n : reg.names()) {
        SCOPED_TRACE(n);
        EXPECT_TRUE(reg.contains(n));
        ASSERT_TRUE(reg.tryGet(n).has_value());
    }
    EXPECT_EQ(reg.byName("simulated_cmp").maxFreq(),
              simulatedCmpDvfs().maxFreq());
    EXPECT_EQ(reg.byName("xeon5160").levels(), xeon5160Dvfs().levels());
    EXPECT_EQ(reg.byName("xeon5160").at(3).freq, xeon5160Dvfs().at(3).freq);

    std::string error;
    EXPECT_FALSE(reg.tryGet("TEST-turbo", &error).has_value());
    EXPECT_NE(error.find("unknown DVFS table 'TEST-turbo'"),
              std::string::npos)
        << error;
    EXPECT_NE(error.find("xeon5160"), std::string::npos) << error;
    EXPECT_THROW(reg.byName("TEST-turbo"), FatalError);

    ASSERT_FALSE(reg.contains("TEST-lowpower"));
    reg.add("TEST-lowpower", DvfsTable({{1.0, 1.0}, {0.5, 0.8}}));
    EXPECT_TRUE(reg.contains("TEST-lowpower"));
    EXPECT_EQ(reg.byName("TEST-lowpower").levels(), 2u);
    EXPECT_EQ(reg.names().back(), "TEST-lowpower");
}

TEST(Catalogs, MemoryOrgNamesResolve)
{
    auto names = memoryOrgNames();
    ASSERT_FALSE(names.empty());
    // The first entry is the Table 4.1 organization SimConfig ships.
    EXPECT_EQ(names.front(), "ch4_4x4");
    EXPECT_EQ(memoryOrgByName("ch4_4x4"), SimConfig{}.org);
    for (const auto &n : names) {
        SCOPED_TRACE(n);
        auto o = tryMemoryOrg(n);
        ASSERT_TRUE(o.has_value());
        EXPECT_GE(o->nChannels, 1);
        EXPECT_GE(o->nDimmsPerChannel, 1);
    }
    EXPECT_EQ(memoryOrgByName("2x4"), (MemoryOrgConfig{2, 4}));
    EXPECT_EQ(memoryOrgByName("4x8").nDimmsPerChannel, 8);
    EXPECT_EQ(memoryOrgByName("8x2").nChannels, 8);

    EXPECT_FALSE(tryMemoryOrg("3x3").has_value());
    try {
        memoryOrgByName("3x3");
        FAIL() << "expected FatalError";
    } catch (const FatalError &e) {
        std::string msg = e.what();
        EXPECT_NE(msg.find("unknown memory organization '3x3'"),
                  std::string::npos)
            << msg;
        EXPECT_NE(msg.find("ch4_4x4"), std::string::npos) << msg;
    }
}

TEST(Catalogs, TrafficShapeNamesResolve)
{
    auto names = trafficShapeNames();
    ASSERT_FALSE(names.empty());
    // The first entry is the default interleave the model assumes when
    // the knob is unset.
    EXPECT_EQ(names.front(), "uniform");

    // Every shape, at several chain depths: right arity, non-negative,
    // sums to 1 within the decomposition's own tolerance.
    for (const auto &n : names) {
        for (int dimms : {1, 2, 4, 8}) {
            SCOPED_TRACE(n + " @ " + std::to_string(dimms));
            auto w = tryTrafficShape(n, dimms);
            ASSERT_TRUE(w.has_value());
            ASSERT_EQ(static_cast<int>(w->size()), dimms);
            double sum = 0.0;
            for (double s : *w) {
                EXPECT_GE(s, 0.0);
                sum += s;
            }
            EXPECT_NEAR(sum, 1.0, 1e-9);
        }
        // Every shape degenerates to {1} on a one-DIMM chain.
        EXPECT_EQ(trafficShapeByName(n, 1), std::vector<double>{1.0});
    }

    // "uniform" is exactly 1/n per entry — the bit-identical contract.
    auto uni = trafficShapeByName("uniform", 4);
    for (double s : uni)
        EXPECT_EQ(s, 1.0 / 4);

    // Shape character: front_heavy strictly decreasing down the chain,
    // back_heavy its mirror, hot_dimm0 a half-load head, linear_taper
    // the arithmetic ramp.
    auto front = trafficShapeByName("front_heavy", 4);
    auto back = trafficShapeByName("back_heavy", 4);
    for (int i = 1; i < 4; ++i) {
        EXPECT_GT(front[i - 1], front[i]);
        EXPECT_LT(back[i - 1], back[i]);
        EXPECT_EQ(front[i], back[3 - i]);
    }
    EXPECT_EQ(front[1], front[0] / 2);

    auto hot = trafficShapeByName("hot_dimm0", 4);
    EXPECT_EQ(hot[0], 0.5);
    for (int i = 1; i < 4; ++i)
        EXPECT_EQ(hot[i], 0.5 / 3);

    auto taper = trafficShapeByName("linear_taper", 4);
    EXPECT_EQ(taper, (std::vector<double>{0.4, 0.3, 0.2, 0.1}));

    EXPECT_FALSE(tryTrafficShape("zigzag", 4).has_value());
    try {
        trafficShapeByName("zigzag", 4);
        FAIL() << "expected FatalError";
    } catch (const FatalError &e) {
        std::string msg = e.what();
        EXPECT_NE(msg.find("unknown traffic shape 'zigzag'"),
                  std::string::npos)
            << msg;
        EXPECT_NE(msg.find("hot_dimm0"), std::string::npos) << msg;
    }
}

TEST(Catalogs, PlatformNamesResolve)
{
    for (const auto &n : platformNames()) {
        SCOPED_TRACE(n);
        auto p = tryPlatform(n);
        ASSERT_TRUE(p.has_value());
        EXPECT_FALSE(p->ambBounds.empty());
    }
    EXPECT_EQ(platformByName("PE1950").name, pe1950().name);
    EXPECT_FALSE(tryPlatform("PE9999").has_value());
    EXPECT_THROW(platformByName("PE9999"), FatalError);
}

} // namespace
} // namespace memtherm
