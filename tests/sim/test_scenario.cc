/**
 * @file
 * Unit tests for the declarative scenario API: lossless JSON round-trips
 * (including every shipped example scenario), sweep lowering, platform
 * scenarios, registry-backed diagnostics, and the acceptance pin — a
 * scenario run is bit-identical to the equivalent hand-coded
 * ExperimentEngine invocation.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <functional>
#include <limits>
#include <string>
#include <vector>

#include "common/logging.hh"
#include "core/sim/registry.hh"
#include "core/sim/result_sink.hh"
#include "core/sim/scenario.hh"
#include "testbed/platform.hh"

#ifndef MEMTHERM_SOURCE_DIR
#error "tests need MEMTHERM_SOURCE_DIR (set by CMakeLists.txt)"
#endif

namespace memtherm
{
namespace
{

std::string
scenarioPath(const std::string &file)
{
    return std::string(MEMTHERM_SOURCE_DIR) + "/examples/scenarios/" + file;
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

TEST(ScenarioSpec, FullSpecRoundTripsLosslessly)
{
    ScenarioSpec s;
    s.name = "everything";
    s.description = "all knobs set";
    s.cooling = "FDHS_1.0";
    s.ambient = "integrated";
    s.tInlet = 47.25;
    s.copiesPerApp = 3;
    s.instrScale = 0.5;
    s.maxSimTime = 1234.5;
    s.dtmInterval = 0.02;
    s.remapInterval = 0.04;
    s.remapHysteresis = 1.5;
    s.sensorNoiseSigma = 0.75;
    s.sensorQuant = 0.5;
    s.sensorSeed = 1234567;
    s.emergencyLevels = "pe1950";
    s.dvfs = "xeon5160";
    s.memoryOrg = MemoryOrgSpec{"2x4", std::nullopt};
    s.workloads = {"W1", "swimx4"};
    s.policies = {"No-limit", "DTM-BW+PID"};
    s.trafficShape = TrafficShapeSpec{"hot_dimm0", {}};
    s.sweepMemoryOrg = {MemoryOrgSpec{"1x4", std::nullopt},
                        MemoryOrgSpec{"", MemoryOrgConfig{2, 8}}};
    s.sweepTrafficShape = {TrafficShapeSpec{"front_heavy", {}},
                           TrafficShapeSpec{"back_heavy", {}}};
    s.sweepCooling = {"AOHS_1.5", "AOHS_3.0"};
    s.sweepTInlet = {46.0, 50.5};
    s.sweepCopies = {2, 4};
    s.sweepSensorNoise = {0.0, 0.1};
    s.sweepDtmInterval = {0.01, 0.05};
    s.sweepEmergencyLevels = {"ch4", "sr1500al"};
    s.sweepDvfs = {"simulated_cmp", "xeon5160"};
    s.refresh = RefreshSpec{"aldram", {}};
    s.sweepRefresh = {RefreshSpec{"none", {}},
                      RefreshSpec{"", {{-273.15, 0.016, 0.15, 1.0},
                                       {85.0, 0.032, 0.3, 1.1}}}};

    Json j = s.toJson();
    ScenarioSpec back = ScenarioSpec::fromJson(Json::parse(j.dump()));
    EXPECT_EQ(back, s);
    // parse -> serialize -> parse is a fixed point at the JSON level too.
    EXPECT_EQ(back.toJson(), j);
}

TEST(ScenarioSpec, ExampleScenariosRoundTripAndLower)
{
    const char *files[] = {"ch4_baseline.json", "fan_failure.json",
                           "datacenter_ambient.json", "sensor_noise.json",
                           "dtm_sensitivity.json", "memory_org.json",
                           "hot_dimm.json", "hot_dimm_remap.json",
                           "refresh_runaway.json"};
    for (const char *f : files) {
        SCOPED_TRACE(f);
        ScenarioSpec spec = ScenarioSpec::load(scenarioPath(f));
        EXPECT_NO_THROW(spec.validate());

        // parse -> serialize -> parse is identical.
        Json j = spec.toJson();
        ScenarioSpec back = ScenarioSpec::fromJson(Json::parse(j.dump()));
        EXPECT_EQ(back, spec);
        EXPECT_EQ(back.toJson(), j);

        LoweredScenario low = spec.lower();
        EXPECT_FALSE(low.points.empty());
        EXPECT_EQ(low.totalRuns(), low.points.size() *
                                       spec.workloads.size() *
                                       spec.policies.size());
    }
}

TEST(ScenarioSpec, SweepLoweringSpansTheGrid)
{
    ScenarioSpec s;
    s.name = "grid";
    s.tInlet = 40.0; // superseded by the sweep axis below
    s.copiesPerApp = 9;
    s.workloads = {"W1"};
    s.policies = {"No-limit", "DTM-TS"};
    s.sweepCooling = {"AOHS_1.5", "FDHS_1.0"};
    s.sweepTInlet = {46.0, 52.0};
    s.sweepSensorNoise = {0.0, 0.5};

    LoweredScenario low = s.lower();
    ASSERT_EQ(low.points.size(), 8u); // 2 coolings x 2 inlets x 2 noises
    EXPECT_EQ(low.totalRuns(), 8u * 1u * 2u);

    EXPECT_EQ(low.points[0].label, "cooling=AOHS_1.5,inlet=46,noise=0");
    EXPECT_EQ(low.points.back().label,
              "cooling=FDHS_1.0,inlet=52,noise=0.5");

    for (const auto &pt : low.points) {
        EXPECT_EQ(pt.cfg.copiesPerApp, 9);       // scalar override holds
        EXPECT_NE(pt.cfg.ambient.tInlet, 40.0);  // axis wins over scalar
        ASSERT_EQ(pt.runs.size(), 2u);
        EXPECT_EQ(pt.runs[0].policy, "No-limit");
        EXPECT_EQ(pt.runs[1].policy, "DTM-TS");
        EXPECT_EQ(pt.runs[0].workload.name, "W1");
    }
    // The cooling axis rebuilds the ambient for each cooling setup.
    EXPECT_EQ(low.points[0].cfg.cooling.name(), "AOHS_1.5");
    EXPECT_EQ(low.points.back().cfg.cooling.name(), "FDHS_1.0");
    EXPECT_EQ(low.points.back().cfg.ambient.tInlet, 52.0);
}

TEST(ScenarioSpec, NewAxesLowerAcrossTheGrid)
{
    ScenarioSpec s;
    s.name = "knobs";
    s.workloads = {"W1"};
    s.policies = {"DTM-CDVFS"};
    s.sweepDtmInterval = {0.01, 0.1};
    s.sweepEmergencyLevels = {"ch4", "sr1500al"};
    s.sweepDvfs = {"simulated_cmp", "xeon5160"};

    LoweredScenario low = s.lower();
    ASSERT_EQ(low.points.size(), 8u); // 2 intervals x 2 ladders x 2 tables
    EXPECT_EQ(low.points[0].label,
              "dtm=0.01,levels=ch4,dvfs=simulated_cmp");
    EXPECT_EQ(low.points.back().label,
              "dtm=0.1,levels=sr1500al,dvfs=xeon5160");

    // The coordinates land in the configurations.
    EXPECT_EQ(low.points[0].cfg.dtmInterval, 0.01);
    EXPECT_EQ(low.points.back().cfg.dtmInterval, 0.1);
    ASSERT_TRUE(low.points[0].cfg.emergencyLevels.has_value());
    EXPECT_EQ(low.points[0].cfg.emergencyLevels->ambBounds(),
              emergencyLevelsByName("ch4").ambBounds());
    ASSERT_TRUE(low.points.back().cfg.emergencyLevels.has_value());
    EXPECT_EQ(low.points.back().cfg.emergencyLevels->ambBounds(),
              emergencyLevelsByName("sr1500al").ambBounds());
    EXPECT_EQ(low.points[0].cfg.dvfs.maxFreq(),
              simulatedCmpDvfs().maxFreq());
    EXPECT_EQ(low.points.back().cfg.dvfs.maxFreq(),
              xeon5160Dvfs().maxFreq());

    // Scalar overrides: the axis supersedes the matching member, other
    // members hold everywhere.
    s.sweepEmergencyLevels.clear();
    s.emergencyLevels = "pe1950";
    s.dvfs = "xeon5160";
    s.dtmInterval = 0.5; // superseded by the dtm axis
    low = s.lower();
    ASSERT_EQ(low.points.size(), 4u);
    for (const auto &pt : low.points) {
        EXPECT_NE(pt.cfg.dtmInterval, 0.5);
        ASSERT_TRUE(pt.cfg.emergencyLevels.has_value());
        EXPECT_EQ(pt.cfg.emergencyLevels->ambBounds(),
                  emergencyLevelsByName("pe1950").ambBounds());
    }
    // The dvfs axis wins over the scalar dvfs member.
    EXPECT_EQ(low.points[0].cfg.dvfs.maxFreq(),
              simulatedCmpDvfs().maxFreq());

    // Unknown names report the valid keys.
    s.sweepDvfs = {"warp9"};
    try {
        s.lower();
        FAIL() << "expected FatalError";
    } catch (const FatalError &e) {
        std::string msg = e.what();
        EXPECT_NE(msg.find("warp9"), std::string::npos) << msg;
        EXPECT_NE(msg.find("xeon5160"), std::string::npos) << msg;
    }
    s.sweepDvfs = {"simulated_cmp"};
    s.sweepEmergencyLevels = {"nosuch"};
    EXPECT_THROW(s.lower(), FatalError);

    // A decision period below the simulator window is a spec error
    // (the simulator itself would panic).
    s.sweepEmergencyLevels.clear();
    s.sweepDtmInterval = {0.001};
    EXPECT_THROW(s.lower(), FatalError);
}

TEST(ScenarioSpec, MemoryOrgAxisLowersAcrossTheGrid)
{
    ScenarioSpec s;
    s.name = "orgs";
    s.workloads = {"W1"};
    s.policies = {"No-limit"};
    s.sweepMemoryOrg = {MemoryOrgSpec{"1x4", std::nullopt},
                        MemoryOrgSpec{"ch4_4x4", std::nullopt},
                        MemoryOrgSpec{"", MemoryOrgConfig{2, 8}}};
    s.sweepTInlet = {46.0, 50.0};

    LoweredScenario low = s.lower();
    ASSERT_EQ(low.points.size(), 6u); // 3 orgs x 2 inlets
    // The org axis leads the label (it is the most structural knob).
    EXPECT_EQ(low.points[0].label, "org=1x4,inlet=46");
    EXPECT_EQ(low.points[1].label, "org=1x4,inlet=50");
    EXPECT_EQ(low.points[4].label, "org=2x8,inlet=46");
    EXPECT_EQ(low.points.back().label, "org=2x8,inlet=50");

    // The coordinates land in the configurations.
    EXPECT_EQ(low.points[0].cfg.org, (MemoryOrgConfig{1, 4}));
    EXPECT_EQ(low.points[2].cfg.org, (MemoryOrgConfig{4, 4}));
    EXPECT_EQ(low.points.back().cfg.org, (MemoryOrgConfig{2, 8}));

    // The scalar override applies when no axis sweeps the org, and the
    // axis supersedes it when one does.
    s.sweepMemoryOrg.clear();
    s.memoryOrg = MemoryOrgSpec{"8x2", std::nullopt};
    low = s.lower();
    ASSERT_EQ(low.points.size(), 2u);
    EXPECT_EQ(low.points[0].label, "inlet=46");
    for (const auto &pt : low.points)
        EXPECT_EQ(pt.cfg.org, (MemoryOrgConfig{8, 2}));
    s.sweepMemoryOrg = {MemoryOrgSpec{"", MemoryOrgConfig{2, 2}}};
    low = s.lower();
    for (const auto &pt : low.points)
        EXPECT_EQ(pt.cfg.org, (MemoryOrgConfig{2, 2}));
}

TEST(ScenarioSpec, RejectsBadMemoryOrganizations)
{
    ScenarioSpec base;
    base.name = "badorg";
    base.workloads = {"W1"};
    base.policies = {"No-limit"};

    // Non-positive counts, in the override and on the axis.
    for (auto bad : {MemoryOrgConfig{0, 4}, MemoryOrgConfig{4, 0},
                     MemoryOrgConfig{-2, 4}}) {
        SCOPED_TRACE(bad.nChannels);
        ScenarioSpec s = base;
        s.memoryOrg = MemoryOrgSpec{"", bad};
        EXPECT_THROW(s.lower(), FatalError);
        s = base;
        s.sweepMemoryOrg = {MemoryOrgSpec{"", bad}};
        EXPECT_THROW(s.lower(), FatalError);
    }
    try {
        ScenarioSpec s = base;
        s.memoryOrg = MemoryOrgSpec{"", MemoryOrgConfig{0, 4}};
        s.lower();
        FAIL() << "expected FatalError";
    } catch (const FatalError &e) {
        EXPECT_NE(std::string(e.what()).find(">= 1 channel"),
                  std::string::npos)
            << e.what();
    }

    // Unknown catalog names list the valid keys.
    ScenarioSpec s = base;
    s.memoryOrg = MemoryOrgSpec{"16x16", std::nullopt};
    try {
        s.lower();
        FAIL() << "expected FatalError";
    } catch (const FatalError &e) {
        std::string msg = e.what();
        EXPECT_NE(msg.find("16x16"), std::string::npos) << msg;
        EXPECT_NE(msg.find("ch4_4x4"), std::string::npos) << msg;
    }

    // Duplicates collapse sweep points; comparison is by the *resolved*
    // organization, so a catalog name and an equal inline pair collide.
    s = base;
    s.sweepMemoryOrg = {MemoryOrgSpec{"2x4", std::nullopt},
                        MemoryOrgSpec{"2x4", std::nullopt}};
    EXPECT_THROW(s.lower(), FatalError);
    s = base;
    s.sweepMemoryOrg = {MemoryOrgSpec{"ch4_4x4", std::nullopt},
                        MemoryOrgSpec{"", MemoryOrgConfig{4, 4}}};
    try {
        s.lower();
        FAIL() << "expected FatalError";
    } catch (const FatalError &e) {
        std::string msg = e.what();
        EXPECT_NE(msg.find("duplicate sweep.memory_org"), std::string::npos)
            << msg;
        EXPECT_NE(msg.find("same organization as 'ch4_4x4'"),
                  std::string::npos)
            << msg;
    }

    // Platform scenarios fix the testbed's DIMM population.
    s = base;
    s.platform = "SR1500AL";
    s.policies = {"No-limit"};
    s.memoryOrg = MemoryOrgSpec{"2x4", std::nullopt};
    EXPECT_THROW(s.lower(), FatalError);
    s.memoryOrg = {};
    s.sweepMemoryOrg = {MemoryOrgSpec{"2x4", std::nullopt}};
    EXPECT_THROW(s.lower(), FatalError);
}

TEST(ScenarioSpec, MemoryOrgParsesNamesAndInlineObjects)
{
    ScenarioSpec s = ScenarioSpec::fromJson(Json::parse(R"({
        "name": "orgjson",
        "config": {"memory_org": "2x4"},
        "workloads": ["W1"],
        "policies": ["No-limit"],
        "sweep": {"memory_org": ["1x4", {"channels": 2, "dimms": 8}]}
    })"));
    EXPECT_EQ(s.memoryOrg.name, "2x4");
    ASSERT_EQ(s.sweepMemoryOrg.size(), 2u);
    EXPECT_EQ(s.sweepMemoryOrg[0].name, "1x4");
    ASSERT_TRUE(s.sweepMemoryOrg[1].org.has_value());
    EXPECT_EQ(*s.sweepMemoryOrg[1].org, (MemoryOrgConfig{2, 8}));
    EXPECT_EQ(s.sweepMemoryOrg[1].label(), "2x8");

    // Lossless round-trip, inline objects included.
    Json j = s.toJson();
    ScenarioSpec back = ScenarioSpec::fromJson(Json::parse(j.dump()));
    EXPECT_EQ(back, s);
    EXPECT_EQ(back.toJson(), j);

    // Malformed orgs fail loudly.
    EXPECT_THROW(ScenarioSpec::fromJson(Json::parse(
                     R"({"config": {"memory_org": 4}})")),
                 FatalError);
    EXPECT_THROW(ScenarioSpec::fromJson(Json::parse(
                     R"({"config": {"memory_org": {"channels": 4}}})")),
                 FatalError);
    EXPECT_THROW(ScenarioSpec::fromJson(Json::parse(
                     R"({"config": {"memory_org":
                         {"channels": 4, "dimms": 2.5}}})")),
                 FatalError);
    EXPECT_THROW(ScenarioSpec::fromJson(Json::parse(
                     R"({"config": {"memory_org":
                         {"channels": 4, "dimms": 4, "ranks": 2}}})")),
                 FatalError);
    EXPECT_THROW(ScenarioSpec::fromJson(Json::parse(
                     R"({"config": {"memory_org": ""}})")),
                 FatalError);

    // A default-constructed (empty) sweep entry has no serialized form
    // and no organization to resolve: both paths fail loudly.
    ScenarioSpec empty_entry = s;
    empty_entry.sweepMemoryOrg.push_back(MemoryOrgSpec{});
    EXPECT_THROW(empty_entry.toJson(), FatalError);
    EXPECT_THROW(empty_entry.lower(), FatalError);
}

TEST(ScenarioSpec, RejectsNonFiniteSweepValuesAndOverrides)
{
    ScenarioSpec base;
    base.name = "nonfinite";
    base.workloads = {"W1"};
    base.policies = {"No-limit"};
    const double inf = std::numeric_limits<double>::infinity();
    const double nan = std::numeric_limits<double>::quiet_NaN();

    // Before the fix a NaN sweep value was the "keep base" sentinel: it
    // silently collapsed onto the base configuration and its label
    // coordinate vanished. Now every non-finite value is rejected.
    for (double bad : {nan, inf, -inf}) {
        SCOPED_TRACE(bad);
        ScenarioSpec s = base;
        s.sweepTInlet = {46.0, bad};
        EXPECT_THROW(s.lower(), FatalError);
        s = base;
        s.sweepSensorNoise = {bad};
        EXPECT_THROW(s.lower(), FatalError);
        s = base;
        s.sweepDtmInterval = {bad};
        EXPECT_THROW(s.lower(), FatalError);
        s = base;
        s.tInlet = bad;
        EXPECT_THROW(s.lower(), FatalError);
        s = base;
        s.maxSimTime = bad;
        EXPECT_THROW(s.lower(), FatalError);
        s = base;
        s.sensorNoiseSigma = bad;
        EXPECT_THROW(s.lower(), FatalError);
    }
    try {
        ScenarioSpec s = base;
        s.sweepTInlet = {NAN};
        s.lower();
        FAIL() << "expected FatalError";
    } catch (const FatalError &e) {
        EXPECT_NE(std::string(e.what()).find("finite"), std::string::npos)
            << e.what();
    }

    // Range checks on the scalar knobs.
    ScenarioSpec s = base;
    s.dtmInterval = 0.0;
    EXPECT_THROW(s.lower(), FatalError);
    s = base;
    s.instrScale = -1.0;
    EXPECT_THROW(s.lower(), FatalError);
    s = base;
    s.sweepSensorNoise = {-0.5};
    EXPECT_THROW(s.lower(), FatalError);
}

TEST(ScenarioSpec, RejectsDuplicateNamesAndSweepValues)
{
    ScenarioSpec base;
    base.name = "dups";
    base.workloads = {"W1"};
    base.policies = {"No-limit"};

    // SuiteResults is keyed [workload][policy]; duplicates would
    // silently overwrite results. The diagnostic names the offender.
    ScenarioSpec s = base;
    s.workloads = {"W1", "W2", "W1"};
    try {
        s.lower();
        FAIL() << "expected FatalError";
    } catch (const FatalError &e) {
        EXPECT_NE(std::string(e.what()).find("duplicate workload 'W1'"),
                  std::string::npos)
            << e.what();
    }
    s = base;
    s.policies = {"No-limit", "DTM-TS", "No-limit"};
    try {
        s.lower();
        FAIL() << "expected FatalError";
    } catch (const FatalError &e) {
        EXPECT_NE(std::string(e.what()).find("duplicate policy 'No-limit'"),
                  std::string::npos)
            << e.what();
    }

    // Duplicate sweep values produce identical point labels.
    s = base;
    s.sweepTInlet = {46.0, 48.0, 46.0};
    try {
        s.lower();
        FAIL() << "expected FatalError";
    } catch (const FatalError &e) {
        EXPECT_NE(std::string(e.what())
                      .find("duplicate sweep.t_inlet value '46'"),
                  std::string::npos)
            << e.what();
    }
    s = base;
    s.sweepCooling = {"AOHS_1.5", "AOHS_1.5"};
    EXPECT_THROW(s.lower(), FatalError);
    s = base;
    s.sweepCopies = {2, 2};
    EXPECT_THROW(s.lower(), FatalError);
    s = base;
    s.sweepEmergencyLevels = {"ch4", "ch4"};
    EXPECT_THROW(s.lower(), FatalError);
    s = base;
    s.sweepDvfs = {"xeon5160", "xeon5160"};
    EXPECT_THROW(s.lower(), FatalError);
    s = base;
    s.sweepDtmInterval = {0.01, 0.01};
    EXPECT_THROW(s.lower(), FatalError);
}

TEST(ScenarioSpec, LabelsRenderFractionalAndNegativeValuesExactly)
{
    ScenarioSpec s;
    s.name = "labels";
    s.workloads = {"W1"};
    s.policies = {"No-limit"};
    s.sweepTInlet = {-3.5, 0.25, 46.125};
    s.sweepSensorNoise = {0.1};

    LoweredScenario low = s.lower();
    ASSERT_EQ(low.points.size(), 3u);
    EXPECT_EQ(low.points[0].label, "inlet=-3.5,noise=0.1");
    EXPECT_EQ(low.points[1].label, "inlet=0.25,noise=0.1");
    EXPECT_EQ(low.points[2].label, "inlet=46.125,noise=0.1");
    EXPECT_EQ(low.points[0].cfg.ambient.tInlet, -3.5);
}

TEST(ScenarioSpec, NoSweepMeansOneBasePoint)
{
    ScenarioSpec s;
    s.name = "single";
    s.workloads = {"W1"};
    s.policies = {"No-limit"};
    LoweredScenario low = s.lower();
    ASSERT_EQ(low.points.size(), 1u);
    EXPECT_EQ(low.points[0].label, "base");
    // Defaults are the Chapter 4 config.
    SimConfig ref = makeCh4Config(coolingAohs15(), false);
    EXPECT_EQ(low.points[0].cfg.copiesPerApp, ref.copiesPerApp);
    EXPECT_EQ(low.points[0].cfg.ambient.tInlet, ref.ambient.tInlet);
}

TEST(ScenarioSpec, PlatformScenariosUseTheCh5Lineup)
{
    ScenarioSpec s;
    s.name = "testbed";
    s.platform = "SR1500AL";
    s.copiesPerApp = 2;
    s.workloads = {"W1"};
    s.policies = {"No-limit", "DTM-BW"};

    LoweredScenario low = s.lower();
    ASSERT_EQ(low.points.size(), 1u);
    ASSERT_EQ(low.points[0].runs.size(), 2u);
    // Platform runs carry the Chapter 5 policy factory.
    EXPECT_TRUE(static_cast<bool>(low.points[0].runs[0].factory));
    // The paper's protocol: the SR1500AL No-limit baseline runs at a
    // 26 C room ambient instead of the hot box.
    EXPECT_EQ(low.points[0].runs[0].cfg.ambient.tInlet, 26.0);
    EXPECT_GT(low.points[0].runs[1].cfg.ambient.tInlet, 26.0);
    EXPECT_EQ(low.points[0].runs[1].cfg.copiesPerApp, 2);

    // Platform policies are validated against the Chapter 5 lineup.
    s.policies = {"DTM-BW+PID"};
    EXPECT_THROW(s.lower(), FatalError);
    // The cooling axis cannot apply to a fixed platform.
    s.policies = {"DTM-BW"};
    s.sweepCooling = {"AOHS_1.5"};
    EXPECT_THROW(s.lower(), FatalError);
    // Platforms also fix the DVFS table and derive their own ladders.
    s.sweepCooling.clear();
    s.dvfs = "xeon5160";
    EXPECT_THROW(s.lower(), FatalError);
    s.dvfs.clear();
    s.sweepEmergencyLevels = {"ch4"};
    EXPECT_THROW(s.lower(), FatalError);
    // The decision interval still sweeps on platforms (but must respect
    // the platform's coarser 0.1 s window).
    s.sweepEmergencyLevels.clear();
    s.sweepDtmInterval = {1.0, 2.0};
    LoweredScenario low2 = s.lower();
    ASSERT_EQ(low2.points.size(), 2u);
    EXPECT_EQ(low2.points[0].label, "dtm=1");
    EXPECT_EQ(low2.points[1].runs[0].cfg.dtmInterval, 2.0);
    s.sweepDtmInterval = {0.01};
    EXPECT_THROW(s.lower(), FatalError);
}

TEST(ScenarioSpec, RemapKnobsValidateAgainstWindowAndDtmInterval)
{
    ScenarioSpec s;
    s.name = "remap";
    s.workloads = {"W1"};
    s.policies = {"DTM-remap", "DTM-remap-hyst", "DTM-TS+remap"};
    s.remapInterval = 0.25;
    s.remapHysteresis = 1.0;
    EXPECT_NO_THROW(s.lower());

    // Below the simulator window (same failure mode as dtm_interval:
    // the simulator could never hit the boundary).
    s.remapInterval = 0.005;
    try {
        s.lower();
        FAIL() << "expected FatalError";
    } catch (const FatalError &e) {
        std::string msg = e.what();
        EXPECT_NE(msg.find("remap_interval 0.005 is below the simulator "
                           "window (0.01 s)"),
                  std::string::npos)
            << msg;
    }

    // Off the DTM decision grid: the error names both knobs.
    s.remapInterval = 0.025;
    s.dtmInterval = 0.02;
    try {
        s.lower();
        FAIL() << "expected FatalError";
    } catch (const FatalError &e) {
        std::string msg = e.what();
        EXPECT_NE(msg.find("remap_interval 0.025 is not a whole multiple "
                           "of dtm_interval 0.02"),
                  std::string::npos)
            << msg;
    }

    // The check runs per grid point: every dtm axis value must divide
    // the remap period evenly.
    s.dtmInterval.reset();
    s.remapInterval = 0.06;
    s.sweepDtmInterval = {0.01, 0.02, 0.03};
    EXPECT_NO_THROW(s.lower());
    s.sweepDtmInterval = {0.01, 0.04};
    EXPECT_THROW(s.lower(), FatalError);

    // Scalar sanity.
    s.sweepDtmInterval.clear();
    s.remapInterval = -1.0;
    try {
        s.lower();
        FAIL() << "expected FatalError";
    } catch (const FatalError &e) {
        EXPECT_NE(std::string(e.what()).find("remap_interval must be > 0"),
                  std::string::npos)
            << e.what();
    }
    s.remapInterval = 0.25;
    s.remapHysteresis = -0.5;
    try {
        s.lower();
        FAIL() << "expected FatalError";
    } catch (const FatalError &e) {
        EXPECT_NE(std::string(e.what())
                      .find("remap_hysteresis must be >= 0"),
                  std::string::npos)
            << e.what();
    }

    // Unset knobs impose no constraint — dtm_interval sweeps that never
    // name a remap policy (e.g. dtm_sensitivity) keep lowering.
    ScenarioSpec plain;
    plain.name = "no-remap";
    plain.workloads = {"W1"};
    plain.policies = {"DTM-TS"};
    plain.sweepDtmInterval = {0.03, 0.07};
    EXPECT_NO_THROW(plain.lower());
}

TEST(ScenarioSpec, PlatformScenariosRejectRemapKnobs)
{
    ScenarioSpec s;
    s.name = "testbed";
    s.platform = "SR1500AL";
    s.workloads = {"W1"};
    s.policies = {"No-limit"};
    s.remapInterval = 1.0;
    try {
        s.lower();
        FAIL() << "expected FatalError";
    } catch (const FatalError &e) {
        EXPECT_NE(std::string(e.what())
                      .find("remove the remap_interval/remap_hysteresis "
                            "members"),
                  std::string::npos)
            << e.what();
    }
    s.remapInterval.reset();
    s.remapHysteresis = 2.0;
    EXPECT_THROW(s.lower(), FatalError);
}

TEST(ScenarioSpec, UnknownNamesReportValidKeys)
{
    ScenarioSpec s;
    s.name = "bad";
    s.workloads = {"W1"};
    s.policies = {"DTM-TURBO"};
    try {
        s.lower();
        FAIL() << "expected FatalError";
    } catch (const FatalError &e) {
        std::string msg = e.what();
        EXPECT_NE(msg.find("DTM-TURBO"), std::string::npos) << msg;
        EXPECT_NE(msg.find("valid:"), std::string::npos) << msg;
        EXPECT_NE(msg.find("DTM-CDVFS"), std::string::npos) << msg;
    }

    s.policies = {"No-limit"};
    s.workloads = {"W99"};
    EXPECT_THROW(s.lower(), FatalError);

    s.workloads = {"W1"};
    s.cooling = "WATER_9000";
    EXPECT_THROW(s.lower(), FatalError);

    ScenarioSpec empty;
    empty.policies = {"No-limit"};
    EXPECT_THROW(empty.lower(), FatalError); // no workloads
}

TEST(ScenarioSpec, ParserRejectsUnknownMembers)
{
    EXPECT_THROW(
        ScenarioSpec::fromJson(Json::parse(R"({"workload": ["W1"]})")),
        FatalError);
    EXPECT_THROW(ScenarioSpec::fromJson(
                     Json::parse(R"({"config": {"cooling_rate": 2}})")),
                 FatalError);
    EXPECT_THROW(ScenarioSpec::fromJson(
                     Json::parse(R"({"sweep": {"ambient": ["a"]}})")),
                 FatalError);
    EXPECT_THROW(ScenarioSpec::fromJson(Json::parse(R"(["not an object"])")),
                 FatalError);
    EXPECT_THROW(ScenarioSpec::fromJson(Json::parse(
                     R"({"config": {"copies_per_app": 2.5}})")),
                 FatalError);
}

/**
 * Acceptance pin: running the shipped ch4_baseline scenario is
 * bit-identical to the equivalent hand-coded ExperimentEngine
 * invocation (`memtherm run examples/scenarios/ch4_baseline.json`
 * executes exactly this code path).
 */
TEST(Scenario, Ch4BaselineMatchesHandCodedEngineBitExactly)
{
    ScenarioSpec spec = ScenarioSpec::load(scenarioPath("ch4_baseline.json"));
    ASSERT_EQ(spec.name, "ch4_baseline");

    ExperimentEngine engine(2);
    ScenarioResults got = runScenario(spec, engine);
    ASSERT_EQ(got.points.size(), 1u);
    EXPECT_EQ(got.points[0].label, "base");

    // The hand-coded equivalent, built without the scenario layer.
    SimConfig cfg = makeCh4Config(coolingAohs15(), false);
    cfg.copiesPerApp = 4;
    std::vector<Workload> ws{workloadMix("W1"), workloadMix("W2")};
    std::vector<std::string> pols{"No-limit", "DTM-TS", "DTM-BW",
                                  "DTM-ACG", "DTM-CDVFS"};
    SuiteResults ref = engine.runSuite(cfg, ws, pols);

    const SuiteResults &suite = got.points[0].suite;
    ASSERT_EQ(suite.size(), ref.size());
    for (const auto &[w, per_policy] : ref) {
        ASSERT_EQ(suite.count(w), 1u);
        ASSERT_EQ(suite.at(w).size(), per_policy.size());
        for (const auto &[p, res] : per_policy) {
            SCOPED_TRACE(w + "/" + p);
            expectIdentical(suite.at(w).at(p), res);
        }
    }

    // And the serialized form carries the same numbers.
    Json j = toJson(got);
    const Json &r =
        j.at("points").asArray()[0].at("results").at("W1").at("DTM-TS");
    EXPECT_EQ(r.at("running_time_s").asNumber(),
              ref.at("W1").at("DTM-TS").runningTime);
    EXPECT_EQ(r.at("mem_energy_j").asNumber(),
              ref.at("W1").at("DTM-TS").memEnergy);
}

/**
 * The new axes lower bit-identically too: a dtm_interval x
 * emergency_levels x dvfs sweep equals hand-building each SimConfig
 * (decision period, ladder, operating table) and handing the runs to
 * the engine directly.
 */
TEST(Scenario, NewAxesMatchHandCodedEngineBitExactly)
{
    ScenarioSpec spec;
    spec.name = "knob_grid";
    spec.copiesPerApp = 1;
    spec.maxSimTime = 500.0;
    spec.workloads = {"swimx2"};
    spec.policies = {"DTM-CDVFS"};
    spec.sweepDtmInterval = {0.01, 0.1};
    spec.sweepEmergencyLevels = {"ch4", "sr1500al"};
    spec.sweepDvfs = {"simulated_cmp", "xeon5160"};

    ExperimentEngine engine(2);
    ScenarioResults got = runScenario(spec, engine);
    ASSERT_EQ(got.points.size(), 8u);

    // The hand-coded equivalent, built without the scenario layer.
    std::vector<ExperimentEngine::Run> runs;
    for (double dtm : {0.01, 0.1}) {
        for (const char *ladder : {"ch4", "sr1500al"}) {
            for (const char *table : {"simulated_cmp", "xeon5160"}) {
                SimConfig cfg = makeCh4Config(coolingAohs15(), false);
                cfg.copiesPerApp = 1;
                cfg.maxSimTime = 500.0;
                cfg.dtmInterval = dtm;
                cfg.emergencyLevels = emergencyLevelsByName(ladder);
                cfg.dvfs = DvfsRegistry::instance().byName(table);
                runs.push_back(
                    {cfg, workloadByName("swimx2"), "DTM-CDVFS", {}});
            }
        }
    }
    std::vector<SimResult> ref = engine.run(runs);
    ASSERT_EQ(ref.size(), 8u);
    for (std::size_t i = 0; i < 8; ++i) {
        SCOPED_TRACE(got.points[i].label);
        expectIdentical(got.points[i].suite.at("swimx2").at("DTM-CDVFS"),
                        ref[i]);
    }
}

/**
 * The memory_org axis lowers bit-identically as well: sweeping named
 * and inline organizations equals hand-setting SimConfig::org for each
 * point and handing the runs to the engine directly. Doubles as the
 * per-DIMM-peak contract check: one peak pair per DIMM of the point's
 * organization, bounded by the run's maxima, with the bypass gradient
 * (DIMM 0 relays all downstream traffic) visible on the AMBs.
 */
TEST(Scenario, MemoryOrgAxisMatchesHandCodedEngineBitExactly)
{
    ScenarioSpec spec;
    spec.name = "org_grid";
    spec.copiesPerApp = 1;
    spec.maxSimTime = 300.0;
    spec.workloads = {"swimx2"};
    spec.policies = {"No-limit"};
    spec.sweepMemoryOrg = {MemoryOrgSpec{"1x4", std::nullopt},
                           MemoryOrgSpec{"ch4_4x4", std::nullopt},
                           MemoryOrgSpec{"", MemoryOrgConfig{2, 8}}};

    ExperimentEngine engine(2);
    ScenarioResults got = runScenario(spec, engine);
    ASSERT_EQ(got.points.size(), 3u);

    // The hand-coded equivalent, built without the scenario layer.
    std::vector<ExperimentEngine::Run> runs;
    for (auto org : {MemoryOrgConfig{1, 4}, MemoryOrgConfig{4, 4},
                     MemoryOrgConfig{2, 8}}) {
        SimConfig cfg = makeCh4Config(coolingAohs15(), false);
        cfg.copiesPerApp = 1;
        cfg.maxSimTime = 300.0;
        cfg.org = org;
        runs.push_back({cfg, workloadByName("swimx2"), "No-limit", {}});
    }
    std::vector<SimResult> ref = engine.run(runs);
    ASSERT_EQ(ref.size(), 3u);
    for (std::size_t i = 0; i < 3; ++i) {
        SCOPED_TRACE(got.points[i].label);
        expectIdentical(got.points[i].suite.at("swimx2").at("No-limit"),
                        ref[i]);
    }

    // Per-DIMM peaks: sized by the organization, consistent with the
    // scalar maxima, and monotonically cooler down the daisy chain for
    // the AMBs (uniform interleave: bypass traffic decreases with the
    // distance from the controller).
    const std::size_t depth[] = {4u, 4u, 8u};
    for (std::size_t i = 0; i < 3; ++i) {
        SCOPED_TRACE(got.points[i].label);
        const SimResult &r = got.points[i].suite.at("swimx2").at("No-limit");
        ASSERT_EQ(r.peakAmbPerDimm.size(), depth[i]);
        ASSERT_EQ(r.peakDramPerDimm.size(), depth[i]);
        double hottest = 0.0;
        for (std::size_t d = 0; d < depth[i]; ++d) {
            EXPECT_LE(r.peakAmbPerDimm[d], r.maxAmb);
            EXPECT_LE(r.peakDramPerDimm[d], r.maxDram);
            hottest = std::max(hottest, r.peakAmbPerDimm[d]);
            if (d > 0) {
                EXPECT_LE(r.peakAmbPerDimm[d], r.peakAmbPerDimm[d - 1]);
            }
        }
        EXPECT_EQ(hottest, r.maxAmb);
        EXPECT_EQ(r.peakAmbPerDimm.front(), r.maxAmb);
    }
    // Concentrating the same traffic on one channel runs hotter than
    // spreading it over four (the Section 3.4 story).
    EXPECT_GT(got.points[0].suite.at("swimx2").at("No-limit").maxAmb,
              got.points[1].suite.at("swimx2").at("No-limit").maxAmb);
}

TEST(ScenarioSpec, RefreshAxisLowersAcrossTheGrid)
{
    ScenarioSpec s;
    s.name = "refresh_axis";
    s.workloads = {"W1"};
    s.policies = {"No-limit"};
    s.sweepTInlet = {46.0, 50.0};
    s.sweepRefresh = {RefreshSpec{"none", {}}, RefreshSpec{"ddr2_2x", {}}};

    LoweredScenario low = s.lower();
    ASSERT_EQ(low.points.size(), 4u); // 2 inlets x 2 refresh models
    // Refresh is the tenth (fastest) axis; its coordinate labels last.
    EXPECT_EQ(low.points[0].label, "inlet=46,refresh=none");
    EXPECT_EQ(low.points[1].label, "inlet=46,refresh=ddr2_2x");
    EXPECT_EQ(low.points.back().label, "inlet=50,refresh=ddr2_2x");

    // The coordinates land in the configurations: "none" resolves to
    // the empty (feedback-off) model, ddr2_2x to the real band table.
    EXPECT_TRUE(low.points[0].cfg.refresh.empty());
    EXPECT_FALSE(low.points[1].cfg.refresh.empty());
    EXPECT_EQ(low.points[1].cfg.refresh.bands.size(),
              ddr2DoubleRefreshModel().bands.size());

    // The scalar member applies when no axis sweeps refresh, and the
    // axis supersedes it when one does.
    s.sweepRefresh.clear();
    s.refresh = RefreshSpec{"aldram", {}};
    low = s.lower();
    ASSERT_EQ(low.points.size(), 2u);
    for (const auto &pt : low.points) {
        EXPECT_EQ(pt.cfg.refresh.bands.size(),
                  aldramRefreshModel().bands.size());
    }
    s.sweepRefresh = {RefreshSpec{"none", {}}, RefreshSpec{"ddr2_2x", {}}};
    low = s.lower();
    EXPECT_TRUE(low.points[0].cfg.refresh.empty()); // axis wins

    // An inline band table lowers too, with a label free of ',' / '='.
    s.refresh = RefreshSpec{};
    s.sweepRefresh = {
        RefreshSpec{"", {{-273.15, 0.01, 0.1, 1.0}, {80.0, 0.02, 0.2, 1.0}}}};
    s.sweepTInlet.clear();
    low = s.lower();
    ASSERT_EQ(low.points.size(), 1u);
    EXPECT_EQ(low.points[0].label, "refresh=-273.15:0.01:0.1|80:0.02:0.2");
    EXPECT_EQ(low.points[0].cfg.refresh.bands.size(), 2u);

    // Unknown catalog names report the valid keys.
    s.sweepRefresh = {RefreshSpec{"ddr3", {}}};
    try {
        s.lower();
        FAIL() << "expected FatalError";
    } catch (const FatalError &e) {
        std::string msg = e.what();
        EXPECT_NE(msg.find("unknown refresh model 'ddr3'"),
                  std::string::npos)
            << msg;
        EXPECT_NE(msg.find("ddr2_2x"), std::string::npos) << msg;
    }

    // Malformed inline tables name the offense.
    s.sweepRefresh = {RefreshSpec{"", {{-273.15, 1.5, 0.1, 1.0}}}};
    EXPECT_THROW(s.lower(), FatalError); // bw_fraction outside [0, 1)
    s.sweepRefresh = {
        RefreshSpec{"", {{80.0, 0.01, 0.1, 1.0}, {70.0, 0.02, 0.2, 1.0}}}};
    EXPECT_THROW(s.lower(), FatalError); // min_temp not increasing
    s.sweepRefresh = {RefreshSpec{"", {{-273.15, 0.01, -0.1, 1.0}}}};
    EXPECT_THROW(s.lower(), FatalError); // negative dram_power_w
    s.sweepRefresh = {RefreshSpec{"", {{-273.15, 0.01, 0.1, 0.0}}}};
    EXPECT_THROW(s.lower(), FatalError); // non-positive latency_mult

    // Duplicate sweep entries (by resolved model, not spelling).
    s.sweepRefresh = {RefreshSpec{"none", {}}, RefreshSpec{"none", {}}};
    EXPECT_THROW(s.lower(), FatalError);
    s.sweepRefresh = {RefreshSpec{"ddr2_2x", {}},
                      RefreshSpec{"", ddr2DoubleRefreshModel().bands}};
    EXPECT_THROW(s.lower(), FatalError);

    // Platform scenarios measure real DRAM — the knob is rejected.
    ScenarioSpec plat;
    plat.name = "plat_refresh";
    plat.platform = "SR1500AL";
    plat.workloads = {"W1"};
    plat.policies = {"No-limit"};
    plat.refresh = RefreshSpec{"ddr2_2x", {}};
    EXPECT_THROW(plat.lower(), FatalError);
    plat.refresh = RefreshSpec{};
    plat.sweepRefresh = {RefreshSpec{"ddr2_2x", {}}};
    EXPECT_THROW(plat.lower(), FatalError);
}

TEST(ScenarioSpec, TrafficShapeAxisLowersAcrossTheGrid)
{
    ScenarioSpec s;
    s.name = "shapes";
    s.workloads = {"W1"};
    s.policies = {"No-limit"};
    s.sweepTrafficShape = {TrafficShapeSpec{"hot_dimm0", {}},
                           TrafficShapeSpec{"", {0.7, 0.1, 0.1, 0.1}}};
    s.sweepTInlet = {46.0, 50.0};

    LoweredScenario low = s.lower();
    ASSERT_EQ(low.points.size(), 4u); // 2 shapes x 2 inlets
    // The shape axis labels right after the organization.
    EXPECT_EQ(low.points[0].label, "shape=hot_dimm0,inlet=46");
    EXPECT_EQ(low.points[1].label, "shape=hot_dimm0,inlet=50");
    EXPECT_EQ(low.points[2].label, "shape=0.7|0.1|0.1|0.1,inlet=46");
    EXPECT_EQ(low.points.back().label, "shape=0.7|0.1|0.1|0.1,inlet=50");

    // The coordinates land in the configurations, resolved against the
    // base (4x4) organization.
    EXPECT_EQ(low.points[0].cfg.trafficShares,
              trafficShapeByName("hot_dimm0", 4));
    EXPECT_EQ(low.points[2].cfg.trafficShares,
              (std::vector<double>{0.7, 0.1, 0.1, 0.1}));

    // The scalar override applies when no axis sweeps the shape, and
    // the axis supersedes it when one does.
    s.sweepTrafficShape.clear();
    s.trafficShape = TrafficShapeSpec{"linear_taper", {}};
    low = s.lower();
    ASSERT_EQ(low.points.size(), 2u);
    EXPECT_EQ(low.points[0].label, "inlet=46");
    for (const auto &pt : low.points) {
        EXPECT_EQ(pt.cfg.trafficShares,
                  trafficShapeByName("linear_taper", 4));
    }
    s.sweepTrafficShape = {TrafficShapeSpec{"front_heavy", {}}};
    low = s.lower();
    for (const auto &pt : low.points) {
        EXPECT_EQ(pt.cfg.trafficShares,
                  trafficShapeByName("front_heavy", 4));
    }
}

TEST(ScenarioSpec, TrafficShapesReResolvePerOrganizationPoint)
{
    // A catalog shape is parameterized by the chain depth: sweeping the
    // organization re-resolves it at every point, so a 2-DIMM and an
    // 8-DIMM grid point each get a share vector of their own arity.
    ScenarioSpec s;
    s.name = "shape_x_org";
    s.workloads = {"W1"};
    s.policies = {"No-limit"};
    s.sweepMemoryOrg = {MemoryOrgSpec{"4x2", std::nullopt},
                        MemoryOrgSpec{"4x8", std::nullopt}};
    s.sweepTrafficShape = {TrafficShapeSpec{"front_heavy", {}}};

    LoweredScenario low = s.lower();
    ASSERT_EQ(low.points.size(), 2u);
    EXPECT_EQ(low.points[0].label, "org=4x2,shape=front_heavy");
    EXPECT_EQ(low.points[0].cfg.trafficShares,
              trafficShapeByName("front_heavy", 2));
    EXPECT_EQ(low.points[1].cfg.trafficShares,
              trafficShapeByName("front_heavy", 8));

    // The scalar shape member re-resolves the same way.
    s.sweepTrafficShape.clear();
    s.trafficShape = TrafficShapeSpec{"back_heavy", {}};
    low = s.lower();
    ASSERT_EQ(low.points.size(), 2u);
    EXPECT_EQ(low.points[0].cfg.trafficShares,
              trafficShapeByName("back_heavy", 2));
    EXPECT_EQ(low.points[1].cfg.trafficShares,
              trafficShapeByName("back_heavy", 8));
}

TEST(ScenarioSpec, RejectsBadTrafficShapes)
{
    ScenarioSpec base;
    base.name = "badshape";
    base.workloads = {"W1"};
    base.policies = {"No-limit"};

    // Negative shares, sums off 1, and non-finite entries, on the
    // scalar member and the axis alike.
    for (auto bad : {std::vector<double>{1.5, -0.5, 0.0, 0.0},
                     std::vector<double>{0.5, 0.2, 0.2, 0.2},
                     std::vector<double>{0.25, 0.25, 0.25,
                                         std::numeric_limits<
                                             double>::quiet_NaN()}}) {
        SCOPED_TRACE(bad[0]);
        ScenarioSpec s = base;
        s.trafficShape = TrafficShapeSpec{"", bad};
        EXPECT_THROW(s.lower(), FatalError);
        s = base;
        s.sweepTrafficShape = {TrafficShapeSpec{"", bad}};
        EXPECT_THROW(s.lower(), FatalError);
    }
    try {
        ScenarioSpec s = base;
        s.trafficShape = TrafficShapeSpec{"", {1.5, -0.5, 0.0, 0.0}};
        s.lower();
        FAIL() << "expected FatalError";
    } catch (const FatalError &e) {
        EXPECT_NE(std::string(e.what()).find("must not be negative"),
                  std::string::npos)
            << e.what();
    }
    try {
        ScenarioSpec s = base;
        s.trafficShape = TrafficShapeSpec{"", {0.5, 0.2, 0.2, 0.2}};
        s.lower();
        FAIL() << "expected FatalError";
    } catch (const FatalError &e) {
        EXPECT_NE(std::string(e.what()).find("must sum to 1"),
                  std::string::npos)
            << e.what();
    }

    // Unknown catalog names list the valid keys.
    ScenarioSpec s = base;
    s.trafficShape = TrafficShapeSpec{"zigzag", {}};
    try {
        s.lower();
        FAIL() << "expected FatalError";
    } catch (const FatalError &e) {
        std::string msg = e.what();
        EXPECT_NE(msg.find("zigzag"), std::string::npos) << msg;
        EXPECT_NE(msg.find("linear_taper"), std::string::npos) << msg;
    }

    // An inline vector whose arity does not match the swept
    // organization is rejected with both axes named.
    s = base;
    s.trafficShape = TrafficShapeSpec{"", {0.25, 0.25, 0.25, 0.25}};
    s.sweepMemoryOrg = {MemoryOrgSpec{"4x2", std::nullopt}};
    try {
        s.lower();
        FAIL() << "expected FatalError";
    } catch (const FatalError &e) {
        std::string msg = e.what();
        EXPECT_NE(msg.find("config.traffic_shape"), std::string::npos)
            << msg;
        EXPECT_NE(msg.find("has 4 share(s)"), std::string::npos) << msg;
        EXPECT_NE(msg.find("sweep.memory_org organization '4x2'"),
                  std::string::npos)
            << msg;
        EXPECT_NE(msg.find("2 DIMM(s) per channel"), std::string::npos)
            << msg;
    }
    // Same for a swept inline vector against the scalar organization.
    s = base;
    s.memoryOrg = MemoryOrgSpec{"4x8", std::nullopt};
    s.sweepTrafficShape = {TrafficShapeSpec{"", {0.5, 0.5}}};
    try {
        s.lower();
        FAIL() << "expected FatalError";
    } catch (const FatalError &e) {
        std::string msg = e.what();
        EXPECT_NE(msg.find("sweep.traffic_shape entry '0.5|0.5'"),
                  std::string::npos)
            << msg;
        EXPECT_NE(msg.find("config.memory_org organization '4x8'"),
                  std::string::npos)
            << msg;
    }
    // And against the implicit base organization.
    s = base;
    s.trafficShape = TrafficShapeSpec{"", {0.5, 0.5}};
    try {
        s.lower();
        FAIL() << "expected FatalError";
    } catch (const FatalError &e) {
        EXPECT_NE(std::string(e.what()).find("the base organization (4x4)"),
                  std::string::npos)
            << e.what();
    }

    // Duplicates compare by the *resolved* share vector: a repeated
    // name, a name against an equal inline vector, and two distinct
    // names that coincide at some swept chain depth all collide.
    s = base;
    s.sweepTrafficShape = {TrafficShapeSpec{"hot_dimm0", {}},
                           TrafficShapeSpec{"hot_dimm0", {}}};
    EXPECT_THROW(s.lower(), FatalError);
    s = base;
    s.sweepTrafficShape = {TrafficShapeSpec{"uniform", {}},
                           TrafficShapeSpec{"", {0.25, 0.25, 0.25, 0.25}}};
    try {
        s.lower();
        FAIL() << "expected FatalError";
    } catch (const FatalError &e) {
        std::string msg = e.what();
        EXPECT_NE(msg.find("duplicate sweep.traffic_shape"),
                  std::string::npos)
            << msg;
        EXPECT_NE(msg.find("same shares as 'uniform'"), std::string::npos)
            << msg;
    }
    // front_heavy and linear_taper both resolve to {2/3, 1/3} on a
    // two-DIMM chain, so the pair is fine on 4x4 but collides under a
    // swept 4x2 organization.
    s = base;
    s.sweepTrafficShape = {TrafficShapeSpec{"front_heavy", {}},
                           TrafficShapeSpec{"linear_taper", {}}};
    EXPECT_NO_THROW(s.lower());
    s.sweepMemoryOrg = {MemoryOrgSpec{"4x2", std::nullopt}};
    try {
        s.lower();
        FAIL() << "expected FatalError";
    } catch (const FatalError &e) {
        std::string msg = e.what();
        EXPECT_NE(msg.find("duplicate sweep.traffic_shape shape "
                           "'linear_taper'"),
                  std::string::npos)
            << msg;
        EXPECT_NE(msg.find("under sweep.memory_org organization '4x2'"),
                  std::string::npos)
            << msg;
    }

    // Platform scenarios measure their traffic; the knob is rejected.
    s = base;
    s.platform = "SR1500AL";
    s.trafficShape = TrafficShapeSpec{"hot_dimm0", {}};
    EXPECT_THROW(s.lower(), FatalError);
    s.trafficShape = {};
    s.sweepTrafficShape = {TrafficShapeSpec{"hot_dimm0", {}}};
    EXPECT_THROW(s.lower(), FatalError);
}

TEST(ScenarioSpec, TrafficShapeParsesNamesAndInlineVectors)
{
    ScenarioSpec s = ScenarioSpec::fromJson(Json::parse(R"({
        "name": "shapejson",
        "config": {"traffic_shape": "hot_dimm0"},
        "workloads": ["W1"],
        "policies": ["No-limit"],
        "sweep": {"traffic_shape": ["linear_taper", [0.7, 0.1, 0.1, 0.1]]}
    })"));
    EXPECT_EQ(s.trafficShape.name, "hot_dimm0");
    ASSERT_EQ(s.sweepTrafficShape.size(), 2u);
    EXPECT_EQ(s.sweepTrafficShape[0].name, "linear_taper");
    EXPECT_EQ(s.sweepTrafficShape[1].shares,
              (std::vector<double>{0.7, 0.1, 0.1, 0.1}));
    EXPECT_EQ(s.sweepTrafficShape[1].label(), "0.7|0.1|0.1|0.1");

    // Lossless round-trip, inline vectors included.
    Json j = s.toJson();
    ScenarioSpec back = ScenarioSpec::fromJson(Json::parse(j.dump()));
    EXPECT_EQ(back, s);
    EXPECT_EQ(back.toJson(), j);

    // Malformed shapes fail loudly.
    EXPECT_THROW(ScenarioSpec::fromJson(Json::parse(
                     R"({"config": {"traffic_shape": 4}})")),
                 FatalError);
    EXPECT_THROW(ScenarioSpec::fromJson(Json::parse(
                     R"({"config": {"traffic_shape": ""}})")),
                 FatalError);
    EXPECT_THROW(ScenarioSpec::fromJson(Json::parse(
                     R"({"config": {"traffic_shape": []}})")),
                 FatalError);
    EXPECT_THROW(ScenarioSpec::fromJson(Json::parse(
                     R"({"config": {"traffic_shape": [0.5, "x"]}})")),
                 FatalError);
    EXPECT_THROW(ScenarioSpec::fromJson(Json::parse(
                     R"({"sweep": {"traffic_shape": "uniform"}})")),
                 FatalError);

    // A default-constructed (empty) sweep entry has no serialized form
    // and no shares to resolve: both paths fail loudly.
    ScenarioSpec empty_entry = s;
    empty_entry.sweepTrafficShape.push_back(TrafficShapeSpec{});
    EXPECT_THROW(empty_entry.toJson(), FatalError);
    EXPECT_THROW(empty_entry.lower(), FatalError);
}

/**
 * Acceptance pin: a run with the traffic_shape knob set to "uniform"
 * (or the equivalent inline vector) is bit-identical to a run with the
 * knob unset — the explicit share path feeds the traffic decomposition
 * the exact 1/n fractions the empty-shares path uses.
 */
TEST(Scenario, UniformTrafficShapeIsBitIdenticalToUnset)
{
    ScenarioSpec spec;
    spec.name = "uniform_pin";
    spec.copiesPerApp = 1;
    spec.maxSimTime = 200.0;
    spec.workloads = {"swimx2"};
    spec.policies = {"No-limit"};

    ExperimentEngine engine(1);
    ScenarioResults unset = runScenario(spec, engine);

    spec.trafficShape = TrafficShapeSpec{"uniform", {}};
    ScenarioResults named = runScenario(spec, engine);

    spec.trafficShape = TrafficShapeSpec{"", {0.25, 0.25, 0.25, 0.25}};
    ScenarioResults inline_uniform = runScenario(spec, engine);

    const SimResult &a = unset.points[0].suite.at("swimx2").at("No-limit");
    expectIdentical(a, named.points[0].suite.at("swimx2").at("No-limit"));
    expectIdentical(
        a, inline_uniform.points[0].suite.at("swimx2").at("No-limit"));
}

/**
 * The traffic_shape axis lowers bit-identically as well: sweeping named
 * and inline shapes across organizations equals hand-setting
 * SimConfig::trafficShares for each point and handing the runs to the
 * engine directly. Doubles as the per-DIMM average-power contract check
 * and pins the gradient inversion a back-heavy skew produces.
 */
TEST(Scenario, TrafficShapeAxisMatchesHandCodedEngineBitExactly)
{
    ScenarioSpec spec;
    spec.name = "shape_grid";
    spec.copiesPerApp = 1;
    spec.maxSimTime = 300.0;
    spec.workloads = {"swimx2"};
    spec.policies = {"No-limit"};
    spec.sweepTrafficShape = {TrafficShapeSpec{"uniform", {}},
                              TrafficShapeSpec{"back_heavy", {}},
                              TrafficShapeSpec{"", {0.7, 0.1, 0.1, 0.1}}};

    ExperimentEngine engine(2);
    ScenarioResults got = runScenario(spec, engine);
    ASSERT_EQ(got.points.size(), 3u);

    // The hand-coded equivalent, built without the scenario layer.
    std::vector<ExperimentEngine::Run> runs;
    for (auto shares : {trafficShapeByName("uniform", 4),
                        trafficShapeByName("back_heavy", 4),
                        std::vector<double>{0.7, 0.1, 0.1, 0.1}}) {
        SimConfig cfg = makeCh4Config(coolingAohs15(), false);
        cfg.copiesPerApp = 1;
        cfg.maxSimTime = 300.0;
        cfg.trafficShares = shares;
        runs.push_back({cfg, workloadByName("swimx2"), "No-limit", {}});
    }
    std::vector<SimResult> ref = engine.run(runs);
    ASSERT_EQ(ref.size(), 3u);
    for (std::size_t i = 0; i < 3; ++i) {
        SCOPED_TRACE(got.points[i].label);
        expectIdentical(got.points[i].suite.at("swimx2").at("No-limit"),
                        ref[i]);
    }

    // Per-DIMM average power: one entry per DIMM; summed over the
    // representative channel and scaled by the channel count it
    // recovers the run's mean memory power.
    for (const auto &pt : got.points) {
        SCOPED_TRACE(pt.label);
        const SimResult &r = pt.suite.at("swimx2").at("No-limit");
        ASSERT_EQ(r.avgPowerPerDimm.size(), 4u);
        double channel = 0.0;
        for (double p : r.avgPowerPerDimm) {
            EXPECT_GT(p, 0.0);
            channel += p;
        }
        EXPECT_NEAR(channel * 4, r.avgMemPower(),
                    1e-9 * r.avgMemPower());
    }

    // The gradient inversion: under uniform interleave the AMB peaks
    // fall monotonically down the chain; a back-heavy skew loads the
    // chain's far end instead, so the profile turns non-monotone (and
    // the hottest DRAM moves off DIMM 0 entirely).
    const SimResult &uni = got.points[0].suite.at("swimx2").at("No-limit");
    const SimResult &back = got.points[1].suite.at("swimx2").at("No-limit");
    for (std::size_t d = 1; d < 4; ++d)
        EXPECT_LE(uni.peakAmbPerDimm[d], uni.peakAmbPerDimm[d - 1]);
    EXPECT_GT(back.peakAmbPerDimm[2], back.peakAmbPerDimm[0]);
    EXPECT_GT(back.peakDramPerDimm[2], back.peakDramPerDimm[0]);
    EXPECT_GT(back.avgPowerPerDimm[3], back.avgPowerPerDimm[0]);
}

TEST(ScenarioSpec, IntegerMembersOutOfRangeAreRejected)
{
    // Integral JSON numbers beyond the member's C++ type are refused
    // with a located error; converting them would be undefined.
    const std::vector<std::pair<const char *, const char *>> cases = {
        {R"("config": {"copies_per_app": 1e20})",
         "scenario: member 'copies_per_app' must be an integer in "
         "[-2147483648, 2147483647] (got 1e+20)"},
        {R"("sweep": {"copies_per_app": [2, -1e20]})",
         "scenario: sweep.copies_per_app value must be an integer in "
         "[-2147483648, 2147483647] (got -1e+20)"},
        {R"("config": {"memory_org": {"channels": 4294967296,
            "dimms": 2}})",
         "scenario: member 'channels' must be an integer in "
         "[-2147483648, 2147483647] (got 4294967296)"},
        {R"("config": {"sensor_seed": 1e30})",
         "scenario: 'sensor_seed' must be an integer in [0, "
         "18446744073709551615] (got 1e+30)"},
    };
    for (const auto &[members, expect] : cases) {
        const std::string doc =
            std::string(R"({"name": "int", "workloads": ["W1"], )") +
            R"("policies": ["No-limit"], )" + members + "}";
        try {
            ScenarioSpec::fromJson(Json::parse(doc));
            ADD_FAILURE() << "accepted: " << doc;
        } catch (const FatalError &e) {
            EXPECT_NE(std::string(e.what()).find(expect), std::string::npos)
                << e.what();
        }
    }

    // The largest seed a uint64 holds below 2^64 still parses exactly.
    const ScenarioSpec big = ScenarioSpec::fromJson(Json::parse(
        R"({"config": {"sensor_seed": 18446744073709549568}})"));
    EXPECT_EQ(big.sensorSeed, 18446744073709549568ull);

    // A result document from a far-future binary is newer, not a
    // misread negative version.
    Json doc = Json::object();
    doc.set("schema_version", 1e20);
    try {
        (void)resultSchemaVersionOf(doc, "'doc'");
        FAIL() << "accepted schema_version 1e20";
    } catch (const FatalError &e) {
        EXPECT_NE(std::string(e.what()).find(
                      "'doc': schema version 1e+20 is newer than this "
                      "binary's 3"),
                  std::string::npos)
            << e.what();
    }
}

/**
 * Documentation pin: every validation message docs/scenarios.md lists,
 * each triggered by a spec that breaks exactly one rule, plus the spec
 * hash and point labels of every shipped example. A refactor of the
 * scenario layer must leave this test untouched and green: it pins
 * the error text users see, the `--resume` spec hash, and the label
 * grammar and point order of the grid.
 */
TEST(ScenarioSpec, PinsDocumentedErrorsExampleHashesAndLabels)
{
    const double nan = std::numeric_limits<double>::quiet_NaN();
    const double inf = std::numeric_limits<double>::infinity();
    // A case's document is the base lineup plus @c members (JSON object
    // members, spliced in verbatim); @c edit then mutates the parsed
    // spec for values JSON cannot spell (non-finite numbers).
    struct Case
    {
        const char *members;
        std::function<void(ScenarioSpec &)> edit;
        const char *expect;
    };
    // A two-level table, too short for the Chapter 4 CDVFS actions.
    DvfsRegistry::instance().add(
        "pin_two_level",
        DvfsTable({simulatedCmpDvfs().at(0), simulatedCmpDvfs().at(1)}));
    const std::vector<Case> cases = {
        // --- document grammar and unknown members
        {R"("bogus": 1)", {},
         "scenario: unknown member 'bogus' in the scenario (valid: name, "
         "description, platform, config, workloads, policies, sweep)"},
        {R"("config": {"bogus": 1})", {},
         "scenario: unknown member 'bogus' in 'config' (valid: cooling, "
         "ambient, emergency_levels, dvfs, memory_org, traffic_shape, "
         "refresh, thermal_model, trace, t_inlet, copies_per_app, "
         "instr_scale, max_sim_time, dtm_interval, remap_interval, "
         "remap_hysteresis, sensor_noise_sigma, sensor_quant, "
         "sensor_seed)"},
        {R"("sweep": {"bogus": []})", {},
         "scenario: unknown member 'bogus' in 'sweep' (valid: memory_org, "
         "traffic_shape, cooling, t_inlet, copies_per_app, "
         "sensor_noise_sigma, dtm_interval, emergency_levels, dvfs, "
         "refresh, thermal_model)"},
        {R"("config": {"memory_org": {"channels": 2, "dimms": 2, "x": 1}})",
         {},
         "scenario: unknown member 'x' in 'config.memory_org' (valid: "
         "channels, dimms)"},
        {R"("config": {"refresh": [{"min_temp": 0, "bw_fraction": 0,
            "dram_power_w": 0, "x": 1}]})",
         {},
         "scenario: unknown member 'x' in 'config.refresh' band (valid: "
         "min_temp, bw_fraction, dram_power_w, latency_mult)"},
        {R"("config": {"thermal_model": {"grid_x": 2, "grid_z": 2,
            "x": 1}})",
         {},
         "scenario: unknown member 'x' in 'config.thermal_model' (valid: "
         "grid_x, grid_z, bank_weights)"},
        {R"("sweep": {"memory_org": [{"channels": 2, "x": 1}]})", {},
         "scenario: unknown member 'x' in 'sweep.memory_org' entry "
         "(valid: channels, dimms)"},
        {R"("config": {"cooling": 1})", {},
         "scenario: member 'cooling' must be a string"},
        {R"("config": {"t_inlet": "hot"})", {},
         "scenario: member 't_inlet' must be a number"},
        {R"("config": {"copies_per_app": 2.5})", {},
         "scenario: member 'copies_per_app' must be an integer"},
        {R"("config": {"sensor_seed": -1})", {},
         "scenario: 'sensor_seed' must be a non-negative integer"},
        {R"("config": {"trace": ""})", {},
         "scenario: 'trace' path must not be empty"},
        {R"("config": {"memory_org": {"channels": 2}})", {},
         "scenario: 'config.memory_org' needs both 'channels' and "
         "'dimms'"},
        {R"("config": {"memory_org": ""})", {},
         "scenario: 'config.memory_org' name must not be empty"},
        {R"("config": {"memory_org": 4})", {},
         "scenario: 'config.memory_org' must be a catalog name or a "
         "{channels, dimms} object"},
        {R"("config": {"traffic_shape": 4})", {},
         "scenario: 'config.traffic_shape' must be a catalog shape name "
         "or an array of per-DIMM shares"},
        {R"("config": {"traffic_shape": []})", {},
         "scenario: 'config.traffic_shape' share vector must not be "
         "empty"},
        {R"("config": {"refresh": 4})", {},
         "scenario: 'config.refresh' must be a catalog refresh model name "
         "or an array of {min_temp, bw_fraction, dram_power_w[, "
         "latency_mult]} bands"},
        {R"("config": {"refresh": []})", {},
         "scenario: 'config.refresh' band table must not be empty"},
        {R"("config": {"refresh": [1]})", {},
         "scenario: 'config.refresh' bands must be objects"},
        {R"("config": {"refresh": [{"min_temp": 0}]})", {},
         "scenario: 'config.refresh' band needs 'min_temp', "
         "'bw_fraction' and 'dram_power_w'"},
        {R"("config": {"thermal_model": {"grid_x": 2}})", {},
         "scenario: 'config.thermal_model' needs both 'grid_x' and "
         "'grid_z'"},
        {R"("config": {"thermal_model": 4})", {},
         "scenario: 'config.thermal_model' must be a catalog thermal "
         "model name or a {grid_x, grid_z[, bank_weights]} object"},
        // --- 'sweep.<axis>' must be an array, for every axis
        {R"("sweep": {"memory_org": "2x4"})", {},
         "scenario: 'sweep.memory_org' must be an array of catalog names "
         "or {channels, dimms} objects"},
        {R"("sweep": {"traffic_shape": "uniform"})", {},
         "scenario: 'sweep.traffic_shape' must be an array of catalog "
         "shape names or per-DIMM share vectors"},
        {R"("sweep": {"cooling": "AOHS_1.5"})", {},
         "scenario: member 'sweep.cooling' must be an array of strings"},
        {R"("sweep": {"t_inlet": 40})", {},
         "scenario: member 'sweep.t_inlet' must be an array of numbers"},
        {R"("sweep": {"copies_per_app": 4})", {},
         "scenario: member 'sweep.copies_per_app' must be an array of "
         "numbers"},
        {R"("sweep": {"sensor_noise_sigma": 1})", {},
         "scenario: member 'sweep.sensor_noise_sigma' must be an array "
         "of numbers"},
        {R"("sweep": {"dtm_interval": 0.1})", {},
         "scenario: member 'sweep.dtm_interval' must be an array of "
         "numbers"},
        {R"("sweep": {"emergency_levels": "ch4"})", {},
         "scenario: member 'sweep.emergency_levels' must be an array of "
         "strings"},
        {R"("sweep": {"dvfs": "xeon5160"})", {},
         "scenario: member 'sweep.dvfs' must be an array of strings"},
        {R"("sweep": {"refresh": "none"})", {},
         "scenario: 'sweep.refresh' must be an array of catalog refresh "
         "model names or band tables"},
        {R"("sweep": {"thermal_model": "lumped"})", {},
         "scenario: 'sweep.thermal_model' must be an array of catalog "
         "thermal model names or {grid_x, grid_z[, bank_weights]} "
         "objects"},
        {R"("sweep": {"cooling": [1]})", {},
         "scenario: member 'sweep.cooling' must contain strings"},
        {R"("sweep": {"t_inlet": ["x"]})", {},
         "scenario: member 'sweep.t_inlet' must contain numbers"},
        {R"("sweep": {"copies_per_app": [2.5]})", {},
         "scenario: sweep.copies_per_app must contain integers"},
        // --- missing lineups
        {R"("workloads": [])", {}, "scenario 'pin': no workloads given"},
        {R"("policies": [])", {}, "scenario 'pin': no policies given"},
        // --- platform conflicts
        {R"("platform": "SR1500AL", "sweep": {"cooling": ["AOHS_1.5"]})",
         {},
         "scenario 'pin': platform scenarios fix the cooling setup; "
         "remove the cooling sweep"},
        {R"("platform": "SR1500AL", "config": {"cooling": "FDHS_1.0"})",
         {},
         "scenario 'pin': platform scenarios fix cooling and ambient; "
         "remove those members"},
        {R"("platform": "SR1500AL", "config": {"ambient": "integrated"})",
         {},
         "scenario 'pin': platform scenarios fix cooling and ambient; "
         "remove those members"},
        {R"("platform": "SR1500AL", "config": {"dvfs": "xeon5160"})", {},
         "scenario 'pin': platform scenarios fix the DVFS table and "
         "derive the emergency ladders from the platform; remove the "
         "dvfs/emergency_levels members and sweeps"},
        {R"("platform": "SR1500AL", "sweep": {"emergency_levels": ["ch4"]})",
         {},
         "scenario 'pin': platform scenarios fix the DVFS table and "
         "derive the emergency ladders from the platform; remove the "
         "dvfs/emergency_levels members and sweeps"},
        {R"("platform": "SR1500AL", "sweep": {"memory_org": ["2x4"]})", {},
         "scenario 'pin': platform scenarios fix the memory organization "
         "(the testbed hardware fixes its DIMM population); remove the "
         "memory_org member and sweep"},
        {R"("platform": "SR1500AL", "config": {"traffic_shape": "uniform"})",
         {},
         "scenario 'pin': platform scenarios use the testbed's measured "
         "traffic distribution; remove the traffic_shape member and "
         "sweep"},
        {R"("platform": "SR1500AL", "sweep": {"refresh": ["none"]})", {},
         "scenario 'pin': platform scenarios measure the testbed's real "
         "DRAM, refresh included; remove the refresh member and sweep"},
        {R"("platform": "SR1500AL", "config": {"thermal_model": "lumped"})",
         {},
         "scenario 'pin': platform scenarios measure the testbed's real "
         "DIMMs at DIMM granularity; remove the thermal_model member and "
         "sweep"},
        {R"("platform": "SR1500AL", "config": {"trace": "t.trace"})", {},
         "scenario 'pin': platform scenarios use the testbed's measured "
         "traffic distribution; remove the trace member"},
        {R"("platform": "SR1500AL", "config": {"remap_interval": 1})", {},
         "scenario 'pin': platform scenarios use the testbed's measured "
         "traffic distribution, so remap policies have nothing to "
         "redistribute; remove the remap_interval/remap_hysteresis "
         "members"},
        {R"("platform": "SR1500AL", "policies": ["DTM-TS"])", {},
         "scenario 'pin': unknown platform policy 'DTM-TS' (valid: "
         "No-limit, "},
        // --- unknown names
        {R"("policies": ["DTM-TURBO"])", {},
         "scenario 'pin': unknown policy 'DTM-TURBO' (valid: No-limit, "},
        {R"("workloads": ["W99"])", {}, "unknown workload 'W99' (valid: "},
        {R"("config": {"cooling": "WATER"})", {},
         "unknown cooling 'WATER' (valid: "},
        {R"("sweep": {"cooling": ["WATER"]})", {},
         "unknown cooling 'WATER' (valid: "},
        {R"("config": {"ambient": "outdoor"})", {},
         "unknown ambient model 'outdoor' (valid: isolated, integrated)"},
        {R"("sweep": {"memory_org": ["9x9"]})", {},
         "unknown memory organization '9x9' (valid: ch4_4x4, "},
        {R"("config": {"traffic_shape": "spiky"})", {},
         "unknown traffic shape 'spiky' (valid: uniform, front_heavy, "
         "back_heavy, hot_dimm0, linear_taper)"},
        {R"("sweep": {"emergency_levels": ["ch9"]})", {},
         "unknown emergency ladder 'ch9' (valid: ch4, "},
        {R"("config": {"dvfs": "turbo"})", {},
         "unknown DVFS table 'turbo' (valid: simulated_cmp, xeon5160"},
        {R"("sweep": {"refresh": ["ddr9"]})", {},
         "unknown refresh model 'ddr9' (valid: none, ddr2_2x, aldram)"},
        {R"("config": {"thermal_model": "fem"})", {},
         "unknown thermal model 'fem' (valid: lumped, bank_grid)"},
        // --- scalar ranges
        {R"("config": {"instr_scale": 0})", {},
         "scenario 'pin': instr_scale must be > 0"},
        {R"("config": {"max_sim_time": 0})", {},
         "scenario 'pin': max_sim_time must be > 0"},
        {R"("config": {"dtm_interval": 0})", {},
         "scenario 'pin': dtm_interval must be > 0"},
        {R"("config": {"remap_interval": 0})", {},
         "scenario 'pin': remap_interval must be > 0"},
        {R"("config": {"remap_hysteresis": -1})", {},
         "scenario 'pin': remap_hysteresis must be >= 0"},
        {R"("config": {"sensor_noise_sigma": -1})", {},
         "scenario 'pin': sensor_noise_sigma must be >= 0"},
        {R"("config": {"sensor_quant": -1})", {},
         "scenario 'pin': sensor_quant must be >= 0"},
        {R"("config": {"copies_per_app": 0})", {},
         "scenario 'pin': copies_per_app must be >= 1"},
        {"", [=](ScenarioSpec &s) { s.tInlet = nan; },
         "scenario 'pin': t_inlet must be finite"},
        {"", [=](ScenarioSpec &s) { s.instrScale = inf; },
         "scenario 'pin': instr_scale must be finite"},
        {"", [=](ScenarioSpec &s) { s.maxSimTime = nan; },
         "scenario 'pin': max_sim_time must be finite"},
        {"", [=](ScenarioSpec &s) { s.dtmInterval = inf; },
         "scenario 'pin': dtm_interval must be finite"},
        {"", [=](ScenarioSpec &s) { s.remapInterval = nan; },
         "scenario 'pin': remap_interval must be finite"},
        {"", [=](ScenarioSpec &s) { s.remapHysteresis = -inf; },
         "scenario 'pin': remap_hysteresis must be finite"},
        {"", [=](ScenarioSpec &s) { s.sensorNoiseSigma = nan; },
         "scenario 'pin': sensor_noise_sigma must be finite"},
        {"", [=](ScenarioSpec &s) { s.sensorQuant = inf; },
         "scenario 'pin': sensor_quant must be finite"},
        {R"("config": {"dtm_interval": 0.005})", {},
         "scenario 'pin': dtm_interval 0.005 is below the simulator "
         "window (0.01 s)"},
        {R"("sweep": {"dtm_interval": [0.02, 0.005]})", {},
         "scenario 'pin': dtm_interval 0.005 is below the simulator "
         "window (0.01 s)"},
        {R"("config": {"remap_interval": 0.005})", {},
         "scenario 'pin': remap_interval 0.005 is below the simulator "
         "window (0.01 s)"},
        {R"("config": {"remap_interval": 0.015})", {},
         "scenario 'pin': remap_interval 0.015 is not a whole multiple "
         "of dtm_interval 0.01 (remap decisions run inside DTM "
         "decisions, so the periods must nest)"},
        {R"("config": {"remap_interval": 1},
            "sweep": {"dtm_interval": [0.1, 0.3]})",
         {},
         "scenario 'pin': remap_interval 1 is not a whole multiple of "
         "dtm_interval 0.3"},
        {R"("config": {"dvfs": "pin_two_level"},
            "policies": ["DTM-CDVFS"])",
         {},
         "scenario 'pin': DVFS table 'pin_two_level' has 2 levels; "
         "DTM-CDVFS selects levels 0..3"},
        // --- sweep value ranges
        {"", [=](ScenarioSpec &s) { s.sweepTInlet = {40, nan}; },
         "scenario 'pin': sweep.t_inlet values must be finite"},
        {"", [=](ScenarioSpec &s) { s.sweepSensorNoise = {inf}; },
         "scenario 'pin': sweep.sensor_noise_sigma values must be "
         "finite"},
        {"", [=](ScenarioSpec &s) { s.sweepDtmInterval = {-inf}; },
         "scenario 'pin': sweep.dtm_interval values must be finite"},
        {R"("sweep": {"sensor_noise_sigma": [-0.5]})", {},
         "scenario 'pin': sweep.sensor_noise_sigma values must be >= 0"},
        {R"("sweep": {"dtm_interval": [0]})", {},
         "scenario 'pin': sweep.dtm_interval values must be > 0"},
        {R"("sweep": {"copies_per_app": [2, 0]})", {},
         "scenario 'pin': copies_per_app sweep values must be >= 1"},
        // --- duplicates, by label
        {R"("workloads": ["W1", "W1"])", {},
         "scenario 'pin': duplicate workload 'W1'"},
        {R"("policies": ["No-limit", "No-limit"])", {},
         "scenario 'pin': duplicate policy 'No-limit'"},
        {R"("sweep": {"cooling": ["FDHS_1.0", "FDHS_1.0"]})", {},
         "scenario 'pin': duplicate sweep.cooling value 'FDHS_1.0'"},
        {R"("sweep": {"t_inlet": [46, 46.0]})", {},
         "scenario 'pin': duplicate sweep.t_inlet value '46'"},
        {R"("sweep": {"copies_per_app": [3, 3]})", {},
         "scenario 'pin': duplicate sweep.copies_per_app value '3'"},
        {R"("sweep": {"sensor_noise_sigma": [0.5, 0.5]})", {},
         "scenario 'pin': duplicate sweep.sensor_noise_sigma value "
         "'0.5'"},
        {R"("sweep": {"dtm_interval": [0.1, 0.1]})", {},
         "scenario 'pin': duplicate sweep.dtm_interval value '0.1'"},
        {R"("sweep": {"emergency_levels": ["ch4", "ch4"]})", {},
         "scenario 'pin': duplicate sweep.emergency_levels value 'ch4'"},
        {R"("sweep": {"dvfs": ["xeon5160", "xeon5160"]})", {},
         "scenario 'pin': duplicate sweep.dvfs value 'xeon5160'"},
        {R"("sweep": {"memory_org": ["2x4", "2x4"]})", {},
         "scenario 'pin': duplicate sweep.memory_org organization '2x4'"},
        {R"("sweep": {"traffic_shape": ["uniform", "uniform"]})", {},
         "scenario 'pin': duplicate sweep.traffic_shape shape 'uniform'"},
        {R"("sweep": {"refresh": ["aldram", "aldram"]})", {},
         "scenario 'pin': duplicate sweep.refresh model 'aldram'"},
        {R"("sweep": {"thermal_model": ["lumped", "lumped"]})", {},
         "scenario 'pin': duplicate sweep.thermal_model model 'lumped'"},
        // --- duplicates, by resolved value
        {R"("sweep": {"memory_org": ["ch4_4x4",
            {"channels": 4, "dimms": 4}]})",
         {},
         "scenario 'pin': duplicate sweep.memory_org organization '4x4' "
         "(same organization as 'ch4_4x4')"},
        {R"("config": {"memory_org": {"channels": 2, "dimms": 2}},
            "sweep": {"traffic_shape": ["front_heavy", "linear_taper"]})",
         {},
         "scenario 'pin': duplicate sweep.traffic_shape shape "
         "'linear_taper' (same shares as 'front_heavy' under "
         "config.memory_org organization '2x2')"},
        {"",
         [](ScenarioSpec &s) {
             s.sweepRefresh = {{"ddr2_2x", {}},
                               {"", refreshModelByName("ddr2_2x").bands}};
         },
         "(same model as 'ddr2_2x')"},
        {R"("sweep": {"thermal_model": ["bank_grid",
            {"grid_x": 4, "grid_z": 2}]})",
         {},
         "scenario 'pin': duplicate sweep.thermal_model model '4x2' (same "
         "thermal model as 'bank_grid')"},
        // --- inline values
        {R"("config": {"memory_org": {"channels": 0, "dimms": 4}})", {},
         "scenario: memory organization 0x4 must have >= 1 channel and "
         ">= 1 DIMM per channel"},
        {R"("config": {"refresh": [{"min_temp": 0, "bw_fraction": 1,
            "dram_power_w": 0}]})",
         {}, "scenario: refresh model 0:1:0 bw_fraction must be in [0, 1)"},
        {R"("config": {"refresh": [{"min_temp": 0, "bw_fraction": 0,
            "dram_power_w": -1}]})",
         {}, "scenario: refresh model 0:0:-1 dram_power_w must be >= 0"},
        {R"("config": {"refresh": [{"min_temp": 0, "bw_fraction": 0,
            "dram_power_w": 0, "latency_mult": 0}]})",
         {}, "scenario: refresh model 0:0:0:0 latency_mult must be > 0"},
        {R"("config": {"refresh": [{"min_temp": 5, "bw_fraction": 0,
            "dram_power_w": 0}, {"min_temp": 5, "bw_fraction": 0,
            "dram_power_w": 0}]})",
         {},
         "scenario: refresh model 5:0:0|5:0:0 bands must have strictly "
         "increasing min_temp"},
        {R"("config": {"traffic_shape": [1.5, -0.5, 0, 0]})", {},
         "scenario: traffic shape 1.5|-0.5|0|0 shares must not be "
         "negative"},
        {R"("config": {"traffic_shape": [0.5, 0.25, 0.125, 0]})", {},
         "scenario: traffic shape 0.5|0.25|0.125|0 shares must sum to 1 "
         "(got 0.875)"},
        {R"("config": {"traffic_shape": [0.5, 0.5]})", {},
         "scenario 'pin': config.traffic_shape '0.5|0.5' has 2 share(s) "
         "but the base organization (4x4) has 4 DIMM(s) per channel"},
        {R"("config": {"traffic_shape": [0.5, 0.5]},
            "sweep": {"memory_org": ["2x2", "2x4"]})",
         {},
         "scenario 'pin': config.traffic_shape '0.5|0.5' has 2 share(s) "
         "but sweep.memory_org organization '2x4' has 4 DIMM(s) per "
         "channel"},
        {R"("config": {"memory_org": "2x4"},
            "sweep": {"traffic_shape": [[0.5, 0.5]]})",
         {},
         "scenario 'pin': sweep.traffic_shape entry '0.5|0.5' has 2 "
         "share(s) but config.memory_org organization '2x4' has 4 "
         "DIMM(s) per channel"},
        {R"("config": {"thermal_model": {"grid_x": 0, "grid_z": 2}})", {},
         "scenario: thermal model 0x2 grid dimensions must be >= 1"},
        {R"("config": {"thermal_model": {"grid_x": 64, "grid_z": 32}})",
         {},
         "scenario: thermal model 64x32 has 2048 cells per DIMM; the "
         "limit is 1024"},
        {R"("config": {"thermal_model": {"grid_x": 2, "grid_z": 1,
            "bank_weights": [1]}})",
         {},
         "scenario: thermal model 2x1:1 has 1 bank weight(s) but the grid "
         "has 2 cell(s)"},
        {R"("config": {"thermal_model": {"grid_x": 2, "grid_z": 1,
            "bank_weights": [1.5, -0.5]}})",
         {},
         "scenario: thermal model 2x1:1.5|-0.5 bank weights must not be "
         "negative"},
        {R"("config": {"thermal_model": {"grid_x": 2, "grid_z": 1,
            "bank_weights": [0.5, 0.25]}})",
         {},
         "scenario: thermal model 2x1:0.5|0.25 bank weights must sum to 1 "
         "(got 0.75)"},
        {"",
         [=](ScenarioSpec &s) {
             s.trafficShape.shares = {0.5, nan, 0.25, 0.25};
         },
         "scenario: traffic shape 0.5|nan|0.25|0.25 shares must be "
         "finite"},
        {"",
         [=](ScenarioSpec &s) {
             s.refresh.bands = {RefreshBand{0.0, nan, 0.0, 1.0}};
         },
         "scenario: refresh model 0:nan:0 bands must be finite"},
        {"",
         [=](ScenarioSpec &s) {
             s.thermalModel.grid = BankGridConfig{2, 1, {nan, 0.5}};
         },
         "scenario: thermal model 2x1:nan|0.5 bank weights must be "
         "finite"},
        // --- trace conflicts
        {R"("config": {"trace": "t.trace", "traffic_shape": "uniform"})",
         {},
         "scenario 'pin': 'trace' supplies the per-DIMM traffic "
         "distribution; remove the traffic_shape member and sweep"},
        {R"("config": {"trace": "t.trace"},
            "sweep": {"thermal_model": [{"grid_x": 2, "grid_z": 1,
            "bank_weights": [0.5, 0.5]}]})",
         {},
         "scenario 'pin': 'trace' supplies the per-bank activity weights; "
         "remove the thermal model's bank_weights"},
    };
    for (const Case &c : cases) {
        SCOPED_TRACE(c.expect);
        std::string doc =
            R"({"name": "pin", "workloads": ["W1"], "policies": ["No-limit"])";
        doc = std::string(c.members).empty()
                  ? doc + "}"
                  : doc + ", " + c.members + "}";
        try {
            // Later duplicate members override the base lineup.
            ScenarioSpec s = ScenarioSpec::fromJson(Json::parse(doc));
            if (c.edit)
                c.edit(s);
            s.lower();
            ADD_FAILURE() << "accepted: " << doc;
        } catch (const FatalError &e) {
            EXPECT_NE(std::string(e.what()).find(c.expect),
                      std::string::npos)
                << e.what();
        }
    }

    // Every shipped example: its `--resume` spec hash and its grid's
    // point labels, in order.
    struct Example
    {
        const char *file;
        const char *hash;
        std::vector<std::string> labels;
    };
    const std::vector<Example> examples = {
        {"bank_hotspot.json",
         "8587a55f4b924fad",
         {"thermal=lumped", "thermal=bank_grid",
          "thermal=4x2:0.65|0.05|0.05|0.05|0.05|0.05|0.05|0.05"}},
        {"ch4_baseline.json",
         "ae4c680cd6d94ed4",
         {"base"}},
        {"datacenter_ambient.json",
         "3d939ab2f22b3c61",
         {"inlet=46", "inlet=48", "inlet=50", "inlet=52"}},
        {"dtm_sensitivity.json",
         "8f14c0c2d9d2dd43",
         {"dtm=0.01,levels=ch4,dvfs=simulated_cmp",
          "dtm=0.01,levels=ch4,dvfs=xeon5160",
          "dtm=0.01,levels=sr1500al,dvfs=simulated_cmp",
          "dtm=0.01,levels=sr1500al,dvfs=xeon5160",
          "dtm=0.1,levels=ch4,dvfs=simulated_cmp",
          "dtm=0.1,levels=ch4,dvfs=xeon5160",
          "dtm=0.1,levels=sr1500al,dvfs=simulated_cmp",
          "dtm=0.1,levels=sr1500al,dvfs=xeon5160"}},
        {"fan_failure.json",
         "a04ef5793d6f324e",
         {"cooling=FDHS_1.5", "cooling=FDHS_1.0"}},
        {"hot_dimm.json",
         "457e9af3f1738248",
         {"shape=uniform", "shape=hot_dimm0", "shape=linear_taper",
          "shape=back_heavy", "shape=0.1|0.2|0.3|0.4"}},
        {"hot_dimm_remap.json",
         "750efe068da68e12",
         {"base"}},
        {"memory_org.json",
         "d84475e4c3ffd1b1",
         {"org=1x4", "org=2x2", "org=2x4", "org=ch4_4x4", "org=4x8"}},
        {"policy_sweep.json",
         "f290bb1f43de27f4",
         {"base"}},
        {"refresh_runaway.json",
         "860796118a73613f",
         {"refresh=none", "refresh=ddr2_2x"}},
        {"sensor_noise.json",
         "0513a2947b5904c3",
         {"noise=0", "noise=0.5", "noise=1"}},
    };
    for (const Example &ex : examples) {
        SCOPED_TRACE(ex.file);
        const ScenarioSpec spec = ScenarioSpec::load(scenarioPath(ex.file));
        EXPECT_EQ(scenarioSpecHash(spec), ex.hash);
        std::vector<std::string> labels;
        for (const auto &pt : spec.lower().points)
            labels.push_back(pt.label);
        EXPECT_EQ(labels, ex.labels);
    }

    // One spec that sets every config knob and sweeps every axis pins
    // the member order of toJson() (through the hash) and the label
    // grammar across all eleven axes (first axis slowest).
    const ScenarioSpec all = ScenarioSpec::fromJson(Json::parse(R"({
        "name": "all_axes", "description": "every knob and axis",
        "config": {"cooling": "FDHS_1.0", "ambient": "integrated",
          "emergency_levels": "ch4", "dvfs": "simulated_cmp",
          "memory_org": "2x4", "traffic_shape": "uniform",
          "refresh": "none", "thermal_model": "lumped", "t_inlet": 45,
          "copies_per_app": 3, "instr_scale": 0.5, "max_sim_time": 100,
          "dtm_interval": 0.02, "remap_interval": 0.04,
          "remap_hysteresis": 1.5, "sensor_noise_sigma": 0.1,
          "sensor_quant": 0.25, "sensor_seed": 7},
        "workloads": ["W1"], "policies": ["No-limit"],
        "sweep": {"thermal_model": [{"grid_x": 2, "grid_z": 1,
            "bank_weights": [0.75, 0.25]}],
          "refresh": ["ddr2_2x", [{"min_temp": 0, "bw_fraction": 0.01,
            "dram_power_w": 0.1, "latency_mult": 1.5}]],
          "dvfs": ["xeon5160"], "emergency_levels": ["ch4"],
          "dtm_interval": [0.02, 0.04], "sensor_noise_sigma": [0],
          "copies_per_app": [2], "t_inlet": [40], "cooling": ["FDHS_1.0"],
          "traffic_shape": ["uniform", [0.75, 0.25]],
          "memory_org": ["2x2", {"channels": 1, "dimms": 2}]}})"));
    EXPECT_EQ(scenarioSpecHash(all), "eb181e3efc896a5a");
    const LoweredScenario low = all.lower();
    ASSERT_EQ(low.points.size(), 16u);
    EXPECT_EQ(low.points.front().label,
              "org=2x2,shape=uniform,cooling=FDHS_1.0,inlet=40,copies=2,"
              "noise=0,dtm=0.02,levels=ch4,dvfs=xeon5160,refresh=ddr2_2x,"
              "thermal=2x1:0.75|0.25");
    EXPECT_EQ(low.points[1].label,
              "org=2x2,shape=uniform,cooling=FDHS_1.0,inlet=40,copies=2,"
              "noise=0,dtm=0.02,levels=ch4,dvfs=xeon5160,"
              "refresh=0:0.01:0.1:1.5,thermal=2x1:0.75|0.25");
    EXPECT_EQ(low.points.back().label,
              "org=1x2,shape=0.75|0.25,cooling=FDHS_1.0,inlet=40,copies=2,"
              "noise=0,dtm=0.04,levels=ch4,dvfs=xeon5160,"
              "refresh=0:0.01:0.1:1.5,thermal=2x1:0.75|0.25");
}

} // namespace
} // namespace memtherm
