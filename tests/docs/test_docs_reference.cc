/**
 * @file
 * Doc-drift guard: the reference manual under docs/ must track the code.
 *
 * Every name a registry catalog exposes has to appear in
 * docs/scenarios.md, and docs/cli.md has to cover every `memtherm`
 * subcommand and every `memtherm list` catalog keyword — so a new
 * catalog entry or subcommand cannot land undocumented. README.md must
 * keep linking into docs/, and both README.md and docs/scenarios.md are
 * checked against the scenario layer's own sweep-axis table.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <iterator>
#include <sstream>
#include <string>
#include <vector>

#include "core/sim/registry.hh"
#include "core/sim/scenario.hh"

#ifndef MEMTHERM_SOURCE_DIR
#error "tests need MEMTHERM_SOURCE_DIR (set by CMakeLists.txt)"
#endif

namespace memtherm
{
namespace
{

std::string
readFile(const std::string &rel)
{
    const std::string path = std::string(MEMTHERM_SOURCE_DIR) + "/" + rel;
    std::ifstream f(path);
    EXPECT_TRUE(f.good()) << "cannot open " << path;
    std::ostringstream ss;
    ss << f.rdbuf();
    return ss.str();
}

void
expectMentions(const std::string &doc, const std::string &doc_name,
               const std::vector<std::string> &names,
               const std::string &catalog)
{
    for (const auto &n : names) {
        EXPECT_NE(doc.find(n), std::string::npos)
            << doc_name << " does not mention " << catalog << " entry '"
            << n << "' — document every catalog name (this guard is how "
            << "new entries are kept from landing undocumented)";
    }
}

TEST(DocsReference, ScenariosManualCoversEveryCatalogName)
{
    const std::string doc = readFile("docs/scenarios.md");
    ASSERT_FALSE(doc.empty());

    expectMentions(doc, "docs/scenarios.md",
                   PolicyRegistry::instance().names(), "policy");
    expectMentions(doc, "docs/scenarios.md",
                   DvfsRegistry::instance().names(), "dvfs");
    expectMentions(doc, "docs/scenarios.md", coolingNames(), "cooling");
    expectMentions(doc, "docs/scenarios.md", ambientNames(), "ambient");
    expectMentions(doc, "docs/scenarios.md", workloadNames(), "workload");
    expectMentions(doc, "docs/scenarios.md", platformNames(), "platform");
    expectMentions(doc, "docs/scenarios.md", memoryOrgNames(),
                   "memory organization");
    expectMentions(doc, "docs/scenarios.md", trafficShapeNames(),
                   "traffic shape");
    expectMentions(doc, "docs/scenarios.md", emergencyLevelNames(),
                   "emergency ladder");
    expectMentions(doc, "docs/scenarios.md", refreshModelNames(),
                   "refresh model");
    expectMentions(doc, "docs/scenarios.md", thermalModelNames(),
                   "thermal model");
}

/** English count words, for docs that spell out how many axes exist. */
const char *const kCountWords[] = {
    "zero",  "one",   "two",  "three", "four",   "five",   "six",
    "seven", "eight", "nine", "ten",   "eleven", "twelve", "thirteen"};

TEST(DocsReference, ScenariosManualCoversEverySweepAxisAndKnob)
{
    const std::vector<std::string> &axes = sweepAxisKeys();
    const std::string doc = readFile("docs/scenarios.md");
    for (const auto &axis : axes) {
        EXPECT_NE(doc.find("`" + axis + "`"), std::string::npos)
            << "docs/scenarios.md does not mention sweep axis '" << axis
            << "'";
    }
    ASSERT_LT(axes.size(), std::size(kCountWords));
    EXPECT_NE(doc.find(std::string("the ") + kCountWords[axes.size()] +
                       " axes"),
              std::string::npos)
        << "docs/scenarios.md miscounts the sweep axes";
    // The remaining config members of the JSON schema
    // (ScenarioSpec::fromJson's checkMembers lists).
    for (const char *key :
         {"remap_interval", "remap_hysteresis", "instr_scale",
          "max_sim_time", "sensor_quant", "sensor_seed", "ambient",
          "platform", "workloads", "policies", "sweep", "schema_version",
          "trace", "grid_x", "grid_z", "bank_weights"}) {
        EXPECT_NE(doc.find(key), std::string::npos)
            << "docs/scenarios.md does not mention member '" << key << "'";
    }
}

TEST(DocsReference, ReadmeListsEverySweepAxis)
{
    const std::vector<std::string> &axes = sweepAxisKeys();
    const std::string readme = readFile("README.md");
    ASSERT_LT(axes.size(), std::size(kCountWords));
    // The overview's axis list, "<count> `sweep` axes (`a`, `b`, ...)",
    // names exactly the schema's axes.
    const std::string count = kCountWords[axes.size()];
    const std::string intro = count + " `sweep` axes (";
    const std::size_t begin = readme.find(intro);
    ASSERT_NE(begin, std::string::npos)
        << "README.md must list the sweep axes as \"" << intro << "...)\"";
    const std::size_t end = readme.find(')', begin + intro.size());
    ASSERT_NE(end, std::string::npos);
    const std::string list = readme.substr(begin, end - begin);
    for (const auto &axis : axes) {
        EXPECT_NE(list.find("`" + axis + "`"), std::string::npos)
            << "README.md's sweep-axis list omits '" << axis << "'";
    }
    EXPECT_EQ(std::count(list.begin(), list.end(), '`'),
              static_cast<std::ptrdiff_t>(2 * (axes.size() + 1)))
        << "README.md's sweep-axis list names an axis the schema lacks";
    // Every other place README counts the axes agrees.
    for (std::size_t n = 0; n < std::size(kCountWords); ++n) {
        if (n == axes.size())
            continue;
        for (const char *phrase : {" sweep axes", " `sweep` axes"}) {
            EXPECT_EQ(readme.find(kCountWords[n] + std::string(phrase)),
                      std::string::npos)
                << "README.md says \"" << kCountWords[n] << phrase
                << "\"; the schema has " << axes.size();
        }
    }
    EXPECT_NE(readme.find("all " + count + " sweep axes"),
              std::string::npos);
}

TEST(DocsReference, CliManualCoversEverySubcommandAndListCatalog)
{
    const std::string doc = readFile("docs/cli.md");
    ASSERT_FALSE(doc.empty());
    for (const char *cmd : {"memtherm run", "memtherm report",
                            "memtherm merge", "memtherm validate",
                            "memtherm list", "memtherm trace"}) {
        EXPECT_NE(doc.find(cmd), std::string::npos)
            << "docs/cli.md does not document '" << cmd << "'";
    }
    for (const char *catalog :
         {"policies", "workloads", "coolings", "ambients", "platforms",
          "emergency_levels", "dvfs", "memory_orgs", "traffic_shapes",
          "refresh_models", "thermal_models"}) {
        EXPECT_NE(doc.find(catalog), std::string::npos)
            << "docs/cli.md does not mention list catalog '" << catalog
            << "'";
    }
    // Summary-table columns with non-obvious semantics must stay
    // documented.
    EXPECT_NE(doc.find("hottest_dimm"), std::string::npos)
        << "docs/cli.md does not document the 'hottest_dimm' column";
    EXPECT_NE(doc.find("peak_bank_dimm"), std::string::npos)
        << "docs/cli.md does not document the per-bank CSV columns";
    for (const char *flag : {"--golden", "--tol", "--baseline", "--csv",
                             "--threads", "--copies", "--traces",
                             "--quiet", "-o", "--stream", "--resume",
                             "--shard", "--batch", "--pattern", "--count",
                             "--seed", "--min-addr", "--max-addr",
                             "--block", "--read-pct"}) {
        EXPECT_NE(doc.find(flag), std::string::npos)
            << "docs/cli.md does not document flag '" << flag << "'";
    }
    // Batched execution has non-obvious determinism semantics; the
    // manual must keep explaining the class/fork machinery, not just
    // list the flag.
    for (const char *term :
         {"equivalence class", "prefix hit rate", "fork"}) {
        EXPECT_NE(doc.find(term), std::string::npos)
            << "docs/cli.md does not explain batched-execution term '"
            << term << "'";
    }
    // The fault-injection env knobs exist solely for the crash tests;
    // the manual must say so (and name them) so nobody sets them in a
    // real run.
    for (const char *env :
         {"MEMTHERM_THREADS", "MEMTHERM_FAULT_AFTER_RUN",
          "MEMTHERM_FAULT_FAIL_RUN"}) {
        EXPECT_NE(doc.find(env), std::string::npos)
            << "docs/cli.md does not document env var '" << env << "'";
    }
}

TEST(DocsReference, ReadmeLinksIntoDocs)
{
    const std::string readme = readFile("README.md");
    EXPECT_NE(readme.find("docs/scenarios.md"), std::string::npos)
        << "README.md must link to the scenario reference manual";
    EXPECT_NE(readme.find("docs/cli.md"), std::string::npos)
        << "README.md must link to the CLI manual";
}

} // namespace
} // namespace memtherm
