/**
 * @file
 * Table 4.3: thermal emergency levels and the default per-level settings
 * of every DTM scheme for the chosen FBDIMM.
 */

#include <cmath>
#include <iostream>

#include "bench_util.hh"
#include "core/dtm/basic_policies.hh"

using namespace memtherm;

namespace
{

std::string
describe(const DtmAction &a)
{
    if (!a.memoryOn)
        return "memory off";
    std::string s;
    if (std::isfinite(a.bandwidthCap))
        s += "cap " + Table::num(a.bandwidthCap, 1) + " GB/s";
    if (a.activeCores < 4)
        s += (s.empty() ? "" : ", ") + std::to_string(a.activeCores) +
             " cores";
    if (a.dvfsLevel > 0)
        s += (s.empty() ? "" : ", ") + std::string("DVFS L") +
             std::to_string(a.dvfsLevel);
    return s.empty() ? "no limit" : s;
}

} // namespace

int
main()
{
    EmergencyLevels lv = ch4EmergencyLevels();
    LeveledPolicy bw = makeCh4BwPolicy();
    LeveledPolicy acg = makeCh4AcgPolicy();
    LeveledPolicy cdvfs = makeCh4CdvfsPolicy();

    Table t("Table 4.3 — thermal emergency levels and default settings",
            {"level", "AMB range C", "DRAM range C", "DTM-BW", "DTM-ACG",
             "DTM-CDVFS"});

    auto range = [](const std::vector<Celsius> &b, int i) {
        std::string lo = i == 0 ? "-inf" : Table::num(b[i - 1], 1);
        std::string hi = i == static_cast<int>(b.size())
                             ? "+inf"
                             : Table::num(b[i], 1);
        return "[" + lo + ", " + hi + ")";
    };

    for (int i = 0; i < lv.numLevels(); ++i) {
        Celsius amb_probe =
            i == 0 ? 50.0 : lv.ambBounds()[static_cast<std::size_t>(i - 1)];
        ThermalReading r{.amb = amb_probe, .dram = 20.0, .inlet = 50.0};
        // Built with += : GCC 12's -Wrestrict false-positives on
        // operator+(const char *, std::string &&) here under -O2.
        std::string level = "L";
        level += std::to_string(i + 1);
        t.addRow({level,
                  range(lv.ambBounds(), i), range(lv.dramBounds(), i),
                  describe(bw.decide(r, 0.0)),
                  describe(acg.decide(r, 0.0)),
                  describe(cdvfs.decide(r, 0.0))});
    }
    t.print(std::cout);
    return 0;
}
