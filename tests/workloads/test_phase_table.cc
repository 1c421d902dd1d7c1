/**
 * @file
 * PhaseFactorTable: every entry is the bits of the phaseFactor() call
 * it replaces, at the CPU time a program copy accumulates window by
 * window, and keys match by value, never by address.
 */

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <string>

#include "workloads/spec_catalog.hh"

namespace memtherm
{
namespace
{

/// Windows checked per key: a copy scheduled for 500 s at 10 ms.
constexpr std::size_t kWindows = 50000;

bool
sameBits(double a, double b)
{
    return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

/**
 * Entries 0..kWindows of @p key equal phaseFactor(app, t), with t
 * accumulated by += window from 0 as the simulator accumulates CPU
 * time.
 */
void
expectEntriesExact(PhaseFactorTable &table, std::size_t key,
                   const AppDescriptor &app, Seconds window)
{
    Seconds t = 0.0;
    for (std::size_t k = 0; k <= kWindows; ++k) {
        const double want = phaseFactor(app, t);
        if (!sameBits(table.at(key, k), want)) {
            ADD_FAILURE() << app.name << " window " << window << " entry "
                          << k << ": " << table.at(key, k) << " != " << want;
            return;
        }
        t += window;
    }
}

TEST(PhaseFactorTable, EveryCatalogAppIsBitExact)
{
    for (Seconds window : {0.01, 0.005}) {
        PhaseFactorTable table;
        for (const AppDescriptor &app : SpecCatalog::instance().all()) {
            const std::size_t key = table.key(app, window);
            ASSERT_NE(key, PhaseFactorTable::kConstant) << app.name;
            expectEntriesExact(table, key, app, window);
        }
    }
}

TEST(PhaseFactorTable, FillsOutOfOrder)
{
    // A first read far ahead fills every entry before it, in order.
    const AppDescriptor &swim = SpecCatalog::instance().byName("swim");
    PhaseFactorTable table;
    const std::size_t key = table.key(swim, 0.01);
    Seconds t = 0.0;
    for (std::size_t k = 0; k < kWindows; ++k)
        t += 0.01;
    EXPECT_TRUE(sameBits(table.at(key, kWindows), phaseFactor(swim, t)));
    expectEntriesExact(table, key, swim, 0.01);
}

TEST(PhaseFactorTable, UnmodulatedAppsAreOneWithoutAnEntry)
{
    AppDescriptor flat = SpecCatalog::instance().byName("swim");
    PhaseFactorTable table;
    flat.phaseAmp = 0.0;
    EXPECT_EQ(table.key(flat, 0.01), PhaseFactorTable::kConstant);
    flat.phaseAmp = 0.1;
    flat.phasePeriod = 0.0;
    EXPECT_EQ(table.key(flat, 0.01), PhaseFactorTable::kConstant);
    EXPECT_EQ(table.keys(), 0u);
    for (std::size_t k : {0, 1, 7, 49999})
        EXPECT_EQ(table.at(PhaseFactorTable::kConstant, k), 1.0);
    EXPECT_EQ(phaseFactor(flat, 123.0), 1.0);
}

TEST(PhaseFactorTable, KeysMatchByValue)
{
    const AppDescriptor &swim = SpecCatalog::instance().byName("swim");
    PhaseFactorTable table;

    // Two objects with equal phase fields share one key, whatever else
    // differs.
    AppDescriptor twin = SpecCatalog::instance().byName("art");
    twin.phaseAmp = swim.phaseAmp;
    twin.phasePeriod = swim.phasePeriod;
    twin.phaseShift = swim.phaseShift;
    const std::size_t key = table.key(swim, 0.01);
    EXPECT_EQ(table.key(twin, 0.01), key);
    EXPECT_EQ(table.keys(), 1u);

    // The window length is part of the key.
    EXPECT_NE(table.key(swim, 0.005), key);
    EXPECT_EQ(table.keys(), 2u);

    // One object at one address, its phase fields changed after its
    // entries were read: the new fields get a new key and their own
    // entries.
    AppDescriptor reused = swim;
    const std::size_t before = table.key(reused, 0.01);
    ASSERT_EQ(before, key);
    table.at(before, 100);
    using Edit = void (*)(AppDescriptor &);
    for (Edit edit : {+[](AppDescriptor &a) { a.phaseAmp *= 1.5; },
                      +[](AppDescriptor &a) { a.phasePeriod *= 1.5; },
                      +[](AppDescriptor &a) { a.phaseShift += 0.25; }}) {
        reused = swim;
        edit(reused);
        const std::size_t after = table.key(reused, 0.01);
        EXPECT_NE(after, before);
        expectEntriesExact(table, after, reused, 0.01);
    }
    expectEntriesExact(table, before, swim, 0.01);
}

} // namespace
} // namespace memtherm
