#include "workloads/app_descriptor.hh"

#include <bit>
#include <cmath>
#include <cstdint>
#include <numbers>

namespace memtherm
{

double
phaseFactor(const AppDescriptor &app, Seconds t)
{
    if (app.phaseAmp == 0.0 || app.phasePeriod <= 0.0)
        return 1.0;
    double x = t / app.phasePeriod + app.phaseShift;
    return 1.0 + app.phaseAmp * std::sin(2.0 * std::numbers::pi * x);
}

namespace
{

bool
sameBits(double a, double b)
{
    return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

} // namespace

std::size_t
PhaseFactorTable::key(const AppDescriptor &app, Seconds window)
{
    // phaseFactor's own test for "no modulation".
    if (app.phaseAmp == 0.0 || app.phasePeriod <= 0.0)
        return kConstant;
    for (std::size_t i = 0; i < profiles.size(); ++i) {
        const Profile &p = profiles[i];
        if (sameBits(p.phase.phaseAmp, app.phaseAmp) &&
            sameBits(p.phase.phasePeriod, app.phasePeriod) &&
            sameBits(p.phase.phaseShift, app.phaseShift) &&
            sameBits(p.window, window))
            return i;
    }
    Profile &p = profiles.emplace_back();
    p.phase.phaseAmp = app.phaseAmp;
    p.phase.phasePeriod = app.phasePeriod;
    p.phase.phaseShift = app.phaseShift;
    p.window = window;
    p.next = 0.0;
    // Reserved up front so that a run's window loop does not grow it
    // (the allocation-free loop; tests/sim/test_window_alloc.cc).
    p.values.reserve(kReserve);
    return profiles.size() - 1;
}

void
PhaseFactorTable::extend(Profile &p, std::size_t k)
{
    while (p.values.size() <= k) {
        p.values.push_back(phaseFactor(p.phase, p.next));
        p.next += p.window;
    }
}

} // namespace memtherm
