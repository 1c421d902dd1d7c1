/**
 * @file
 * Synthetic application descriptors standing in for SPEC CPU2000/2006.
 *
 * The paper drives its level-1 simulator with SPEC binaries (SimPoint
 * slices). We cannot run those here, so each application is summarized by
 * the parameters that determine its memory/thermal behavior: core CPI,
 * shared-L2 MPKI curve, write-back and speculative traffic fractions, MLP,
 * total instruction volume, and a deterministic phase profile that
 * modulates memory intensity over time (the source of the temperature
 * fluctuation visible in Figs. 4.5 and 5.5). Parameter values are
 * calibrated so the no-DTM throughput classes match the paper's
 * (Section 4.3.2: eight apps above 10 GB/s, four between 5 and 10 GB/s
 * when four copies run on the 4-core CMP).
 */

#ifndef MEMTHERM_WORKLOADS_APP_DESCRIPTOR_HH
#define MEMTHERM_WORKLOADS_APP_DESCRIPTOR_HH

#include <cstddef>
#include <limits>
#include <string>
#include <vector>

#include "cache/miss_model.hh"
#include "common/units.hh"

namespace memtherm
{

/** Benchmark suite an application belongs to. */
enum class Suite { CPU2000, CPU2006 };

/**
 * Everything the performance model needs to know about one application.
 */
struct AppDescriptor
{
    std::string name;
    Suite suite = Suite::CPU2000;

    double cpiCore = 0.6;      ///< core cycles/instr excluding L2 misses
    CacheShareCurve cache;     ///< MPKI vs. number of L2 sharers
    double writeFrac = 0.3;    ///< writeback bytes per fill byte
    double specFrac = 0.10;    ///< speculative read fraction at fmax
    double mlpOverlap = 0.75;  ///< miss-latency overlap factor

    double refillLines = 8000; ///< working-set refill per context switch
    double nominalGips = 1.2;  ///< typical instruction rate (for slices)
    double instrBillions = 13; ///< instructions per batch copy

    double phaseAmp = 0.10;    ///< MPKI modulation amplitude
    Seconds phasePeriod = 60;  ///< modulation period
    double phaseShift = 0.0;   ///< phase offset in periods [0,1)
};

/**
 * Deterministic memory-intensity modulation at absolute program time t:
 * multiplies MPKI by 1 + amp * sin(2*pi*(t/period + shift)).
 */
double phaseFactor(const AppDescriptor &app, Seconds t);

/**
 * phaseFactor() at the CPU times a program copy reaches window by
 * window, computed once and shared by every copy, app and run that has
 * the same phase profile.
 *
 * A key is one (phaseAmp, phasePeriod, phaseShift, window), compared
 * bit for bit. Its entry k is phaseFactor(app, t_k) with t_0 = 0 and
 * t_{k+1} = t_k + window: exactly the CPU time a copy holds after k
 * scheduled windows of that length, so a lookup returns the bits of
 * the direct call without calling sin. Entries depend on nothing but
 * their key, so one table may serve runs of any configuration in any
 * order. They are filled in order on first use: a key holds one entry
 * per window of the most-scheduled copy that read it so far.
 *
 * Not thread-safe; the simulator keeps one table per worker.
 */
class PhaseFactorTable
{
  public:
    /// Key of a profile without modulation (zero amplitude or a
    /// non-positive period): every lookup is 1.0, and it has no entry.
    static constexpr std::size_t kConstant =
        std::numeric_limits<std::size_t>::max();

    /// Entries reserved for a new key: 2^14 windows (164 s of CPU time
    /// at 10 ms) before its storage first grows.
    static constexpr std::size_t kReserve = std::size_t{1} << 14;

    /** Key of @p app's phase profile at @p window seconds per window,
     *  registered on first sight. */
    std::size_t key(const AppDescriptor &app, Seconds window);

    /** phaseFactor(app, t_k) for the app and window of @p key. */
    double
    at(std::size_t key, std::size_t k)
    {
        if (key == kConstant)
            return 1.0;
        Profile &p = profiles[key];
        if (k >= p.values.size())
            extend(p, k);
        return p.values[k];
    }

    /** Registered keys (kConstant profiles are never registered). */
    std::size_t keys() const { return profiles.size(); }

  private:
    struct Profile
    {
        AppDescriptor phase; ///< only the phase fields are set
        Seconds window;
        Seconds next;        ///< t of the next entry to fill
        std::vector<double> values;
    };

    /** Fill @p p's entries up to and including k. */
    static void extend(Profile &p, std::size_t k);

    std::vector<Profile> profiles;
};

} // namespace memtherm

#endif // MEMTHERM_WORKLOADS_APP_DESCRIPTOR_HH
