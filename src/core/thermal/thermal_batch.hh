/**
 * @file
 * Structure-of-arrays thermal state of one run's representative channel.
 *
 * The RC network of one run is tiny (two nodes per DIMM), so the
 * mutable per-node state — temperatures, staged stable targets,
 * per-DIMM peaks and energy accumulators — lives here as contiguous
 * per-field arrays instead of arrays of node objects: one DIMM sweep is
 * a tight loop over adjacent doubles. Each MemoryThermalModel owns one
 * state, and copying the model copies it exactly; that copy is the
 * snapshot the shared-prefix batched simulator forks with.
 *
 * The `1 - exp(-dt / tau)` decay factors are memoized (recomputed only
 * when dt changes) instead of the per-node `cachedDt` memos the object
 * layout used; the arithmetic applied to each temperature is unchanged,
 * so the state is bit-identical to the former per-object path.
 *
 * Advancing is split in three so a caller can fold its own outputs:
 *  1. stage: the caller writes each DIMM's stable-target temperatures
 *     into stableAmb()/stableDram() (and calls ensureDecay(dt));
 *  2. advance(): temps += (stable - temp) * decay, the sweep;
 *  3. the caller folds peaks/energy from the updated temperatures.
 *
 * With a bank grid (core/thermal/bank_grid.hh) the state also carries
 * the affine overlay, not one node per cell: one RC scalar V per DIMM
 * (stepped with the DRAM decay, so T_c = T_dram + (w_c - 1) * V) plus
 * a per-DIMM peak envelope of bankCells() lines. The per-window work is
 * one step per DIMM here and one O(log cells) envelope insert per DIMM
 * in MemoryThermalModel::finishAdvance().
 */

#ifndef MEMTHERM_CORE_THERMAL_THERMAL_BATCH_HH
#define MEMTHERM_CORE_THERMAL_THERMAL_BATCH_HH

#include <cstddef>
#include <vector>

#include "common/units.hh"
#include "core/thermal/bank_grid.hh"

namespace memtherm
{

/**
 * Contiguous per-field thermal state of one run's DIMM chain.
 */
class ThermalBatchState
{
  public:
    /**
     * @param dimms DIMMs of the representative channel (>= 1)
     * @param bank_cells bank-grid cells per DIMM, the envelope capacity;
     *        0 (the default, and the lumped thermal model) allocates no
     *        bank arrays
     *
     * Every temperature starts at 0; callers initialize the state
     * (init()) before advancing it.
     */
    explicit ThermalBatchState(int dimms, int bank_cells = 0);

    int dimms() const { return nDimms; }
    int bankCells() const { return nBankCells; }

    /**
     * Set the RC time constants and reset every temperature, peak and
     * energy accumulator to @p t0 (the bank overlay to V = 0).
     * Invalidates the decay memo.
     */
    void init(Seconds tau_amb, Seconds tau_dram, Celsius t0);

    /// @name Per-field arrays, each dimms() doubles long.
    /// @{
    double *ambTemp() { return ambV.data(); }
    const double *ambTemp() const { return ambV.data(); }
    double *dramTemp() { return dramV.data(); }
    const double *dramTemp() const { return dramV.data(); }
    double *stableAmb() { return stableAmbV.data(); }
    const double *stableAmb() const { return stableAmbV.data(); }
    double *stableDram() { return stableDramV.data(); }
    const double *stableDram() const { return stableDramV.data(); }
    double *peakAmb() { return peakAmbV.data(); }
    const double *peakAmb() const { return peakAmbV.data(); }
    double *peakDram() { return peakDramV.data(); }
    const double *peakDram() const { return peakDramV.data(); }
    double *energy() { return energyV.data(); }
    const double *energy() const { return energyV.data(); }
    /// @}

    /// @name Bank-overlay arrays. bankRc() and stableBankRc() are
    /// dimms() doubles long; bankEnvelope() is dimms() * bankCells()
    /// lines, DIMM d's Li Chao tree at offset d * bankCells(). All are
    /// nullptr when bankCells() is 0 — the lumped model never touches
    /// them. V shares the DRAM node's tau, so advance() steps it with
    /// decayDram().
    /// @{
    double *bankRc() { return orNull(bankRcV); }
    const double *bankRc() const { return orNull(bankRcV); }
    double *stableBankRc() { return orNull(stableBankRcV); }
    const double *stableBankRc() const { return orNull(stableBankRcV); }
    BankLine *bankEnvelope() { return orNull(bankEnvV); }
    const BankLine *bankEnvelope() const { return orNull(bankEnvV); }
    /// @}

    /**
     * Restart the bank peaks: fill every node of DIMM d's envelope with
     * the line (dramTemp[d], bankRc[d]), the current state. No-op
     * without a bank grid.
     */
    void seedBankEnvelope();

    /** Time the energy accumulators have integrated over. */
    Seconds &energyTime() { return energyTimeV; }
    Seconds energyTime() const { return energyTimeV; }

    /**
     * Refresh the decay memo for a step of @p dt. The exp() per tau is
     * evaluated only when dt differs from the previous call — the
     * constant-window simulator pays for it once per run, not once per
     * node or per window.
     */
    void ensureDecay(Seconds dt);

    /** Decay factor 1 - exp(-dt / tauAmb) of the last ensureDecay(). */
    double decayAmb() const { return decayAmbV; }
    /** Decay factor 1 - exp(-dt / tauDram) of the last ensureDecay(). */
    double decayDram() const { return decayDramV; }

    /**
     * Advance the temperatures toward the staged stable targets using
     * the memoized decay factors: the Eq. 3.5 step
     * `T += (T_stable - T) * (1 - exp(-dt / tau))` for every node, as
     * two tight sweeps over the contiguous AMB and DRAM arrays.
     * ensureDecay() must have been called for the intended dt.
     */
    void advance();

  private:
    template <class T>
    static T *orNull(std::vector<T> &v)
    {
        return v.empty() ? nullptr : v.data();
    }
    template <class T>
    static const T *orNull(const std::vector<T> &v)
    {
        return v.empty() ? nullptr : v.data();
    }

    int nDimms;
    int nBankCells;

    std::vector<double> ambV;        ///< AMB temperatures
    std::vector<double> dramV;       ///< DRAM temperatures
    std::vector<double> stableAmbV;  ///< staged stable AMB targets
    std::vector<double> stableDramV; ///< staged stable DRAM targets
    std::vector<double> peakAmbV;    ///< per-DIMM AMB maxima since reset
    std::vector<double> peakDramV;   ///< per-DIMM DRAM maxima since reset
    std::vector<double> energyV;     ///< per-DIMM energy since reset (J)
    Seconds energyTimeV = 0.0;

    std::vector<double> bankRcV;       ///< per-DIMM overlay scalar V
    std::vector<double> stableBankRcV; ///< staged V targets (P * psiDram)
    std::vector<BankLine> bankEnvV;    ///< per-DIMM peak envelopes

    Seconds tauAmb = 1.0;  ///< AMB time constant
    Seconds tauDram = 1.0; ///< DRAM time constant
    double decayAmbV = 0.0;
    double decayDramV = 0.0;
    Seconds cachedDt = -1.0; ///< dt of the memoized decay factors
};

} // namespace memtherm

#endif // MEMTHERM_CORE_THERMAL_THERMAL_BATCH_HH
