#include "core/thermal/thermal_batch.hh"

#include <algorithm>
#include <cmath>

#include "common/logging.hh"

namespace memtherm
{

ThermalBatchState::ThermalBatchState(int dimms, int bank_cells)
    : nDimms(dimms), nBankCells(bank_cells)
{
    panicIfNot(dimms >= 1, "ThermalBatchState: need >= 1 DIMM per lane");
    panicIfNot(bank_cells >= 0, "ThermalBatchState: negative bank cells");
    const std::size_t n = static_cast<std::size_t>(dimms);
    ambV.assign(n, 0.0);
    dramV.assign(n, 0.0);
    stableAmbV.assign(n, 0.0);
    stableDramV.assign(n, 0.0);
    peakAmbV.assign(n, 0.0);
    peakDramV.assign(n, 0.0);
    energyV.assign(n, 0.0);
    if (bank_cells > 0) {
        bankRcV.assign(n, 0.0);
        stableBankRcV.assign(n, 0.0);
        bankEnvV.assign(n * static_cast<std::size_t>(bank_cells),
                        BankLine{});
    }
}

void
ThermalBatchState::init(Seconds tau_amb, Seconds tau_dram, Celsius t0)
{
    panicIfNot(tau_amb > 0.0 && tau_dram > 0.0,
               "ThermalBatchState: time constants must be > 0");
    tauAmb = tau_amb;
    tauDram = tau_dram;
    cachedDt = -1.0; // recompute the decay factors on the next step
    std::fill(ambV.begin(), ambV.end(), t0);
    std::fill(dramV.begin(), dramV.end(), t0);
    std::fill(peakAmbV.begin(), peakAmbV.end(), t0);
    std::fill(peakDramV.begin(), peakDramV.end(), t0);
    std::fill(energyV.begin(), energyV.end(), 0.0);
    std::fill(bankRcV.begin(), bankRcV.end(), 0.0);
    std::fill(stableBankRcV.begin(), stableBankRcV.end(), 0.0);
    seedBankEnvelope();
    energyTimeV = 0.0;
}

void
ThermalBatchState::seedBankEnvelope()
{
    if (nBankCells == 0)
        return;
    for (int i = 0; i < nDimms; ++i)
        std::fill(bankEnvV.begin() + i * nBankCells,
                  bankEnvV.begin() + (i + 1) * nBankCells,
                  BankLine{dramV[i], bankRcV[i]});
}

void
ThermalBatchState::ensureDecay(Seconds dt)
{
    panicIfNot(dt >= 0.0, "ThermalBatchState: negative time step");
    if (dt == cachedDt)
        return;
    cachedDt = dt;
    // Same arithmetic as RcNode::advance, one evaluation per distinct dt
    // instead of one memo per node.
    decayAmbV = 1.0 - std::exp(-dt / tauAmb);
    decayDramV = 1.0 - std::exp(-dt / tauDram);
}

void
ThermalBatchState::advance()
{
    const double da = decayAmbV;
    const double dd = decayDramV;
    double *amb = ambV.data();
    double *dram = dramV.data();
    const double *sa = stableAmbV.data();
    const double *sd = stableDramV.data();
    for (int i = 0; i < nDimms; ++i)
        amb[i] += (sa[i] - amb[i]) * da;
    for (int i = 0; i < nDimms; ++i)
        dram[i] += (sd[i] - dram[i]) * dd;
    // Bank cells share the DRAM node's time constant (same silicon, same
    // Eq. 3.5 step), so their offsets from the DRAM node all decay with
    // the one scalar V.
    if (nBankCells > 0) {
        double *v = bankRcV.data();
        const double *sv = stableBankRcV.data();
        for (int i = 0; i < nDimms; ++i)
            v[i] += (sv[i] - v[i]) * dd;
    }
}

} // namespace memtherm
