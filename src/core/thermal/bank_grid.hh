/**
 * @file
 * Optional per-bank thermal resolution: an X x Z grid of bank cells per
 * DIMM, layered over the paper's lumped per-DIMM RC pair.
 *
 * The lumped model (Eqs. 3.3-3.5) sees one DRAM node per DIMM, which is
 * blind to intra-DIMM hotspots: row-buffer-heavy workloads concentrate
 * their accesses — and their dynamic power — in a few banks. The bank
 * grid resolves that by splitting each DIMM's DRAM power over an X x Z
 * cell grid by per-cell heat-share weights w_c (cells-scaled, so they
 * average 1), with a single lateral-coupling smoothing pass standing in
 * for in-package heat spreading between neighboring banks.
 *
 * Each cell is an RC node with the DRAM node's time constant whose
 * Eq. 3.4 target scales the DIMM's DRAM power P by w_c. That network is
 * linear with one shared decay, so it is carried as an *affine overlay*
 * rather than one node per cell: one RC scalar V per DIMM steps with
 * the DRAM decay toward P * psiDram, and exactly
 *
 *     T_c(t) = T_dram(t) + (w_c - 1) * V(t).
 *
 * A cell's peak is therefore max_t of that line at s_c = w_c - 1, i.e.
 * the upper envelope of the lines s -> T_dram(t) + s * V(t) queried at
 * s_c. The envelope is a Li Chao tree over each DIMM's sorted distinct
 * slopes (bankEnvelopeInsert / bankEnvelopeQuery): O(DIMMs * log cells)
 * per window instead of one RC step and one max per cell, plus one
 * query per cell per run. The peaks agree with the per-cell iteration
 * up to rounding (<= 1e-9 relative, pinned against that iteration as a
 * test oracle; ~1e-14 observed).
 *
 * The grid is a *diagnostic overlay*: the lumped nodes keep driving the
 * DTM sensors, the refresh feedback and every pre-existing result field
 * unchanged, and the grid only adds per-bank peak temperatures. Its
 * correctness contract, pinned by tests/thermal/test_bank_grid.cc:
 *
 *  - under uniform per-bank weights every cell's slope is exactly 0, so
 *    every cell's peak is bit-identical to the lumped DRAM peak (the
 *    scaled weights are exactly 1 and smoothing is the identity on
 *    constant fields);
 *  - the smoothing operator is symmetric and row-stochastic, so it
 *    conserves the weight sum — the grid's mean target tracks the
 *    lumped target for *any* weight vector;
 *  - a run with `thermal_model: "lumped"` (no grid) is bit-identical
 *    to one with the knob unset.
 */

#ifndef MEMTHERM_CORE_THERMAL_BANK_GRID_HH
#define MEMTHERM_CORE_THERMAL_BANK_GRID_HH

#include <memory>
#include <optional>
#include <vector>

namespace memtherm
{

/**
 * Geometry and heat-share weights of the per-DIMM bank grid (the
 * `thermal_model` scenario knob's "bank_grid" catalog entry, or an
 * inline {grid_x, grid_z[, bank_weights]} object).
 */
struct BankGridConfig
{
    int x = 4; ///< bank columns per DIMM
    int z = 2; ///< bank rows per DIMM

    /**
     * Per-cell heat-share weights, row-major (cell (ix, iz) at index
     * iz * x + ix): the fraction of a DIMM's DRAM power concentrated in
     * each cell, non-negative and summing to 1. Either cells() entries
     * (every DIMM alike — the scenario layer's inline `bank_weights`)
     * or nDimms * cells() entries (per-DIMM blocks — the trace decoder).
     * Empty selects uniform weights, whose scaled form is *exactly* 1
     * per cell, making every cell bit-identical to the lumped DRAM
     * node.
     */
    std::vector<double> weights;

    bool operator==(const BankGridConfig &) const = default;

    int cells() const { return x * z; }
};

/**
 * A resolved `thermal_model` catalog entry: the lumped baseline
 * (std::nullopt — the catalog's "lumped" and the knob-unset default) or
 * a bank grid. Sweep-axis duplicate detection compares these resolved
 * values, so "bank_grid" and an equivalent inline object collide.
 */
struct ThermalModelConfig
{
    std::optional<BankGridConfig> grid;

    bool operator==(const ThermalModelConfig &) const = default;
};

/**
 * Lateral coupling between neighboring bank cells: the fraction of a
 * cell's weight excess (over its 4-neighborhood) one smoothing pass
 * redistributes. A model constant, like SimConfig::remapCostGbPerShare,
 * not a scenario knob.
 */
inline constexpr double kBankLateralCoupling = 0.25;

/**
 * The per-cell *scaled* heat weights MemoryThermalModel consumes:
 * n_dimms * grid.cells() entries, row-major by DIMM, each the cell's
 * weight times cells() (so a cell at scaled weight s sees s times the
 * DIMM's DRAM power in its stable target) after one lateral-coupling
 * smoothing pass per DIMM block.
 *
 * Empty grid.weights take a fast path that writes exactly 1.0 per cell
 * — no division round-trip — so the uniform grid is bit-identical to
 * the lumped DRAM node. Explicit weights are validated (panic on arity
 * or non-finite/negative entries; the scenario layer has already
 * reported user errors as FatalError).
 */
std::vector<double> resolveBankCellWeights(const BankGridConfig &grid,
                                           int n_dimms);

/**
 * One smoothing pass over one DIMM's cell block: out[c] = w[c] +
 * lambda * sum_neighbors(w_n - w[c]) / 4 on the X x Z 4-neighbor grid.
 * Symmetric (pairwise fluxes cancel), so the sum over cells is
 * conserved; constant fields are fixed points. Exposed for the property
 * tests; resolveBankCellWeights() applies it per DIMM block.
 */
void smoothBankCells(const BankGridConfig &grid, const double *w,
                     double *out);

/**
 * One window's overlay line s -> t + s * v for one DIMM: the lumped
 * DRAM temperature t and the overlay scalar v. A cell at slope s sits
 * at at(s) during that window.
 */
struct BankLine
{
    double t = 0.0; ///< lumped DRAM temperature T_dram
    double v = 0.0; ///< overlay RC scalar V

    double at(double s) const { return t + s * v; }
};

/**
 * Query points of the overlay envelope, derived from the resolved cell
 * weights: each DIMM's sorted distinct slopes w_c - 1 and each cell's
 * index into its DIMM's list. Constant for a run, so models and their
 * forks share one immutable copy (BankSlopeMemo).
 */
struct BankSlopes
{
    int cells = 0;          ///< cells per DIMM (block stride of x, slot)
    std::vector<double> x;  ///< DIMM d's sorted distinct slopes at d*cells
    std::vector<int> count; ///< distinct slopes per DIMM
    std::vector<int> slot;  ///< per cell, row-major by DIMM: index in x
};

/**
 * Slopes of @p cell_w (resolveBankCellWeights() output, n_dimms blocks
 * of @p cells). Uniform weights give the single slope 0.0 per DIMM.
 */
BankSlopes resolveBankSlopes(const std::vector<double> &cell_w, int n_dimms,
                             int cells);

/** Slopes of @p grid's resolved cell weights on @p n_dimms DIMMs. */
BankSlopes resolveBankSlopes(const BankGridConfig &grid, int n_dimms);

/**
 * The last slopes resolved, with the exact inputs they came from (the
 * grid, weights included, and the DIMM count; both compared with ==).
 * A simulator worker keeps one across its runs, so it resolves once
 * per distinct grid rather than once per run, and its models share the
 * result. Not synchronized: one owner at a time.
 */
class BankSlopeMemo
{
  public:
    /** The slopes of (@p grid, @p n_dimms), resolved on a key miss. */
    std::shared_ptr<const BankSlopes> get(const BankGridConfig &grid,
                                          int n_dimms);

  private:
    BankGridConfig grid;
    int dimms = 0;
    std::shared_ptr<const BankSlopes> slopes; ///< null until first get()
};

/**
 * Insert @p line into a Li Chao tree over the @p n sorted points @p x:
 * the node for index range [l, r] lives at nodes[(l + r) / 2] and holds
 * the line that is highest at that midpoint among those routed to it.
 * O(log n), allocation-free. Every node must hold some earlier line
 * (seed all n with the run's starting line).
 */
void bankEnvelopeInsert(const double *x, int n, BankLine *nodes,
                        BankLine line);

/**
 * Highest value at x[i] over every line inserted (and the seed): the
 * maximum over the nodes on the path from the root to index @p i.
 */
double bankEnvelopeQuery(const double *x, int n, const BankLine *nodes,
                         int i);

} // namespace memtherm

#endif // MEMTHERM_CORE_THERMAL_BANK_GRID_HH
