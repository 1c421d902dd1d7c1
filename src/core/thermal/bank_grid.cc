#include "core/thermal/bank_grid.hh"

#include <algorithm>
#include <cmath>

#include "common/logging.hh"

namespace memtherm
{

void
smoothBankCells(const BankGridConfig &grid, const double *w, double *out)
{
    const int nx = grid.x;
    const int nz = grid.z;
    for (int iz = 0; iz < nz; ++iz) {
        for (int ix = 0; ix < nx; ++ix) {
            const int c = iz * nx + ix;
            // Flux divided by the max degree (4), not the actual degree,
            // keeps the operator symmetric: the (a -> b) and (b -> a)
            // contributions use the same coefficient, so pairwise fluxes
            // cancel and the cell sum is conserved at grid edges too.
            double flux = 0.0;
            if (ix > 0)
                flux += w[c - 1] - w[c];
            if (ix + 1 < nx)
                flux += w[c + 1] - w[c];
            if (iz > 0)
                flux += w[c - nx] - w[c];
            if (iz + 1 < nz)
                flux += w[c + nx] - w[c];
            out[c] = w[c] + kBankLateralCoupling * flux / 4.0;
        }
    }
}

std::vector<double>
resolveBankCellWeights(const BankGridConfig &grid, int n_dimms)
{
    panicIfNot(grid.x >= 1 && grid.z >= 1, "bank grid must be at least 1x1");
    panicIfNot(n_dimms >= 1, "bank grid needs at least one DIMM");
    const int cells = grid.cells();
    std::vector<double> out(static_cast<std::size_t>(n_dimms) * cells);

    if (grid.weights.empty()) {
        // Uniform: the scaled weight is exactly 1.0 per cell (no 1/N
        // round-trip), so each cell's stable target is bit-identical to
        // the lumped DRAM node's.
        for (double &v : out)
            v = 1.0;
        return out;
    }

    const std::size_t per_dimm = static_cast<std::size_t>(cells);
    const std::size_t n = grid.weights.size();
    panicIfNot(n == per_dimm ||
                   n == per_dimm * static_cast<std::size_t>(n_dimms),
               "bank grid weights must have cells() or nDimms*cells() entries");
    for (double v : grid.weights)
        panicIfNot(std::isfinite(v) && v >= 0.0,
                   "bank grid weights must be finite and non-negative");

    std::vector<double> scaled(per_dimm);
    for (int d = 0; d < n_dimms; ++d) {
        const double *w =
            grid.weights.data() + (n == per_dimm ? 0 : d * per_dimm);
        for (std::size_t c = 0; c < per_dimm; ++c)
            scaled[c] = w[c] * cells;
        smoothBankCells(grid, scaled.data(), out.data() + d * per_dimm);
    }
    return out;
}

BankSlopes
resolveBankSlopes(const std::vector<double> &cell_w, int n_dimms, int cells)
{
    panicIfNot(n_dimms >= 1 && cells >= 1 &&
                   cell_w.size() == static_cast<std::size_t>(n_dimms) *
                                        static_cast<std::size_t>(cells),
               "bank slopes need nDimms*cells weights");
    BankSlopes s;
    s.cells = cells;
    s.x.resize(cell_w.size());
    s.count.resize(static_cast<std::size_t>(n_dimms));
    s.slot.resize(cell_w.size());
    for (int d = 0; d < n_dimms; ++d) {
        const std::size_t base = static_cast<std::size_t>(d) * cells;
        double *x = s.x.data() + base;
        for (int c = 0; c < cells; ++c)
            x[c] = cell_w[base + c] - 1.0;
        std::sort(x, x + cells);
        const int n = static_cast<int>(std::unique(x, x + cells) - x);
        s.count[d] = n;
        for (int c = 0; c < cells; ++c)
            s.slot[base + c] = static_cast<int>(
                std::lower_bound(x, x + n, cell_w[base + c] - 1.0) - x);
    }
    return s;
}

BankSlopes
resolveBankSlopes(const BankGridConfig &grid, int n_dimms)
{
    return resolveBankSlopes(resolveBankCellWeights(grid, n_dimms), n_dimms,
                             grid.cells());
}

std::shared_ptr<const BankSlopes>
BankSlopeMemo::get(const BankGridConfig &g, int n_dimms)
{
    if (!slopes || n_dimms != dimms || !(g == grid)) {
        slopes = std::make_shared<const BankSlopes>(
            resolveBankSlopes(g, n_dimms));
        grid = g;
        dimms = n_dimms;
    }
    return slopes;
}

void
bankEnvelopeInsert(const double *x, int n, BankLine *nodes, BankLine line)
{
    int l = 0;
    int r = n - 1;
    while (l <= r) {
        const int m = (l + r) / 2;
        BankLine &node = nodes[m];
        if (line.at(x[m]) > node.at(x[m]))
            std::swap(line, node);
        // `line` now loses at the midpoint. Two lines cross at most
        // once, so it can still win on one side only; route it there,
        // or drop it when the node dominates the whole range.
        if (l < m && line.at(x[l]) > node.at(x[l]))
            r = m - 1;
        else if (m < r && line.at(x[r]) > node.at(x[r]))
            l = m + 1;
        else
            return;
    }
}

double
bankEnvelopeQuery(const double *x, int n, const BankLine *nodes, int i)
{
    panicIfNot(i >= 0 && i < n, "bank envelope query out of range");
    const double s = x[i];
    int l = 0;
    int r = n - 1;
    int m = (l + r) / 2;
    double best = nodes[m].at(s);
    while (m != i) {
        if (i < m)
            r = m - 1;
        else
            l = m + 1;
        m = (l + r) / 2;
        best = std::max(best, nodes[m].at(s));
    }
    return best;
}

} // namespace memtherm
