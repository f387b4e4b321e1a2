"""Mass-constrained density rearrangement: the bathtub step.

Given a positive field u (a ``ScalarField``, whose grid is the grid of
the density) and the admissible box ``h <= rho <= H`` with total lattice
mass M, the density maximizing ``sum(rho * u^2) * d^2`` puts H on the
highest-u nodes and h elsewhere, with at most one node carrying an
intermediate value so the mass constraint holds to machine precision.
Ties in u are broken by ascending node index, which makes the whole step
deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import Grid


class RearrangeError(ValueError):
    pass


@dataclass(frozen=True)
class DensityField:
    """Admissible density: values in [h, H], lattice mass M."""

    grid: Grid
    values: np.ndarray
    h: float
    H: float
    M: float

    def __post_init__(self):
        v = np.ascontiguousarray(self.values, dtype=float)
        if v.shape != (self.grid.n,):
            raise RearrangeError("density length does not match grid")
        _check_bracket(self.grid, self.h, self.H, self.M)
        # written so that NaN fails both checks
        if not np.all((v >= self.h) & (v <= self.H)):
            raise RearrangeError("density leaves the box [h, H]")
        got = float(np.sum(v)) * self.grid.cell_area
        if not abs(got - self.M) <= 1e-12 * abs(self.M):
            raise RearrangeError(
                "density mass %.17g deviates from M=%.17g" % (got, self.M)
            )
        object.__setattr__(self, "values", v)


@dataclass(frozen=True)
class ThresholdResult:
    """Bathtub output: density, threshold level t, optional fractional node."""

    rho: DensityField
    t: float
    fractional_index: int | None


def mass(rho):
    """Lattice mass of a density: sum of node values times cell area."""
    return float(np.sum(rho.values)) * rho.grid.cell_area


def uniform_density(grid, h, H, M):
    """The admissible constant density with mass M."""
    return DensityField(grid, np.full(grid.n, M / grid.discrete_area), h, H, M)


def _check_bracket(grid, h, H, M):
    if not (0.0 < h <= H):
        raise RearrangeError("need 0 < h <= H, got h=%r H=%r" % (h, H))
    area = grid.discrete_area
    slack = 1e-12 * max(abs(M), 1.0)
    if not (h * area - slack <= M <= H * area + slack):
        raise RearrangeError(
            "mass %r outside admissible bracket [%r, %r]" % (M, h * area, H * area)
        )


def optimal_density(u, h, H, M):
    """Threshold density on ``u.grid`` maximizing ``sum(rho u^2)`` at fixed mass.

    Sorts u descending (ties by ascending node index), fills H from the
    top, and closes the mass budget with a single intermediate node when
    the H-count is not integral. The level t is the value of u at the
    first node not filled with H (0 when every node is), which is the
    fractional node when there is one.
    """
    grid = u.grid
    uv = u.values
    if np.any(uv <= 0.0):
        raise RearrangeError("rearrangement needs a strictly positive field")
    # ahead of the arithmetic: a NaN mass must fail here, not in np.floor
    _check_bracket(grid, h, H, M)

    n = grid.n
    cell = grid.cell_area
    order = np.argsort(-uv, kind="stable")
    values = np.full(n, h)

    if h == H:
        # degenerate box: the admissible set is a single density
        rho = DensityField(grid, values, h, H, M)
        return ThresholdResult(rho=rho, t=float(uv[order[0]]), fractional_index=None)

    cap = (H - h) * cell  # extra mass one node can absorb
    excess = M - h * n * cell
    k = max(int(np.floor(excess / cap)), 0)
    residual = excess - k * cap
    if residual < 0.0 and k > 0:
        k -= 1
        residual = excess - k * cap
    if residual >= cap * (1.0 - 1e-12) and k < n:
        k += 1
        residual = excess - k * cap
    k = min(k, n)

    values[order[:k]] = H
    t = 0.0 if k == n else float(uv[order[k]])
    frac_index = None
    if residual > 1e-13 * abs(M) and k < n:
        frac_index = int(order[k])
        values[frac_index] = h + residual / cell

    rho = DensityField(grid, values, h, H, M)
    return ThresholdResult(rho=rho, t=t, fractional_index=frac_index)
