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

import math
from dataclasses import dataclass

import numpy as np

from .geometry import Grid, _is_real


_MASS_RTOL = 1e-12  # the one mass slack, relative to |M|


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
        h, H, M = _check_bracket(self.grid.discrete_area, self.h, self.H, self.M)
        _check_density(v, float(np.sum(v)) * self.grid.cell_area, h, H, M)
        for name, value in (("values", v), ("h", h), ("H", H), ("M", M)):
            object.__setattr__(self, name, value)


@dataclass(frozen=True)
class ThresholdResult:
    """Bathtub output: density and threshold level t."""

    rho: DensityField
    t: float


def uniform_density(grid, h, H, M):
    """The admissible constant density with mass M."""
    return DensityField(grid, np.full(grid.n, M / grid.discrete_area), h, H, M)


def _check_bracket(area, h, H, M):
    """The one admissibility check of (h, H, M) on a domain of ``area``.

    Returns them as floats: they must be real numbers by the one rule for
    reals (``geometry._is_real``), and H finite, or it would admit any mass.
    """
    if not all(map(_is_real, (h, H, M))):
        raise RearrangeError("h, H and M must be real numbers, got h=%r H=%r M=%r" % (h, H, M))
    h, H, M = float(h), float(H), float(M)
    if not (0.0 < h <= H):
        raise RearrangeError("need 0 < h <= H, got h=%r H=%r" % (h, H))
    if H == math.inf:
        raise RearrangeError("H must be finite, got inf")
    slack = _MASS_RTOL * abs(M)
    if not (math.isfinite(M) and h * area - slack <= M <= H * area + slack):
        raise RearrangeError(
            "mass %r outside admissible bracket [%r, %r]" % (M, h * area, H * area)
        )
    return h, H, M


def _check_density(values, got, h, H, M):
    """The one admissibility check of a density: its nodes ``values`` lie
    in [h, H] and its mass ``got`` is M up to the one slack."""
    # written so that NaN fails both checks
    if not np.all((values >= h) & (values <= H)):
        raise RearrangeError("density leaves the box [h, H]")
    if not abs(got - M) <= _MASS_RTOL * abs(M):
        raise RearrangeError("density mass %.17g deviates from M=%.17g" % (got, M))


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
    h, H, M = _check_bracket(grid.discrete_area, h, H, M)

    n = grid.n
    cell = grid.cell_area
    order = np.argsort(-uv, kind="stable")
    values = np.full(n, h)

    if h == H:
        # degenerate box: the admissible set is a single density
        rho = DensityField(grid, values, h, H, M)
        return ThresholdResult(rho=rho, t=float(uv[order[0]]))

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
    if residual > 1e-13 * abs(M) and k < n:
        values[order[k]] = h + residual / cell

    rho = DensityField(grid, values, h, H, M)
    return ThresholdResult(rho=rho, t=t)
