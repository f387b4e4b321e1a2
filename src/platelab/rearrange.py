"""Mass-constrained density rearrangement: the bathtub step.

Given a positive field u on cells of weights w (the grid's ``weights``:
``cell_area`` on a lattice, ring areas on a radial grid) and the box
``h <= rho <= H`` with mass ``sum(rho * w) = M``, the density
maximizing ``sum(rho * u^2 * w)`` puts H on the highest-u cells and h
elsewhere, with at most one cell carrying an intermediate value so the
mass constraint holds to machine precision. Ties in u are broken by
ascending node index, which makes the whole step deterministic. Every
density of both paths is a ``DensityField``: the uniform start, then
``optimal_density`` (``_bathtub``), which the shared driver calls.

The edge rule: a running sum of the cells' extra mass ``(H - h) * w``
gives the count k of H cells, and a pairwise sum of the first k moves it
by at most one cell, within ``1e-13 |M|``. A running sum alone drifts:
on the 51 429 equal cells of the disk at grid 257 it left one cell 3e-8
H under H at ``M = H * area``. The fractional cell closes the budget the
H set leaves, summed in node order: it depends on the set, not its order.
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
    """Admissible density on a lattice or a radial grid: values in [h, H]
    and mass M, the grid's weighted node sum (``grid._integral``)."""

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
        _check_density(v, self.grid._integral(v), h, H, M)
        for name, value in (("values", v), ("h", h), ("H", H), ("M", M)):
            object.__setattr__(self, name, value)


def uniform_density(grid, h, H, M):
    """The admissible constant density with mass M."""
    h, H, M = _check_bracket(grid.discrete_area, h, H, M)
    return DensityField(grid, _uniform(grid, h, H, M), h, H, M)


def _uniform(grid, h, H, M):
    """The one uniform start of both paths, on a lattice or a radial grid:
    ``M / discrete_area`` clipped into [h, H], which a mass inside the
    bracket's slack can leave."""
    return np.clip(np.full(grid.n, M / grid.discrete_area), h, H)


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
    """Threshold density on ``u.grid`` maximizing ``sum(rho u^2)`` at fixed mass:
    the bathtub step on the grid's node weights. Returns ``(rho, t)``, the
    ``DensityField`` and the threshold level."""
    grid = u.grid
    if np.any(u.values <= 0.0):
        raise RearrangeError("rearrangement needs a strictly positive field")
    h, H, M = _check_bracket(grid.discrete_area, h, H, M)
    values, t = _bathtub(u.values, grid.weights, h, H, M)
    return DensityField(grid, values, h, H, M), t


def _bathtub(u, weights, h, H, M):
    """The bathtub step of both paths, on cells of the given weights.

    Sorts u descending (ties by ascending node index), fills H from the
    top, and closes the mass budget with a single intermediate cell when
    the budget does not end on a cell's edge (see the module's edge rule).
    Returns the density and the level t: the value of u at the first cell
    not filled with H (0 when every cell is), which is the fractional cell
    when there is one.
    """
    n = u.shape[0]
    order = np.argsort(-u, kind="stable")
    rho = np.full(n, h)
    if h == H:
        # degenerate box: the admissible set is a single density
        return rho, float(u[order[0]])
    caps = (H - h) * weights[order]  # extra mass each cell can absorb
    excess = M - h * float(np.sum(weights))
    tol = 1e-13 * abs(M)
    k = int(np.searchsorted(np.cumsum(caps), excess, side="right"))
    residual = excess - float(np.sum(caps[:k]))
    if residual < -tol and k > 0:
        k -= 1
    elif k < n and residual >= caps[k] - tol:
        k += 1
    heavy = np.zeros(n, dtype=bool)
    heavy[order[:k]] = True
    residual = excess - float(np.sum((H - h) * weights[heavy]))
    rho[heavy] = H
    if k == n:
        return rho, 0.0
    i = order[k]
    if residual > tol:
        rho[i] = min(h + residual / weights[i], H)
    return rho, float(u[i])
