"""One-dimensional radial solver for disks and annuli.

Shares all but its map with the 2-D code: the driver
``optimizer._alternate`` (warm starts, stopping rules, the bathtub step,
the mass error, the pair and its theta, report), ``rearrange``'s density
rules and the eigen-iteration ``eigensolver._principal`` (its unit
weighted norm too), which read the path off its ``RadialGrid``:
ring-area weights and their node sum. Its result is an ``OptimalPair``
on that grid, whose nodes are ``(r, 0)``. Its own numerics are the
radial reduction ``u'' + u'/r`` (planar case) on a uniform radius grid.
The operator is second order, but theta converges at first
order in the radial spacing: M is laid on the rings' ``discrete_area``,
which misses the half rings next to the Dirichlet radii (pi (1 - dr/2)^2
on the unit disk); ``M - h (area - discrete_area)`` is second order
(ROADMAP item 15). The operator and quadrature being independent of the
2-D path, the two can cross-check each other's discretization. An input
fault raises the error of the module that owns it, as on the 2-D path:
``GeometryError`` for the radii and for ``n_r`` (which follows
``nodes_per_side``'s rules), ``RearrangeError`` for h, H and M from the
uniform start. It cannot express angular symmetry breaking by
construction.

Minus the radial Laplacian is a tridiagonal matrix kept in banded form;
each map application is two ``solve_banded`` calls, the split form of
the hinged plate (see ``plate``). Disk grids carry an unknown at r = 0
where regularity (``u'(0) = 0`` via a ghost node) replaces the Dirichlet
condition; annulus grids are Dirichlet at both radii.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import solve_banded

from .eigensolver import _principal
from .geometry import DomainSpec, GeometryError, _integer
from .optimizer import OptimalPair, _alternate
from .rearrange import uniform_density


@dataclass(frozen=True)
class RadialGrid:
    kind: str
    r: np.ndarray        # unknown locations
    dr: float
    # exact areas of the 2*pi*r*dr rings about the nodes (pi (dr/2)^2 at r=0);
    # the half rings next to the Dirichlet radii carry no node (ROADMAP item 15)
    weights: np.ndarray

    @property
    def n(self):
        return self.r.shape[0]

    @property
    def node_x(self):
        return self.r

    @property
    def node_y(self):
        return np.zeros(self.n)

    @property
    def discrete_area(self):
        return float(np.sum(self.weights))

    def _integral(self, x):
        """Weighted node sum of ``x``: the sum of ``x * weights``."""
        return float(np.sum(x * self.weights))


@dataclass(frozen=True)
class RadialResult(OptimalPair):
    """An ``OptimalPair`` on the ``RadialGrid``, with its run's report fields."""

    termination: str
    outer_iterations: int
    theta_history: tuple


def radial_grid(kind, radii, n_r):
    """The radius grid of a disk or an annulus; ``radii`` is the kind's
    ``DomainSpec.params``, checked by ``DomainSpec.from_dict``."""
    n_r = _integer(n_r, "n_r")
    if n_r < 64:
        raise GeometryError("n_r must be at least 64")
    if kind not in ("disk", "annulus"):
        raise GeometryError("radial solver handles disk and annulus, got %r" % (kind,))
    radii = DomainSpec.from_dict({"kind": kind, "params": radii}).params
    inner, outer = (0.0, *radii) if kind == "disk" else radii
    dr = (outer - inner) / n_r
    # an unknown at the disk's r=0; Dirichlet nodes at the other radii
    r = inner + np.arange(int(kind == "annulus"), n_r) * dr
    w = 2.0 * math.pi * r * dr
    if kind == "disk":
        w[0] = math.pi * (0.5 * dr) ** 2
    return RadialGrid(kind=kind, r=r, dr=dr, weights=w)


def _radial_operator(grid):
    """Banded (ab-form) matrix of minus the radial Laplacian."""
    dr = grid.dr
    # infinite in the disk's r=0 row, which is overwritten below
    with np.errstate(divide="ignore"):
        drift = 1.0 / (2.0 * grid.r * dr)
    ab = np.zeros((3, grid.n))
    ab[0, 1:] = -(1.0 / dr**2) - drift[:-1]  # row j's east entry, column j+1
    ab[1] = 2.0 / dr**2
    ab[2, :-1] = -(1.0 / dr**2) + drift[1:]  # row j's west entry, column j-1
    if grid.kind == "disk":
        # r=0 row: -lap u = -2 u''(0) ~ 4(u0 - u1)/dr^2, ghost u(-dr)=u(dr)
        ab[1, 0] = 4.0 / dr**2
        ab[0, 1] = -4.0 / dr**2
    return ab


def radial_optimize(kind, radii, h, H, M, n_r=1024):
    """Alternating scheme on the radial reduction: one start, from the
    uniform density, stopped by the 2-D path's rules
    (``optimizer.THETA_TOL``, ``optimizer.MAX_OUTER``); returns a
    ``RadialResult`` on the ring grid."""
    grid = radial_grid(kind, radii, n_r)
    ab = _radial_operator(grid)

    def eigensolve(rho, u0):
        def apply(x):
            v = solve_banded((1, 1), ab, rho.values * x)
            return solve_banded((1, 1), ab, v), v

        return _principal(apply, rho, u0)

    pair, report = _alternate(uniform_density(grid, h, H, M), eigensolve)
    return RadialResult(**vars(pair), termination=report.termination,
                        outer_iterations=report.outer_iterations,
                        theta_history=report.theta_history)
