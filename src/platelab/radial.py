"""One-dimensional radial solver for disks and annuli.

Shares the alternation's control with the 2-D code (the driver
``optimizer._alternate``: warm starts, stopping rules, report) and its
density rules (``rearrange``: the uniform start, the bathtub step and
the box-and-mass check of every density), but passes it its own
numerics: the radial reduction ``u'' + u'/r`` (planar case) on a
uniform radius grid and its own quadrature. Its eigen-iteration is the
2-D path's too (``eigensolver._principal``) on its own map and quotient.
The operator is second order, but theta converges at first order in the
radial spacing: the density's jump between h and H falls inside a cell.
The operator and quadrature being independent of the 2-D path, the two
can cross-check each other's discretization; the input rules are
shared: ``geometry`` checks the radii and ``rearrange`` the mass
bracket. It cannot express angular symmetry breaking by construction.

Minus the radial Laplacian is a tridiagonal matrix kept in banded form;
each map application is two ``solve_banded`` calls, the split form of
the hinged plate (see ``plate``). Disk grids carry an unknown at r = 0
where regularity (``u'(0) = 0`` via a ghost node) replaces the Dirichlet
condition; annulus grids are Dirichlet at both radii. Node masses use
exact ring areas (half cells at the radii that bound the grid), and
they are the weights the shared bathtub step fills.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import solve_banded

from .eigensolver import DEFAULT_MAX_ITER, _principal
from .geometry import DomainSpec, GeometryError, _integer
from .optimizer import OptimizeOptions, _alternate
from .rearrange import RearrangeError, _bathtub, _check_bracket, _check_density, _uniform


class RadialError(ValueError):
    """Invalid input to the radial solver; solver failures raise EigenError."""


@dataclass(frozen=True)
class RadialGrid:
    kind: str
    r: np.ndarray        # unknown locations
    dr: float
    weights: np.ndarray  # exact cell areas (2*pi*r*dr rings, half cells at ends)

    @property
    def n(self):
        return self.r.shape[0]

    @property
    def discrete_area(self):
        return float(np.sum(self.weights))


@dataclass(frozen=True)
class RadialResult:
    theta: float
    r: np.ndarray
    u: np.ndarray
    v: np.ndarray
    rho: np.ndarray
    t: float
    theta_history: tuple
    termination: str
    outer_iterations: int


def radial_grid(kind, radii, n_r):
    """The radius grid of a disk or an annulus; ``radii`` is the kind's
    ``DomainSpec.params``, checked by ``DomainSpec.from_dict``."""
    n_r = _integer(n_r, "n_r", RadialError)
    if n_r < 64:
        raise RadialError("n_r must be at least 64")
    if kind not in ("disk", "annulus"):
        raise RadialError("radial solver handles disk and annulus, got %r" % (kind,))
    try:
        radii = DomainSpec.from_dict({"kind": kind, "params": radii}).params
    except GeometryError as exc:
        raise RadialError(str(exc)) from None
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


def radial_optimize(kind, radii, h, H, M, n_r=1024, opts=OptimizeOptions()):
    """Alternating scheme on the radial reduction: one start, from the
    uniform density, reading only ``opts.max_outer``, ``opts.eig_tol`` and
    ``opts.theta_tol`` (``restarts`` and ``seed`` have no effect)."""
    grid = radial_grid(kind, radii, n_r)
    w = grid.weights
    try:
        h, H, M = _check_bracket(grid.discrete_area, h, H, M)
    except RearrangeError as exc:
        raise RadialError(str(exc)) from None
    ab = _radial_operator(grid)

    def eigensolve(rho, u0):
        def apply(x):
            v = solve_banded((1, 1), ab, rho * x)
            return solve_banded((1, 1), ab, v), v

        def quotient(u, v):
            return float(np.sum(v * v * w) / np.sum(rho * u * u * w))

        u = np.ones(grid.n) if u0 is None else u0
        theta, iterations, u, v, _ = _principal(apply, quotient, u, opts.eig_tol, DEFAULT_MAX_ITER)
        return theta, iterations, u, v

    def admissible(rho):
        _check_density(rho, float(np.sum(rho * w)), h, H, M)
        return rho

    def bathtub(u):
        rho, t = _bathtub(u, w, h, H, M)
        return admissible(rho), t

    def mass_error(rho):
        return abs(float(np.sum(rho * w)) - M)

    rho0 = admissible(_uniform(grid, h, H, M))
    rho, u, v, t, report = _alternate(rho0, eigensolve, bathtub, mass_error, opts)
    # unit weighted norm, matching the 2-D convention
    c = math.sqrt(float(np.sum(rho * u * u * w)))
    u = u / c
    v = v / c
    return RadialResult(
        theta=float(np.sum(v * v * w) / np.sum(rho * u * u * w)), r=grid.r, u=u, v=v, rho=rho,
        t=t / c, theta_history=report.theta_history, termination=report.termination,
        outer_iterations=report.outer_iterations,
    )
