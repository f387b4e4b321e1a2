"""One-dimensional radial solver for disks and annuli.

Runs the same eigensolve/rearrange alternation as the 2-D code, but on
the radial reduction ``u'' + u'/r`` (planar case), on a uniform radius
grid. The operator is second order, but theta converges at first order
in the radial spacing: the density's jump between h and H falls inside
a cell. Entirely independent of the 2-D path, so the two can
cross-check each other; it cannot express angular symmetry breaking by
construction.

Minus the radial Laplacian is a tridiagonal matrix kept in banded form;
each eigen iteration is two ``solve_banded`` calls, the split form of the
hinged plate (see ``plate``). Disk grids carry an unknown at r = 0 where
regularity (``u'(0) = 0`` via a ghost node) replaces the Dirichlet
condition; annulus grids are Dirichlet at both radii. Node masses use
exact ring areas, so the bathtub step here is weight-aware.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np
from scipy.linalg import solve_banded

from .eigensolver import DEFAULT_MAX_ITER, EigenError
from .optimizer import OptimizeOptions


class RadialError(ValueError):
    """Invalid input to the radial solver; solver failures raise EigenError."""


@dataclass(frozen=True)
class RadialGrid:
    kind: str
    radii: tuple
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
    wall_time: float


_RADII = {"disk": ("radius",), "annulus": ("inner", "outer")}  # kind -> its radii


def radial_grid(kind, radii, n_r):
    """The radius grid of a disk or an annulus; ``radii`` is the kind's
    radii as a sequence, in ``DomainSpec.params`` order."""
    if n_r < 64:
        raise RadialError("n_r must be at least 64")
    if kind not in _RADII:
        raise RadialError("radial solver handles disk and annulus, got %r" % (kind,))
    try:
        values = np.asarray(radii, dtype=float)
    except (TypeError, ValueError):  # ragged or not numbers
        values = None
    if values is None or values.shape != (len(_RADII[kind]),):
        raise RadialError("%s takes radii %s as a sequence, got %r" % (kind, _RADII[kind], radii))
    if kind == "disk":
        (outer,) = values.tolist()
        if not outer > 0:
            raise RadialError("disk radius must be positive")
        dr = outer / n_r
        r = np.arange(n_r) * dr  # r=0 .. outer-dr; Dirichlet node at outer
        w = 2.0 * math.pi * r * dr
        w[0] = math.pi * (0.5 * dr) ** 2
        return RadialGrid(kind="disk", radii=(outer,), r=r, dr=dr, weights=w)
    inner, outer = values.tolist()
    if not 0 < inner < outer:
        raise RadialError("annulus needs 0 < inner < outer")
    dr = (outer - inner) / n_r
    r = inner + np.arange(1, n_r) * dr  # Dirichlet at both radii
    w = 2.0 * math.pi * r * dr
    return RadialGrid(kind="annulus", radii=(inner, outer), r=r, dr=dr, weights=w)


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


def _principal_pair_radial(grid, ab, rho, tol, max_iter, u0=None):
    u = np.ones(grid.n) if u0 is None else u0 / np.max(np.abs(u0))
    w = grid.weights
    theta_prev = None
    for _ in range(max_iter):
        v = solve_banded((1, 1), ab, rho * u)
        uu = solve_banded((1, 1), ab, v)
        if np.any(uu <= 0.0):
            raise EigenError("radial iterate lost positivity")
        scale = np.max(np.abs(uu))
        u = uu / scale
        vs = v / scale
        theta = float(np.sum(vs * vs * w) / np.sum(rho * u * u * w))
        if theta_prev is not None and abs(theta - theta_prev) <= tol * theta:
            break
        theta_prev = theta
    else:
        raise EigenError("radial eigensolve did not converge in %d iterations" % max_iter)
    return theta, u, vs


def _bathtub_radial(u, weights, h, H, M):
    """Weight-aware threshold density: H on the largest-u cells, one
    fractional cell balancing the mass exactly."""
    n = u.shape[0]
    order = np.argsort(-u, kind="stable")
    rho = np.full(n, h)
    if h == H:
        return rho, float(u[order[0]]), None
    excess = M - h * float(np.sum(weights))
    # np.cumsum adds in sequence, so ``filled[k - 1]`` is bitwise the mass
    # a running sum over the first k cells would reach
    filled = np.cumsum((H - h) * weights[order])
    k = int(np.searchsorted(filled, excess * (1.0 + 1e-15), side="right"))
    rho[order[:k]] = H
    if k == n:
        return rho, 0.0, None
    i = int(order[k])
    residual = excess - (filled[k - 1] if k else 0.0)
    frac_index = None
    if residual > 1e-13 * abs(M):
        rho[i] = min(h + residual / weights[i], H)
        frac_index = i
    return rho, float(u[i]), frac_index


def radial_optimize(kind, radii, h, H, M, n_r=1024, opts=OptimizeOptions()):
    """Alternating scheme on the radial reduction: one start, from the
    uniform density, reading only ``opts.max_outer``, ``opts.eig_tol`` and
    ``opts.theta_tol`` (``restarts`` and ``seed`` have no effect)."""
    t0 = time.perf_counter()
    grid = radial_grid(kind, radii, n_r)
    if not (0.0 < h <= H):
        raise RadialError("need 0 < h <= H")
    area = grid.discrete_area
    if not (h * area - 1e-12 * abs(M) <= M <= H * area + 1e-12 * abs(M)):
        raise RadialError(
            "mass %r outside admissible bracket [%r, %r]" % (M, h * area, H * area)
        )
    ab = _radial_operator(grid)
    rho = np.full(grid.n, M / area)
    history = []
    termination = "max-outer"
    u_warm = None
    for _ in range(opts.max_outer):
        theta, u, v = _principal_pair_radial(
            grid, ab, rho, opts.eig_tol, DEFAULT_MAX_ITER, u0=u_warm
        )
        history.append(theta)
        u_warm = u
        rho_new, t_level, _ = _bathtub_radial(u, grid.weights, h, H, M)
        if np.array_equal(rho_new, rho):
            termination = "rho-fixed"
            rho = rho_new
            break
        rho = rho_new
        if len(history) >= 2 and abs(history[-1] - history[-2]) <= opts.theta_tol * abs(
            history[-1]
        ):
            termination = "theta-converged"
            break

    # unit weighted norm, matching the 2-D convention
    c = math.sqrt(float(np.sum(rho * u * u * grid.weights)))
    u = u / c
    v = v / c
    t_level = t_level / c
    theta = float(np.sum(v * v * grid.weights) / np.sum(rho * u * u * grid.weights))
    return RadialResult(
        theta=theta,
        r=grid.r,
        u=u,
        v=v,
        rho=rho,
        t=t_level,
        theta_history=tuple(history),
        termination=termination,
        outer_iterations=len(history),
        wall_time=time.perf_counter() - t0,
    )
