"""One-dimensional radial solver for disks and annuli.

Runs the same eigensolve/rearrange alternation as the 2-D code, but on
the radial reduction ``u'' + u'/r`` (planar case), discretized to second
order on a uniform radius grid. Entirely independent of the 2-D path, so
the two can cross-check each other; it cannot express angular symmetry
breaking by construction.

Disk grids carry an unknown at r = 0 where regularity (``u'(0) = 0`` via
a ghost node) replaces the Dirichlet condition; annulus grids are
Dirichlet at both radii. Node masses use exact ring areas, so the bathtub
step here is weight-aware.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np
from scipy.linalg import solve_banded

from .eigensolver import EigenError
from .optimizer import OptimizeOptions
from .plate import FORMULATION


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
    formulation: str = FORMULATION


def radial_grid(kind, radii, n_r):
    if n_r < 64:
        raise RadialError("n_r must be at least 64")
    if kind == "disk":
        (outer,) = radii if isinstance(radii, tuple) else (radii,)
        if not outer > 0:
            raise RadialError("disk radius must be positive")
        dr = outer / n_r
        r = np.arange(n_r) * dr  # r=0 .. outer-dr; Dirichlet node at outer
        w = 2.0 * math.pi * r * dr
        w[0] = math.pi * (0.5 * dr) ** 2
        return RadialGrid(kind="disk", radii=(outer,), r=r, dr=dr, weights=w)
    if kind == "annulus":
        inner, outer = radii
        if not 0 < inner < outer:
            raise RadialError("annulus needs 0 < inner < outer")
        dr = (outer - inner) / n_r
        r = inner + np.arange(1, n_r) * dr  # Dirichlet at both radii
        w = 2.0 * math.pi * r * dr
        return RadialGrid(kind="annulus", radii=(inner, outer), r=r, dr=dr, weights=w)
    raise RadialError("radial solver handles disk and annulus, got %r" % (kind,))


def _radial_operator(grid):
    """Banded (ab-form) matrix of minus the radial Laplacian."""
    n = grid.n
    dr = grid.dr
    ab = np.zeros((3, n))
    if grid.kind == "disk":
        # r=0 row: -lap u = -2 u''(0) ~ 4(u0 - u1)/dr^2, ghost u(-dr)=u(dr)
        ab[1, 0] = 4.0 / dr**2
        ab[0, 1] = -4.0 / dr**2
        start = 1
    else:
        start = 0
    for j in range(start, n):
        rj = grid.r[j]
        ab[1, j] = 2.0 / dr**2
        west = -(1.0 / dr**2) + 1.0 / (2.0 * rj * dr)
        east = -(1.0 / dr**2) - 1.0 / (2.0 * rj * dr)
        if j > 0:
            ab[2, j - 1] = west  # sub-diagonal entry of row j
        if j + 1 < n:
            ab[0, j + 1] = east  # super-diagonal entry of row j
    return ab


def _solve(ab, f):
    return solve_banded((1, 1), ab, f)


def _principal_pair_radial(grid, ab, rho, tol, max_iter, u0=None):
    u = np.ones(grid.n) if u0 is None else u0 / np.max(np.abs(u0))
    w = grid.weights
    history = []
    theta_prev = None
    for it in range(1, max_iter + 1):
        v = _solve(ab, rho * u)
        uu = _solve(ab, v)
        if np.any(uu <= 0.0):
            raise EigenError("radial iterate lost positivity")
        scale = np.max(np.abs(uu))
        u = uu / scale
        vs = v / scale
        theta = float(np.sum(vs * vs * w) / np.sum(rho * u * u * w))
        history.append(theta)
        if theta_prev is not None and abs(theta - theta_prev) <= tol * theta:
            break
        theta_prev = theta
    else:
        raise EigenError("radial eigensolve did not converge in %d iterations" % max_iter)
    return theta, u, vs, it, history


def _bathtub_radial(u, weights, h, H, M):
    """Weight-aware threshold density: H on the largest-u cells, one
    fractional cell balancing the mass exactly."""
    n = u.shape[0]
    order = np.argsort(-u, kind="stable")
    rho = np.full(n, h)
    if h == H:
        return rho, float(u[order[0]]), None
    excess = M - h * float(np.sum(weights))
    frac_index = None
    t = float(u[order[0]])
    acc = 0.0
    for pos, i in enumerate(order):
        cap = (H - h) * weights[i]
        if acc + cap <= excess * (1.0 + 1e-15):
            rho[i] = H
            acc += cap
            if pos + 1 < n:
                t = float(u[order[pos + 1]])
            else:
                t = 0.0
        else:
            residual = excess - acc
            if residual > 1e-13 * abs(M):
                rho[i] = min(h + residual / weights[i], H)
                frac_index = int(i)
                t = float(u[i])
            break
    return rho, t, frac_index


def radial_optimize(kind, radii, h, H, M, n_r=1024, opts=OptimizeOptions()):
    """Alternating scheme on the radial reduction."""
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
    t_level = math.nan
    u = v = None
    for _ in range(opts.max_outer):
        theta, u, v, _, _ = _principal_pair_radial(
            grid, ab, rho, opts.eig_tol, opts.eig_max_iter, u0=u_warm
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
