"""Alternating minimization for the composite hinged-plate problem.

The double infimum over (density, deflection) is attacked by alternation:
eigensolve at fixed density, bathtub-rearrange at fixed deflection,
repeat. Each half step minimizes the quotient in one variable, so the
quotient history is non-increasing; the loop stops when the density
reproduces itself node-for-node or the quotient stalls.

Alternation converges to a fixed point, not provably to the global
minimum; ``restarts`` reruns the loop from randomized admissible
densities and keeps the best quotient found.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace

import numpy as np

from .eigensolver import principal_pair, rayleigh_quotient
from .fields import ScalarField
from .geometry import build_grid
from .poisson import assemble_laplacian
from .rearrange import DensityField, mass, optimal_density, uniform_density


class OptimizeError(ValueError):
    """Invalid optimizer options."""


@dataclass(frozen=True)
class OptimizeOptions:
    theta_tol: float = 1e-8
    max_outer: int = 200
    eig_tol: float = 1e-11
    restarts: int = 1
    seed: int | None = None

    def __post_init__(self):
        if not self.max_outer >= 1:
            raise OptimizeError("max_outer must be at least 1, got %r" % (self.max_outer,))
        if not self.restarts >= 1:
            raise OptimizeError("restarts must be at least 1, got %r" % (self.restarts,))
        if not self.theta_tol > 0.0:
            raise OptimizeError("theta_tol must be positive, got %r" % (self.theta_tol,))
        if not 0.0 < self.eig_tol <= 1e-6:
            raise OptimizeError("eig_tol must be in (0, 1e-6], got %r" % (self.eig_tol,))


@dataclass(frozen=True)
class OptimalPair:
    """Converged (u, v, rho, theta, t) on one grid: the grid of ``u``."""

    u: ScalarField
    v: ScalarField
    rho: DensityField
    theta: float
    t: float

    @property
    def grid(self):
        return self.u.grid

    @property
    def spec(self):
        return self.u.grid.spec


@dataclass(frozen=True)
class SolveReport:
    theta_history: tuple
    inner_iterations: tuple
    mass_errors: tuple
    termination: str
    outer_iterations: int
    wall_time: float
    restart_thetas: tuple


def optimize(spec, nodes_per_side, h, H, M, opts=OptimizeOptions()):
    """Run the alternating scheme; returns the best (pair, report) found.

    Builds the grid of ``spec`` at ``nodes_per_side`` and its operator.
    The first start is the uniform admissible density; additional
    ``opts.restarts - 1`` starts are randomized threshold densities drawn
    from ``opts.seed``. All starts share the grid and the operator (and
    its factorization cache).
    """
    grid = build_grid(spec, nodes_per_side)
    op = assemble_laplacian(grid)

    starts = [uniform_density(grid, h, H, M)]
    if opts.restarts > 1:
        rng = np.random.default_rng(opts.seed)
        for _ in range(opts.restarts - 1):
            probe = ScalarField(grid, rng.uniform(0.5, 1.5, grid.n))
            starts.append(optimal_density(probe, h, H, M).rho)

    best = None
    thetas = []
    for rho0 in starts:
        pair, report = _alternate(op, rho0, h, H, M, opts)
        thetas.append(pair.theta)
        if best is None or pair.theta < best[0].theta:
            best = (pair, report)
    pair, report = best
    return pair, replace(report, restart_thetas=tuple(thetas))


def _alternate(op, rho0, h, H, M, opts):
    t0 = time.perf_counter()
    rho = rho0
    theta_history = []
    inner_iterations = []
    mass_errors = []
    termination = "max-outer"
    u_warm = None
    for _ in range(opts.max_outer):
        eig = principal_pair(op, rho, tol=opts.eig_tol, u0=u_warm)
        theta_history.append(eig.theta)
        inner_iterations.append(eig.iterations)
        mass_errors.append(abs(mass(rho) - M))
        u_warm = eig.u

        thr = optimal_density(eig.u, h, H, M)
        if np.array_equal(thr.rho.values, rho.values):
            termination = "rho-fixed"
            rho = thr.rho
            break
        rho = thr.rho
        if len(theta_history) >= 2 and abs(
            theta_history[-1] - theta_history[-2]
        ) <= opts.theta_tol * abs(theta_history[-1]):
            termination = "theta-converged"
            break

    theta = rayleigh_quotient(eig.u, eig.v, rho)
    pair = OptimalPair(u=eig.u, v=eig.v, rho=rho, theta=theta, t=thr.t)
    report = SolveReport(
        theta_history=tuple(theta_history),
        inner_iterations=tuple(inner_iterations),
        mass_errors=tuple(mass_errors),
        termination=termination,
        outer_iterations=len(theta_history),
        wall_time=time.perf_counter() - t0,
        restart_thetas=(),
    )
    return pair, report
