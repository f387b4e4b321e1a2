"""Alternating minimization for the composite hinged-plate problem.

The double infimum over (density, deflection) is attacked by alternation:
eigensolve at fixed density, bathtub-rearrange at fixed deflection,
repeat. Where the operator is symmetric (grids without boundary cuts)
each half step minimizes the quotient in one variable, so the quotient
history is non-increasing; on cut grids that is observed, not proven (no
rise over 42 runs: disk at 257; square, 1x0.5 rectangle, ellipse and
stadium at 129; 16 annuli at 97; one and two starts). The loop stops
when the density reproduces itself node-for-node or the quotient stalls.

Alternation converges to a fixed point, not provably to the global
minimum; ``optimize``'s ``restarts`` reruns the loop from randomized
admissible densities drawn from ``seed``, and keeps the best quotient
found.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass, replace

import numpy as np

from .eigensolver import _quotient, principal_pair
from .fields import ScalarField
from .geometry import _integer, build_grid
from .poisson import assemble_laplacian
from .rearrange import DensityField, optimal_density, uniform_density

THETA_TOL = 1e-8  # relative quotient change at which the alternation stops
MAX_OUTER = 200  # outer steps after which the alternation stops


class OptimizeError(ValueError):
    """Invalid optimizer starts."""


def _check_starts(restarts, seed):
    """The one check of ``optimize``'s starts: ``restarts`` an integer of
    at least 1, ``seed`` a non-negative integer."""
    if _integer(restarts, "restarts", OptimizeError) < 1:
        raise OptimizeError("restarts must be at least 1, got %r" % (restarts,))
    if _integer(seed, "seed", OptimizeError) < 0:
        raise OptimizeError("seed must be non-negative, got %r" % (seed,))


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


@dataclass(frozen=True)
class SolveReport:
    theta_history: tuple
    inner_iterations: tuple
    mass_errors: tuple
    termination: str
    outer_iterations: int
    wall_time: float
    restart_thetas: tuple


def optimize(spec, nodes_per_side, h, H, M, restarts=1, seed=0):
    """Run the alternating scheme; returns the best (pair, report) found.

    Builds the grid of ``spec`` at ``nodes_per_side`` and its operator.
    The first start is the uniform admissible density; the other
    ``restarts - 1`` are randomized threshold densities drawn from
    ``seed``, each when its turn comes. All calls on a grid
    ``build_grid`` keeps share it and its operator: its starts, and any
    later ``optimize`` on the same ``spec`` and size, reuse one matrix and
    one factorization. Which grids stay kept, and so how many
    factorizations stay alive, is ``build_grid``'s policy.
    """
    _check_starts(restarts, seed)
    grid = build_grid(spec, nodes_per_side)
    op = assemble_laplacian(grid)

    def eigensolve(rho, u0):
        return principal_pair(op, rho, u0=u0)

    rng = np.random.default_rng(seed)
    drawn = (optimal_density(ScalarField(grid, rng.uniform(0.5, 1.5, grid.n)), h, H, M)[0]
             for _ in range(restarts - 1))

    best = None
    thetas = []
    for rho0 in itertools.chain([uniform_density(grid, h, H, M)], drawn):
        pair, report = _alternate(rho0, eigensolve)
        thetas.append(pair.theta)
        if best is None or pair.theta < best[0].theta:
            best = (pair, report)
    pair, report = best
    return pair, replace(report, restart_thetas=tuple(thetas))


def _alternate(rho, eigensolve):
    """The alternation's control, shared by ``optimize`` and ``radial_optimize``.

    From the start ``rho``, a ``DensityField`` on the path's grid, it runs
    the bathtub (``optimal_density``) and the mass error on that grid; the
    path passes only ``eigensolve(rho, u0) -> EigenResult``, warm-started
    from the last u (None at first). It stops after ``MAX_OUTER`` steps, or
    once the quotient moves by at most ``THETA_TOL`` of itself; both are
    read when it runs. Returns the last eigensolve's u and v and the last
    bathtub's rho and t as an ``OptimalPair``, its theta the quotient at
    that rho, and a report with no restart thetas.
    """
    t0 = time.perf_counter()
    theta_history = []
    inner_iterations = []
    mass_errors = []
    termination = "max-outer"
    u = None
    for _ in range(MAX_OUTER):
        eig = eigensolve(rho, u)
        u = eig.u
        theta_history.append(eig.theta)
        inner_iterations.append(eig.iterations)
        mass_errors.append(abs(rho.grid._integral(rho.values) - rho.M))
        rho_prev = rho
        rho, t = optimal_density(u, rho.h, rho.H, rho.M)
        if np.array_equal(rho.values, rho_prev.values):
            termination = "rho-fixed"
            break
        tol = THETA_TOL * abs(eig.theta)
        if len(theta_history) >= 2 and abs(eig.theta - theta_history[-2]) <= tol:
            termination = "theta-converged"
            break

    report = SolveReport(
        theta_history=tuple(theta_history),
        inner_iterations=tuple(inner_iterations),
        mass_errors=tuple(mass_errors),
        termination=termination,
        outer_iterations=len(theta_history),
        wall_time=time.perf_counter() - t0,
        restart_thetas=(),
    )
    theta = _quotient(u.values, eig.v.values, rho.values, rho.grid)  # at the returned rho
    return OptimalPair(u=u, v=eig.v, rho=rho, theta=theta, t=t), report
