"""Principal eigenpair of the weighted hinged-plate problem.

For a fixed admissible density the smallest eigenvalue of
``lap^2 u = theta * rho * u`` (hinged conditions) is found by inverse
power iteration on the two-solve biharmonic map. The map is
positivity-preserving, so the principal pair is simple and the iterates
stay strictly positive; the quotient decreases monotonically along the
iteration.

Iterates are normalized in the sup norm, which keeps the whole iteration
exactly scale-covariant: doubling rho halves every reported quotient
bitwise. The converged pair is rescaled at the end so the weighted norm
``sum(rho u^2) d^2`` equals one.

Power iteration contracts by about theta_1/theta_2 per step, which nears
1 on thin annuli. After each step the loop reads the contraction
``q = d_k / d_{k-1}`` of its quotient increments; once
``log(tol theta / d_k) / log q`` predicts more than ``KRYLOV_AFTER``
further steps, it hands its iterate to ARPACK (``eigs``, one eigenvalue
of largest magnitude) on the same map, with a fixed subspace size and
tolerance. One closure applies the map through ``solve_navier`` and
counts it, for every power step, every ARPACK product and the closing
step that maps the sign-fixed Ritz vector to the returned (u, v);
``max_iter`` caps that count. The pair's eigen-residual
``||theta_l A^-2 rho x - x|| / ||x||`` with
``theta_l = <x, x> / <x, A^-2 rho x>`` must be below ``KRYLOV_RESIDUAL``.
Where the increments contract fast (disks, squares, thick annuli) the
switch never fires and the result is the power loop's, bitwise.

The reported theta is the energy quotient ``sum(v^2) / sum(rho u^2)``.
The Shortley-Weller operator is not symmetric, so that quotient is not
the eigenvalue theta_l of ``A^2 u = theta rho u``, even for an exact
eigenvector: on converged threshold pairs at grid 97 the two differ by
7.3e-6 (annulus a = 0.05), 3.4e-5 (a = 0.5) and 4.7e-5 (a = 0.85), while
the eigenvector's own residual is about 1e-15. A residual
``||theta A^-2 rho u - u|| / ||u||`` taken with the energy quotient
cannot fall below that gap, so it does not measure under-resolution;
the residual taken with theta_l does.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.sparse.linalg import ArpackNoConvergence, LinearOperator, eigs

from .fields import ScalarField
from .geometry import _integer
from .plate import solve_navier
from .poisson import GridMismatchError

DEFAULT_TOL = 1e-9
DEFAULT_MAX_ITER = 10000
# Hand-off to ARPACK: more predicted power steps than KRYLOV_AFTER switch
# to eigs with subspace size KRYLOV_NCV and tolerance KRYLOV_TOL, and its
# pair must meet the eigen-residual bound KRYLOV_RESIDUAL. A hand-off
# costs about 40 map applications; the prediction, read off early
# increments, undershoots on a crawl, so 20 is the switch point. The disk
# at grid 257 and the squares and rectangles at grid 129 predict at most
# about 4 further steps, so they never switch.
KRYLOV_AFTER = 20
KRYLOV_NCV = 12
KRYLOV_TOL = 1e-10
KRYLOV_RESIDUAL = 1e-9


class EigenError(RuntimeError):
    def __init__(self, message, last_theta=None, iterations=None):
        super().__init__(message)
        self.last_theta = last_theta
        self.iterations = iterations


@dataclass(frozen=True)
class EigenResult:
    theta: float
    u: ScalarField
    v: ScalarField
    iterations: int
    theta_history: tuple


def rayleigh_quotient(u, v, rho):
    """Discrete quotient ``sum(v^2) / sum(rho u^2)`` (node sums times d^2)."""
    if u.grid.tag != v.grid.tag or u.grid.tag != rho.grid.tag:
        raise GridMismatchError("fields and density live on different grids")
    cell = u.grid.cell_area
    den = float(np.sum(rho.values * u.values * u.values)) * cell
    if den == 0.0:
        raise ZeroDivisionError("zero weighted norm in Rayleigh quotient")
    num = float(np.sum(v.values * v.values)) * cell
    return num / den


def principal_pair(op, rho, tol=DEFAULT_TOL, max_iter=DEFAULT_MAX_ITER, u0=None):
    """Principal pair at fixed density: power iteration, then Krylov if it crawls.

    Starts from the positive constant unless a ``ScalarField`` ``u0`` is
    given (warm starts from a previous outer iterate). Stops when the
    relative quotient increment falls below ``tol``, or hands the iterate
    to ``eigs`` once the observed contraction predicts more than
    ``KRYLOV_AFTER`` further steps. ``iterations`` counts applications of
    the two-solve map over both phases, and ``max_iter`` caps every one,
    the closing application after ``eigs`` included.
    """
    if not (0.0 < tol <= 1e-6):
        raise ValueError("tol must be in (0, 1e-6], got %r" % (tol,))
    max_iter = _integer(max_iter, "max_iter", ValueError)
    grid = rho.grid

    if u0 is None:
        u = np.ones(grid.n)
    else:
        u = u0.values
        if u.shape != (grid.n,) or np.any(u <= 0.0):
            raise ValueError("u0 must be a strictly positive field on the grid")
        u = u / np.max(np.abs(u))

    history = []
    calls = 0

    def fail(message):
        return EigenError(message, last_theta=history[-1] if history else None, iterations=calls)

    def apply(x):
        nonlocal calls
        if calls >= max_iter:
            raise fail("no convergence in %d iterations (last theta %.12g)"
                       % (max_iter, history[-1] if history else math.nan))
        calls += 1
        return solve_navier(op, ScalarField(grid, rho.values * x))

    theta_prev = step_prev = None
    while True:
        u_field, v_field = apply(u)
        if np.any(u_field.values <= 0.0):
            raise fail("iterate lost positivity")
        u, v, theta = _scaled(u_field, v_field, rho)
        history.append(theta)
        if theta_prev is not None:
            step = abs(theta - theta_prev)
            if step <= tol * theta:
                break
            # ARPACK needs a subspace smaller than the problem
            if grid.n > KRYLOV_NCV and _crawls(step, step_prev, tol * theta):
                a = LinearOperator((grid.n,) * 2, matvec=lambda x: apply(x)[0].values, dtype=float)
                try:
                    _, vecs = eigs(a, k=1, which="LM", v0=u, ncv=KRYLOV_NCV, tol=KRYLOV_TOL)
                except ArpackNoConvergence as exc:
                    raise fail("Krylov eigensolve did not converge: %s" % exc) from exc
                x = vecs[:, 0].real
                if np.sum(x) < 0.0:
                    x = -x
                u_field, v_field = apply(x)
                w = u_field.values
                theta_l = float(x @ x) / float(x @ w)
                residual = float(np.linalg.norm(theta_l * w - x) / np.linalg.norm(x))
                if not residual <= KRYLOV_RESIDUAL:
                    raise fail("Krylov eigen-residual %.3e exceeds %.0e"
                               % (residual, KRYLOV_RESIDUAL))
                if np.any(w <= 0.0):
                    raise fail("Krylov eigenvector is not strictly positive")
                u, v, theta = _scaled(u_field, v_field, rho)
                history.append(theta)
                break
            step_prev = step
        theta_prev = theta

    # final normalization: unit weighted norm
    c = np.sqrt(float(np.sum(rho.values * u * u)) * grid.cell_area)
    u_out = ScalarField(grid, u / c)
    v_out = ScalarField(grid, v / c)
    if np.any(u_out.values <= 0.0) or np.any(v_out.values <= 0.0):
        raise fail("converged pair is not strictly positive")
    return EigenResult(
        theta=theta,
        u=u_out,
        v=v_out,
        iterations=calls,
        theta_history=tuple(history),
    )


def _scaled(u_field, v_field, rho):
    """``(u, v)`` of one map application scaled to ``max|u| = 1``, and
    their energy quotient."""
    cell = rho.grid.cell_area
    scale = np.max(np.abs(u_field.values))
    u = u_field.values / scale
    v = v_field.values / scale
    num = float(np.sum(v * v)) * cell
    den = float(np.sum(rho.values * u * u)) * cell
    return u, v, num / den


def _crawls(step, step_prev, target):
    """Whether increments contracting from ``step_prev`` to ``step`` need
    more than ``KRYLOV_AFTER`` further steps to fall to ``target``."""
    if step_prev is None or not step < step_prev:
        return False
    return math.log(target / step) / math.log(step / step_prev) > KRYLOV_AFTER

