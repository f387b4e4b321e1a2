"""Principal eigenpair of the weighted hinged-plate problem.

For a fixed admissible density the smallest eigenvalue of
``lap^2 u = theta * rho * u`` (hinged conditions) is found by inverse
power iteration on the two-solve biharmonic map. The map is
positivity-preserving, so the principal pair is simple and the iterates
stay strictly positive.

Where the operator A is symmetric (grids without boundary cuts), each
step's quotient is the Rayleigh quotient of the pencil (A^2, rho) at an
inverse-iteration iterate, which cannot rise in exact arithmetic; no
power step raised it in the solves of ``optimize`` on the square and the
1x0.5 rectangle at grids 33 and 129. On cut grids A is not symmetric and
the quotient can rise near convergence: in ``optimize`` on
ellipse(1, 0.6) at grid 49 (mass 1.5 area) the cold solve rose in 5 of
its 8 steps, by up to 1.7e-8 relative, and warm solves on the annulus
a = 0.85 at grid 49 rose by up to 1.0e-7.

Iterates are normalized in the sup norm, which keeps the whole iteration
exactly scale-covariant: doubling rho halves every reported quotient
bitwise. The converged pair is rescaled at the end so the weighted norm
``sum(rho u^2) d^2`` equals one.

Power iteration contracts by about theta_1/theta_2 per step, which nears
1 on thin annuli. After each step the loop reads the contraction
``q = d_k / d_{k-1}`` of its quotient increments; once
``log(tol theta / d_k) / log q`` predicts more than ``KRYLOV_AFTER``
further steps, it hands its iterate to a short Arnoldi loop on the same
map (``_arnoldi``), which tests its dominant Ritz pair after every map
and stops on the map where the pair converges. One closure applies the
map through ``solve_navier`` and counts it, for every power step, every
Arnoldi step and the closing step that maps the sign-fixed Ritz vector
to the returned (u, v); ``max_iter`` caps that count. The pair's
eigen-residual ``||theta_l A^-2 rho x - x|| / ||x||`` with
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

from .fields import ScalarField
from .geometry import _integer, _is_real
from .plate import solve_navier
from .poisson import GridMismatchError

DEFAULT_TOL = 1e-9
DEFAULT_MAX_ITER = 10000
# Hand-off to the Arnoldi loop: more predicted power steps than
# KRYLOV_AFTER switch to it. Its basis holds at most KRYLOV_NCV vectors
# (then it restarts from its Ritz vector), it stops once the dominant
# Ritz pair's residual is at most KRYLOV_TOL * |mu|, and the returned pair
# must meet the eigen-residual bound KRYLOV_RESIDUAL. A hand-off stops on
# the map where it converges: on the 16 annulus rows at grid 97 a cycle
# makes 285 hand-offs, which take 13 maps in the median, 4-39 without a
# restart and at most 64 with one. The prediction, read off
# early increments, undershoots on a crawl, so a switch point of 10 pays;
# the disk at grid 257 and the squares and rectangles at grid 129 predict
# at most about 4 further steps, so they never switch.
KRYLOV_AFTER = 10
KRYLOV_NCV = 40
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
    """Principal pair at fixed density: power iteration, then Arnoldi if it crawls.

    Starts from the positive constant unless a ``ScalarField`` ``u0`` is
    given (warm starts from a previous outer iterate). Stops when the
    relative quotient increment falls below ``tol``, or hands the iterate
    to ``_arnoldi`` once the observed contraction predicts more than
    ``KRYLOV_AFTER`` further steps. ``iterations`` counts applications of
    the two-solve map over both phases, and ``max_iter`` caps every one,
    the closing application after the Arnoldi loop included.
    """
    if not (_is_real(tol) and 0.0 < tol <= 1e-6):
        raise ValueError("tol must be a real in (0, 1e-6], got %r" % (tol,))
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
            if _crawls(step, step_prev, tol * theta):
                x = _arnoldi(lambda y: apply(y)[0].values, u)
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


def _arnoldi(matvec, x):
    """Dominant Ritz vector of ``matvec`` from the start ``x``.

    Arnoldi with classical Gram-Schmidt applied twice (CGS2), in a basis
    ``V`` of at most ``KRYLOV_NCV`` vectors; a full basis restarts from
    its dominant Ritz vector. After every map the dominant eigenpair
    ``(mu, y)`` of the Hessenberg matrix ``H`` is tracked by one solve
    with ``H`` shifted by the last ``mu``: tens of microseconds, where a
    dense ``eig`` of ``H`` costs about as much as one map on a thin grid.
    In the full space ``(mu, V y)`` has the residual
    ``sqrt(|H y - mu y|^2 + |h_{j+1,j} y_j|^2)``. Once that is at most
    ``KRYLOV_TOL |mu|``, or the new vector falls to rounding (an
    invariant subspace, where ``h_{j+1,j}`` is taken as 0), or the basis
    is full, a dense ``eig`` of ``H`` gives the dominant Ritz pair. It is
    returned if ``|h_{j+1,j} y_j| <= KRYLOV_TOL |mu|``, and otherwise
    tracked from there, or restarted from if the basis is full.
    """
    basis = np.empty((KRYLOV_NCV + 1, x.size))
    hess = np.zeros((KRYLOV_NCV + 1, KRYLOV_NCV))
    basis[0] = x / np.linalg.norm(x)
    j = 0
    while True:
        w = matvec(basis[j])
        v = basis[: j + 1]
        h = v @ w
        w = w - h @ v
        h2 = v @ w
        w -= h2 @ v
        h += h2
        hess[: j + 1, j] = h
        beta = np.linalg.norm(w)
        if beta <= np.finfo(float).eps * np.linalg.norm(h):  # rounding: an invariant subspace
            beta = 0.0
        hess[j + 1, j] = beta
        square = hess[: j + 1, : j + 1]
        if j == 0:
            mu, y = square[0, 0], np.ones(1)
        else:
            try:
                y = np.linalg.solve(square - mu * np.eye(j + 1), np.append(y, 0.0))
            except np.linalg.LinAlgError:  # mu is exactly an eigenvalue of H
                y = np.append(y, 0.0)
            y /= np.linalg.norm(y)
            mu = float(y @ square @ y)
        small = np.linalg.norm(square @ y - mu * y)
        full = j + 1 == KRYLOV_NCV
        if math.hypot(small, beta * y[-1]) <= KRYLOV_TOL * abs(mu) or beta == 0.0 or full:
            values, vectors = np.linalg.eig(square)
            k = int(np.argmax(np.abs(values)))
            y = vectors[:, k].real
            mu, y = float(values[k].real), y / np.linalg.norm(y)
            if abs(beta * y[-1]) <= KRYLOV_TOL * abs(mu):
                return y @ v
            if full:
                x = y @ v
                basis[0] = x / np.linalg.norm(x)
                j = 0
                continue
        basis[j + 1] = w / beta
        j += 1


def _crawls(step, step_prev, target):
    """Whether increments contracting from ``step_prev`` to ``step`` need
    more than ``KRYLOV_AFTER`` further steps to fall to ``target``."""
    if step_prev is None or not step < step_prev:
        return False
    return math.log(target / step) / math.log(step / step_prev) > KRYLOV_AFTER

