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
bitwise. ``_principal`` rescales the converged pair to unit weighted
norm ``sum(rho u^2)`` on the density it solved at, on both paths.

Power iteration stops once the quotient increment d_k is at most
``DEFAULT_TOL`` theta. It contracts by about theta_1/theta_2 per step,
which nears 1 on thin annuli. After each step the loop reads the
contraction ``q = d_k / d_{k-1}`` of its quotient increments; once
``log(DEFAULT_TOL theta / d_k) / log q`` predicts more than ``KRYLOV_AFTER``
further steps, it hands its iterate to a short Arnoldi loop on the same
map (``_arnoldi``), which tests its dominant Ritz pair after every map
and stops on the map where the pair converges. One counted closure
applies the map for every power step, every Arnoldi step and the closing
step that maps the Ritz vector, sign-fixed and clipped at 0, to (u, v);
``DEFAULT_MAX_ITER`` caps that count in every eigensolve. This loop,
``_principal``, is the eigensolve of both paths, each passing its own
map and its density, which gives the quotient. The closing map must be
positive, and the residual ``||theta_l A^-2 rho x - x|| / ||x||`` with
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
from .plate import solve_navier
from .poisson import _check_grid

DEFAULT_TOL = 1e-11
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


def _quotient(u, v, rho, grid):
    """``sum(v^2) / sum(rho u^2)`` over node arrays, each a weighted node
    sum of ``grid`` (a lattice or a radial grid)."""
    den = grid._integral(rho * u * u)
    if den == 0.0:
        raise ZeroDivisionError("zero weighted norm in Rayleigh quotient")
    return grid._integral(v * v) / den


def principal_pair(op, rho, u0=None):
    """Principal pair at fixed density: power iteration, then Arnoldi if it crawls.

    Starts from the positive constant unless a ``ScalarField`` ``u0`` is
    given (warm starts from a previous outer iterate). Stops when the
    relative quotient increment falls below ``DEFAULT_TOL``, or hands the
    iterate to ``_arnoldi`` once the observed contraction predicts more
    than ``KRYLOV_AFTER`` further steps. ``iterations`` counts
    applications of the two-solve map over both phases, and
    ``DEFAULT_MAX_ITER`` caps every one, the closing application after the
    Arnoldi loop included.
    """
    _check_grid(op, rho)
    if u0 is not None:
        _check_grid(op, u0)
        if np.any(u0.values <= 0.0):
            raise ValueError("u0 must be a strictly positive field")

    def apply(x):
        u_field, v_field = solve_navier(op, ScalarField(rho.grid, rho.values * x))
        return u_field.values, v_field.values

    return _principal(apply, rho, u0)


def _principal(apply, rho, u0):
    """The eigen-iteration of both paths, over node arrays, from ``u0``'s
    values or, if ``u0`` is None, the ones: ``apply(x)`` gives the
    two-solve map's ``(A^-1 A^-1 rho x, A^-1 rho x)``, and the density
    ``rho`` (its values and its grid) the energy quotient.
    ``DEFAULT_TOL`` and ``DEFAULT_MAX_ITER``, read at call time, set the
    stopping tolerance and cap the maps applied. Returns the
    ``EigenResult``, its u and v of unit weighted norm on ``rho``."""
    u = np.ones(rho.grid.n) if u0 is None else u0.values
    u = u / np.max(np.abs(u))
    history = []
    calls = 0

    def fail(message):
        return EigenError(message, last_theta=history[-1] if history else None, iterations=calls)

    def counted(x):
        nonlocal calls
        if calls >= DEFAULT_MAX_ITER:
            raise fail("no convergence in %d iterations (last theta %.12g)"
                       % (DEFAULT_MAX_ITER, history[-1] if history else math.nan))
        calls += 1
        return apply(x)

    def scaled(w, v):
        scale = np.max(np.abs(w))
        u, v = w / scale, v / scale
        history.append(_quotient(u, v, rho.values, rho.grid))
        return u, v, history[-1]

    theta_prev = step_prev = None
    while True:
        w, v = counted(u)
        if np.any(w <= 0.0):
            raise fail("iterate lost positivity")
        u, v, theta = scaled(w, v)
        if theta_prev is not None:
            step = abs(theta - theta_prev)
            if step <= DEFAULT_TOL * theta:
                break
            if _crawls(step, step_prev, DEFAULT_TOL * theta):
                x = _arnoldi(lambda y: counted(y)[0], u)
                if np.sum(x) < 0.0:
                    x = -x
                # a localized vector is rounding noise of either sign where it
                # decays; the LU of the M-matrix A, pivots on the diagonal,
                # substitutes a nonnegative x by adding nonnegative terms only
                x = np.maximum(x, 0.0)
                w, v = counted(x)
                if np.any(w <= 0.0):
                    raise fail("Krylov eigenvector is not strictly positive")
                theta_l = float(x @ x) / float(x @ w)
                residual = float(np.linalg.norm(theta_l * w - x) / np.linalg.norm(x))
                if not residual <= KRYLOV_RESIDUAL:
                    raise fail("Krylov eigen-residual %.3e exceeds %.0e"
                               % (residual, KRYLOV_RESIDUAL))
                u, v, theta = scaled(w, v)
                break
            step_prev = step
        theta_prev = theta

    if np.any(u <= 0.0) or np.any(v <= 0.0):
        raise fail("converged pair is not strictly positive")
    c = np.sqrt(rho.grid._integral(rho.values * u * u))
    u, v = ScalarField(rho.grid, u / c), ScalarField(rho.grid, v / c)
    return EigenResult(theta=theta, u=u, v=v, iterations=calls, theta_history=tuple(history))


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

