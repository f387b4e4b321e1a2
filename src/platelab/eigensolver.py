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
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fields import ScalarField
from .plate import solve_navier
from .poisson import GridMismatchError

DEFAULT_TOL = 1e-9
DEFAULT_MAX_ITER = 10000


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
    """Inverse power iteration for the principal pair at fixed density.

    Starts from the positive constant unless a ``ScalarField`` ``u0`` is
    given (warm starts from a previous outer iterate). Stops when the
    relative quotient increment falls below ``tol``.
    """
    if rho.grid.tag != op.grid_tag:
        raise GridMismatchError("density grid does not match operator grid")
    if not (0.0 < tol <= 1e-6):
        raise ValueError("tol must be in (0, 1e-6], got %r" % (tol,))
    grid = rho.grid
    cell = grid.cell_area

    if u0 is None:
        u = np.ones(grid.n)
    else:
        u = u0.values
        if u.shape != (grid.n,) or np.any(u <= 0.0):
            raise ValueError("u0 must be a strictly positive field on the grid")
        u = u / np.max(np.abs(u))

    history = []
    theta_prev = None
    for it in range(1, max_iter + 1):
        f = ScalarField(grid, rho.values * u)
        u_field, v_field = solve_navier(op, f)
        w = u_field.values
        if np.any(w <= 0.0):
            raise EigenError("iterate lost positivity", iterations=it)
        scale = np.max(np.abs(w))
        u = w / scale
        v = v_field.values / scale
        num = float(np.sum(v * v)) * cell
        den = float(np.sum(rho.values * u * u)) * cell
        theta = num / den
        history.append(theta)
        if theta_prev is not None and abs(theta - theta_prev) <= tol * theta:
            break
        theta_prev = theta
    else:
        raise EigenError(
            "no convergence in %d iterations (last theta %.12g)"
            % (max_iter, history[-1] if history else float("nan")),
            last_theta=history[-1] if history else None,
            iterations=max_iter,
        )

    # final normalization: unit weighted norm
    c = np.sqrt(float(np.sum(rho.values * u * u)) * cell)
    u_out = ScalarField(grid, u / c)
    v_out = ScalarField(grid, v / c)
    if np.any(u_out.values <= 0.0) or np.any(v_out.values <= 0.0):
        raise EigenError("converged pair is not strictly positive")
    return EigenResult(
        theta=theta,
        u=u_out,
        v=v_out,
        iterations=it,
        theta_history=tuple(history),
    )
