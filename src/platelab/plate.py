"""Hinged-plate (Navier) biharmonic solves as two chained Poisson solves.

``lap^2 u = f`` with ``u = lap u = 0`` on the boundary splits into
``-lap v = f`` and ``-lap u = v``, both with zero Dirichlet data. On the
smooth and convex domains built into this package the split problem and
the fourth-order weak problem have the same solution; the discretization
commits to the split form everywhere, and reports record that choice.
"""

from __future__ import annotations

from .poisson import solve_dirichlet

FORMULATION = "second-order-system"


def solve_navier(op, f):
    """Return ``(u, v)`` with ``v`` the discrete ``-lap u`` and ``lap^2 u = f``."""
    v = solve_dirichlet(op, f)
    u = solve_dirichlet(op, v)
    return u, v
