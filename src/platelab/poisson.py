"""Embedded-boundary discrete Laplacian with homogeneous Dirichlet data.

This is the only PDE kernel in the package: the fourth-order problem is
always solved as two chained second-order solves (see ``plate``).

The stencil is the Shortley-Weller cut-cell form. In the x-direction at a
node with cut fractions ``tE``, ``tW`` (distance to the boundary in units
of the spacing, 1 for full links):

    (2/d^2) * [ u_P/(tE*tW) - u_E/(tE*(tE+tW)) - u_W/(tW*(tE+tW)) ]

with boundary values zero, and the same in y. For ``tE = tW = 1`` this is
the standard 5-point stencil. The matrix is an irreducible M-matrix, which
gives the discrete maximum principle the verification suite leans on.

A grid's memo is the one owner of its matrix and of the matrix's sparse
LU factorization: the first operator over the grid assembles the matrix
into it, the first solve factorizes it there, and every operator over
the grid reads both from it. An operator is only ever built over a grid.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .fields import ScalarField
from .geometry import EAST, NORTH, SOUTH, WEST

DEFAULT_REL_TOL = 1e-10


class SolveError(RuntimeError):
    """Linear solve failed to reach the requested residual."""

    def __init__(self, message, achieved=None):
        super().__init__(message)
        self.achieved = achieved


class GridMismatchError(ValueError):
    pass


class DiscreteLaplacian:
    """CSR operator over a grid's interior nodes, plus solver plumbing;
    its matrix and the matrix's factorization live in the grid's memo."""

    def __init__(self, grid):
        self.grid = grid
        self.n = grid.n
        self.has_cut = bool(np.any(grid.theta < 1.0))
        memo = grid._memo
        if "matrix" not in memo:
            memo["matrix"] = _assembled(grid)
        self._csr = memo["matrix"]

    def matvec(self, values):
        return self._csr @ values

    def _factorization(self):
        memo = self.grid._memo
        if "lu" not in memo:
            # the stencil pattern is symmetric even where the cut-cell
            # values are not, so a minimum-degree ordering of A^T + A
            # keeps the fill, and with it the memory, well below COLAMD's.
            # Symmetric mode changes only the column order SuperLU derives
            # from it: the pivots stay on the diagonal (A is a diagonally
            # dominant M-matrix) and the fill is the same, but the solves
            # on cut grids run 15-38 % faster (README, "Linear solves")
            memo["lu"] = spla.splu(self._csr.tocsc(), permc_spec="MMD_AT_PLUS_A", panel_size=1,
                                   options={"SymmetricMode": True})
        return memo["lu"]


def _diag_positions(indptr, indices):
    n = indptr.shape[0] - 1
    rows = np.repeat(np.arange(n, dtype=np.int64), np.diff(indptr))
    pos = np.flatnonzero(indices == rows)
    if pos.shape[0] != n:
        raise ValueError("operator is missing diagonal entries")
    return pos


def assemble_laplacian(grid):
    """The Shortley-Weller operator for a grid.

    The matrix is assembled, and its M-matrix sign pattern and row
    dominance (strict on boundary-adjacent rows) asserted row by row, once
    per grid and memoized on it: every operator on the grid is a new
    ``DiscreteLaplacian`` over that matrix and, after the first solve, its
    factorization. The memo holds no operator, so no reference cycle keeps
    a grid and its factorization alive: they live as long as
    ``build_grid`` keeps the grid (see its policy) or a caller holds it.
    """
    return DiscreteLaplacian(grid)


def _assembled(grid):
    n = grid.n
    d2 = grid.delta * grid.delta
    tw = grid.theta[:, WEST]
    te = grid.theta[:, EAST]
    ts = grid.theta[:, SOUTH]
    tn = grid.theta[:, NORTH]

    diag = (2.0 / d2) * (1.0 / (te * tw) + 1.0 / (tn * ts))
    coef = np.empty((n, 4))
    coef[:, WEST] = -(2.0 / d2) / (tw * (te + tw))
    coef[:, EAST] = -(2.0 / d2) / (te * (te + tw))
    coef[:, SOUTH] = -(2.0 / d2) / (ts * (tn + ts))
    coef[:, NORTH] = -(2.0 / d2) / (tn * (tn + ts))

    rows = [np.arange(n, dtype=np.int64)]
    cols = [np.arange(n, dtype=np.int64)]
    vals = [diag]
    for d in (WEST, EAST, SOUTH, NORTH):
        have = grid.neighbor[:, d] >= 0
        rows.append(np.flatnonzero(have).astype(np.int64))
        cols.append(grid.neighbor[have, d])
        vals.append(coef[have, d])
    mat = sp.csr_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(n, n),
    )
    mat.sum_duplicates()
    mat.sort_indices()

    _assert_m_matrix(grid, mat)
    return mat


def _assert_m_matrix(grid, mat):
    pos = _diag_positions(mat.indptr, mat.indices)
    diag = mat.data[pos]
    off = mat.data.copy()
    off[pos] = 0.0
    if off.size and off.max() > 0.0:
        bad = np.searchsorted(mat.indptr, int(np.argmax(off)), side="right") - 1
        raise AssertionError("positive off-diagonal in row %d" % bad)
    offdiag_sum = -np.add.reduceat(off, mat.indptr[:-1])
    if np.any(diag <= 0.0):
        raise AssertionError("non-positive diagonal entry")
    if np.any(diag + 1e-12 * diag < offdiag_sum):
        raise AssertionError("row diagonal dominance violated")
    adjacent = grid.boundary_adjacent_mask()
    if not np.all(diag[adjacent] > offdiag_sum[adjacent]):
        raise AssertionError("boundary-adjacent row not strictly dominant")


def solve_dirichlet(op, f):
    """Solve ``A w = f`` to ``||A w - f|| <= DEFAULT_REL_TOL * ||f||``.

    Every operator goes through its cached sparse LU factorization; the
    residual contract is verified on the true residual, and the solve is
    deterministic.
    """
    _check_grid(op, f)
    b = f.values
    b_norm = float(np.linalg.norm(b))
    if b_norm == 0.0:
        return ScalarField(f.grid, np.zeros(op.n))

    lu = op._factorization()
    x = lu.solve(b)
    res = float(np.linalg.norm(op.matvec(x) - b))
    # ``not <=`` so that a NaN residual fails both tests
    if not res <= DEFAULT_REL_TOL * b_norm:
        # one step of iterative refinement; direct solves land far below
        # the contract, so needing more than this indicates a real problem
        x = x + lu.solve(b - op.matvec(x))
        res = float(np.linalg.norm(op.matvec(x) - b))
        if not res <= DEFAULT_REL_TOL * b_norm:
            raise SolveError(
                "direct solve residual %.3e exceeds %.0e" % (res / b_norm, DEFAULT_REL_TOL),
                achieved=res / b_norm,
            )
    return ScalarField(f.grid, x)


def _check_grid(op, field):
    if field.grid.tag != op.grid.tag:
        raise GridMismatchError(
            "field grid %s does not match operator grid %s"
            % (field.grid.tag, op.grid.tag)
        )
