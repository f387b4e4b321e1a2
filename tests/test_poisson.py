import numpy as np
import pytest
import scipy.sparse.linalg as spla

import platelab as pl
from platelab.fields import ScalarField
from platelab.poisson import GridMismatchError, SolveError, solve_dirichlet
from conftest import make_strip_grid


class TestAssembly:
    def test_interior_node_standard_stencil(self):
        g = pl.build_grid(pl.unit_square(), 5)  # delta = 0.25
        op = pl.assemble_laplacian(g)
        mat = op._csr.toarray()
        center = 4  # row-major middle of the 3x3 interior
        assert mat[center, center] == pytest.approx(64.0)
        off = np.sort(mat[center][mat[center] != 0.0])[:4]
        assert np.allclose(off, [-16.0, -16.0, -16.0, -16.0])

    def test_cut_node_shortley_weller_coefficients(self):
        g = make_strip_grid(2, 0.1)
        # give node 1 an eastern cut fraction of 0.5
        g.theta[1, 1] = 0.5
        op = pl.assemble_laplacian(g)
        mat = op._csr.toarray()
        d2 = 0.1 * 0.1
        # x-direction part of the diagonal: 2/(d^2 * thetaE * thetaW)
        x_diag = mat[1, 1] - 2.0 / d2  # remove the y-direction part
        assert x_diag == pytest.approx(2.0 / (d2 * 0.5 * 1.0))
        assert x_diag == pytest.approx(400.0)
        assert mat[1, 0] == pytest.approx(-2.0 / (d2 * 1.0 * 1.5))
        assert mat[1, 0] == pytest.approx(-133.3333333333, rel=1e-9)

    def test_square_operator_is_symmetric(self):
        g = pl.build_grid(pl.unit_square(), 17)
        op = pl.assemble_laplacian(g)
        mat = op._csr
        assert not op.has_cut
        assert abs(mat - mat.T).max() == 0.0

    def test_curved_operator_not_symmetric_but_structurally_paired(self):
        g = pl.build_grid(pl.disk(1.0), 33)
        op = pl.assemble_laplacian(g)
        mat = op._csr
        assert op.has_cut
        assert abs(mat - mat.T).max() > 0.0
        pattern = (mat != 0).astype(int)
        assert abs(pattern - pattern.T).max() == 0


class TestSolve:
    def test_square_manufactured_sine(self):
        g = pl.build_grid(pl.unit_square(), 65)
        op = pl.assemble_laplacian(g)
        f = ScalarField(g, 2 * np.pi**2 * np.sin(np.pi * g.node_x) * np.sin(np.pi * g.node_y))
        w = solve_dirichlet(op, f)
        exact = np.sin(np.pi * g.node_x) * np.sin(np.pi * g.node_y)
        assert np.max(np.abs(w.values - exact)) < 4.0 * g.delta**2

    def test_disk_quadratic_is_exact(self):
        g = pl.build_grid(pl.disk(1.0), 65)
        op = pl.assemble_laplacian(g)
        w = solve_dirichlet(op, ScalarField(g, np.full(g.n, 4.0)))
        exact = 1.0 - (g.node_x**2 + g.node_y**2)
        # the cut stencil differentiates quadratics exactly; only solver
        # tolerance remains
        assert np.max(np.abs(w.values - exact)) < 1e-9

    @staticmethod
    def _disk_quartic_error(nps):
        g = pl.build_grid(pl.disk(1.0), nps)
        op = pl.assemble_laplacian(g)
        f = ScalarField(g, 16.0 * (g.node_x**2 + g.node_y**2))
        w = solve_dirichlet(op, f)
        exact = 1.0 - (g.node_x**2 + g.node_y**2) ** 2
        return np.max(np.abs(w.values - exact))

    def test_disk_quartic_second_order(self):
        ratio = self._disk_quartic_error(65) / self._disk_quartic_error(129)
        assert 3.2 < ratio < 4.8

    def test_square_sine_second_order(self):
        def err(nps):
            g = pl.build_grid(pl.unit_square(), nps)
            op = pl.assemble_laplacian(g)
            f = ScalarField(g, 2 * np.pi**2 * np.sin(np.pi * g.node_x) * np.sin(np.pi * g.node_y))
            w = solve_dirichlet(op, f)
            exact = np.sin(np.pi * g.node_x) * np.sin(np.pi * g.node_y)
            return np.max(np.abs(w.values - exact))

        ratio = err(33) / err(65)
        assert 3.2 < ratio < 4.8

    @pytest.mark.parametrize("spec,nps", [(pl.disk(1.0), 33), (pl.unit_square(), 33)])
    def test_deterministic_bitwise(self, spec, nps):
        # one factorization per operator, reused: cut (disk) and uncut (square)
        g = pl.build_grid(spec, nps)
        op = pl.assemble_laplacian(g)
        f = ScalarField(g, np.exp(g.node_x) + g.node_y)
        w1 = solve_dirichlet(op, f)
        w2 = solve_dirichlet(op, f)
        assert np.array_equal(w1.values, w2.values)

    def test_nonconvergence_reports_residual(self, monkeypatch):
        g = pl.build_grid(pl.unit_square(), 9)
        op = pl.assemble_laplacian(g)

        class Wrong:
            def solve(self, b):
                return np.zeros_like(b)

        monkeypatch.setitem(g._memo, "lu", Wrong())
        with pytest.raises(SolveError) as err:
            solve_dirichlet(op, ScalarField(g, np.ones(g.n)))
        assert err.value.achieved == pytest.approx(1.0)

    def test_nan_solution_reports_residual(self, monkeypatch):
        # a NaN residual passed both ``res > tol`` tests and returned the NaN
        g = pl.build_grid(pl.unit_square(), 9)
        op = pl.assemble_laplacian(g)

        class Nan:
            def solve(self, b):
                return np.full_like(b, np.nan)

        monkeypatch.setitem(g._memo, "lu", Nan())
        with pytest.raises(SolveError) as err:
            solve_dirichlet(op, ScalarField(g, np.ones(g.n)))
        assert np.isnan(err.value.achieved)

    def test_uncut_grid_reuses_cached_factorization(self, monkeypatch):
        g = pl.build_grid(pl.unit_square(), 17)
        op = pl.assemble_laplacian(g)
        f = ScalarField(g, np.ones(g.n))
        w1 = solve_dirichlet(op, f)
        lu = g._memo["lu"]

        def refactor(*args, **kwargs):
            raise AssertionError("operator factorized twice")

        monkeypatch.setattr(spla, "splu", refactor)
        w2 = solve_dirichlet(op, f)
        assert g._memo["lu"] is lu
        assert np.array_equal(w1.values, w2.values)


class TestFactorization:
    """The memo's LU is taken in SuperLU's symmetric mode (see
    ``DiscreteLaplacian._factorization``): its pivots stay on the diagonal,
    and it fills exactly as the unsymmetric-mode factorization of the same
    ordering, which is kept here as the reference."""

    @pytest.mark.parametrize("spec,nps", [
        (pl.disk(1.0), 41), (pl.unit_square(), 33), (pl.rectangle(1.0, 0.5), 33),
        (pl.ellipse(1.0, 0.6), 49), (pl.stadium(1.0, 0.5), 41), (pl.annulus(0.12, 1.0), 41),
        (pl.annulus(0.5, 1.0), 33), (pl.annulus(0.85, 1.0), 49),
    ], ids=["disk", "square", "rectangle", "ellipse", "stadium", "annulus-0.12",
            "annulus-0.5", "annulus-0.85"])
    def test_pivots_stay_diagonal_with_the_reference_fill(self, spec, nps):
        g = pl.build_grid(spec, nps)
        op = pl.assemble_laplacian(g)
        solve_dirichlet(op, ScalarField(g, np.ones(g.n)))
        lu = g._memo["lu"]
        assert np.array_equal(lu.perm_r, lu.perm_c)
        reference = spla.splu(op._csr.tocsc(), permc_spec="MMD_AT_PLUS_A", panel_size=1)
        assert lu.L.nnz + lu.U.nnz == reference.L.nnz + reference.U.nnz
        # only the column order moves: symmetric mode is on
        assert not np.array_equal(lu.perm_c, reference.perm_c)


class TestMaximumPrinciple:
    @pytest.mark.parametrize("spec,nps", [(pl.disk(1.0), 33), (pl.unit_square(), 17)])
    def test_nonnegative_data_gives_nonnegative_solution(self, spec, nps):
        g = pl.build_grid(spec, nps)
        op = pl.assemble_laplacian(g)
        rng = np.random.default_rng(7)
        for _ in range(100):
            f = ScalarField(g, rng.uniform(0.0, 1.0, g.n))
            w = solve_dirichlet(op, f)
            assert (w.values >= 0.0).all()

    @pytest.mark.parametrize("spec,nps", [(pl.disk(1.0), 33), (pl.unit_square(), 17)])
    def test_strict_positivity_from_single_source(self, spec, nps):
        g = pl.build_grid(spec, nps)
        op = pl.assemble_laplacian(g)
        f = np.zeros(g.n)
        f[g.n // 2] = 1.0
        w = solve_dirichlet(op, ScalarField(g, f))
        assert (w.values > 0.0).all()


class TestApply:
    def test_zero_right_hand_side_solves_to_zero_unfactorized(self):
        g = pl.build_grid(pl.disk(0.7), 17)
        op = pl.assemble_laplacian(g)
        w = solve_dirichlet(op, ScalarField(g, np.zeros(g.n)))
        assert w.grid is g and np.array_equal(w.values, np.zeros(g.n))
        assert "lu" not in g._memo

    def test_zero_maps_to_zero(self):
        g = pl.build_grid(pl.disk(1.0), 17)
        op = pl.assemble_laplacian(g)
        out = op.matvec(np.zeros(g.n))
        assert (out == 0.0).all()

    def test_roundtrip_identity(self):
        g = pl.build_grid(pl.disk(1.0), 33)
        op = pl.assemble_laplacian(g)
        rng = np.random.default_rng(5)
        f = ScalarField(g, rng.normal(size=g.n))
        rel_tol = 1e-10
        w = solve_dirichlet(op, f)
        back = op.matvec(w.values)
        err = np.linalg.norm(back - f.values)
        assert err <= 10 * rel_tol * np.linalg.norm(f.values)

    def test_power_of_two_linearity_bitwise(self):
        g = pl.build_grid(pl.unit_square(), 17)
        op = pl.assemble_laplacian(g)
        rng = np.random.default_rng(9)
        w = ScalarField(g, rng.normal(size=g.n))
        once = op.matvec(w.values)
        scaled = op.matvec(4.0 * w.values)
        assert np.array_equal(scaled, 4.0 * once)

    def test_grid_mismatch_rejected(self):
        g1 = pl.build_grid(pl.unit_square(), 9)
        g2 = pl.build_grid(pl.unit_square(), 17)
        op = pl.assemble_laplacian(g1)
        with pytest.raises(GridMismatchError):
            solve_dirichlet(op, ScalarField(g2, np.ones(g2.n)))

