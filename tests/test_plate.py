import numpy as np
import pytest

import platelab as pl
from platelab.fields import ScalarField
from platelab.plate import solve_navier


class TestSolveNavier:
    def test_square_separable_eigenfunction(self):
        g = pl.build_grid(pl.unit_square(), 65)
        op = pl.assemble_laplacian(g)
        f = ScalarField(g, 4 * np.pi**4 * np.sin(np.pi * g.node_x) * np.sin(np.pi * g.node_y))
        u, v = solve_navier(op, f)
        su = np.sin(np.pi * g.node_x) * np.sin(np.pi * g.node_y)
        assert np.max(np.abs(u.values - su)) < 6.0 * g.delta**2
        assert np.max(np.abs(v.values - 2 * np.pi**2 * su)) < 60.0 * g.delta**2

    def test_disk_unit_load(self):
        g = pl.build_grid(pl.disk(1.0), 129)
        op = pl.assemble_laplacian(g)
        u, v = solve_navier(op, ScalarField(g, np.ones(g.n)))
        r2 = g.node_x**2 + g.node_y**2
        exact_u = (1.0 - r2) * (3.0 - r2) / 64.0
        exact_v = (1.0 - r2) / 4.0
        assert np.max(np.abs(u.values - exact_u)) < 2.0 * g.delta**2
        # v solves a quadratic problem, exact up to solver tolerance
        assert np.max(np.abs(v.values - exact_v)) < 1e-9
        center = int(np.argmin(r2))
        assert u.values[center] == pytest.approx(3.0 / 64.0, rel=1e-3)

    @pytest.mark.parametrize("spec,nps", [(pl.disk(1.0), 33), (pl.unit_square(), 17)])
    def test_positivity_chain(self, spec, nps):
        g = pl.build_grid(spec, nps)
        op = pl.assemble_laplacian(g)
        rng = np.random.default_rng(13)
        for _ in range(20):
            f = rng.uniform(0.0, 1.0, g.n)
            f[rng.integers(0, g.n)] = 1.0  # keep it nonzero
            u, v = solve_navier(op, ScalarField(g, f))
            assert (v.values > 0.0).all()
            assert (u.values > 0.0).all()

    def test_consistency_apply_u_equals_v(self):
        g = pl.build_grid(pl.disk(1.0), 65)
        op = pl.assemble_laplacian(g)
        f = ScalarField(g, 1.0 + g.node_x * g.node_x + np.cos(g.node_y))
        rel_tol = 1e-10
        u, v = solve_navier(op, f)
        back = op.matvec(u.values)
        assert np.linalg.norm(back - v.values) <= 10 * rel_tol * np.linalg.norm(
            v.values
        )
