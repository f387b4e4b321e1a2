import itertools

import numpy as np
import pytest
from scipy.linalg import eigh

import platelab as pl
from platelab.eigensolver import principal_pair, rayleigh_quotient
from platelab.fields import ScalarField
from platelab.optimizer import OptimizeError, OptimizeOptions, optimize
from platelab.rearrange import RearrangeError, mass, optimal_density


class TestOptions:
    @pytest.mark.parametrize("kwargs", [
        {"max_outer": 0}, {"restarts": 0}, {"restarts": -2}, {"theta_tol": 0.0},
        {"theta_tol": -1.0}, {"theta_tol": float("nan")}, {"eig_tol": 1e-3},
        {"eig_tol": 0.0}, {"eig_tol": -1.0},
    ], ids=str)
    def test_bad_values_rejected(self, kwargs):
        with pytest.raises(OptimizeError):
            OptimizeOptions(**kwargs)
        assert issubclass(OptimizeError, ValueError)


class TestOptimize:
    def test_degenerate_box_single_step(self):
        grid = pl.build_grid(pl.unit_square(), 129)
        pair, report = optimize(pl.unit_square(), 129, 1.0, 1.0, grid.discrete_area)
        assert report.outer_iterations == 1
        assert report.termination == "rho-fixed"
        assert np.allclose(pair.rho.values, 1.0)
        target = 4 * np.pi**4
        assert abs(pair.theta - target) / target < 0.01

    def test_upper_mass_bound_scales_uniform_theta(self):
        spec = pl.disk(1.0)
        grid = pl.build_grid(spec, 65)
        op = pl.assemble_laplacian(grid)
        pair, report = optimize(spec, 65, 1.0, 2.0, 2.0 * grid.discrete_area)
        assert np.allclose(pair.rho.values, 2.0)
        uniform = principal_pair(op, pl.uniform_density(grid, 1.0, 1.0,
                                                        grid.discrete_area),
                                 tol=OptimizeOptions().eig_tol)
        assert pair.theta == pytest.approx(uniform.theta / 2.0, rel=1e-12)

    def test_disk_heavy_core_is_centered(self, disk_pair_64):
        pair, report = disk_pair_64
        grid = pair.grid
        H = pair.rho.H
        radial = pl.radial_optimize("disk", 1.0, pair.rho.h, H, pair.rho.M, n_r=1024)
        r_star = radial.r[radial.rho >= H].max()
        r = np.hypot(grid.node_x, grid.node_y)
        heavy = pair.rho.values >= H
        assert heavy.any()
        assert r[heavy].max() <= r_star + 2 * grid.delta
        adjacent = grid.boundary_adjacent_mask()
        assert (pair.u.values[adjacent] <= pair.t).all()

    def test_descent_and_mass_every_step(self, pair_matrix):
        for name, fill, M, pair, report in pair_matrix:
            hist = np.asarray(report.theta_history)
            assert np.all(np.diff(hist) <= 1e-10 * hist[1:]), name
            assert max(report.mass_errors) <= 1e-12 * M, name

    def test_positivity_every_run(self, pair_matrix):
        for name, fill, M, pair, report in pair_matrix:
            assert (pair.u.values > 0.0).all(), name
            assert (pair.v.values > 0.0).all(), name

    def test_theta_matches_quotient(self, pair_matrix):
        for name, fill, M, pair, report in pair_matrix:
            q = rayleigh_quotient(pair.u, pair.v, pair.rho)
            assert abs(q - pair.theta) <= 1e-9 * pair.theta

    def test_rho_consistent_with_rearrangement(self, pair_matrix):
        for name, fill, M, pair, report in pair_matrix:
            redo = optimal_density(pair.u, pair.rho.h, pair.rho.H, M)
            assert np.array_equal(redo.rho.values, pair.rho.values), name

    def test_idempotence_at_fixed_point(self, disk_pair_64):
        pair, report = disk_pair_64
        grid = pair.grid
        op = pl.assemble_laplacian(grid)
        opts = OptimizeOptions()
        eig = principal_pair(op, pair.rho, tol=opts.eig_tol, u0=pair.u)
        redo = optimal_density(eig.u, pair.rho.h, pair.rho.H, pair.rho.M)
        assert np.array_equal(redo.rho.values, pair.rho.values)
        assert abs(eig.theta - pair.theta) <= 1e-7 * pair.theta

    def test_scale_invariance_of_threshold_step(self, disk_pair_64):
        pair, _ = disk_pair_64
        h, H, M = pair.rho.h, pair.rho.H, pair.rho.M
        base = optimal_density(pair.u, h, H, M)
        scaled = optimal_density(ScalarField(pair.grid, 4.0 * pair.u.values), h, H, M)
        assert np.array_equal(scaled.rho.values, base.rho.values)
        assert scaled.t == 4.0 * base.t

    def test_restarts_deterministic_and_no_worse(self):
        spec = pl.annulus(0.5, 1.0)
        area = np.pi * 0.75
        opts = OptimizeOptions(restarts=3, seed=123)
        p1, r1 = optimize(spec, 65, 1.0, 2.0, 1.5 * area, opts=opts)
        p2, r2 = optimize(spec, 65, 1.0, 2.0, 1.5 * area, opts=opts)
        assert r1.restart_thetas == r2.restart_thetas
        assert len(r1.restart_thetas) == 3
        assert p1.theta <= min(r1.restart_thetas) * (1 + 1e-12)

    def test_mass_bracket_enforced(self):
        with pytest.raises(RearrangeError):
            optimize(pl.unit_square(), 17, 1.0, 2.0, 100.0)

    def test_report_metadata(self, disk_pair_64):
        _, report = disk_pair_64
        assert report.termination in ("theta-converged", "rho-fixed", "max-outer")
        assert report.outer_iterations == len(report.theta_history)
        assert report.wall_time > 0


class TestAnnulusRegimes:
    def test_thick_annulus_stays_radial(self):
        # the rotation metric is dominated by the inner-hole discretization
        # anisotropy, which decays like the spacing squared; the hole of
        # radius 0.1 needs delta = 1/256 to push it safely under 1e-4
        from platelab import diagnostics as dg

        spec = pl.annulus(0.1, 1.0)
        M = 1.5 * np.pi * (1 - 0.01)
        pair, _ = optimize(spec, 513, 1.0, 2.0, M)
        radial = pl.radial_optimize("annulus", (0.1, 1.0), 1.0, 2.0, M, n_r=1024)
        assert abs(pair.theta - radial.theta) / radial.theta < 0.01
        assert dg.rotation_asymmetry(pair) <= 1e-4

    def test_lattice_node_on_the_inner_circle(self):
        # grid 41 puts the node (0.15, 0) on the inner circle up to rounding
        grid = pl.build_grid(pl.annulus(0.15), 41)
        M = 1.5 * grid.discrete_area  # half fill of the [1, 2] bracket
        _, report = optimize(grid.spec, 41, 1.0, 2.0, M)
        assert report.termination == "rho-fixed"

    def test_thin_annulus_reports_lower_of_the_two_states(self):
        # exploratory regime: whichever fixed point wins is reported with
        # its asymmetry attached; no quantitative threshold is asserted
        from platelab import diagnostics as dg

        spec = pl.annulus(0.6, 1.0)
        area = np.pi * (1 - 0.36)
        opts = OptimizeOptions(restarts=2, seed=5)
        pair, report = optimize(spec, 129, 1.0, 2.0, 1.5 * area, opts=opts)
        radial = pl.radial_optimize("annulus", (0.6, 1.0), 1.0, 2.0, 1.5 * area,
                                    n_r=1024)
        asym = dg.rotation_asymmetry(pair)
        assert np.isfinite(asym)
        assert pair.theta <= min(report.restart_thetas) * (1 + 1e-12)
        assert pair.theta <= radial.theta * (1 + 0.01)


class TestSmallInstanceOracle:
    """Exhaustive check that alternation reaches the global minimum on a
    5x5-interior square with three heavy nodes of extra mass.

    The quotient's reciprocal is a maximum of linear functionals of the
    density, so minimizing it over the box-with-mass polytope attains the
    optimum at an extreme point: with an integral heavy-node budget these
    are exactly the bang-bang densities, and enumerating the C(25,3)
    placements is a complete search.
    """

    def _dense_reference_laplacian(self):
        m, delta = 5, 1.0 / 6.0
        N = m * m
        A = np.zeros((N, N))
        for j in range(m):
            for i in range(m):
                k = j * m + i
                A[k, k] = 4.0 / delta**2
                for di, dj in ((1, 0), (-1, 0), (0, 1), (0, -1)):
                    ii, jj = i + di, j + dj
                    if 0 <= ii < m and 0 <= jj < m:
                        A[k, jj * m + ii] = -1.0 / delta**2
        return A, delta

    def test_alternation_matches_brute_force(self):
        A, delta = self._dense_reference_laplacian()
        B = A @ A
        N = A.shape[0]
        best = np.inf
        for subset in itertools.combinations(range(N), 3):
            d = np.ones(N)
            d[list(subset)] = 2.0
            w = eigh(B, np.diag(d), eigvals_only=True, subset_by_index=[0, 0])[0]
            best = min(best, float(w))

        M = (25 + 3) * delta**2
        pair, report = optimize(pl.unit_square(), 7, 1.0, 2.0, M)
        assert int((pair.rho.values == 2.0).sum()) == 3
        assert abs(pair.theta - best) <= 1e-6 * best
