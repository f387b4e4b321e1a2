import numpy as np
import pytest

import platelab as pl
from platelab import diagnostics as dg
from platelab.fields import ScalarField
from platelab.geometry import GeometryError
from platelab.optimizer import OptimalPair
from platelab.rearrange import optimal_density, uniform_density


def _fake_pair(grid, u_values, t=0.5, h=1.0, H=2.0):
    """Wrap synthetic fields in a pair record for detector tests."""
    u = ScalarField(grid, u_values)
    rho = optimal_density(u, h, H, 1.2 * grid.discrete_area).rho
    return OptimalPair(u=u, v=u, rho=rho, theta=1.0, t=t, grid=grid,
                       spec=grid.spec)


class TestAsymmetry:
    def test_symmetrized_field_is_exactly_zero(self):
        g = pl.build_grid(pl.disk(1.0), 65)
        f = np.cos(2 * g.node_x**2 + g.node_y)
        fx = 0.5 * (f + pl.reflect_values(g, f, 0, 0.0).values)
        assert dg.asymmetry(ScalarField(g, fx), 0) == 0.0

    def test_converged_disk_pair(self, disk_pair_128):
        pair, _ = disk_pair_128
        for dim in (0, 1):
            assert dg.asymmetry(pair.u, dim) <= 1e-6

    def test_converged_ellipse_pair_both_axes(self, ellipse_pair_128):
        pair, _ = ellipse_pair_128
        for dim in (0, 1):
            assert dg.asymmetry(pair.u, dim) <= 1e-6

    def test_generic_mass_shell_splitting_stays_small(self):
        # with an incommensurable mass the threshold cut splits one
        # equal-value shell; the induced asymmetry is a real discrete
        # effect at the single-node response scale, well above the solver
        # floor but far below any physical asymmetry
        pair, _ = pl.optimize(pl.disk(1.0), 257, 1.0, 2.0, 1.5 * np.pi)
        a = dg.asymmetry(pair.u, 0)
        assert 1e-9 < a <= 5e-5

    @pytest.mark.parametrize("dim", [2, -1])
    def test_direction_validated(self, dim):
        g = pl.build_grid(pl.disk(1.0), 17)
        with pytest.raises(GeometryError):
            dg.asymmetry(ScalarField(g, np.ones(g.n)), dim)

    def test_vanishing_field_cannot_be_checked(self):
        g = pl.build_grid(pl.disk(1.0), 17)
        with pytest.raises(dg.DiagnosticsError, match="u vanishes identically"):
            dg.asymmetry(ScalarField(g, np.zeros(g.n)), 0)


class TestMonotonicity:
    def test_converged_disk_pair(self, disk_pair_128):
        pair, _ = disk_pair_128
        for dim in (0, 1):
            v = dg.monotonicity_violation(pair.u, dim)
            assert v <= 1e-10 * pair.u.norm_inf

    def test_radially_increasing_field_flagged(self):
        g = pl.build_grid(pl.disk(1.0), 33)
        u = ScalarField(g, g.node_x**2 + g.node_y**2 + 0.1)
        assert dg.monotonicity_violation(u, 0) > 0.0

    def test_constant_field_is_zero(self):
        g = pl.build_grid(pl.disk(1.0), 33)
        u = ScalarField(g, np.ones(g.n))
        assert dg.monotonicity_violation(u, 0) == 0.0


class TestMovingPlane:
    def test_disk_profile_nonnegative(self, disk_pair_128):
        pair, _ = disk_pair_128
        rep = dg.moving_plane_profile(pair, 0, 16)
        assert rep.min_w1 >= -1e-8 * pair.u.norm_inf
        assert rep.min_w2 >= -1e-8 * pair.v.norm_inf
        assert rep.lambdas.shape == (16,)
        lo, hi = dg.plane_window(pair, 0)
        assert lo > 0.0 and hi < 1.0

    def test_thin_cap(self, disk_pair_128):
        pair, _ = disk_pair_128
        grid = pair.grid
        lam0 = 1.0
        # lattice-aligned plane one spacing inside: the strict cap is empty
        m, cnt = dg.cap_deficit(grid, pair.u.values, 0, lam0 - grid.delta)
        assert cnt * grid.cell_area < 0.05 * grid.discrete_area
        # half a spacing further in, the cap is one column and stays clean
        m, cnt = dg.cap_deficit(grid, pair.u.values, 0, lam0 - 1.5 * grid.delta)
        assert cnt > 0
        assert cnt * grid.cell_area < 0.05 * grid.discrete_area
        assert m >= -1e-6 * pair.u.norm_inf

    def test_antisymmetric_field_detected(self):
        g = pl.build_grid(pl.disk(1.0), 65)
        odd = g.node_x * np.exp(-g.node_y**2)
        m, cnt = dg.cap_deficit(g, odd, 0, 0.0)
        assert cnt > 0
        assert m < -0.1

    def test_lambda_count_validated(self, disk_pair_128):
        pair, _ = disk_pair_128
        with pytest.raises(dg.DiagnosticsError):
            dg.moving_plane_profile(pair, 0, 4)

    def test_empty_window_rejected(self):
        g = pl.build_grid(pl.unit_square(), 5)
        u = ScalarField(g, np.ones(g.n))
        rho = uniform_density(g, 1.0, 2.0, 1.2 * g.discrete_area)
        pair = OptimalPair(u=u, v=u, rho=rho, theta=1.0, t=2.0, grid=g, spec=g.spec)
        with pytest.raises(dg.DiagnosticsError):
            dg.moving_plane_profile(pair, 0, 16)


class TestProductCheck:
    def test_disk_pair_all_planes(self, disk_pair_128):
        pair, _ = disk_pair_128
        lo, hi = dg.plane_window(pair, 0)
        for lam in np.linspace(lo, hi, 16):
            res = dg.product_check(pair.u, pair.rho, pair.t, 0, lam)
            assert res.ok
            assert res.case3_count == 0

    def test_hand_built_cases(self):
        from conftest import make_strip_grid

        g = make_strip_grid(8, 0.5)  # x = -1.75 ... 1.75
        x = g.node_x
        # symmetric tent: reflected values dominate on the cap x > lam
        u_vals = 2.0 - np.abs(x)
        u = ScalarField(g, u_vals)
        rho = optimal_density(u, 1.0, 3.0, 1.25 * g.discrete_area).rho
        t = 1.4  # cap node at x=0.75 sits above t, outer nodes below
        res = dg.product_check(u, rho, t, 0, 0.0)
        cap = x > 0.0
        above = u_vals > t
        # the fixture exercises low/low, low/high, and high/high pairs
        assert (cap & ~above).any() and (cap & above).any()
        assert res.ok
        assert res.case3_count == 0

    def test_forced_impossible_case_detected(self):
        from conftest import make_strip_grid

        g = make_strip_grid(8, 0.5)
        x = g.node_x
        u_vals = 2.0 - np.abs(x)
        t = 1.25
        # perturb one cap node just above t while its mirror sits just
        # below: tiny deficit passes the precondition, the level-set
        # crossing does not
        i_cap = int(np.flatnonzero(np.isclose(x, 0.75))[0])
        i_mir = int(np.flatnonzero(np.isclose(x, -0.75))[0])
        u_vals[i_cap] = t + 1e-13
        u_vals[i_mir] = t - 1e-13
        u = ScalarField(g, u_vals)
        rho = optimal_density(u, 1.0, 3.0, 1.25 * g.discrete_area).rho
        res = dg.product_check(u, rho, t, 0, 0.0)
        assert not res.ok
        assert res.case3_count >= 1

    def test_precondition_enforced(self):
        from conftest import make_strip_grid

        g = make_strip_grid(8, 0.5)
        u = ScalarField(g, 2.0 + g.node_x)  # increasing: reflection loses
        rho = optimal_density(u, 1.0, 3.0, 1.25 * g.discrete_area).rho
        with pytest.raises(dg.DiagnosticsError):
            dg.product_check(u, rho, 2.0, 0, 0.0)

    def test_vanishing_field_cannot_be_checked(self):
        # with u = 0 every product difference is 0 against a tolerance of 0
        g = pl.build_grid(pl.disk(1.0), 17)
        rho = optimal_density(ScalarField(g, np.ones(g.n)), 1.0, 2.0, 1.5 * g.discrete_area).rho
        with pytest.raises(dg.DiagnosticsError, match="u vanishes identically"):
            dg.product_check(ScalarField(g, np.zeros(g.n)), rho, 0.0, 0, 0.0)


class TestRigidity:
    def test_disk_constant_normal_derivative(self, disk_pair_128):
        pair, _ = disk_pair_128
        rep = dg.normal_derivative_stats(pair)
        assert rep.samples.size >= 64
        assert rep.n_skipped == 0
        assert (rep.samples < 0.0).all()
        assert rep.cv < 0.01

    def test_ellipse_contrast(self, disk_pair_128, ellipse_pair_128):
        disk_rep = dg.normal_derivative_stats(disk_pair_128[0])
        ell_rep = dg.normal_derivative_stats(ellipse_pair_128[0])
        assert (ell_rep.samples < 0.0).all()
        assert ell_rep.cv > 5.0 * disk_rep.cv

    def test_insufficient_support_raises(self):
        spec = pl.annulus(0.8, 1.0)
        g = pl.build_grid(spec, 17)
        u = ScalarField(g, np.ones(g.n))
        rho = uniform_density(g, 1.0, 1.0, g.discrete_area)
        pair = OptimalPair(u=u, v=u, rho=rho, theta=1.0, t=2.0, grid=g, spec=spec)
        with pytest.raises(dg.DiagnosticsError):
            dg.normal_derivative_stats(pair)


class TestStructure:
    def test_disk_pair_all_pass(self, disk_pair_128):
        pair, _ = disk_pair_128
        res = dg.structural_checks(pair)
        assert res.tubular is True
        assert res.axis_convex is True
        assert res.positive is True

    def test_saturated_mass_marks_tubular_not_applicable(self):
        spec = pl.disk(1.0)
        grid = pl.build_grid(spec, 65)
        pair, _ = pl.optimize(spec, 65, 1.0, 2.0, 2.0 * grid.discrete_area)
        res = dg.structural_checks(pair)
        assert res.tubular is None

    def test_two_bump_field_fails_axis_convexity(self):
        g = pl.build_grid(pl.disk(1.0), 65)
        bumps = np.exp(-8 * ((g.node_x - 0.5) ** 2 + g.node_y**2)) + np.exp(
            -8 * ((g.node_x + 0.5) ** 2 + g.node_y**2)
        )
        pair = _fake_pair(g, 0.1 + bumps, t=0.5)
        res = dg.structural_checks(pair)
        assert res.axis_convex is False


class TestRotationAsymmetry:
    def test_radial_field_is_interpolation_level(self):
        g = pl.build_grid(pl.annulus(0.3, 1.0), 129)
        r2 = g.node_x**2 + g.node_y**2
        u = ScalarField(g, np.sin(np.pi * (np.sqrt(r2) - 0.3) / 0.7))
        rho = uniform_density(g, 1.0, 1.0, g.discrete_area)
        pair = OptimalPair(u=u, v=u, rho=rho, theta=1.0, t=0.5, grid=g, spec=g.spec)
        assert dg.rotation_asymmetry(pair) < 1e-4

    def test_angular_blob_detected(self):
        g = pl.build_grid(pl.annulus(0.3, 1.0), 129)
        blob = np.exp(-8 * ((g.node_x - 0.65) ** 2 + g.node_y**2))
        u = ScalarField(g, 0.05 + blob)
        rho = uniform_density(g, 1.0, 1.0, g.discrete_area)
        pair = OptimalPair(u=u, v=u, rho=rho, theta=1.0, t=0.5, grid=g, spec=g.spec)
        assert dg.rotation_asymmetry(pair) > 0.1


class TestToleranceScaling:
    def test_refinement_does_not_inflate_violations(self, disk_pair_64, disk_pair_128):
        coarse, _ = disk_pair_64
        fine, _ = disk_pair_128
        floor = 1e-12
        a64 = max(dg.asymmetry(coarse.u, dim) for dim in (0, 1))
        a128 = max(dg.asymmetry(fine.u, dim) for dim in (0, 1))
        assert a128 <= 2.0 * a64 + floor
        m64 = max(0.0, dg.monotonicity_violation(coarse.u, 0))
        m128 = max(0.0, dg.monotonicity_violation(fine.u, 0))
        assert m128 <= 2.0 * m64 + floor
        w64 = dg.moving_plane_profile(coarse, 0, 16)
        w128 = dg.moving_plane_profile(fine, 0, 16)
        v64 = max(0.0, -w64.min_w1 / coarse.u.norm_inf)
        v128 = max(0.0, -w128.min_w1 / fine.u.norm_inf)
        assert v128 <= 2.0 * v64 + floor
