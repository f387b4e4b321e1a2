import numpy as np
import pytest
from scipy.special import jn_zeros

import platelab as pl
from platelab.eigensolver import EigenError
from platelab.radial import (
    RadialError,
    _bathtub_radial,
    _principal_pair_radial,
    _radial_operator,
    radial_grid,
    radial_optimize,
)

J01 = jn_zeros(0, 1)[0]


class TestRadialGrid:
    def test_disk_cell_areas_sum_close_to_disk(self):
        g = radial_grid("disk", 1.0, 256)
        assert g.discrete_area == pytest.approx(np.pi * (1 - 0.5 * g.dr) ** 2, rel=1e-12)

    def test_annulus_needs_ordered_radii(self):
        with pytest.raises(RadialError):
            radial_grid("annulus", (1.0, 0.5), 128)

    def test_minimum_resolution(self):
        with pytest.raises(RadialError):
            radial_grid("disk", 1.0, 32)

    def test_unknown_kind(self):
        with pytest.raises(RadialError):
            radial_grid("ellipse", (1.0, 0.5), 128)


def _bathtub_loop(u, weights, h, H, M):
    """Reference: fill cells by descending u with a running mass sum."""
    order = np.argsort(-u, kind="stable")
    rho = np.full(u.shape[0], h)
    if h == H:
        return rho, float(u[order[0]]), None
    excess = M - h * float(np.sum(weights))
    t, frac_index, acc = float(u[order[0]]), None, 0.0
    for pos, i in enumerate(order):
        cap = (H - h) * weights[i]
        if acc + cap <= excess * (1.0 + 1e-15):
            rho[i] = H
            acc += cap
            t = float(u[order[pos + 1]]) if pos + 1 < u.shape[0] else 0.0
        else:
            if excess - acc > 1e-13 * abs(M):
                rho[i] = min(h + (excess - acc) / weights[i], H)
                frac_index = int(i)
                t = float(u[i])
            break
    return rho, t, frac_index


def _radial_operator_loop(grid):
    """Reference: the banded operator filled row by row, verbatim."""
    n = grid.n
    dr = grid.dr
    ab = np.zeros((3, n))
    if grid.kind == "disk":
        # r=0 row: -lap u = -2 u''(0) ~ 4(u0 - u1)/dr^2, ghost u(-dr)=u(dr)
        ab[1, 0] = 4.0 / dr**2
        ab[0, 1] = -4.0 / dr**2
        start = 1
    else:
        start = 0
    for j in range(start, n):
        rj = grid.r[j]
        ab[1, j] = 2.0 / dr**2
        west = -(1.0 / dr**2) + 1.0 / (2.0 * rj * dr)
        east = -(1.0 / dr**2) - 1.0 / (2.0 * rj * dr)
        if j > 0:
            ab[2, j - 1] = west  # sub-diagonal entry of row j
        if j + 1 < n:
            ab[0, j + 1] = east  # super-diagonal entry of row j
    return ab


class TestRadialOperator:
    @pytest.mark.parametrize("kind, radii", [
        ("disk", (1.0,)), ("disk", (2.5,)), ("annulus", (0.3, 1.0)), ("annulus", (0.05, 1.0)),
    ], ids=["disk-1", "disk-2.5", "annulus-0.3", "annulus-0.05"])
    @pytest.mark.parametrize("n_r", [64, 100, 257, 1024])
    def test_matches_row_loop_bitwise(self, kind, radii, n_r):
        grid = radial_grid(kind, radii, n_r)
        assert _radial_operator(grid).tobytes() == _radial_operator_loop(grid).tobytes()


class TestRadialBathtub:
    def test_matches_running_sum_bitwise(self):
        rng = np.random.default_rng(5)
        for case in range(200):
            radii = 1.0 if case % 2 else (rng.uniform(0.05, 0.9), 1.0)
            g = radial_grid("disk" if case % 2 else "annulus", radii, int(rng.integers(64, 300)))
            u = rng.uniform(0.1, 1.0, g.n)
            if case % 5 == 0:
                u = np.round(4.0 * u) / 4.0 + 0.25  # many ties
            area = g.discrete_area
            M = (1.0 + (0.0, 1.0, rng.uniform())[case % 3]) * area
            want = _bathtub_loop(u, g.weights, 1.0, 2.0, M)
            got = _bathtub_radial(u, g.weights, 1.0, 2.0, M)
            assert np.array_equal(got[0], want[0]) and got[1:] == want[1:]

    @pytest.mark.parametrize("kind, radii", [("disk", 1.0), ("annulus", (0.3, 1.0))])
    def test_box_edges(self, kind, radii):
        g = radial_grid(kind, radii, 128)
        u = np.random.default_rng(3).uniform(0.1, 1.0, g.n)
        area = g.discrete_area
        # all light: nothing fills, the level is the largest u
        rho, t, frac = _bathtub_radial(u, g.weights, 1.0, 2.0, area)
        assert np.all(rho == 1.0) and t == u.max() and frac is None
        # all heavy: every cell fills, the level drops to zero
        rho, t, frac = _bathtub_radial(u, g.weights, 1.0, 2.0, 2.0 * area)
        assert np.all(rho == 2.0) and t == 0.0 and frac is None
        # degenerate box: the one admissible density
        rho, t, frac = _bathtub_radial(u, g.weights, 1.5, 1.5, 1.5 * area)
        assert np.all(rho == 1.5) and t == u.max() and frac is None


class TestRadialOptimize:
    def test_uniform_disk_hits_bessel_power(self):
        res = radial_optimize("disk", 1.0, 1.0, 1.0, np.pi * (1 - 0.5 / 1024) ** 2,
                              n_r=1024)
        target = J01**4
        assert abs(res.theta - target) / target < 1e-3

    def test_composite_disk_heavy_core(self):
        res = radial_optimize("disk", 1.0, 1.0, 2.0, 1.5 * np.pi, n_r=1024)
        rho = res.rho
        heavy = rho >= 2.0
        light = rho <= 1.0
        frac = (~heavy) & (~light)
        assert frac.sum() <= 1
        assert heavy.any() and light.any()
        # contiguity: all heavy radii below all light radii
        assert res.r[heavy].max() <= res.r[light].min()
        assert (np.diff(res.u) < 0.0).all()
        assert res.t > 0

    def test_mass_exact_and_descending(self):
        grid = radial_grid("disk", 1.0, 512)
        M = 1.4 * np.pi
        res = radial_optimize("disk", 1.0, 1.0, 2.0, M, n_r=512)
        assert abs(float(np.sum(res.rho * grid.weights)) - M) <= 1e-12 * M
        hist = np.asarray(res.theta_history)
        assert np.all(np.diff(hist) <= 1e-10 * hist[1:])

    def test_annulus_positive_unimodal(self):
        area = np.pi * (1 - 0.25)
        res = radial_optimize("annulus", (0.5, 1.0), 1.0, 2.0, 1.5 * area, n_r=512)
        assert (res.u > 0).all()
        d = np.diff(res.u)
        sign_changes = int(np.sum(np.diff(np.sign(d)) != 0))
        assert sign_changes <= 1  # single interior maximum

    def test_cross_check_2d_disk(self):
        res = radial_optimize("disk", 1.0, 1.0, 2.0, 1.5 * np.pi, n_r=1024)
        pair, _ = pl.optimize(pl.disk(1.0), 129, 1.0, 2.0, 1.5 * np.pi)
        assert abs(pair.theta - res.theta) / res.theta < 0.01

    def test_nonconvergence_is_a_solver_error(self):
        grid = radial_grid("disk", (1.0,), 128)
        ab = _radial_operator(grid)
        with pytest.raises(EigenError):  # a solver failure, not an input error
            _principal_pair_radial(grid, ab, np.ones(grid.n), 1e-12, 2)

    def test_mass_bracket_enforced(self):
        with pytest.raises(RadialError):
            radial_optimize("disk", 1.0, 1.0, 2.0, 10.0, n_r=128)
