import numpy as np
import pytest
from scipy.special import jn_zeros

import platelab as pl
from platelab.eigensolver import EigenError
from platelab.radial import (
    RadialError,
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
