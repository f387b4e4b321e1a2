import math
import re

import numpy as np
import pytest
from scipy.linalg import solve_banded
from scipy.special import jn_zeros

import platelab as pl
from platelab import eigensolver, optimizer, radial, rearrange
from platelab.cli import main
from platelab.eigensolver import EigenError
from platelab.fields import ScalarField
from platelab.geometry import DomainSpec, GeometryError
from platelab.rearrange import RearrangeError, _bathtub, _check_bracket, optimal_density
from platelab.radial import _radial_operator, radial_grid, radial_optimize
from conftest import BAD_COUNTS, BAD_PARAMS

J01 = jn_zeros(0, 1)[0]


class TestRadialGrid:
    def test_disk_cell_areas_sum_close_to_disk(self):
        g = radial_grid("disk", (1.0,), 256)
        assert g.discrete_area == pytest.approx(np.pi * (1 - 0.5 * g.dr) ** 2, rel=1e-12)

    def test_annulus_needs_ordered_radii(self):
        with pytest.raises(GeometryError, match="^annulus needs inner < outer radius$"):
            radial_grid("annulus", (1.0, 0.5), 128)

    def test_minimum_resolution(self):
        with pytest.raises(GeometryError, match="^n_r must be at least 64$"):
            radial_grid("disk", (1.0,), 32)
        with pytest.raises(GeometryError, match="^n_r must be at least 64$"):
            radial_optimize("disk", (1.0,), 1.0, 2.0, 4.5, n_r=63)

    def test_unknown_kind(self):
        message = "^radial solver handles disk and annulus, got 'ellipse'$"
        with pytest.raises(GeometryError, match=message):
            radial_grid("ellipse", (1.0, 0.5), 128)
        with pytest.raises(GeometryError, match=message):
            radial_optimize("ellipse", (1.0, 0.5), 1.0, 2.0, 1.0, n_r=128)

    @pytest.mark.parametrize("radii", [[1.0], (1.0,), np.array([1.0])],
                             ids=["list", "tuple", "array"])
    def test_disk_radii_as_any_sequence(self, radii):
        g = radial_grid("disk", radii, 128)
        want = radial_grid("disk", (1.0,), 128)
        assert g.dr == want.dr
        assert g.r.tobytes() == want.r.tobytes()
        assert g.weights.tobytes() == want.weights.tobytes()

    @pytest.mark.parametrize("kind, radii", [
        ("disk", 1.0), ("disk", [0.3, 1.0]), ("disk", (0.3, 1.0)), ("disk", ()),
        ("disk", ["one"]), ("annulus", (1.0,)), ("annulus", 1.0), ("annulus", [0.3, [1.0]]),
        ("annulus", (0.1, 0.3, 1.0)),
    ], ids=["disk-scalar", "disk-list-of-2", "disk-tuple-of-2", "disk-empty", "disk-text",
            "annulus-tuple-of-1", "annulus-scalar", "annulus-ragged", "annulus-tuple-of-3"])
    def test_radii_count_must_match_kind(self, kind, radii):
        with pytest.raises(GeometryError, match="%s takes" % kind):
            radial_grid(kind, radii, 128)
        with pytest.raises(GeometryError, match="%s takes" % kind):
            radial_optimize(kind, radii, 1.0, 2.0, 1.0, n_r=128)


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
    @pytest.mark.parametrize("kind, radii", [("disk", (1.0,)), ("annulus", (0.3, 1.0))])
    def test_box_edges(self, kind, radii):
        g = radial_grid(kind, radii, 128)
        u = np.random.default_rng(3).uniform(0.1, 1.0, g.n)
        area = g.discrete_area
        # each density below takes one value: no cell is fractional
        # all light: nothing fills, the level is the largest u
        rho, t = _bathtub(u, g.weights, 1.0, 2.0, area)
        assert np.all(rho == 1.0) and t == u.max()
        # all heavy: every cell fills, the level drops to zero
        rho, t = _bathtub(u, g.weights, 1.0, 2.0, 2.0 * area)
        assert np.all(rho == 2.0) and t == 0.0
        # degenerate box: the one admissible density
        rho, t = _bathtub(u, g.weights, 1.5, 1.5, 1.5 * area)
        assert np.all(rho == 1.5) and t == u.max()


class TestRadialOptimize:
    def test_uniform_disk_hits_bessel_power(self):
        res = radial_optimize("disk", (1.0,), 1.0, 1.0, np.pi * (1 - 0.5 / 1024) ** 2,
                              n_r=1024)
        target = J01**4
        assert abs(res.theta - target) / target < 1e-3

    def test_composite_disk_heavy_core(self):
        res = radial_optimize("disk", (1.0,), 1.0, 2.0, 1.5 * np.pi, n_r=1024)
        rho = res.rho.values
        heavy = rho >= 2.0
        light = rho <= 1.0
        frac = (~heavy) & (~light)
        assert frac.sum() <= 1
        assert heavy.any() and light.any()
        # contiguity: all heavy radii below all light radii
        assert res.grid.r[heavy].max() <= res.grid.r[light].min()
        assert (np.diff(res.u.values) < 0.0).all()
        assert res.t > 0

    def test_mass_exact_and_descending(self):
        grid = radial_grid("disk", (1.0,), 512)
        M = 1.4 * np.pi
        res = radial_optimize("disk", (1.0,), 1.0, 2.0, M, n_r=512)
        assert abs(float(np.sum(res.rho.values * grid.weights)) - M) <= 1e-12 * M
        hist = np.asarray(res.theta_history)
        assert np.all(np.diff(hist) <= 1e-10 * hist[1:])

    def test_annulus_positive_unimodal(self):
        area = np.pi * (1 - 0.25)
        res = radial_optimize("annulus", (0.5, 1.0), 1.0, 2.0, 1.5 * area, n_r=512)
        assert (res.u.values > 0).all()
        d = np.diff(res.u.values)
        sign_changes = int(np.sum(np.diff(np.sign(d)) != 0))
        assert sign_changes <= 1  # single interior maximum

    def test_cross_check_2d_disk(self):
        res = radial_optimize("disk", (1.0,), 1.0, 2.0, 1.5 * np.pi, n_r=1024)
        pair, _ = pl.optimize(pl.disk(1.0), 129, 1.0, 2.0, 1.5 * np.pi)
        assert abs(pair.theta - res.theta) / res.theta < 0.01

    def test_nonconvergence_is_a_solver_error(self, monkeypatch):
        # a solver failure, not an input error, with the 2-D path's count
        # and last theta
        monkeypatch.setattr(eigensolver, "DEFAULT_MAX_ITER", 2)
        message = r"no convergence in 2 iterations \(last theta "
        with pytest.raises(EigenError, match=message) as err:
            radial_optimize("disk", (1.0,), 1.0, 2.0, 4.5, n_r=128)
        assert err.value.iterations == 2
        assert err.value.last_theta is not None

    def test_nonconvergence_exits_2_from_the_cli(self, monkeypatch, tmp_path, capsys):
        monkeypatch.setattr(eigensolver, "DEFAULT_MAX_ITER", 2)
        rc = main(["solve", "--domain", "disk", "--radial", "--nr", "64", "--h", "1", "--H", "2",
                   "--mass", "4.5", "--out", str(tmp_path / "report.json")])
        assert rc == 2
        assert re.match(r"error: no convergence in 2 iterations \(last theta [0-9.]+\)$",
                        capsys.readouterr().err.strip())

    def test_eigen_tolerance_is_read_at_call_time(self, monkeypatch):
        # the radial eigensolves stop at eigensolver.DEFAULT_TOL, as the 2-D ones do
        def banded_solves():
            calls = []
            monkeypatch.setattr(radial, "solve_banded",
                                lambda *args: calls.append(1) or solve_banded(*args))
            radial_optimize("disk", (1.0,), 1.0, 2.0, 4.5, n_r=128)
            return len(calls)

        tight = banded_solves()
        monkeypatch.setattr(eigensolver, "DEFAULT_TOL", 1e-6)
        assert banded_solves() < tight

    def test_non_positive_iterate_is_a_solver_error(self, monkeypatch):
        # every second banded solve, the map's u, planted negative
        calls = []

        def planted(*args):
            calls.append(1)
            x = solve_banded(*args)
            return -x if len(calls) % 2 == 0 else x

        monkeypatch.setattr(radial, "solve_banded", planted)
        with pytest.raises(EigenError, match="^iterate lost positivity$") as err:
            radial_optimize("disk", (1.0,), 1.0, 2.0, 4.5, n_r=128)
        assert err.value.iterations == 1

    def test_never_hands_off_on_the_sweep_rows(self, monkeypatch):
        # the radial subspace has no angular modes near theta_1, so power
        # iteration contracts fast: no solve reaches the Krylov phase
        def refuse(matvec, x):
            raise AssertionError("a radial eigensolve handed off")

        monkeypatch.setattr(eigensolver, "_arnoldi", refuse)
        for a in np.linspace(0.05, 0.85, 16):
            area = np.pi * (1.0 - a * a)
            radial_optimize("annulus", (float(a), 1.0), 1.0, 2.0, 1.5 * area, n_r=1024)
        radial_optimize("disk", (1.0,), 1.0, 2.0, 1.5 * np.pi, n_r=1024)

    def test_mass_bracket_enforced(self):
        with pytest.raises(RearrangeError, match="outside admissible bracket"):
            radial_optimize("disk", (1.0,), 1.0, 2.0, 10.0, n_r=128)

    @pytest.mark.parametrize("rule", ["_uniform", "_bathtub"])
    def test_off_mass_density_is_refused(self, monkeypatch, rule):
        # the radial start and each bathtub output are DensityFields, so
        # they run its density check; the start once skipped it
        make = getattr(rearrange, rule)

        def off_mass(*args):
            out = make(*args)
            rho = out[0] if rule == "_bathtub" else out
            rho[-1] += 1e-6  # the outermost cell is light: still inside the box
            return out

        monkeypatch.setattr(rearrange, rule, off_mass)
        with pytest.raises(RearrangeError, match="density mass .* deviates from M=4.5"):
            radial_optimize("disk", (1.0,), 1.0, 2.0, 4.5, n_r=128)

    def test_bracket_slack_is_relative_below_unit_mass(self):
        area = radial_grid("disk", (1.0,), 128).discrete_area
        with pytest.raises(RearrangeError, match="outside admissible bracket"):
            radial_optimize("disk", (1.0,), 0.1, 0.2, 0.2 * area + 8e-13, n_r=128)


def _outcome(call):
    """None when ``call`` returns, else the type and the text of its error."""
    try:
        call()
    except Exception as exc:
        return type(exc), str(exc)
    return None


class TestSharedInputRules:
    """The radial solver reads geometry's domain check and rearrange's
    bracket check, so it refuses what the 2-D path does, with the same
    error type and text."""

    @pytest.mark.parametrize("case, kind, params, message", BAD_PARAMS,
                             ids=[case[0] for case in BAD_PARAMS])
    def test_bad_radii_raise_geometry_messages(self, case, kind, params, message):
        planar = _outcome(lambda: DomainSpec.from_dict({"kind": kind, "params": params}))
        assert planar[0] is GeometryError and message in planar[1]
        assert _outcome(lambda: radial_grid(kind, params, 128)) == planar
        assert _outcome(lambda: radial_optimize(kind, params, 1.0, 2.0, 1.0, n_r=128)) == planar

    @pytest.mark.parametrize("h, H, M, message", [
        (0.0, 2.0, 4.0, "need 0 < h <= H, got h=0.0 H=2.0"),
        (3.0, 2.0, 4.0, "need 0 < h <= H, got h=3.0 H=2.0"),
        (1.0, 2.0, 100.0, "mass 100.0 outside admissible bracket"),
        (1.0, math.inf, 5.0, "H must be finite, got inf"),
    ], ids=["h-zero", "h-above-H", "mass-above-bracket", "H-inf"])
    def test_bracket_errors_carry_rearranges_messages(self, h, H, M, message):
        # each path raises the one bracket rule's error on its own grid's area
        area_2d = pl.build_grid(pl.disk(1.0), 17).discrete_area
        area_r = radial_grid("disk", (1.0,), 128).discrete_area
        planar = _outcome(lambda: pl.optimize(pl.disk(1.0), 17, h, H, M))
        radial = _outcome(lambda: radial_optimize("disk", (1.0,), h, H, M, n_r=128))
        assert planar == _outcome(lambda: _check_bracket(area_2d, h, H, M))
        assert radial == _outcome(lambda: _check_bracket(area_r, h, H, M))
        assert planar[0] is radial[0] is RearrangeError
        assert planar[1].startswith(message) and radial[1].startswith(message)

    @pytest.mark.parametrize("case, n_r", BAD_COUNTS, ids=[case[0] for case in BAD_COUNTS])
    def test_n_r_must_be_an_integer(self, case, n_r):
        # n_r = 100.5 put the disk's Dirichlet node at r = 1.005 and gave
        # theta 17.1606 (17.4262 at 100 cells); "100" raised a bare TypeError.
        # n_r follows nodes_per_side's rule, under its own name
        error, text = _outcome(lambda: pl.build_grid(pl.disk(1.0), n_r))
        planar = (error, text.replace("nodes_per_side", "n_r"))
        assert planar == (GeometryError, "n_r must be an integer, got %r" % (n_r,))
        assert _outcome(lambda: radial_grid("disk", (1.0,), n_r)) == planar
        assert _outcome(
            lambda: radial_optimize("disk", (1.0,), 1.0, 2.0, 1.5 * math.pi, n_r=n_r)) == planar

    @pytest.mark.parametrize("n_r", [np.int32(100), np.int64(100), np.uint8(100)], ids=repr)
    def test_numpy_integer_n_r_is_taken(self, n_r):
        assert radial_grid("disk", (1.0,), n_r).r.tobytes() == \
            radial_grid("disk", (1.0,), 100).r.tobytes()

    @pytest.mark.parametrize("kind", [int, np.int32, np.int64, np.uint8],
                             ids=lambda kind: kind.__name__)
    def test_integers_give_the_float_result(self, kind):
        # an integer h once gave an integer density: the radial path
        # truncated its fractional cell and returned a wrong theta, the 2-D
        # path failed the density's mass check
        ints, floats = (kind(1), kind(2), kind(4)), (1.0, 2.0, 4.0)
        got, want = (radial_optimize("disk", (1.0,), *hHM, n_r=256) for hHM in (ints, floats))
        assert got.rho.values.dtype == np.float64
        assert repr(got.theta) == repr(want.theta)
        assert got.rho.values.tobytes() == want.rho.values.tobytes()
        got, want = (pl.optimize(pl.disk(1.0), 33, *hHM) for hHM in (ints, floats))
        assert repr(got[0].theta) == repr(want[0].theta)
        assert got[0].rho.values.tobytes() == want[0].rho.values.tobytes()

    @pytest.mark.parametrize("h, H, M", [
        (True, 2.0, 4.0), (np.True_, 2.0, 4.0), (1.0, np.True_, 4.0), ("1", 2.0, 4.0),
    ], ids=["bool-h", "numpy-bool-h", "numpy-bool-H", "string-h"])
    def test_bools_are_refused_on_both_paths(self, h, H, M):
        message = "h, H and M must be real numbers, got h=%r H=%r M=%r" % (h, H, M)
        planar = _outcome(lambda: pl.optimize(pl.disk(1.0), 33, h, H, M))
        assert planar == (RearrangeError, message)
        assert _outcome(lambda: radial_optimize("disk", (1.0,), h, H, M, n_r=128)) == planar

    @pytest.mark.parametrize("scale", [0.1, 10.0], ids=["mass-below-1", "mass-above-1"])
    def test_bracket_edges_match_the_2d_path(self, scale, monkeypatch):
        grid_2d = pl.build_grid(pl.disk(1.0), 17)
        u = ScalarField(grid_2d, np.linspace(1.0, 2.0, grid_2d.n))
        area_r = radial_grid("disk", (1.0,), 64).discrete_area
        h, H = scale, 2.0 * scale

        def edges(area):
            """(h, H, M, refused) at and beyond the bracket's edges; a mass
            half its own 1e-12 slack outside the bracket is taken."""
            lo, hi = h * area, H * area
            return [
                (h, H, lo, False), (h, H, hi, False), (H, H, H * area, False),
                (h, H, lo * (1 - 0.5e-12), False), (h, H, hi * (1 + 0.5e-12), False),
                (h, H, lo - 2e-12 * max(lo, 1.0), True), (h, H, hi + 2e-12 * max(hi, 1.0), True),
                (0.0, H, lo, True), (H, h, lo, True), (math.nan, H, lo, True),
                (h, H, math.nan, True),
            ]

        monkeypatch.setattr(optimizer, "MAX_OUTER", 2)
        rings = [hHM for *hHM, _ in edges(area_r)]
        lattice = [hHM for *hHM, _ in edges(grid_2d.discrete_area)]
        radial = [_outcome(lambda: radial_optimize("disk", (1.0,), *hHM, n_r=64))
                  for hHM in rings]
        planar = [_outcome(lambda: optimal_density(u, *hHM)) for hHM in lattice]
        # the uniform start of a mass just outside the bracket is clipped into
        # the box: it once left it, and optimize refused what the others took
        alternated = [_outcome(lambda: pl.optimize(pl.disk(1.0), 17, *hHM))
                      for hHM in lattice]
        # every refusal is the one bracket rule's, on the path's own area
        assert radial == [_outcome(lambda: _check_bracket(area_r, *hHM)) for hHM in rings]
        assert planar == alternated == [
            _outcome(lambda: _check_bracket(grid_2d.discrete_area, *hHM)) for hHM in lattice]
        assert [out is not None for out in radial] == [out is not None for out in planar] == [
            want for *_, want in edges(area_r)]
