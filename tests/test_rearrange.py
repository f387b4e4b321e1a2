import itertools
import math
import re

import numpy as np
import pytest

import platelab as pl
from platelab.fields import ScalarField
from platelab.radial import radial_grid
from platelab.rearrange import (
    DensityField,
    RearrangeError,
    _MASS_RTOL,
    _bathtub,
    _check_bracket,
    _check_density,
    optimal_density,
    uniform_density,
)
from conftest import make_strip_grid, mass


def strip_grid_4():
    """Four interior nodes in a row with cell area 0.25 (delta = 0.5)."""
    return make_strip_grid(4, 0.5)


def fractional_nodes(rho):
    """The nodes strictly inside (h, H): the bathtub's fractional node, if any."""
    return np.flatnonzero((rho.values > rho.h) & (rho.values < rho.H)).tolist()


def test_strip_grid_shape():
    g = strip_grid_4()
    assert g.n == 4
    assert g.cell_area == pytest.approx(0.25)


class TestOptimalDensity:
    def test_exact_bang_bang(self):
        g = strip_grid_4()
        u = ScalarField(g, np.array([4.0, 3.0, 2.0, 1.0]))
        rho, t = optimal_density(u, 1.0, 3.0, 1.5)
        assert np.allclose(rho.values, [3.0, 1.0, 1.0, 1.0])
        assert t == 3.0
        assert fractional_nodes(rho) == []
        assert mass(rho) == pytest.approx(1.5, rel=1e-14)

    def test_fractional_node(self):
        g = strip_grid_4()
        u = ScalarField(g, np.array([4.0, 3.0, 2.0, 1.0]))
        rho, t = optimal_density(u, 1.0, 3.0, 1.25)
        assert np.allclose(rho.values, [2.0, 1.0, 1.0, 1.0])
        assert fractional_nodes(rho) == [0]
        assert t == 4.0
        assert mass(rho) == pytest.approx(1.25, rel=1e-14)

    def test_lower_mass_bound_gives_uniform_floor(self):
        g = strip_grid_4()
        u = ScalarField(g, np.array([4.0, 3.0, 2.0, 1.0]))
        rho, t = optimal_density(u, 1.0, 3.0, 1.0)  # h * |domain|
        assert np.allclose(rho.values, 1.0)
        assert t == 4.0  # max of u
        assert fractional_nodes(rho) == []

    def test_upper_mass_bound_gives_uniform_ceiling(self):
        g = strip_grid_4()
        u = ScalarField(g, np.array([4.0, 3.0, 2.0, 1.0]))
        rho, t = optimal_density(u, 1.0, 3.0, 3.0)
        assert np.allclose(rho.values, 3.0)
        assert t == 0.0

    def test_degenerate_box(self):
        g = strip_grid_4()
        u = ScalarField(g, np.array([4.0, 3.0, 2.0, 1.0]))
        rho, t = optimal_density(u, 2.0, 2.0, 2.0)
        assert np.allclose(rho.values, 2.0)

    def test_mass_out_of_bracket_rejected(self):
        g = strip_grid_4()
        u = ScalarField(g, np.array([4.0, 3.0, 2.0, 1.0]))
        with pytest.raises(RearrangeError):
            optimal_density(u, 1.0, 3.0, 0.5)
        with pytest.raises(RearrangeError):
            optimal_density(u, 1.0, 3.0, 3.5)

    def test_bracket_slack_is_the_density_mass_slack(self):
        # the bracket took 1e-12 absolute slack below M = 1, the density
        # check only 1e-12 |M|: this mass passed the bracket, then the
        # density built for it failed its own mass check
        g = pl.build_grid(pl.disk(1.0), 17)
        M = 0.2 * g.discrete_area + 8e-13
        u = ScalarField(g, np.linspace(1.0, 2.0, g.n))
        for call in (lambda: optimal_density(u, 0.1, 0.2, M),
                     lambda: pl.optimize(pl.disk(1.0), 17, 0.1, 0.2, M)):
            with pytest.raises(RearrangeError, match="outside admissible bracket"):
                call()

    @pytest.mark.parametrize("M", [math.inf, -math.inf], ids=["inf", "minus-inf"])
    def test_infinite_mass_is_outside_the_bracket(self, M):
        # an infinite M made the relative slack infinite too
        with pytest.raises(RearrangeError, match="outside admissible bracket"):
            _check_bracket(1.0, 1.0, 2.0, M)
        with pytest.raises(RearrangeError, match="outside admissible bracket"):
            pl.optimize(pl.disk(1.0), 17, 1.0, 2.0, M)

    def test_nonpositive_field_rejected(self):
        g = strip_grid_4()
        with pytest.raises(RearrangeError):
            optimal_density(ScalarField(g, np.array([1.0, 0.0, 1.0, 1.0])), 1, 2, 1.2)

    def test_threshold_invariants_on_random_instances(self):
        rng = np.random.default_rng(17)
        g = pl.build_grid(pl.unit_square(), 7)  # 25 nodes
        area = g.discrete_area
        for _ in range(50):
            u = ScalarField(g, rng.uniform(0.1, 2.0, g.n))
            h, H = 1.0, 1.0 + rng.uniform(0.1, 3.0)
            M = rng.uniform(h * area, H * area)
            rho, t = optimal_density(u, h, H, M)
            values = rho.values
            assert (values[u.values > t] == H).all()
            assert (values[u.values < t] == h).all()
            interior = (values > h) & (values < H)
            assert interior.sum() <= 1
            assert abs(mass(rho) - M) <= 1e-12 * M

    def test_monotone_coupling(self):
        rng = np.random.default_rng(23)
        g = pl.build_grid(pl.unit_square(), 7)
        u = ScalarField(g, rng.uniform(0.1, 2.0, g.n))
        rho, t = optimal_density(u, 1.0, 2.0, 1.3 * g.discrete_area)
        uv, rv = u.values, rho.values
        ii, jj = np.meshgrid(np.arange(g.n), np.arange(g.n))
        higher = uv[ii] > uv[jj]
        assert (rv[ii][higher] >= rv[jj][higher]).all()

    def test_equimeasurability_under_permutation(self):
        rng = np.random.default_rng(29)
        g = strip_grid_4()
        u = np.array([0.9, 2.3, 1.1, 3.4])  # distinct values: tie rule idle
        perm = rng.permutation(4)
        r1, t1 = optimal_density(ScalarField(g, u), 1.0, 3.0, 1.6)
        r2, t2 = optimal_density(ScalarField(g, u[perm]), 1.0, 3.0, 1.6)
        assert np.array_equal(r2.values, r1.values[perm])
        assert t2 == t1

    def test_plateau_tie_breaks_by_node_index(self):
        g = strip_grid_4()
        u = ScalarField(g, np.array([2.0, 2.0, 2.0, 2.0]))
        rho, t = optimal_density(u, 1.0, 3.0, 1.5)  # one full H node
        assert np.allclose(rho.values, [3.0, 1.0, 1.0, 1.0])


def brute_force_best_objective(u, cell, h, H, M):
    """Exhaustive bathtub oracle: all H-subsets of the forced size plus
    every choice of fractional node."""
    n = u.shape[0]
    excess = M - h * n * cell
    cap = (H - h) * cell
    k = int(np.floor(excess / cap + 1e-12))
    frac = excess - k * cap
    best = -np.inf
    for subset in itertools.combinations(range(n), k):
        rho = np.full(n, h)
        rho[list(subset)] = H
        if frac > 1e-13 * M:
            for extra in range(n):
                if extra in subset:
                    continue
                trial = rho.copy()
                trial[extra] = h + frac / cell
                best = max(best, float(np.sum(trial * u * u) * cell))
        else:
            best = max(best, float(np.sum(rho * u * u) * cell))
    return best


class TestBathtubOracle:
    @pytest.mark.parametrize("masscase", ["integral", "fractional", "floor"])
    def test_matches_exhaustive_enumeration(self, masscase):
        rng = np.random.default_rng(31)
        g = make_strip_grid(4, 0.5)
        g9 = pl.build_grid(pl.unit_square(), 5)  # 9 nodes
        g12 = make_strip_grid(12, 0.25)
        for grid in (g, g9, g12):
            assert grid.n <= 20
            cell = grid.cell_area
            area = grid.discrete_area
            for trial in range(8):
                u = rng.uniform(0.2, 3.0, grid.n)
                h, H = 1.0, 2.5
                if masscase == "integral":
                    k = rng.integers(0, grid.n + 1)
                    M = h * area + k * (H - h) * cell
                elif masscase == "floor":
                    M = h * area
                else:
                    M = rng.uniform(h * area, H * area)
                rho, t = optimal_density(ScalarField(grid, u), h, H, M)
                ours = float(np.sum(rho.values * u * u) * cell)
                best = brute_force_best_objective(u, cell, h, H, M)
                assert ours >= best * (1.0 - 1e-12)


def _two_form_optimal_density(u, h, H, M, grid=None):
    """Reference: the bathtub step that took an array or a field, verbatim."""
    if grid is None:
        grid = u.grid
    if isinstance(u, ScalarField):
        uv = u.values
        if u.grid.tag != grid.tag:
            raise RearrangeError("field grid does not match target grid")
    else:
        uv = np.ascontiguousarray(u, dtype=float)
    if uv.shape != (grid.n,):
        raise RearrangeError("field length does not match grid")
    if np.any(uv <= 0.0):
        raise RearrangeError("rearrangement needs a strictly positive field")
    _check_bracket(grid.discrete_area, h, H, M)

    n = grid.n
    cell = grid.cell_area
    order = np.argsort(-uv, kind="stable")
    values = np.full(n, h)

    if h == H:
        # degenerate box: the admissible set is a single density
        return DensityField(grid, values, h, H, M), float(uv[order[0]])

    cap = (H - h) * cell  # extra mass one node can absorb
    excess = M - h * n * cell
    k = max(int(np.floor(excess / cap)), 0)
    residual = excess - k * cap
    if residual < 0.0 and k > 0:
        k -= 1
        residual = excess - k * cap
    if residual >= cap * (1.0 - 1e-12) and k < n:
        k += 1
        residual = excess - k * cap
    k = min(k, n)

    frac_eps = 1e-13 * abs(M)
    frac_index = None
    if residual > frac_eps and k < n:
        frac_index = int(order[k])
        values[order[:k]] = H
        values[frac_index] = h + residual / cell
        t = float(uv[frac_index])
    else:
        values[order[:k]] = H
        if k == 0:
            t = float(uv[order[0]])
        elif k == n:
            t = 0.0
        else:
            t = float(uv[order[k]])

    return DensityField(grid, values, h, H, M), t


def _bathtub_outcome(fn, u, h, H, M):
    """The H nodes, level bits, fractional nodes and their values, or the
    error raised."""
    try:
        rho, t = fn(u, h, H, M)
    except RearrangeError as exc:
        return type(exc), str(exc)
    values = rho.values
    frac = fractional_nodes(rho)
    return np.flatnonzero(values == rho.H).tolist(), t.hex(), frac, values[frac]


class TestOptimalDensityReference:
    """The one bathtub against the floor-and-fix-up form it replaced on the
    lattice: the same H nodes, level and fractional node, and the same
    error; the fractional value, once ``excess - k * cap``, is now a
    pairwise sum's residual, so it agrees to rounding."""

    @pytest.mark.parametrize("spec", [pl.disk(1.0), pl.unit_square(), pl.annulus(0.4, 1.0)],
                             ids=["disk", "square", "annulus"])
    def test_matches_reference(self, spec):
        rng = np.random.default_rng(41)
        fractional = 0
        for case in range(140):
            g = pl.build_grid(spec, (17, 33)[case % 2])
            area, cell = g.discrete_area, g.cell_area
            u = rng.uniform(0.1, 2.0, g.n)
            if case % 7 in (1, 2):
                u = np.round(u, 1) + 0.05  # ties
            h = rng.uniform(0.5, 1.5)
            H = h + rng.uniform(0.1, 2.0)
            M = rng.uniform(h * area, H * area)
            # edge masses, the degenerate box and inputs each check rejects
            if case % 7 == 3:
                M = (h * area, H * area, h * area + int(rng.integers(g.n)) * (H - h) * cell,
                     np.nan, 1.01 * H * area)[case % 5]
            elif case % 7 == 4:
                H, M = h, h * area
            elif case % 14 == 5:
                u[case % g.n] = 0.0
            elif case % 14 == 12:
                h, H = H, h
            field = ScalarField(g, u)
            want = _bathtub_outcome(_two_form_optimal_density, field, h, H, M)
            got = _bathtub_outcome(optimal_density, field, h, H, M)
            assert got[:3] == want[:3], case
            if len(want) == 4:
                assert np.allclose(got[3], want[3], rtol=0.0, atol=1e-12 * H), case
                fractional += want[2] != []
        assert fractional >= 50  # the fractional-node branch is exercised


WHOLE_CELL_H = (1.7, 2.0, 3.3)


def _whole_cell_counts(n):
    return (n, n - 1, n // 2, n // 3, 7, 1, 0)


def _assert_whole_cells(u, rho, t, h, H, k):
    """k whole cells: the top k of u hold H, the rest h, none in between,
    and the level is u at the first light cell (0 when all are heavy)."""
    order = np.argsort(-u, kind="stable")
    assert np.flatnonzero(rho == H).tolist() == sorted(order[:k].tolist())
    assert np.count_nonzero(rho == h) == u.size - k
    assert t == (0.0 if k == u.size else u[order[k]])


class TestEdgeRule:
    """A mass that ends on a cell's edge fills whole cells on both paths,
    ``M = H * area`` included. The two bathtubs this one replaced left one
    cell a hair under H in such cases and reported the level at it: the
    lattice form's fix-up allowed a relative 1e-12 of one cell, and the
    radial form's running sum drifted."""

    def test_running_sum_drifting_low_is_corrected(self):
        # each cap added to a running sum in [1, 2) rounds down by 0.49 ulp,
        # so the running sum says one cell more fits than the mass holds
        c = 2.0**-20 + 0.49 * 2.0**-52
        w = np.full(100001, c)
        w[0] = 1.0
        u = np.linspace(2.0, 1.0, w.size)
        j = 60000
        whole = float(np.sum(w[: j + 1]))
        drift = whole - np.cumsum(w)[j]
        M = float(np.sum(w)) + whole - 0.5 * drift  # h = 1, H = 2
        # filling cell j whole would miss M by more than the mass slack
        assert 0.5 * drift > _MASS_RTOL * M
        rho, t = _bathtub(u, w, 1.0, 2.0, M)
        assert np.count_nonzero(rho == 2.0) == j
        assert np.flatnonzero((rho > 1.0) & (rho < 2.0)).tolist() == [j] and t == u[j]
        _check_density(rho, float(np.sum(rho * w)), 1.0, 2.0, M)

    @pytest.mark.parametrize("spec, size", [
        (pl.disk(1.0), 257), (pl.annulus(0.3, 1.0), 193), (pl.unit_square(), 129),
    ], ids=["disk-257", "annulus-193", "square-129"])
    def test_lattice(self, spec, size):
        g = pl.build_grid(spec, size)
        u = np.random.default_rng(7).uniform(0.1, 1.0, g.n)
        h = 1.0
        for H in WHOLE_CELL_H:
            masses = [(k, h * g.discrete_area + k * (H - h) * g.cell_area)
                      for k in _whole_cell_counts(g.n)]
            for k, M in masses + [(g.n, H * g.discrete_area)]:
                rho, t = optimal_density(ScalarField(g, u), h, H, M)
                _assert_whole_cells(u, rho.values, t, h, H, k)

    @pytest.mark.parametrize("kind, radii", [
        ("disk", (1.0,)), ("annulus", (0.3, 1.0)), ("annulus", (0.05, 1.0)),
    ], ids=["disk", "annulus-0.3", "annulus-0.05"])
    @pytest.mark.parametrize("n_r", [256, 1024, 4096])
    def test_rings(self, kind, radii, n_r):
        g = radial_grid(kind, radii, n_r)
        w = g.weights
        u = np.random.default_rng(7).uniform(0.1, 1.0, g.n)
        order = np.argsort(-u, kind="stable")
        h = 1.0
        for H in WHOLE_CELL_H:
            masses = [(k, h * g.discrete_area + (H - h) * float(np.sum(w[order[:k]])))
                      for k in _whole_cell_counts(g.n)]
            for k, M in masses + [(g.n, H * g.discrete_area)]:
                rho, t = _bathtub(u, w, h, H, M)
                _assert_whole_cells(u, rho, t, h, H, k)


class TestMass:
    def test_uniform_h_on_nine_nodes(self):
        g = pl.build_grid(pl.unit_square(), 5)
        h = 0.7
        rho = uniform_density(g, h, h, h * g.discrete_area)
        assert mass(rho) == pytest.approx(9 * h * 0.0625, rel=1e-14)

    def test_ceiling_density(self):
        g = pl.build_grid(pl.unit_square(), 5)
        H = 2.5
        rho = DensityField(g, np.full(g.n, H), 1.0, H, H * g.discrete_area)
        assert mass(rho) == pytest.approx(H * g.discrete_area, rel=1e-14)

    def test_optimal_density_mass_is_exact(self):
        rng = np.random.default_rng(37)
        g = pl.build_grid(pl.unit_square(), 9)
        for _ in range(25):
            u = ScalarField(g, rng.uniform(0.1, 1.0, g.n))
            M = rng.uniform(1.0 * g.discrete_area, 2.0 * g.discrete_area)
            rho, t = optimal_density(u, 1.0, 2.0, M)
            assert abs(mass(rho) - M) <= 1e-12 * M


class TestDensityField:
    def test_bounds_enforced(self):
        g = strip_grid_4()
        with pytest.raises(RearrangeError):
            DensityField(g, np.array([0.5, 1.0, 1.0, 1.0]), 1.0, 2.0, 1.0)

    def test_length_must_match_grid(self):
        with pytest.raises(RearrangeError, match="density length does not match grid"):
            DensityField(strip_grid_4(), np.full(5, 1.5), 1.0, 2.0, 1.5)

    def test_mass_consistency_enforced(self):
        g = strip_grid_4()
        with pytest.raises(RearrangeError):
            DensityField(g, np.ones(4), 1.0, 2.0, 1.5)

    def test_uniform_density_in_bracket(self):
        g = strip_grid_4()
        rho = uniform_density(g, 1.0, 2.0, 1.5)
        assert np.allclose(rho.values, 1.5)

    def test_uniform_density_outside_bracket_rejected(self):
        g = strip_grid_4()
        with pytest.raises(RearrangeError, match="outside admissible bracket"):
            uniform_density(g, 1.0, 2.0, 2.5)

    def test_nan_rejected(self):
        g = pl.build_grid(pl.disk(1.0), 17)
        M = 1.5 * g.discrete_area
        v = np.full(g.n, 1.5)
        DensityField(g, v, 1.0, 2.0, M)
        v[g.n // 2] = np.nan
        with pytest.raises(RearrangeError):
            DensityField(g, v, 1.0, 2.0, M)


class TestEitherGrid:
    """A lattice and a radial grid each give their node ``weights`` and one
    weighted node sum, which DensityField, the uniform start and the bathtub
    read; the two sums keep their own summation order, bit for bit."""

    GRIDS = [("lattice", lambda: pl.build_grid(pl.disk(1.0), 33)),
             ("rings", lambda: radial_grid("annulus", (0.3, 1.0), 256))]

    def test_lattice_weights_are_the_cell_area(self):
        g = pl.build_grid(pl.annulus(0.4), 41)
        assert g.weights.tobytes() == np.full(g.n, g.cell_area).tobytes()

    def test_sums_keep_each_grids_order(self):
        rng = np.random.default_rng(11)
        lattice = pl.build_grid(pl.disk(1.0), 33)
        rings = radial_grid("disk", (1.0,), 256)
        for _ in range(20):
            x = rng.uniform(-1.0, 3.0, lattice.n)
            assert lattice._integral(x).hex() == (float(np.sum(x)) * lattice.cell_area).hex()
            y = rng.uniform(-1.0, 3.0, rings.n)
            assert rings._integral(y).hex() == float(np.sum(y * rings.weights)).hex()

    @pytest.mark.parametrize("kind, make", GRIDS, ids=[g[0] for g in GRIDS])
    def test_density_checks_its_grids_mass(self, kind, make):
        g = make()
        M = 1.5 * g.discrete_area
        rho = uniform_density(g, 1.0, 2.0, M)
        assert abs(g._integral(rho.values) - M) <= _MASS_RTOL * M
        off = rho.values.copy()
        off[-1] += 1e-6
        with pytest.raises(RearrangeError, match="density mass .* deviates"):
            DensityField(g, off, 1.0, 2.0, M)

    @pytest.mark.parametrize("kind, make", GRIDS, ids=[g[0] for g in GRIDS])
    def test_bathtub_fills_the_grids_weights(self, kind, make):
        g = make()
        u = np.random.default_rng(3).uniform(0.1, 1.0, g.n)
        M = 1.3 * g.discrete_area
        got, got_t = optimal_density(ScalarField(g, u), 1.0, 2.0, M)
        rho, t = _bathtub(u, g.weights, 1.0, 2.0, M)
        assert got.grid is g and got_t == t
        assert got.values.tobytes() == rho.tobytes()


class TestNumberTypes:
    """(h, H, M) are taken as floats: Python and numpy integers give the
    float result bitwise, bools and non-numbers are refused."""

    @pytest.mark.parametrize("kind", [int, np.int32, np.int64, np.uint8],
                             ids=lambda kind: kind.__name__)
    def test_integers_give_the_float_result(self, kind):
        # an integer h once made an integer density, which truncated the
        # fractional node (1.5 here) and failed the density's mass check
        g = strip_grid_4()
        u = ScalarField(g, np.array([4.0, 3.0, 2.0, 1.0]))
        want, want_t = optimal_density(u, 1.0, 3.0, 1.125)
        got, got_t = optimal_density(u, kind(1), kind(3), 1.125)
        assert got.values.tobytes() == want.values.tobytes()
        assert got.values[0] == 1.5 and got_t == want_t
        rho = DensityField(g, np.full(4, 2.0), kind(1), kind(3), kind(2))
        assert [type(x) for x in (rho.h, rho.H, rho.M)] == [float] * 3
        assert uniform_density(g, kind(1), kind(3), kind(2)).values.dtype == np.float64

    @pytest.mark.parametrize("h, H, M", [
        (True, 3.0, 1.5), (np.True_, 3.0, 1.5), (1.0, np.True_, 1.0), (1.0, 3.0, True),
        ("1", 3.0, 1.5), (None, 3.0, 1.5), (1.0, 3.0, 1 + 0j),
    ], ids=["bool-h", "numpy-bool-h", "numpy-bool-H", "bool-M", "string", "none", "complex"])
    def test_bools_and_non_numbers_are_refused(self, h, H, M):
        g = strip_grid_4()
        u = ScalarField(g, np.array([4.0, 3.0, 2.0, 1.0]))
        message = "h, H and M must be real numbers, got h=%r H=%r M=%r" % (h, H, M)
        for call in (lambda: _check_bracket(g.discrete_area, h, H, M),
                     lambda: optimal_density(u, h, H, M),
                     lambda: DensityField(g, np.full(4, 1.5), h, H, M)):
            with pytest.raises(RearrangeError, match=re.escape(message)):
                call()


    def test_infinite_upper_bound_is_refused(self):
        # an infinite H admitted any mass; the bathtub's residual became NaN
        g = strip_grid_4()
        u = ScalarField(g, np.array([4.0, 3.0, 2.0, 1.0]))
        for call in (lambda: _check_bracket(g.discrete_area, 1.0, math.inf, 1.5),
                     lambda: optimal_density(u, 1.0, math.inf, 1.5),
                     lambda: DensityField(g, np.full(4, 1.5), 1.0, math.inf, 1.5)):
            with pytest.raises(RearrangeError, match="^H must be finite, got inf$"):
                call()


class TestDensityCheck:
    """The one box-and-mass rule, which ``DensityField`` and the radial
    solver both run."""

    def test_admissible_density_passes(self):
        _check_density(np.array([1.0, 2.0, 1.5]), 4.5, 1.0, 2.0, 4.5)

    @pytest.mark.parametrize("values, got, message", [
        ([1.0, 2.0, 1.5], 4.5 * (1 + 1e-9), "density mass 4.500000004"),
        ([1.0, 2.0, 1.5], math.nan, "density mass nan"),
        ([0.5, 2.0, 2.0], 4.5, "density leaves the box [h, H]"),
        ([1.0, 2.5, 1.0], 4.5, "density leaves the box [h, H]"),
        ([1.0, math.nan, 1.5], 4.5, "density leaves the box [h, H]"),
    ], ids=["off-mass", "nan-mass", "below-h", "above-H", "nan-node"])
    def test_inadmissible_density_is_refused(self, values, got, message):
        with pytest.raises(RearrangeError, match=re.escape(message)):
            _check_density(np.array(values), got, 1.0, 2.0, 4.5)

    def test_slack_is_relative_to_M(self):
        M = 4.5
        _check_density(np.array([1.5]), M * (1 + 0.5e-12), 1.0, 2.0, M)
        with pytest.raises(RearrangeError, match="deviates from M"):
            _check_density(np.array([1.5]), M * (1 + 2e-12), 1.0, 2.0, M)
