import itertools

import numpy as np
import pytest

import platelab as pl
from platelab.fields import ScalarField
from platelab.rearrange import (
    DensityField,
    RearrangeError,
    ThresholdResult,
    _check_bracket,
    mass,
    optimal_density,
    uniform_density,
)
from conftest import make_strip_grid


def strip_grid_4():
    """Four interior nodes in a row with cell area 0.25 (delta = 0.5)."""
    return make_strip_grid(4, 0.5)


def test_strip_grid_shape():
    g = strip_grid_4()
    assert g.n == 4
    assert g.cell_area == pytest.approx(0.25)


class TestOptimalDensity:
    def test_exact_bang_bang(self):
        g = strip_grid_4()
        u = ScalarField(g, np.array([4.0, 3.0, 2.0, 1.0]))
        res = optimal_density(u, 1.0, 3.0, 1.5)
        assert np.allclose(res.rho.values, [3.0, 1.0, 1.0, 1.0])
        assert res.t == 3.0
        assert res.fractional_index is None
        assert mass(res.rho) == pytest.approx(1.5, rel=1e-14)

    def test_fractional_node(self):
        g = strip_grid_4()
        u = ScalarField(g, np.array([4.0, 3.0, 2.0, 1.0]))
        res = optimal_density(u, 1.0, 3.0, 1.25)
        assert np.allclose(res.rho.values, [2.0, 1.0, 1.0, 1.0])
        assert res.fractional_index == 0
        assert res.t == 4.0
        assert mass(res.rho) == pytest.approx(1.25, rel=1e-14)

    def test_lower_mass_bound_gives_uniform_floor(self):
        g = strip_grid_4()
        u = ScalarField(g, np.array([4.0, 3.0, 2.0, 1.0]))
        res = optimal_density(u, 1.0, 3.0, 1.0)  # h * |domain|
        assert np.allclose(res.rho.values, 1.0)
        assert res.t == 4.0  # max of u
        assert res.fractional_index is None

    def test_upper_mass_bound_gives_uniform_ceiling(self):
        g = strip_grid_4()
        u = ScalarField(g, np.array([4.0, 3.0, 2.0, 1.0]))
        res = optimal_density(u, 1.0, 3.0, 3.0)
        assert np.allclose(res.rho.values, 3.0)
        assert res.t == 0.0

    def test_degenerate_box(self):
        g = strip_grid_4()
        u = ScalarField(g, np.array([4.0, 3.0, 2.0, 1.0]))
        res = optimal_density(u, 2.0, 2.0, 2.0)
        assert np.allclose(res.rho.values, 2.0)

    def test_mass_out_of_bracket_rejected(self):
        g = strip_grid_4()
        u = ScalarField(g, np.array([4.0, 3.0, 2.0, 1.0]))
        with pytest.raises(RearrangeError):
            optimal_density(u, 1.0, 3.0, 0.5)
        with pytest.raises(RearrangeError):
            optimal_density(u, 1.0, 3.0, 3.5)

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
            res = optimal_density(u, h, H, M)
            rho = res.rho.values
            assert (rho[u.values > res.t] == H).all()
            assert (rho[u.values < res.t] == h).all()
            interior = (rho > h) & (rho < H)
            assert interior.sum() <= 1
            assert abs(mass(res.rho) - M) <= 1e-12 * M

    def test_monotone_coupling(self):
        rng = np.random.default_rng(23)
        g = pl.build_grid(pl.unit_square(), 7)
        u = ScalarField(g, rng.uniform(0.1, 2.0, g.n))
        res = optimal_density(u, 1.0, 2.0, 1.3 * g.discrete_area)
        uv, rv = u.values, res.rho.values
        ii, jj = np.meshgrid(np.arange(g.n), np.arange(g.n))
        higher = uv[ii] > uv[jj]
        assert (rv[ii][higher] >= rv[jj][higher]).all()

    def test_equimeasurability_under_permutation(self):
        rng = np.random.default_rng(29)
        g = strip_grid_4()
        u = np.array([0.9, 2.3, 1.1, 3.4])  # distinct values: tie rule idle
        perm = rng.permutation(4)
        r1 = optimal_density(ScalarField(g, u), 1.0, 3.0, 1.6)
        r2 = optimal_density(ScalarField(g, u[perm]), 1.0, 3.0, 1.6)
        assert np.array_equal(r2.rho.values, r1.rho.values[perm])
        assert r2.t == r1.t

    def test_plateau_tie_breaks_by_node_index(self):
        g = strip_grid_4()
        u = ScalarField(g, np.array([2.0, 2.0, 2.0, 2.0]))
        res = optimal_density(u, 1.0, 3.0, 1.5)  # one full H node
        assert np.allclose(res.rho.values, [3.0, 1.0, 1.0, 1.0])


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
                res = optimal_density(ScalarField(grid, u), h, H, M)
                ours = float(np.sum(res.rho.values * u * u) * cell)
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
    _check_bracket(grid, h, H, M)

    n = grid.n
    cell = grid.cell_area
    order = np.argsort(-uv, kind="stable")
    values = np.full(n, h)

    if h == H:
        # degenerate box: the admissible set is a single density
        rho = DensityField(grid, values, h, H, M)
        return ThresholdResult(rho=rho, t=float(uv[order[0]]), fractional_index=None)

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

    rho = DensityField(grid, values, h, H, M)
    return ThresholdResult(rho=rho, t=t, fractional_index=frac_index)


def _bathtub_outcome(fn, u, h, H, M):
    """rho bits, level bits and fractional node, or the error raised."""
    try:
        res = fn(u, h, H, M)
    except RearrangeError as exc:
        return type(exc), str(exc)
    return res.rho.values.tobytes(), res.t.hex(), res.fractional_index


class TestOptimalDensityReference:
    @pytest.mark.parametrize("spec", [pl.disk(1.0), pl.unit_square(), pl.annulus(0.4, 1.0)],
                             ids=["disk", "square", "annulus"])
    def test_matches_reference_bitwise(self, spec):
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
            assert got == want, case
            fractional += len(want) == 3 and want[2] is not None
        assert fractional >= 50  # the fractional-node branch is exercised


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
            res = optimal_density(u, 1.0, 2.0, M)
            assert abs(mass(res.rho) - M) <= 1e-12 * M


class TestDensityField:
    def test_bounds_enforced(self):
        g = strip_grid_4()
        with pytest.raises(RearrangeError):
            DensityField(g, np.array([0.5, 1.0, 1.0, 1.0]), 1.0, 2.0, 1.0)

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
