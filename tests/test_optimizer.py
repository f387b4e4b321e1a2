import itertools
import math
import re
import sys

import numpy as np
import pytest
from scipy.linalg import eigh

import platelab as pl
from platelab import optimizer, radial
from platelab.eigensolver import _quotient, principal_pair
from platelab.fields import ScalarField
from platelab.optimizer import OptimizeError, optimize
from platelab.rearrange import RearrangeError, optimal_density
from conftest import BAD_COUNTS


def _optimize_starts(**starts):
    """``optimize`` on a small square with the given ``restarts`` and ``seed``."""
    return optimize(pl.unit_square(), 17, 1.0, 2.0, 1.5, **starts)


class TestOptions:
    """``optimize``'s ``restarts`` and ``seed``, checked at entry."""

    @pytest.mark.parametrize("kwargs", [{"restarts": 0}, {"restarts": -2}], ids=str)
    def test_bad_values_rejected(self, kwargs):
        with pytest.raises(OptimizeError, match=re.escape(
                "restarts must be at least 1, got %r" % (kwargs["restarts"],))):
            _optimize_starts(**kwargs)
        assert issubclass(OptimizeError, ValueError)

    @pytest.mark.parametrize("name", ["restarts"])
    @pytest.mark.parametrize("case, count", BAD_COUNTS, ids=[case[0] for case in BAD_COUNTS])
    def test_counts_must_be_integers(self, case, count, name):
        # restarts = 2.5 failed later in ``range``; True was read as 1
        with pytest.raises(OptimizeError,
                           match=re.escape("%s must be an integer, got %r" % (name, count))):
            _optimize_starts(**{name: count})

    @pytest.mark.parametrize("seed, message", [
        (2.5, "seed must be an integer, got 2.5"),
        ("3", "seed must be an integer, got '3'"),
        (True, "seed must be an integer, got True"),
        (-1, "seed must be non-negative, got -1"),
        (None, "seed must be an integer, got None"),
    ], ids=["fraction", "string", "bool", "negative", "none"])
    def test_seed_must_be_a_non_negative_integer(self, seed, message):
        # 2.5 and "3" failed inside optimize with numpy's TypeError; True ran as seed 1;
        # None drew fresh entropy, so two runs differed
        with pytest.raises(OptimizeError, match=re.escape(message)):
            _optimize_starts(restarts=2, seed=seed)

    @pytest.mark.parametrize("count", [np.int32(2), np.int64(2), np.uint8(2)], ids=repr)
    def test_numpy_integer_counts_are_taken(self, count):
        got, want = (_optimize_starts(restarts=n, seed=n) for n in (count, 2))
        assert repr(got[0].theta) == repr(want[0].theta)
        assert got[1].restart_thetas == want[1].restart_thetas


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
        uniform = principal_pair(op, pl.uniform_density(grid, 1.0, 1.0, grid.discrete_area))
        assert pair.theta == pytest.approx(uniform.theta / 2.0, rel=1e-12)

    def test_disk_heavy_core_is_centered(self, disk_pair_64):
        pair, report = disk_pair_64
        grid = pair.grid
        H = pair.rho.H
        radial = pl.radial_optimize("disk", (1.0,), pair.rho.h, H, pair.rho.M, n_r=1024)
        r_star = radial.grid.r[radial.rho.values >= H].max()
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
            q = _quotient(pair.u.values, pair.v.values, pair.rho.values, pair.grid)
            assert abs(q - pair.theta) <= 1e-9 * pair.theta

    def test_rho_consistent_with_rearrangement(self, pair_matrix):
        for name, fill, M, pair, report in pair_matrix:
            redo, _ = optimal_density(pair.u, pair.rho.h, pair.rho.H, M)
            assert np.array_equal(redo.values, pair.rho.values), name

    def test_idempotence_at_fixed_point(self, disk_pair_64):
        pair, report = disk_pair_64
        grid = pair.grid
        op = pl.assemble_laplacian(grid)
        eig = principal_pair(op, pair.rho, u0=pair.u)
        redo, _ = optimal_density(eig.u, pair.rho.h, pair.rho.H, pair.rho.M)
        assert np.array_equal(redo.values, pair.rho.values)
        assert abs(eig.theta - pair.theta) <= 1e-7 * pair.theta

    def test_scale_invariance_of_threshold_step(self, disk_pair_64):
        pair, _ = disk_pair_64
        h, H, M = pair.rho.h, pair.rho.H, pair.rho.M
        base, t = optimal_density(pair.u, h, H, M)
        scaled, scaled_t = optimal_density(ScalarField(pair.grid, 4.0 * pair.u.values), h, H, M)
        assert np.array_equal(scaled.values, base.values)
        assert scaled_t == 4.0 * t

    def test_restarts_deterministic_and_no_worse(self):
        spec = pl.annulus(0.5, 1.0)
        area = np.pi * 0.75
        p1, r1 = optimize(spec, 65, 1.0, 2.0, 1.5 * area, restarts=3, seed=123)
        p2, r2 = optimize(spec, 65, 1.0, 2.0, 1.5 * area, restarts=3, seed=123)
        assert r1.restart_thetas == r2.restart_thetas
        assert len(r1.restart_thetas) == 3
        assert p1.theta <= min(r1.restart_thetas) * (1 + 1e-12)

    def test_mass_bracket_enforced(self):
        with pytest.raises(RearrangeError):
            optimize(pl.unit_square(), 17, 1.0, 2.0, 100.0)

    def test_infinite_upper_bound_is_refused(self):
        # failed on the density's mass, a NaN residual of the bathtub step
        with pytest.raises(RearrangeError, match="^H must be finite, got inf$"):
            optimize(pl.disk(), 17, 1.0, math.inf, 5.0)

    def test_report_metadata(self, disk_pair_64):
        _, report = disk_pair_64
        assert report.termination in ("theta-converged", "rho-fixed", "max-outer")
        assert report.outer_iterations == len(report.theta_history)
        assert report.wall_time > 0


class TestStopConstants:
    """Both paths' alternation reads ``optimizer.MAX_OUTER`` and
    ``optimizer.THETA_TOL`` when it runs."""

    @staticmethod
    def _stops():
        """(termination, outer steps) of optimize and radial_optimize on
        the annulus of inner radius 0.5."""
        spec = pl.annulus(0.5)
        mass = 1.5 * spec.area()
        _, report = optimize(spec, 33, 1.0, 2.0, mass)
        res = pl.radial_optimize("annulus", (0.5, 1.0), 1.0, 2.0, mass, n_r=256)
        return [(report.termination, report.outer_iterations),
                (res.termination, res.outer_iterations)]

    def test_max_outer_is_read_at_call_time(self, monkeypatch):
        assert all(outer > 1 for _, outer in self._stops())
        monkeypatch.setattr(optimizer, "MAX_OUTER", 1)
        assert self._stops() == [("max-outer", 1)] * 2

    def test_theta_tol_is_read_at_call_time(self, monkeypatch):
        assert all(stop != ("theta-converged", 2) for stop in self._stops())
        # a quotient change below the whole quotient stops the second step
        monkeypatch.setattr(optimizer, "THETA_TOL", 1.0)
        assert self._stops() == [("theta-converged", 2)] * 2

    @pytest.mark.parametrize("name, value, termination", [
        ("THETA_TOL", 1.0, "theta-converged"), ("MAX_OUTER", 1, "max-outer"),
    ], ids=["theta-converged", "max-outer"])
    def test_stale_stop_scales_u_on_the_solved_density(self, monkeypatch, name, value,
                                                        termination):
        # these stops return the last bathtub's rho with the u solved at the
        # density before it; the radial u was scaled on the returned rho
        solved = []
        pair_2d, principal = optimizer.principal_pair, radial._principal
        monkeypatch.setattr(optimizer, "principal_pair", lambda op, rho, u0=None: (
            solved.append(rho) or pair_2d(op, rho, u0=u0)))
        monkeypatch.setattr(radial, "_principal", lambda apply, rho, u0: (
            solved.append(rho) or principal(apply, rho, u0)))
        monkeypatch.setattr(optimizer, name, value)
        spec = pl.annulus(0.5)
        mass = 1.5 * spec.area()
        pair, report = optimize(spec, 33, 1.0, 2.0, mass)
        last_2d = solved[-1]
        res = pl.radial_optimize("annulus", (0.5, 1.0), 1.0, 2.0, mass, n_r=256)
        assert (report.termination, res.termination) == (termination, termination)
        for p, rho in ((pair, last_2d), (res, solved[-1])):
            u, v = p.u.values, p.v.values
            assert not np.array_equal(rho.values, p.rho.values)  # a stale stop
            assert p.grid._integral(rho.values * u * u) == pytest.approx(1.0, rel=1e-14, abs=0.0)
            assert p.theta == _quotient(u, v, p.rho.values, p.grid)


class TestCallGraph:
    """The call sites the benchmark's probe wraps in ``optimizer``: every
    assembly, eigensolve and bathtub of both paths goes through them."""

    @pytest.fixture
    def counts(self, monkeypatch):
        counts = {"assemble_laplacian": 0, "principal_pair": 0, "cold": 0,
                  "optimal_density": 0}
        for name in ("assemble_laplacian", "principal_pair", "optimal_density"):
            def counted(*args, _name=name, _fn=getattr(optimizer, name), **kwargs):
                counts[_name] += 1
                counts["cold"] += _name == "principal_pair" and kwargs.get("u0") is None
                return _fn(*args, **kwargs)
            monkeypatch.setattr(optimizer, name, counted)
        return counts

    def test_optimize_calls_each_site(self, counts):
        spec = pl.annulus(0.5)
        optimize(spec, 33, 1.0, 2.0, 1.5 * spec.area(), restarts=3, seed=4)
        assert (counts["assemble_laplacian"], counts["cold"]) == (1, 3)
        # one bathtub per eigensolve, and one per randomized start
        assert (counts["principal_pair"], counts["optimal_density"]) == (30, 32)

    def test_each_start_is_drawn_when_its_turn_comes(self, monkeypatch):
        # every start was drawn before the first alternation, all held at once
        events, depth = [], []
        bathtub, alternate = optimizer.optimal_density, optimizer._alternate

        def drawn(*args):
            if not depth:
                events.append("draw")
            return bathtub(*args)

        def alternated(*args):
            events.append("alternate")
            depth.append(1)
            try:
                return alternate(*args)
            finally:
                depth.pop()

        monkeypatch.setattr(optimizer, "optimal_density", drawn)
        monkeypatch.setattr(optimizer, "_alternate", alternated)
        spec = pl.annulus(0.5)
        optimize(spec, 33, 1.0, 2.0, 1.5 * spec.area(), restarts=3, seed=4)
        assert events == ["alternate", "draw", "alternate", "draw", "alternate"]

    def test_each_start_is_scored_once_in_the_alternation(self, monkeypatch):
        # optimize and radial_optimize each took their own quotient of the pair
        callers = []
        quotient = optimizer._quotient

        def scored(*args):
            callers.append(sys._getframe(1).f_code.co_name)
            return quotient(*args)

        monkeypatch.setattr(optimizer, "_quotient", scored)
        spec = pl.annulus(0.5)
        optimize(spec, 33, 1.0, 2.0, 1.5 * spec.area(), restarts=3, seed=4)
        pl.radial_optimize("annulus", (0.5, 1.0), 1.0, 2.0, 1.5 * spec.area(), n_r=256)
        assert callers == ["_alternate"] * 4

    def test_radial_bathtub_is_the_drivers(self, counts):
        spec = pl.annulus(0.5)
        res = pl.radial_optimize("annulus", (0.5, 1.0), 1.0, 2.0, 1.5 * spec.area(), n_r=256)
        assert counts["optimal_density"] == res.outer_iterations
        assert counts["principal_pair"] == counts["assemble_laplacian"] == 0


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

    @pytest.mark.parametrize("inner", [0.9, 0.95])
    def test_localized_eigenvector_is_accepted(self, inner):
        # the heavy set sits in one sector of the ring and the eigenvector
        # decays along it to rounding size: the Arnoldi hand-off's vector was
        # refused as "not strictly positive" over noise of either sign
        spec = pl.annulus(inner)
        pair, report = optimize(spec, 97, 1.0, 2.0, 1.5 * spec.area())
        assert report.termination in ("rho-fixed", "theta-converged")
        assert (pair.u.values > 0).all() and (pair.v.values > 0).all()

    def test_thin_annulus_reports_lower_of_the_two_states(self):
        # exploratory regime: whichever fixed point wins is reported with
        # its asymmetry attached; no quantitative threshold is asserted
        from platelab import diagnostics as dg

        spec = pl.annulus(0.6, 1.0)
        area = np.pi * (1 - 0.36)
        pair, report = optimize(spec, 129, 1.0, 2.0, 1.5 * area, restarts=2, seed=5)
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
