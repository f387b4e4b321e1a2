import math
import pathlib
import re

import numpy as np
import pytest
from scipy.sparse.linalg import ArpackNoConvergence, LinearOperator, eigs
from scipy.special import jn_zeros

import platelab as pl
from platelab import eigensolver
from platelab import optimizer
from platelab.eigensolver import (
    DEFAULT_MAX_ITER,
    DEFAULT_TOL,
    KRYLOV_NCV,
    KRYLOV_RESIDUAL,
    KRYLOV_TOL,
    EigenError,
    EigenResult,
    _crawls,
    _scaled,
    principal_pair,
    rayleigh_quotient,
)
from platelab.fields import ScalarField
from platelab.plate import solve_navier
from platelab.poisson import GridMismatchError
from platelab.rearrange import DensityField, optimal_density
from conftest import BAD_COUNTS, BAD_REALS
from test_golden import OPTIMIZE_IDS, OPTIMIZE_ROWS

J01 = jn_zeros(0, 1)[0]


def _uniform(grid, value=1.0):
    return DensityField(
        grid, np.full(grid.n, value), value, value, value * grid.discrete_area
    )


class TestPrincipalPair:
    def test_square_eigenvalue(self, square_uniform_eig_128):
        res = square_uniform_eig_128
        target = 4 * np.pi**4
        assert abs(res.theta - target) / target < 0.01

    def test_disk_eigenvalue(self, disk_uniform_eig_128):
        res = disk_uniform_eig_128
        target = J01**4
        assert abs(res.theta - target) / target < 0.01

    def test_density_doubling_halves_theta_bitwise(self):
        g = pl.build_grid(pl.disk(1.0), 65)
        op = pl.assemble_laplacian(g)
        r1 = principal_pair(op, _uniform(g, 1.0))
        r2 = principal_pair(op, _uniform(g, 2.0))
        assert r2.theta == r1.theta / 2.0
        assert r1.iterations == r2.iterations
        assert all(a / 2.0 == b for a, b in zip(r1.theta_history, r2.theta_history))

    def test_monotone_quotient_history(self, disk_uniform_eig_128):
        hist = np.asarray(disk_uniform_eig_128.theta_history)
        assert np.all(np.diff(hist) <= 1e-12 * hist[1:])

    @pytest.mark.parametrize("spec, area", [(pl.unit_square(), 1.0), (pl.rectangle(1.0, 0.5), 0.5)],
                             ids=["square", "rectangle"])
    @pytest.mark.parametrize("fraction", [0.3, 0.5, 0.7])
    def test_uncut_quotient_never_rises(self, monkeypatch, spec, area, fraction):
        # A is symmetric without boundary cuts, so every step's quotient is
        # the Rayleigh quotient of the pencil (A^2, rho) at an inverse-
        # iteration iterate: it cannot rise, cold or warm (on cut grids it
        # does, by up to 1e-7 relative)
        histories = []

        def recorded(*args, **kwargs):
            res = principal_pair(*args, **kwargs)
            histories.append(np.asarray(res.theta_history))
            return res

        monkeypatch.setattr(optimizer, "principal_pair", recorded)
        pl.optimize(spec, 33, 1.0, 2.0, (1.0 + fraction) * area,
                    opts=pl.OptimizeOptions(restarts=2, seed=1))
        assert len(histories) >= 4
        for hist in histories:
            assert np.all(np.diff(hist) <= 0.0)

    def test_unit_weighted_norm(self, disk_uniform_eig_128):
        res = disk_uniform_eig_128
        g = res.u.grid
        got = np.sum(res.u.values**2) * g.cell_area  # rho == 1
        assert abs(got - 1.0) <= 1e-12

    def test_strict_positivity(self, disk_uniform_eig_128):
        assert (disk_uniform_eig_128.u.values > 0).all()
        assert (disk_uniform_eig_128.v.values > 0).all()

    def test_iterate_positivity_along_power_iteration(self):
        g = pl.build_grid(pl.disk(1.0), 33)
        op = pl.assemble_laplacian(g)
        rho = _uniform(g)
        u = np.ones(g.n)
        for _ in range(10):
            w, v = solve_navier(op, ScalarField(g, rho.values * u))
            assert (w.values > 0).all() and (v.values > 0).all()
            u = w.values / np.max(w.values)

    def test_two_random_starts_agree(self):
        g = pl.build_grid(pl.disk(1.0), 65)
        op = pl.assemble_laplacian(g)
        rho = _uniform(g)
        rng = np.random.default_rng(0)
        r1 = principal_pair(op, rho, tol=1e-13, u0=ScalarField(g, rng.uniform(0.5, 1.5, g.n)))
        r2 = principal_pair(op, rho, tol=1e-13, u0=ScalarField(g, rng.uniform(0.5, 1.5, g.n)))
        scale = np.max(np.abs(r1.u.values))
        assert np.max(np.abs(r1.u.values - r2.u.values)) <= 1e-8 * scale

    def test_reported_theta_matches_quotient(self, disk_uniform_eig_128):
        res = disk_uniform_eig_128
        g = res.u.grid
        q = rayleigh_quotient(res.u, res.v, _uniform(g))
        assert abs(q - res.theta) <= 1e-9 * res.theta

    def test_tol_validated(self):
        g = pl.build_grid(pl.unit_square(), 9)
        op = pl.assemble_laplacian(g)
        with pytest.raises(ValueError):
            principal_pair(op, _uniform(g), tol=1e-3)

    @pytest.mark.parametrize("case, tol", BAD_REALS, ids=[case[0] for case in BAD_REALS])
    def test_tol_must_be_a_real_number(self, case, tol):
        g = pl.build_grid(pl.unit_square(), 9)
        with pytest.raises(ValueError, match=re.escape("tol must be a real in (0, 1e-6], got %r"
                                                       % (tol,))):
            principal_pair(pl.assemble_laplacian(g), _uniform(g), tol=tol)

    def test_grid_mismatch_rejected(self):
        g1 = pl.build_grid(pl.unit_square(), 9)
        g2 = pl.build_grid(pl.unit_square(), 17)
        op = pl.assemble_laplacian(g1)
        with pytest.raises(GridMismatchError):
            principal_pair(op, _uniform(g2))
        with pytest.raises(GridMismatchError, match="fields and density live on different"):
            rayleigh_quotient(ScalarField(g1, np.ones(g1.n)), ScalarField(g1, np.ones(g1.n)),
                              _uniform(g2))

    def test_warm_start_must_be_positive_on_the_grid(self):
        g = pl.build_grid(pl.unit_square(), 9)
        other = pl.build_grid(pl.unit_square(), 17)
        zero_node = np.ones(g.n)
        zero_node[3] = 0.0
        for u0 in (ScalarField(g, zero_node), ScalarField(other, np.ones(other.n))):
            with pytest.raises(ValueError, match="u0 must be a strictly positive field"):
                principal_pair(pl.assemble_laplacian(g), _uniform(g), u0=u0)

    @pytest.mark.parametrize("case, count", BAD_COUNTS, ids=[case[0] for case in BAD_COUNTS])
    def test_max_iter_must_be_an_integer(self, case, count):
        # 64.5 ran 65 applications and reported "no convergence in 64 iterations"
        g = pl.build_grid(pl.unit_square(), 9)
        with pytest.raises(ValueError, match=re.escape("max_iter must be an integer, got %r"
                                                       % (count,))):
            principal_pair(pl.assemble_laplacian(g), _uniform(g), max_iter=count)

    def test_iteration_cap_raises_with_last_theta(self):
        g = pl.build_grid(pl.unit_square(), 9)
        op = pl.assemble_laplacian(g)
        with pytest.raises(EigenError) as err:
            principal_pair(op, _uniform(g), max_iter=1)
        assert err.value.last_theta is not None


def _power_reference(op, rho, tol, max_iter=10000, u0=None):
    """The power loop alone, as ``principal_pair`` ran it before the
    Krylov hand-off existed."""
    grid = rho.grid
    cell = grid.cell_area

    if u0 is None:
        u = np.ones(grid.n)
    else:
        u = u0.values
        u = u / np.max(np.abs(u))

    history = []
    theta_prev = None
    for it in range(1, max_iter + 1):
        f = ScalarField(grid, rho.values * u)
        u_field, v_field = solve_navier(op, f)
        w = u_field.values
        if np.any(w <= 0.0):
            raise EigenError("iterate lost positivity", iterations=it)
        scale = np.max(np.abs(w))
        u = w / scale
        v = v_field.values / scale
        num = float(np.sum(v * v)) * cell
        den = float(np.sum(rho.values * u * u)) * cell
        theta = num / den
        history.append(theta)
        if theta_prev is not None and abs(theta - theta_prev) <= tol * theta:
            break
        theta_prev = theta
    else:
        raise EigenError("no convergence", last_theta=history[-1], iterations=max_iter)

    c = np.sqrt(float(np.sum(rho.values * u * u)) * cell)
    return EigenResult(
        theta=theta,
        u=ScalarField(grid, u / c),
        v=ScalarField(grid, v / c),
        iterations=it,
        theta_history=tuple(history),
    )


def _threshold_case(spec, nodes_per_side, seed=0):
    """Operator and a bathtub-thresholded density at half fill of [1, 2],
    ranked by a seeded random field as the optimizer's restarts are."""
    g = pl.build_grid(spec, nodes_per_side)
    op = pl.assemble_laplacian(g)
    probe = ScalarField(g, np.random.default_rng(seed).uniform(0.5, 1.5, g.n))
    return op, optimal_density(probe, 1.0, 2.0, 1.5 * g.discrete_area).rho


def _map(op, rho, x):
    return solve_navier(op, ScalarField(rho.grid, rho.values * x))[0].values


def _eigen_residual(op, rho, u):
    """``||theta_l A^-2 rho u - u|| / ||u||`` with ``theta_l = <u,u>/<u,A^-2 rho u>``."""
    w = _map(op, rho, u)
    theta_l = float(u @ u) / float(u @ w)
    return float(np.linalg.norm(theta_l * w - u) / np.linalg.norm(u))


def _tight_theta(op, rho):
    """Energy quotient of the principal pair from ARPACK at a tight
    tolerance: an independent reference for the Krylov phase."""
    n = rho.grid.n
    a = LinearOperator((n, n), matvec=lambda x: _map(op, rho, x), dtype=float)
    _, vecs = eigs(a, k=1, which="LM", v0=np.ones(n), ncv=30, tol=1e-14)
    x = np.abs(vecs[:, 0].real)
    u_field, v_field = solve_navier(op, ScalarField(rho.grid, rho.values * x))
    return rayleigh_quotient(u_field, v_field, rho)


def _assert_accurate(res, op, rho, tight=None):
    """A handed-off pair: positive, eigen-residual at most 1e-9, theta
    within 1e-9 of the tight reference, and the last history entry."""
    tight = _tight_theta(op, rho) if tight is None else tight
    assert res.iterations > len(res.theta_history)  # handed off
    assert (res.u.values > 0).all() and (res.v.values > 0).all()
    assert _eigen_residual(op, rho, res.u.values) <= 1e-9
    assert abs(res.theta - tight) <= 1e-9 * tight
    assert res.theta_history[-1] == res.theta


def _first_converged_map(matvec, x):
    """Maps an Arnoldi loop (CGS2, one basis of ``KRYLOV_NCV`` vectors)
    makes when it takes a dense ``eig`` after every map, up to the first
    whose dominant Ritz pair meets ``|h_{j+1,j} y_j| <= KRYLOV_TOL |mu|``."""
    ncv = eigensolver.KRYLOV_NCV
    basis = [x / np.linalg.norm(x)]
    hess = np.zeros((ncv + 1, ncv))
    for j in range(ncv):
        w = matvec(basis[j])
        v = np.array(basis)
        for _ in range(2):
            h = v @ w
            w = w - h @ v
            hess[: j + 1, j] += h
        beta = hess[j + 1, j] = np.linalg.norm(w)
        values, vectors = np.linalg.eig(hess[: j + 1, : j + 1])
        k = np.argmax(np.abs(values))
        if abs(beta * vectors[-1, k]) <= KRYLOV_TOL * abs(values[k]):
            return j + 1
        basis.append(w / beta)
    return None


@pytest.fixture(scope="module")
def thin_annulus():
    return _threshold_case(pl.annulus(0.85, 1.0), 49)


HAND_OFF_CASES = pytest.mark.parametrize(
    "spec, nodes", [(pl.annulus(0.85, 1.0), 49), (pl.annulus(0.12, 1.0), 41)],
    ids=["annulus-0.85-49", "annulus-0.12-41"],
)


class TestKrylovHandOff:
    @pytest.mark.parametrize(
        "spec, nodes", [(pl.disk(1.0), 65), (pl.unit_square(), 33)], ids=["disk-65", "square-33"],
    )
    def test_fast_contraction_stays_power_iteration_bitwise(self, spec, nodes):
        op, rho = _threshold_case(spec, nodes)
        cold = principal_pair(op, rho, tol=1e-11)
        warm_start = _threshold_case(spec, nodes, seed=1)[1]
        u0 = principal_pair(op, warm_start, tol=1e-11).u
        for got, ref in [
            (cold, _power_reference(op, rho, 1e-11)),
            (principal_pair(op, rho, tol=1e-11, u0=u0), _power_reference(op, rho, 1e-11, u0=u0)),
        ]:
            assert got.theta == ref.theta
            assert np.array_equal(got.u.values, ref.u.values)
            assert np.array_equal(got.v.values, ref.v.values)
            assert got.iterations == ref.iterations
            assert got.theta_history == ref.theta_history

    @HAND_OFF_CASES
    def test_slow_contraction_hands_off_to_an_accurate_pair(self, spec, nodes, monkeypatch):
        op, rho = _threshold_case(spec, nodes)
        warm_start = _threshold_case(spec, nodes, seed=1)[1]
        u0 = principal_pair(op, warm_start, tol=1e-11).u
        tight = _tight_theta(op, rho)
        applied = []
        monkeypatch.setattr(
            eigensolver, "solve_navier", lambda op, f: applied.append(1) or solve_navier(op, f)
        )
        for start in (None, u0):
            del applied[:]
            res = principal_pair(op, rho, tol=1e-11, u0=start)
            assert res.iterations == len(applied)
            assert res.iterations < _power_reference(op, rho, 1e-11, u0=start).iterations
            _assert_accurate(res, op, rho, tight)

    @HAND_OFF_CASES
    def test_arnoldi_stops_on_the_first_converged_map(self, spec, nodes, monkeypatch):
        op, rho = _threshold_case(spec, nodes)
        calls = []

        def spy(matvec, x):
            maps = []
            calls.append((x, maps))
            return arnoldi(lambda y: maps.append(1) or matvec(y), x)

        arnoldi = eigensolver._arnoldi
        monkeypatch.setattr(eigensolver, "_arnoldi", spy)
        monkeypatch.setattr(eigensolver, "KRYLOV_NCV", 64)  # no restart
        principal_pair(op, rho, tol=1e-11)
        [(x, maps)] = calls
        assert len(maps) == _first_converged_map(lambda y: _map(op, rho, y), x)

    def test_restarts_when_the_basis_is_full(self, thin_annulus, monkeypatch):
        op, rho = thin_annulus
        full = principal_pair(op, rho, tol=1e-11)
        monkeypatch.setattr(eigensolver, "KRYLOV_NCV", 3)
        res = principal_pair(op, rho, tol=1e-11)
        assert res.iterations - len(res.theta_history) > 3  # more Arnoldi maps than one basis
        assert res.theta_history[:-1] == full.theta_history[:-1]  # same power phase
        _assert_accurate(res, op, rho)

    def test_budget_spent_in_the_krylov_phase_raises(self, thin_annulus):
        op, rho = thin_annulus
        full = principal_pair(op, rho, tol=1e-11)
        power = len(full.theta_history) - 1  # maps before the hand-off
        max_iter = (power + full.iterations) // 2
        assert power < max_iter < full.iterations - 1
        with pytest.raises(EigenError, match="no convergence in %d iterations" % max_iter) as err:
            principal_pair(op, rho, tol=1e-11, max_iter=max_iter)
        assert err.value.iterations == max_iter
        assert err.value.last_theta == full.theta_history[-2]  # the last power step's
        assert math.isfinite(err.value.last_theta)

    def test_invariant_basis_returns_the_exact_pair(self, monkeypatch):
        # 25 unknowns, fewer than the basis holds: with a zero tolerance the
        # Arnoldi loop stops only when the basis spans the whole space and
        # the next vector falls to rounding, where h_{j+1,j} is taken as 0
        op, rho = _threshold_case(pl.unit_square(), 7)
        n = rho.grid.n
        assert n <= KRYLOV_NCV
        monkeypatch.setattr(eigensolver, "KRYLOV_AFTER", -1)  # hand off at the first chance
        monkeypatch.setattr(eigensolver, "KRYLOV_TOL", 0.0)
        res = principal_pair(op, rho, tol=1e-11)
        power = len(res.theta_history) - 1
        assert res.iterations == power + n + 1  # n Arnoldi maps and the closing one

        values, vectors = np.linalg.eig(np.column_stack([_map(op, rho, e) for e in np.eye(n)]))
        x = np.abs(vectors[:, np.argmax(np.abs(values))].real)
        u_field, v_field = solve_navier(op, ScalarField(rho.grid, rho.values * x))
        exact = rayleigh_quotient(u_field, v_field, rho)
        assert abs(res.theta - exact) <= 1e-12 * exact
        assert _eigen_residual(op, rho, res.u.values) <= 1e-12

    def test_residual_above_the_bound_raises(self, thin_annulus, monkeypatch):
        op, rho = thin_annulus
        monkeypatch.setattr(eigensolver, "KRYLOV_RESIDUAL", 0.0)
        with pytest.raises(EigenError, match="eigen-residual") as err:
            principal_pair(op, rho, tol=1e-11)
        assert err.value.last_theta is not None

    @pytest.mark.parametrize("max_iter", [10, 25])
    def test_max_iter_caps_the_total_map_applications(self, thin_annulus, monkeypatch, max_iter):
        op, rho = thin_annulus
        applied = []
        monkeypatch.setattr(
            eigensolver, "solve_navier", lambda op, f: applied.append(1) or solve_navier(op, f)
        )
        with pytest.raises(EigenError) as err:
            principal_pair(op, rho, tol=1e-11, max_iter=max_iter)
        assert len(applied) <= max_iter
        assert err.value.iterations == max_iter
        assert err.value.last_theta is not None


def _two_function_pair(op, rho, tol=DEFAULT_TOL, max_iter=DEFAULT_MAX_ITER, u0=None):
    """Reference: ``principal_pair`` as it was before its map applications
    were folded into one counted closure, verbatim, with ``_krylov`` below."""
    if not (0.0 < tol <= 1e-6):
        raise ValueError("tol must be in (0, 1e-6], got %r" % (tol,))
    grid = rho.grid
    cell = grid.cell_area

    if u0 is None:
        u = np.ones(grid.n)
    else:
        u = u0.values
        if u.shape != (grid.n,) or np.any(u <= 0.0):
            raise ValueError("u0 must be a strictly positive field on the grid")
        u = u / np.max(np.abs(u))

    history = []
    theta_prev = None
    step_prev = None
    for it in range(1, max_iter + 1):
        f = ScalarField(grid, rho.values * u)
        u_field, v_field = solve_navier(op, f)
        if np.any(u_field.values <= 0.0):
            raise EigenError("iterate lost positivity", iterations=it)
        u, v, theta = _scaled(u_field, v_field, rho)
        history.append(theta)
        if theta_prev is not None:
            step = abs(theta - theta_prev)
            if step <= tol * theta:
                break
            # ARPACK needs a subspace smaller than the problem
            if grid.n > KRYLOV_NCV and _crawls(step, step_prev, tol * theta):
                it, u, v, theta = _two_function_krylov(op, rho, u, it, max_iter, theta)
                history.append(theta)
                break
            step_prev = step
        theta_prev = theta
    else:
        raise EigenError(
            "no convergence in %d iterations (last theta %.12g)"
            % (max_iter, history[-1] if history else float("nan")),
            last_theta=history[-1] if history else None,
            iterations=max_iter,
        )

    # final normalization: unit weighted norm
    c = np.sqrt(float(np.sum(rho.values * u * u)) * cell)
    u_out = ScalarField(grid, u / c)
    v_out = ScalarField(grid, v / c)
    if np.any(u_out.values <= 0.0) or np.any(v_out.values <= 0.0):
        raise EigenError("converged pair is not strictly positive")
    return EigenResult(
        theta=theta,
        u=u_out,
        v=v_out,
        iterations=it,
        theta_history=tuple(history),
    )


def _two_function_krylov(op, rho, u, done, max_iter, last_theta):
    """ARPACK on the two-solve map from the power iterate ``u`` after
    ``done`` map applications. Returns ``(iterations, u, v, theta)`` as
    the power loop holds them: u sup-normalized, theta the energy quotient
    of one more application of the map to the Ritz vector."""
    grid = rho.grid
    calls = done

    def fail(message, iterations):
        return EigenError(message, last_theta=last_theta, iterations=iterations)

    def apply(x):
        nonlocal calls
        # keep one application for the consistent pair after eigs
        if calls >= max_iter - 1:
            raise fail(
                "no convergence in %d iterations (last theta %.12g)" % (max_iter, last_theta),
                max_iter,
            )
        calls += 1
        return solve_navier(op, ScalarField(grid, rho.values * x))[0].values

    a = LinearOperator((grid.n, grid.n), matvec=apply, dtype=float)
    try:
        _, vecs = eigs(a, k=1, which="LM", v0=u, ncv=KRYLOV_NCV, tol=KRYLOV_TOL)
    except ArpackNoConvergence as exc:
        raise fail("Krylov eigensolve did not converge: %s" % exc, calls) from exc

    x = vecs[:, 0].real
    if np.sum(x) < 0.0:
        x = -x
    u_field, v_field = solve_navier(op, ScalarField(grid, rho.values * x))
    calls += 1
    w = u_field.values
    theta_l = float(x @ x) / float(x @ w)
    residual = float(np.linalg.norm(theta_l * w - x) / np.linalg.norm(x))
    if not residual <= KRYLOV_RESIDUAL:
        raise fail(
            "Krylov eigen-residual %.3e exceeds %.0e" % (residual, KRYLOV_RESIDUAL), calls
        )
    if np.any(w <= 0.0):
        raise fail("Krylov eigenvector is not strictly positive", calls)
    return (calls,) + _scaled(u_field, v_field, rho)


def _outcome(solve, *args, **kwargs):
    """A solve's result as exact values (theta ``repr``, u and v bytes,
    iterations, history), or its raise as (type, message, iterations,
    last theta)."""
    try:
        res = solve(*args, **kwargs)
    except EigenError as exc:
        return type(exc), str(exc), exc.iterations, repr(exc.last_theta)
    return (repr(res.theta), res.u.values.tobytes(), res.v.values.tobytes(), res.iterations,
            tuple(map(repr, res.theta_history)))


class TestOneCountedMap:
    """``principal_pair`` applies its map from one counted closure. Where
    it does not hand off it returns and raises bitwise as the two-function
    form did; the pairs it hands off meet the tight reference."""

    @pytest.mark.parametrize("spec, grid, mass, opts, theta, termination, outer, inner",
                             OPTIMIZE_ROWS, ids=OPTIMIZE_IDS)
    def test_every_golden_eigensolve_matches(self, monkeypatch, spec, grid, mass, opts, theta,
                                             termination, outer, inner):
        solves = []

        def both(op, rho, tol=DEFAULT_TOL, max_iter=DEFAULT_MAX_ITER, u0=None):
            got = principal_pair(op, rho, tol, max_iter, u0)
            if got.iterations == len(got.theta_history):  # power iteration alone
                want = _outcome(_two_function_pair, op, rho, tol, max_iter, u0)
                assert _outcome(lambda: got) == want
            else:
                _assert_accurate(got, op, rho)
            solves.append(u0 is not None)
            return got

        monkeypatch.setattr(optimizer, "principal_pair", both)
        _, report = pl.optimize(spec, grid, 1.0, 2.0, mass, opts=opts)
        assert report.inner_iterations == inner
        assert len(solves) >= outer and any(solves)  # cold and warm starts

    @pytest.fixture(scope="class")
    def warm_start(self, thin_annulus):
        op = thin_annulus[0]
        return principal_pair(op, _threshold_case(pl.annulus(0.85, 1.0), 49, seed=1)[1],
                              tol=1e-11).u

    @pytest.mark.parametrize("warm", [False, True], ids=["cold", "warm"])
    def test_thin_annulus_caps_match(self, thin_annulus, warm_start, warm, monkeypatch):
        op, rho = thin_annulus
        u0 = warm_start if warm else None
        applied = []
        monkeypatch.setattr(
            eigensolver, "solve_navier", lambda op, f: applied.append(1) or solve_navier(op, f)
        )
        full = principal_pair(op, rho, tol=1e-11, u0=u0)
        power = len(full.theta_history) - 1  # maps before the hand-off
        assert full.iterations == len(applied) > power + 1  # handed off
        # caps in the power phase and at the switch: as the two-function form
        for max_iter in range(power + 1):
            want = _outcome(_two_function_pair, op, rho, 1e-11, max_iter, u0)
            assert _outcome(principal_pair, op, rho, tol=1e-11, max_iter=max_iter, u0=u0) == want
        # caps in the Arnoldi loop and on the closing map: the one cap error
        last = full.theta_history[-2]
        for max_iter in range(power + 1, full.iterations):
            assert _outcome(principal_pair, op, rho, tol=1e-11, max_iter=max_iter, u0=u0) == (
                EigenError, "no convergence in %d iterations (last theta %.12g)"
                % (max_iter, last), max_iter, repr(last))

        # the cap counts the closing application too
        for max_iter in (full.iterations, full.iterations + 1):
            assert _outcome(principal_pair, op, rho, tol=1e-11, max_iter=max_iter,
                            u0=u0) == _outcome(lambda: full)
        with pytest.raises(EigenError, match="no convergence in %d iterations"
                           % (full.iterations - 1)) as err:
            principal_pair(op, rho, tol=1e-11, max_iter=full.iterations - 1, u0=u0)
        assert err.value.iterations == full.iterations - 1


def test_package_uses_no_arpack():
    # the Krylov phase is the package's own; the tests keep eigs as a reference
    for path in sorted(pathlib.Path(eigensolver.__file__).parent.glob("*.py")):
        assert re.search(r"eigs|Arpack|LinearOperator", path.read_text()) is None, path.name


class TestRayleighQuotient:
    def test_scale_invariance(self, disk_uniform_eig_128):
        res = disk_uniform_eig_128
        g = res.u.grid
        rho = _uniform(g)
        q0 = rayleigh_quotient(res.u, res.v, rho)
        for c in (-3.7, 0.125, 1e6):
            q = rayleigh_quotient(
                ScalarField(g, c * res.u.values), ScalarField(g, c * res.v.values), rho
            )
            assert abs(q - q0) <= 1e-13 * q0

    def test_random_trials_sit_above_minimum(self):
        g = pl.build_grid(pl.disk(1.0), 65)
        op = pl.assemble_laplacian(g)
        rho = _uniform(g)
        theta = principal_pair(op, rho).theta
        rng = np.random.default_rng(21)
        for _ in range(50):
            w = ScalarField(g, rng.uniform(0.1, 1.0, g.n))
            q = rayleigh_quotient(w, ScalarField(g, op.matvec(w.values)), rho)
            assert q >= theta * (1.0 - 1e-9)

    def test_zero_denominator_rejected(self):
        g = pl.build_grid(pl.unit_square(), 9)
        op = pl.assemble_laplacian(g)
        z = ScalarField(g, np.zeros(g.n))
        with pytest.raises(ZeroDivisionError):
            rayleigh_quotient(z, z, _uniform(g))

    def test_quadrature_is_node_sum_times_cell(self):
        g = pl.build_grid(pl.unit_square(), 9)
        u = ScalarField(g, np.full(g.n, 2.0))
        v = ScalarField(g, np.full(g.n, 3.0))
        rho = _uniform(g)
        assert rayleigh_quotient(u, v, rho) == pytest.approx(9.0 / 4.0)
