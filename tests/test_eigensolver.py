import math

import numpy as np
import pytest
from scipy.sparse.linalg import ArpackNoConvergence, LinearOperator, eigs
from scipy.special import jn_zeros

import platelab as pl
from platelab import eigensolver
from platelab.eigensolver import EigenError, EigenResult, principal_pair, rayleigh_quotient
from platelab.fields import ScalarField
from platelab.plate import solve_navier
from platelab.poisson import GridMismatchError
from platelab.rearrange import DensityField, optimal_density

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

    def test_grid_mismatch_rejected(self):
        g1 = pl.build_grid(pl.unit_square(), 9)
        g2 = pl.build_grid(pl.unit_square(), 17)
        op = pl.assemble_laplacian(g1)
        with pytest.raises(GridMismatchError):
            principal_pair(op, _uniform(g2))

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


@pytest.fixture(scope="module")
def thin_annulus():
    return _threshold_case(pl.annulus(0.85, 1.0), 49)


class TestKrylovHandOff:
    @pytest.mark.parametrize(
        "spec, nodes", [(pl.disk(1.0), 65), (pl.unit_square(), 33), (pl.annulus(0.12, 1.0), 41)],
        ids=["disk-65", "square-33", "annulus-0.12-41"],
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

    def test_slow_contraction_hands_off_to_an_accurate_pair(self, thin_annulus, monkeypatch):
        op, rho = thin_annulus
        ref = _power_reference(op, rho, 1e-11)
        applied = []
        monkeypatch.setattr(
            eigensolver, "solve_navier", lambda op, f: applied.append(1) or solve_navier(op, f)
        )
        res = principal_pair(op, rho, tol=1e-11)
        assert res.iterations == len(applied) < ref.iterations
        assert (res.u.values > 0).all() and (res.v.values > 0).all()
        assert _eigen_residual(op, rho, res.u.values) <= 1e-9

        n = rho.grid.n
        a = LinearOperator((n, n), matvec=lambda x: _map(op, rho, x), dtype=float)
        _, vecs = eigs(a, k=1, which="LM", v0=np.ones(n), ncv=30, tol=1e-14)
        x = np.abs(vecs[:, 0].real)
        u_field, v_field = solve_navier(op, ScalarField(rho.grid, rho.values * x))
        tight = rayleigh_quotient(u_field, v_field, rho)
        assert abs(res.theta - tight) <= 1e-9 * tight
        assert res.theta_history[-1] == res.theta

    def test_arpack_failure_raises_with_last_theta(self, thin_annulus, monkeypatch):
        op, rho = thin_annulus

        def no_convergence(*args, **kwargs):
            raise ArpackNoConvergence("stub", np.empty(0), np.empty((rho.grid.n, 0)))

        monkeypatch.setattr(eigensolver, "eigs", no_convergence)
        with pytest.raises(EigenError) as err:
            principal_pair(op, rho, tol=1e-11)
        assert err.value.last_theta is not None and math.isfinite(err.value.last_theta)

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
