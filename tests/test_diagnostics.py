import functools
import math
from dataclasses import replace

import numpy as np
import pytest

import platelab as pl
from platelab import diagnostics as dg
from platelab import geometry
from platelab.fields import ScalarField
from platelab.geometry import GeometryError, reflect_cap, symmetry_axis
from platelab.optimizer import OptimalPair
from platelab.rearrange import optimal_density, uniform_density
import conftest
from conftest import reflect_values


def _fake_pair(grid, u_values, t=0.5, h=1.0, H=2.0):
    """Wrap synthetic fields in a pair record for detector tests."""
    u = ScalarField(grid, u_values)
    return _box_pair(u, optimal_density(u, h, H, 1.2 * grid.discrete_area)[0], t)


def _box_pair(u, rho, t):
    """u (as both fields), a density and a level, for the one-cap checks."""
    return OptimalPair(u=u, v=u, rho=rho, theta=1.0, t=t)


class TestAsymmetry:
    def test_symmetrized_field_is_exactly_zero(self):
        g = pl.build_grid(pl.disk(1.0), 65)
        f = np.cos(2 * g.node_x**2 + g.node_y)
        fx = 0.5 * (f + reflect_values(g, f, 0, 0.0).values)
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
        rep = dg.moving_plane_profile(pair, 0)
        assert rep.min_w1 >= -1e-8 * pair.u.norm_inf
        assert rep.min_w2 >= -1e-8 * pair.v.norm_inf
        lambdas = dg.plane_positions(pair, 0)
        assert lambdas.shape == (16,)
        lo, hi = lambdas[[0, -1]]
        assert lo > 0.0 and hi < 1.0

    def test_thin_cap(self, disk_pair_128):
        pair, _ = disk_pair_128
        grid = pair.grid
        lam0 = 1.0
        # lattice-aligned plane one spacing inside: the strict cap is empty
        nodes, _ = reflect_cap(grid, [pair.u.values], 0, lam0 - grid.delta)
        assert nodes.size * grid.cell_area < 0.05 * grid.discrete_area
        # half a spacing further in, the cap is one column and stays clean
        lam = lam0 - 1.5 * grid.delta
        m = dg._cap_report(pair, 0, lam).min_w1
        cnt = reflect_cap(grid, [pair.u.values], 0, lam)[0].size
        assert cnt > 0
        assert cnt * grid.cell_area < 0.05 * grid.discrete_area
        assert m >= -1e-6 * pair.u.norm_inf

    def test_antisymmetric_field_detected(self):
        g = pl.build_grid(pl.disk(1.0), 65)
        odd = g.node_x * np.exp(-g.node_y**2)
        rho = uniform_density(g, 1.0, 2.0, 1.5 * g.discrete_area)
        m = dg._cap_report(_box_pair(ScalarField(g, odd), rho, 0.0), 0, 0.0).min_w1
        assert reflect_cap(g, [odd], 0, 0.0)[0].size > 0
        assert m < -0.1

    def test_plane_positions_span_the_window(self, disk_pair_64, monkeypatch):
        pair, _ = disk_pair_64
        for dim in (0, 1):
            lo, hi = conftest.plane_window(pair, dim)
            got = dg.plane_positions(pair, dim)
            assert got.tobytes() == np.linspace(lo, hi, dg.N_LAMBDAS).tobytes()
        # the count is read when the positions are taken
        monkeypatch.setattr(dg, "N_LAMBDAS", 5)
        assert dg.plane_positions(pair, 0).shape == (5,)

    @pytest.mark.parametrize("n_lambda", [8, 16, 33])
    def test_both_checks_read_one_sweep(self, disk_pair_64, monkeypatch, n_lambda):
        from platelab import cli

        pair, _ = disk_pair_64
        seen = []
        cap_report = dg._cap_report

        def recorded(pair, dim, lam):
            seen.append((dim, lam))
            return cap_report(pair, dim, lam)

        monkeypatch.setattr(dg, "_cap_report", recorded)
        monkeypatch.setattr(dg, "N_LAMBDAS", n_lambda)
        sweep = functools.cache(lambda dim: dg.moving_plane_profile(pair, dim))
        assert cli._check_moving_plane(pair, sweep)[0]
        assert cli._check_product(pair, sweep)[0]
        want = [(dim, lam) for dim in (0, 1)
                for lam in conftest.plane_positions(pair, dim, n_lambda)]
        assert seen == want

    def test_empty_window_rejected(self):
        g = pl.build_grid(pl.unit_square(), 5)
        u = ScalarField(g, np.ones(g.n))
        rho = uniform_density(g, 1.0, 2.0, 1.2 * g.discrete_area)
        pair = OptimalPair(u=u, v=u, rho=rho, theta=1.0, t=2.0)
        with pytest.raises(dg.DiagnosticsError):
            dg.moving_plane_profile(pair, 0)

    def test_plane_positions_match_the_landmark_chain(self, monkeypatch):
        """The shape table read in one function gives the plane lists and
        the errors of the landmark record and plane window it replaced."""
        # the off-centre annulus tells (axis + stop) + margin from
        # axis + (stop + margin) on grids 49 and 97
        specs = EQUIVALENCE_KINDS + (
            pl.disk(1.0, center=(2.0, 0.0)), pl.annulus(0.5, 1.0, center=(-1.0, 0.25)),
            pl.ellipse(1.0, 0.6, center=(0.5, 0.0)), pl.rectangle(1.0, 0.45, center=(0.3, 0.5)))
        cases, outcomes = 0, set()
        for spec in specs:
            for nps in (9, 17, 49, 97):
                g = pl.build_grid(spec, nps)
                u = ScalarField(g, np.ones(g.n))
                rho = uniform_density(g, 1.0, 1.0, g.discrete_area)
                pair = OptimalPair(u=u, v=u, rho=rho, theta=1.0, t=0.5)
                for dim in (0, 1, 2, -1):
                    for n_lambda in (8, 16, 33):
                        monkeypatch.setattr(dg, "N_LAMBDAS", n_lambda)
                        want = _outcome(conftest.plane_positions, pair, dim, n_lambda)
                        assert _outcome(dg.plane_positions, pair, dim) == want
                        cases += 1
                        outcomes.add(":".join(want.split(":")[:2])
                                     if isinstance(want, str) else "planes")
        assert cases == 480
        assert outcomes == {
            "planes",
            "DiagnosticsError: empty plane window",
            "GeometryError: axis dim must be 0 or 1, got 2",
            "GeometryError: axis dim must be 0 or 1, got -1",
        }


class TestProductCheck:
    def test_disk_pair_all_planes(self, disk_pair_128):
        pair, _ = disk_pair_128
        for lam in dg.plane_positions(pair, 0):
            res = dg._cap_report(pair, 0, lam)
            assert res.product_fault is None
            assert res.case3_count == 0

    def test_hand_built_cases(self):
        from conftest import make_strip_grid

        g = make_strip_grid(8, 0.5)  # x = -1.75 ... 1.75
        x = g.node_x
        # symmetric tent: reflected values dominate on the cap x > lam
        u_vals = 2.0 - np.abs(x)
        u = ScalarField(g, u_vals)
        rho, _ = optimal_density(u, 1.0, 3.0, 1.25 * g.discrete_area)
        t = 1.4  # cap node at x=0.75 sits above t, outer nodes below
        res = dg._cap_report(_box_pair(u, rho, t), 0, 0.0)
        cap = x > 0.0
        above = u_vals > t
        # the fixture exercises low/low, low/high, and high/high pairs
        assert (cap & ~above).any() and (cap & above).any()
        assert res.product_fault is None
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
        rho, _ = optimal_density(u, 1.0, 3.0, 1.25 * g.discrete_area)
        res = dg._cap_report(_box_pair(u, rho, t), 0, 0.0)
        assert res.product_fault == "defect %.3e at node %d" % (res.min_product, i_cap)
        assert res.case3_count >= 1

    def test_precondition_enforced(self):
        from conftest import make_strip_grid

        g = make_strip_grid(8, 0.5)
        u = ScalarField(g, 2.0 + g.node_x)  # increasing: reflection loses
        rho, _ = optimal_density(u, 1.0, 3.0, 1.25 * g.discrete_area)
        res = dg._cap_report(_box_pair(u, rho, 2.0), 0, 0.0)
        assert res.product_fault.startswith("precondition failed: ")
        assert res.min_w1 < 0.0

    def test_vanishing_field_cannot_be_checked(self):
        # with u = 0 every product difference is 0 against a tolerance of 0
        g = pl.build_grid(pl.disk(1.0), 17)
        rho, _ = optimal_density(ScalarField(g, np.ones(g.n)), 1.0, 2.0, 1.5 * g.discrete_area)
        res = dg._cap_report(_box_pair(ScalarField(g, np.zeros(g.n)), rho, 0.0), 0, 0.0)
        assert res.product_fault == "u vanishes identically"

    def test_empty_cap_cannot_be_checked(self, disk_pair_64):
        pair, _ = disk_pair_64
        res = dg._cap_report(pair, 0, 1.0)
        assert res.product_fault == "cap at lam=1 has no usable nodes"
        assert (res.min_w1, res.min_w2, res.case3_count) == (math.inf, math.inf, 0)

    def test_sweep_names_the_first_fault_in_plane_order(self, disk_pair_64):
        # a straddle at the third plane and a lost precondition at the
        # fifth: the sweep names the straddle, and its w1 and w2 still
        # cover every plane
        pair, _ = disk_pair_64
        grid = pair.grid
        lams = dg.plane_positions(pair, 0)
        u = pair.u.values.copy()
        on_axis = np.abs(grid.node_y) < 0.5 * grid.delta
        for k, factor in ((2, 1.0 + 1e-12), (4, 1.0 + 1e-6)):
            nodes, (ur,) = reflect_cap(grid, [u], 0, lams[k])
            i = int(np.flatnonzero(on_axis[nodes])[0])
            assert grid.node_x[nodes[i]] < lams[k + 1]  # in no later plane's cap
            u[nodes[i]] = ur[i] * factor
            if k == 2:
                straddle, t = int(nodes[i]), float(ur[i])
        planted = OptimalPair(u=ScalarField(grid, u), v=pair.v, rho=pair.rho, theta=1.0, t=t)
        rep = dg.moving_plane_profile(planted, 0)
        caps = [dg._cap_report(planted, 0, lam) for lam in lams]
        assert [c.product_fault is None for c in caps][:5] == [True, True, False, True, False]
        assert rep.product_fault == caps[2].product_fault
        assert rep.product_fault.endswith(" at node %d" % straddle)
        assert caps[4].product_fault.startswith("precondition failed: ")
        assert rep.min_w1 == min(c.min_w1 for c in caps) < 0.0
        assert rep.min_w2 == min(c.min_w2 for c in caps)


class TestRigidity:
    def test_disk_constant_normal_derivative(self, disk_pair_128):
        pair, _ = disk_pair_128
        rep = dg.normal_derivative_stats(pair)
        assert rep.samples.size == dg.RIGIDITY_SAMPLES  # no sample skipped
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
        pair = OptimalPair(u=u, v=u, rho=rho, theta=1.0, t=2.0)
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
        pair = OptimalPair(u=u, v=u, rho=rho, theta=1.0, t=0.5)
        assert dg.rotation_asymmetry(pair) < 1e-4

    def test_angular_blob_detected(self):
        g = pl.build_grid(pl.annulus(0.3, 1.0), 129)
        blob = np.exp(-8 * ((g.node_x - 0.65) ** 2 + g.node_y**2))
        u = ScalarField(g, 0.05 + blob)
        rho = uniform_density(g, 1.0, 1.0, g.discrete_area)
        pair = OptimalPair(u=u, v=u, rho=rho, theta=1.0, t=0.5)
        assert dg.rotation_asymmetry(pair) > 0.1

    def test_ring_without_a_full_stencil_is_refused(self):
        # about two lattice nodes across the ring: no rotated node has a
        # full biquadratic stencil, so nothing is compared
        g = pl.build_grid(pl.annulus(0.95, 1.0), 97)
        u = ScalarField(g, np.sin(np.pi * (np.hypot(g.node_x, g.node_y) - 0.95) / 0.05))
        rho = uniform_density(g, 1.0, 1.0, g.discrete_area)
        pair = OptimalPair(u=u, v=u, rho=rho, theta=1.0, t=0.5)
        with pytest.raises(dg.DiagnosticsError, match="no rotated node has a full stencil"):
            dg.rotation_asymmetry(pair)


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
        w64 = dg.moving_plane_profile(coarse, 0)
        w128 = dg.moving_plane_profile(fine, 0)
        v64 = max(0.0, -w64.min_w1 / coarse.u.norm_inf)
        v128 = max(0.0, -w128.min_w1 / fine.u.norm_inf)
        assert v128 <= 2.0 * v64 + floor


# ---------------------------------------------------------------------------
# References: the cap read off a full-grid reflection, one field per
# stencil, the full-grid asymmetry and the per-line axis-convexity loop,
# verbatim.


def _full_grid_cap(grid, values, dim, lam):
    coords = grid.node_x if dim == 0 else grid.node_y
    refl = reflect_values(grid, values, dim, lam)
    usable = (coords > lam) & refl.present
    return usable, refl.values[usable]


def _full_grid_cap_deficit(grid, values, dim, lam):
    usable, reflected = _full_grid_cap(grid, values, dim, lam)
    if not usable.any():
        return math.inf, 0
    return float(np.min(reflected - values[usable])), int(usable.sum())


def _full_grid_moving_plane_profile(pair, dim, n_lambda=16):
    caps = [_full_grid_cap_report(pair, dim, lam)
            for lam in conftest.plane_positions(pair, dim, n_lambda)]
    worst = np.min([[c.min_w1, c.min_w2] for c in caps], axis=0)
    faults = [c.product_fault for c in caps if c.product_fault is not None]
    return dg.MovingPlaneReport(
        min_w1=float(worst[0]), min_w2=float(worst[1]),
        min_product=min(c.min_product for c in caps),
        case3_count=sum(c.case3_count for c in caps),
        product_fault=faults[0] if faults else None)


def _full_grid_cap_report(pair, dim, lam):
    """One cap's report from the per-field deficits and the product check
    below, each on its own full-grid reflection."""
    w1, w2 = [_full_grid_cap_deficit(pair.grid, f.values, dim, lam)[0] for f in (pair.u, pair.v)]
    try:
        ok, worst_value, worst_node, case3_count = _full_grid_product_check(
            pair.u, pair.rho, pair.t, dim, lam)
    except dg.DiagnosticsError as exc:
        return dg.MovingPlaneReport(w1, w2, math.inf, 0, str(exc))
    fault = None if ok else "defect %.3e at node %d" % (worst_value, worst_node)
    return dg.MovingPlaneReport(w1, w2, worst_value, case3_count, fault)


def _full_grid_product_check(u, rho, t, dim, lam):
    grid = u.grid
    h, H = rho.h, rho.H
    usable, ur = _full_grid_cap(grid, u.values, dim, lam)
    if not usable.any():
        raise dg.DiagnosticsError("cap at lam=%g has no usable nodes" % lam)

    uu = u.values[usable]
    if dg.relative(float(np.min(ur - uu)), u.norm_inf, "u") < -1e-10:
        raise dg.DiagnosticsError(
            "precondition failed: reflected u does not dominate u on the cap"
        )

    rho_here = np.where(uu > t, H, h)
    rho_refl = np.where(ur > t, H, h)
    diff = rho_refl * ur - rho_here * uu
    tol = 1e-10 * H * u.norm_inf
    worst = int(np.argmin(diff))
    case3 = (uu > t) & (ur <= t)
    ok = bool(np.min(diff) >= -tol and not case3.any())
    nodes = np.flatnonzero(usable)
    return ok, float(diff[worst]), int(nodes[worst]), int(case3.sum())


def _full_grid_asymmetry(u, dim):
    refl = reflect_values(u.grid, u.values, dim, symmetry_axis(u.grid.spec, dim))
    if not refl.present.any():
        raise dg.DiagnosticsError("reflection has no interior support")
    diff = np.abs(u.values[refl.present] - refl.values[refl.present])
    return dg.relative(float(np.max(diff)), u.norm_inf, "u")


def _per_line_axis_convex_along(grid, u, t, dim):
    lam = symmetry_axis(grid.spec, dim)
    if dim == 0:
        lines = grid.iy
        along = grid.ix
        coords = grid.node_x
    else:
        lines = grid.ix
        along = grid.iy
        coords = grid.node_y
    above = u > t
    tol = grid.delta * (0.5 + 1e-9)
    for line in np.unique(lines[above]):
        sel = lines == line
        order = np.argsort(along[sel])
        line_above = above[sel][order]
        line_coord = coords[sel][order]
        hot = np.flatnonzero(line_above)
        if hot.size == 0:
            continue
        first, last = hot[0], hot[-1]
        if not line_above[first : last + 1].all():
            return False  # gap in the run
        mid = 0.5 * (line_coord[first] + line_coord[last])
        if abs(mid - lam) > tol:
            return False
    return True


EQUIVALENCE_KINDS = (pl.disk(1.0), pl.annulus(0.5), pl.ellipse(1.0, 0.6),
                     pl.rectangle(1.0, 0.45), pl.stadium(1.0, 0.5), pl.unit_square())


def _outcome(fn, *args):
    """``repr`` of a result or of the error raised: float reprs round-trip,
    so equal outcomes are bitwise equal."""
    try:
        res = fn(*args)
    except (dg.DiagnosticsError, GeometryError) as exc:
        return "%s: %s" % (type(exc).__name__, exc)
    if isinstance(res, np.ndarray):
        return res.tobytes()
    return repr(res)


def _planes(grid, dim, rng):
    """Lattice, half-lattice and off-lattice planes across the grid."""
    coords = grid.xs if dim == 0 else grid.ys
    ks = rng.integers(0, coords.shape[0] - 1, size=6)
    return np.concatenate([coords[ks], 0.5 * (coords[ks] + coords[ks + 1]),
                           rng.uniform(coords[0], coords[-1], size=6),
                           [symmetry_axis(grid.spec, dim)]])


@pytest.fixture(scope="module", params=EQUIVALENCE_KINDS,
                ids=["disk", "annulus", "ellipse", "rectangle", "stadium", "square"])
def solved_and_random(request):
    """A solved pair at grid 49 and a pair of random positive fields on the
    same grid."""
    spec = request.param
    area = pl.build_grid(spec, 49).discrete_area
    pair, _ = pl.optimize(spec, 49, 1.0, 2.0, 1.4 * area)
    grid = pair.grid
    rng = np.random.default_rng(len(spec.kind))
    u = ScalarField(grid, rng.uniform(0.5, 1.5, grid.n))
    v = ScalarField(grid, rng.uniform(0.5, 1.5, grid.n))
    rand = OptimalPair(u=u, v=v, rho=uniform_density(grid, 1.0, 2.0, 1.4 * area),
                       theta=1.0, t=1.0)
    return pair, rand


class TestCapPathsMatchFullGridReferences:
    """The cap-only stencils, the cap-read asymmetry and the whole-lattice
    convexity scan return every number the full-grid, per-field and
    per-line code returned."""

    def test_asymmetry(self, solved_and_random):
        for pair in solved_and_random:
            grid = pair.grid
            symmetrized = 0.5 * (pair.u.values + reflect_values(
                grid, pair.u.values, 0, symmetry_axis(grid.spec, 0)).values)
            fields = [pair.u, pair.v, ScalarField(grid, symmetrized),
                      ScalarField(grid, np.full(grid.n, 0.7)),
                      ScalarField(grid, np.zeros(grid.n))]
            outcomes = set()
            for u in fields:
                for dim in (0, 1, 2, -1):
                    want = _outcome(_full_grid_asymmetry, u, dim)
                    assert _outcome(dg.asymmetry, u, dim) == want
                    outcomes.add(want)
            assert "0.0" in outcomes
            assert "DiagnosticsError: u vanishes identically" in outcomes
            assert "GeometryError: axis dim must be 0 or 1, got 2" in outcomes

    @pytest.mark.parametrize("spec", EQUIVALENCE_KINDS, ids=lambda s: s.kind)
    @pytest.mark.parametrize("nps", [9, 17, 48, 97])
    def test_asymmetry_across_grids(self, spec, nps):
        grid = pl.build_grid(spec, nps)
        rng = np.random.default_rng(nps)
        for values in (rng.uniform(0.5, 1.5, grid.n), np.full(grid.n, 2.0)):
            u = ScalarField(grid, values)
            for dim in (0, 1):
                assert _outcome(dg.asymmetry, u, dim) == _outcome(_full_grid_asymmetry, u, dim)

    def test_cap_report(self, solved_and_random):
        for pair in solved_and_random:
            rng = np.random.default_rng(pair.grid.n)
            for dim in (0, 1):
                for lam in _planes(pair.grid, dim, rng):
                    fields = (pair.u.values, pair.v.values)
                    rep = dg._cap_report(pair, dim, lam)
                    count = reflect_cap(pair.grid, fields, dim, lam)[0].size
                    for f, minimum in zip(fields, (rep.min_w1, rep.min_w2)):
                        want = _full_grid_cap_deficit(pair.grid, f, dim, lam)
                        assert repr((minimum, count)) == repr(want)
                    for t in (pair.t, float(np.median(pair.u.values))):
                        args = (replace(pair, t=t), dim, lam)
                        assert (_outcome(dg._cap_report, *args)
                                == _outcome(_full_grid_cap_report, *args))

    @pytest.mark.parametrize("n_lambda", [8, 16, 33])
    def test_moving_plane_profile(self, solved_and_random, n_lambda, monkeypatch):
        monkeypatch.setattr(dg, "N_LAMBDAS", n_lambda)
        for pair in solved_and_random:
            for dim in (0, 1):
                assert (_outcome(dg.moving_plane_profile, pair, dim)
                        == _outcome(_full_grid_moving_plane_profile, pair, dim, n_lambda))

    @pytest.mark.parametrize("n_lambda", [8, 16, 33])
    def test_cap_report_over_the_window(self, solved_and_random, n_lambda, monkeypatch):
        monkeypatch.setattr(dg, "N_LAMBDAS", n_lambda)
        pair, _ = solved_and_random
        for dim in (0, 1):
            for lam in dg.plane_positions(pair, dim):
                assert (_outcome(dg._cap_report, pair, dim, lam)
                        == _outcome(_full_grid_cap_report, pair, dim, lam))

    def test_axis_convexity(self, solved_and_random):
        pair, rand = solved_and_random
        grid = pair.grid
        centred = -np.hypot(grid.node_x - grid.spec.center[0], grid.node_y - grid.spec.center[1])
        shifted = centred - 0.3 * (grid.node_x - grid.spec.center[0])
        seen = set()
        for u in (pair.u.values, rand.u.values, centred, shifted):
            for t in np.quantile(u, [0.0, 0.1, 0.3, 0.5, 0.7, 0.9, 0.99]) - 1e-12:
                for dim in (0, 1):
                    want = _per_line_axis_convex_along(grid, u, t, dim)
                    assert dg._axis_convex_along(grid, u, t, dim) is want
                    seen.add(want)
        assert seen == {True, False}

    def test_annulus_run_across_the_hole(self):
        # the lines through the hole hold two stretches of interior nodes;
        # a run that fills both has no gap
        g = pl.build_grid(pl.annulus(0.5), 33)
        u = np.ones(g.n)
        for dim in (0, 1):
            assert dg._axis_convex_along(g, u, 0.5, dim) is True
            assert _per_line_axis_convex_along(g, u, 0.5, dim) is True


class TestCapStencilCount:
    """Operation count, not time: one cap-only stencil per plane."""

    @pytest.fixture()
    def stencil_calls(self, monkeypatch):
        calls = []
        real = geometry._mirror_stencil

        def counted(grid, dim, lam, nodes):
            calls.append((grid, dim, lam, nodes))
            return real(grid, dim, lam, nodes)

        monkeypatch.setattr(geometry, "_mirror_stencil", counted)
        return calls

    @pytest.mark.parametrize("dim", [0, 1])
    def test_moving_plane_profile_one_stencil_per_plane(self, disk_pair_64, stencil_calls, dim):
        pair, _ = disk_pair_64
        dg.moving_plane_profile(pair, dim)
        assert len(stencil_calls) == 16
        for (grid, d, lam, nodes), want in zip(stencil_calls, dg.plane_positions(pair, dim)):
            assert d == dim and lam == want
            coords = grid.node_x if dim == 0 else grid.node_y
            assert isinstance(nodes, np.ndarray) and nodes.size > 0
            assert np.all(coords[nodes] > lam)

    def test_cap_report_one_stencil(self, disk_pair_64, stencil_calls):
        pair, _ = disk_pair_64
        lo, hi = dg.plane_positions(pair, 1)[[0, -1]]
        dg._cap_report(pair, 1, 0.5 * (lo + hi))
        (grid, _, lam, nodes), = stencil_calls
        assert np.all(grid.node_y[nodes] > lam)

    def test_cap_path_validates_direction(self, disk_pair_64):
        pair, _ = disk_pair_64
        for dim in (2, -1):
            with pytest.raises(GeometryError, match="axis dim must be 0 or 1"):
                dg._cap_report(pair, dim, 0.0)
            with pytest.raises(GeometryError, match="axis dim must be 0 or 1"):
                reflect_cap(pair.grid, [pair.u.values], dim, 0.0)
