import dataclasses
import json
import math

import numpy as np
import pytest

import platelab as pl
from platelab.geometry import (
    DisconnectedInteriorError,
    DomainSpec,
    GeometryError,
    reflect_cap,
    symmetry_axis,
)
from conftest import mirror_orbit_ids, mirror_ranks, reflect_values, reflection_caps

ALL_KINDS = (pl.disk(1.0), pl.annulus(0.5), pl.ellipse(1.0, 0.6),
             pl.rectangle(1.0, 0.45), pl.stadium(1.0, 0.5))
OFF_CENTRE = (pl.disk(1.0, center=(2.0, 0.0)), pl.annulus(0.3, 0.8, center=(-1.0, 0.25)),
              pl.ellipse(1.0, 0.6, center=(0.5, 0.0)), pl.rectangle(1.0, 0.45, center=(0.3, 0.5)),
              pl.stadium(0.6, 0.3, center=(0.2, -0.1)))


def _diameter(spec):
    xmin, xmax, ymin, ymax = spec.bbox()
    return math.hypot(xmax - xmin, ymax - ymin)


class TestDomainSpec:
    def test_rejects_nonpositive_lengths(self):
        with pytest.raises(GeometryError):
            pl.disk(0.0)
        with pytest.raises(GeometryError):
            pl.rectangle(-1.0, 1.0)

    def test_annulus_needs_inner_below_outer(self):
        with pytest.raises(GeometryError):
            pl.annulus(1.0, 0.5)

    @pytest.mark.parametrize("spec", OFF_CENTRE, ids=lambda s: s.kind)
    def test_dict_round_trip(self, spec):
        back = DomainSpec.from_dict(json.loads(json.dumps(spec.to_dict())))
        assert back.kind == spec.kind
        assert back.params == spec.params
        assert back.center == spec.center

    @pytest.mark.parametrize("spec", ALL_KINDS + OFF_CENTRE,
                             ids=lambda s: "%s@%g,%g" % (s.kind, *s.center))
    def test_dict_holds_kind_params_center(self, spec):
        assert set(spec.to_dict()) == {"kind", "params", "center"}

    def test_from_dict_validates(self):
        good = pl.disk(1.0, center=(2.0, 0.0)).to_dict()
        with pytest.raises(GeometryError):
            DomainSpec.from_dict(dict(good, kind="torus"))
        with pytest.raises(GeometryError):
            DomainSpec.from_dict(dict(good, params=[-1.0]))
        with pytest.raises(GeometryError):
            DomainSpec.from_dict({"kind": "annulus", "params": [1.0, 0.5]})

    def test_level_sign(self):
        for spec in (pl.disk(1.0), pl.annulus(0.5), pl.ellipse(1, 0.6),
                     pl.unit_square(), pl.stadium(1.0, 0.5)):
            xmin, xmax, ymin, ymax = spec.bbox()
            assert spec.level(xmax + 0.1, 0.5 * (ymin + ymax)) > 0
        assert pl.disk(1.0).level(0.0, 0.0) < 0
        assert pl.annulus(0.5).level(0.0, 0.0) > 0  # the hole is outside
        assert pl.annulus(0.5).level(0.75, 0.0) < 0


class TestBuildGrid:
    def test_unit_square_five_nodes(self):
        g = pl.build_grid(pl.unit_square(), 5)
        assert g.n == 9
        assert g.delta == 0.25
        assert (g.theta == 1.0).all()
        assert sorted(set(g.node_x.tolist())) == [0.25, 0.5, 0.75]

    def test_disk_interior_count(self):
        g = pl.build_grid(pl.disk(1.0), 65)  # delta = 1/32
        expected = math.pi / g.delta**2
        assert abs(g.n - expected) / expected < 0.02

    def test_annulus_interior_count_and_loops(self):
        g = pl.build_grid(pl.annulus(0.5, 1.0), 129)  # delta = 1/64
        expected = math.pi * (1 - 0.25) / g.delta**2
        assert abs(g.n - expected) / expected < 0.02
        assert len(g.spec.boundary_loops(16)) == 2

    def test_too_few_nodes_rejected(self):
        with pytest.raises(GeometryError):
            pl.build_grid(pl.disk(1.0), 4)

    def test_disconnected_interior_names_components(self):
        with pytest.raises(DisconnectedInteriorError) as err:
            pl.build_grid(pl.annulus(0.9, 1.0), 9)
        assert len(err.value.component_sizes) > 1

    def test_cut_fractions_match_circle(self):
        g = pl.build_grid(pl.disk(1.0), 33)
        # pick a node with an eastern cut and verify against the exact
        # crossing of the unit circle along its row
        cut_nodes = np.flatnonzero((g.theta[:, 1] < 1.0))
        assert cut_nodes.size
        for i in cut_nodes[:10]:
            x, y = g.node_x[i], g.node_y[i]
            x_cross = math.sqrt(1.0 - y * y)
            assert g.theta[i, 1] == pytest.approx((x_cross - x) / g.delta, abs=1e-11)

    def test_boundary_normals_are_unit(self):
        # n = 256 keeps every sample off the rectangle corners, where the
        # inward step would run along the other side
        for spec in ALL_KINDS + OFF_CENTRE:
            eps = 1e-6 * _diameter(spec)
            loops = spec.boundary_loops(256)
            for pts, nrm in loops:
                norms = np.linalg.norm(nrm, axis=1)
                assert np.max(np.abs(norms - 1.0)) < 1e-12, spec.kind
                out = pts + eps * nrm
                into = pts - eps * nrm
                assert np.all(spec.level(out[:, 0], out[:, 1]) > 0.0), spec.kind
                assert np.all(spec.level(into[:, 0], into[:, 1]) < 0.0), spec.kind
            if spec.kind == "annulus":
                pts, nrm = loops[1]  # the inner circle: normals point into the hole
                assert np.all(np.sum((pts - spec.center) * nrm, axis=1) < 0.0)

    def test_theta_range(self):
        g = pl.build_grid(pl.stadium(1.0, 0.5), 33)
        assert (g.theta > 0).all() and (g.theta <= 1).all()

    @pytest.mark.parametrize("spec", ALL_KINDS + OFF_CENTRE, ids=lambda s: s.kind)
    def test_cut_points_are_first_boundary_crossings(self, spec):
        g = pl.build_grid(spec, 33)
        steps = np.array([(-1, 0), (1, 0), (0, -1), (0, 1)])
        i, d = np.nonzero(g.theta < 1.0)
        assert i.size
        t = g.theta[i, d] * g.delta
        x = g.node_x[i] + t * steps[d, 0]
        y = g.node_y[i] + t * steps[d, 1]
        assert np.max(np.abs(spec.level(x, y))) < 1e-12
        # halfway to the crossing is still inside: no earlier crossing
        mid = spec.level(g.node_x[i] + 0.5 * t * steps[d, 0],
                         g.node_y[i] + 0.5 * t * steps[d, 1])
        assert np.all(mid < 0.0)

    def test_near_tangent_cut_does_not_cancel(self):
        # row a = 0.58333 of the acceptance sweep: one mirror orbit of links
        # grazes the inner circle; 50-digit reference crossing 0.99999945371440713
        g = pl.build_grid(pl.annulus(float(np.linspace(0.05, 0.85, 16)[10])), 97)
        near = g.theta[(g.theta > 0.9999994) & (g.theta < 0.9999995)]
        assert near.size == 8
        assert np.max(np.abs(near - 0.99999945371440713)) < 1e-15

    def test_node_on_boundary_up_to_rounding_is_a_boundary_node(self):
        # the lattice node (0.15, 0) lies on the inner circle up to rounding
        g = pl.build_grid(pl.annulus(0.15), 41)
        assert g.n == 1216
        assert (g.theta > 1e-6).all()
        on_circle = np.abs(np.hypot(g.node_x, g.node_y) - 0.15) < 1e-12 * g.delta
        assert not on_circle.any()


class TestReflectCap:
    def test_symmetric_field_reflects_exactly(self):
        g = pl.build_grid(pl.disk(1.0), 65)
        f = np.cos(3 * g.node_x**2) * np.exp(g.node_y)
        nodes, (r,) = reflect_cap(g, [f], 0, 0.0)
        assert np.array_equal(nodes, np.flatnonzero(g.node_x > 0.0))
        assert np.array_equal(r, f[nodes])

    def test_odd_field_negates_exactly(self):
        g = pl.build_grid(pl.disk(1.0), 65)
        f = g.node_x * np.exp(g.node_y)
        nodes, (r,) = reflect_cap(g, [f], 0, 0.0)
        assert np.array_equal(r, -f[nodes])

    def test_axis_mirror_is_a_node(self):
        g = pl.build_grid(pl.disk(1.0), 65)
        f = np.random.default_rng(3).normal(size=g.n)
        nodes, (r,) = reflect_cap(g, [f], 0, 0.0)
        assert np.array_equal(r, f[mirror_ranks(g, 0)][nodes])

    def test_off_axis_reflection_drops_unsupported(self):
        g = pl.build_grid(pl.disk(1.0), 65)
        f = np.ones(g.n)
        nodes, _ = reflect_cap(g, [f], 0, 0.5)
        # every node beyond x = 0.5 reflects into the disk
        assert np.array_equal(nodes, np.flatnonzero(g.node_x > 0.5))
        nodes, _ = reflect_cap(g, [f], 0, -0.5)
        # nodes right of x = 0 reflect beyond x = -1, outside the disk
        assert nodes.size > 0
        assert np.all((g.node_x[nodes] > -0.5) & (g.node_x[nodes] < 0.0))

    def test_interpolation_is_second_order(self):
        def err(nps):
            g = pl.build_grid(pl.rectangle(2.0, 2.0), nps)
            # keep the fractional interpolation phase fixed across
            # resolutions so the prefactor matches
            lam = g.xs[g.xs.shape[0] // 2 + 3] + 0.37 * g.delta
            f = np.sin(1.3 * g.node_x + 0.4) * np.cos(0.7 * g.node_y)
            nodes, (r,) = reflect_cap(g, [f], 0, lam)
            x, y = g.node_x[nodes], g.node_y[nodes]
            exact = np.sin(1.3 * (2 * lam - x) + 0.4) * np.cos(0.7 * y)
            sel = (np.abs(2 * lam - x) < 0.9) & (np.abs(y) < 0.9)
            return np.max(np.abs(r[sel] - exact[sel]))

        ratio = err(65) / err(129)
        assert 2.8 < ratio < 5.2

    def test_y_axis_reflection(self):
        g = pl.build_grid(pl.ellipse(1.0, 0.6), 65)
        f = np.abs(g.node_y) + g.node_x
        nodes, (r,) = reflect_cap(g, [f], 1, 0.0)
        assert np.array_equal(nodes, np.flatnonzero(g.node_y > 0.0))
        assert np.array_equal(r, f[nodes])

    def test_field_length_checked(self):
        g = pl.build_grid(pl.disk(1.0), 17)
        with pytest.raises(GeometryError, match="does not match grid"):
            reflect_cap(g, [np.ones(g.n), np.ones(g.n + 1)], 0, 0.0)


def _separate_mirror_ranks(grid, dim):
    """Reference: its own plane snapping and lattice lookups, across the
    centre line in direction ``dim``."""
    lam = grid.spec.center[dim]
    plane = "{%s = %r}" % ("xy"[dim], lam)
    coords = grid.xs if dim == 0 else grid.ys
    nmax = coords.shape[0]
    two_jlam = 2.0 * (lam - coords[0]) / grid.delta
    snapped = round(two_jlam)
    if abs(two_jlam - snapped) > 1e-9:
        raise GeometryError("axis %s is not lattice-aligned" % plane)
    if dim == 0:
        jm = snapped - grid.ix
        ok = (jm >= 0) & (jm < nmax)
        ranks = grid.index_of[grid.iy, np.clip(jm, 0, nmax - 1)]
    else:
        jm = snapped - grid.iy
        ok = (jm >= 0) & (jm < nmax)
        ranks = grid.index_of[np.clip(jm, 0, nmax - 1), grid.ix]
    if not (ok.all() and (ranks >= 0).all()):
        raise GeometryError("grid is not mirror-closed across %s" % plane)
    return ranks


def _outcome(fn, *args):
    try:
        return fn(*args)
    except GeometryError as e:
        return str(e)


class TestMirrorStencil:
    """One stencil reproduces the two-branch reference reflection on the
    cap and the separate mirror lookup bitwise, on lattice, half-lattice
    and off-lattice planes."""

    @pytest.mark.parametrize("spec", ALL_KINDS + OFF_CENTRE,
                             ids=lambda s: "%s@%g,%g" % (s.kind, *s.center))
    @pytest.mark.parametrize("nps", [33, 64])
    def test_matches_reference_bitwise(self, spec, nps):
        g = pl.build_grid(spec, nps)
        rng = np.random.default_rng(nps)
        f = rng.normal(size=g.n)
        holes = f.copy()  # NaN nodes, as in a reflection reflected again
        holes[::7] = np.nan
        for dim in (0, 1):
            coords = g.xs if dim == 0 else g.ys
            ks = rng.integers(0, coords.shape[0] - 1, size=10)
            planes = np.concatenate([
                coords[ks],
                0.5 * (coords[ks] + coords[ks + 1]),
                rng.uniform(coords[0] - g.delta, coords[-1] + g.delta, size=10),
                [spec.center[dim]],
            ])
            node_coords = g.node_x if dim == 0 else g.node_y
            for lam in planes:
                nodes, got = reflect_cap(g, [f, holes], dim, lam)
                for field, reflected in zip((f, holes), got):
                    want = reflect_values(g, field, dim, lam)
                    cap = np.flatnonzero((node_coords > lam) & want.present)
                    assert np.array_equal(nodes, cap)
                    assert reflected.tobytes() == want.values[cap].tobytes()
            want = _outcome(_separate_mirror_ranks, g, dim)
            got = _outcome(mirror_ranks, g, dim)
            if isinstance(want, str):
                assert got == want
            else:
                assert got.dtype == want.dtype and np.array_equal(got, want)

    def test_direction_only(self):
        g = pl.build_grid(pl.disk(1.0), 17)
        f = np.ones(g.n)
        with pytest.raises(GeometryError):
            reflect_cap(g, [f], 2, 0.0)


class TestMirrorRanks:
    def test_mirror_is_involution(self):
        g = pl.build_grid(pl.ellipse(1.0, 0.6), 65)
        for dim in (0, 1):
            m = mirror_ranks(g, dim)
            assert np.array_equal(m[m], np.arange(g.n))

    def test_square_mirrors_across_declared_axes(self):
        g = pl.build_grid(pl.unit_square(), 33)
        # across x = 0.5 and y = 0.5
        assert np.array_equal(g.node_x[mirror_ranks(g, 0)], 1.0 - g.node_x)
        assert np.array_equal(g.node_y[mirror_ranks(g, 1)], 1.0 - g.node_y)

    def test_orbit_ids_are_reflection_invariant(self):
        g = pl.build_grid(pl.disk(1.0), 33)
        ids = mirror_orbit_ids(g)
        for dim in (0, 1):
            m = mirror_ranks(g, dim)
            assert np.array_equal(ids, ids[m])

    @pytest.mark.parametrize("spec", ALL_KINDS + OFF_CENTRE + (pl.unit_square(),),
                             ids=lambda s: "%s@%g,%g" % (s.kind, *s.center))
    @pytest.mark.parametrize("nps", [17, 33, 48, 64])
    def test_orbit_ids_match_fixed_point_reference(self, spec, nps):
        g = pl.build_grid(spec, nps)
        want = _fixed_point_orbit_ids(g)
        got = mirror_orbit_ids(g)
        assert got.dtype == want.dtype and np.array_equal(got, want)

    @pytest.mark.parametrize("spec", [pl.disk(1.0), pl.unit_square(), pl.ellipse(1.0, 0.6)],
                             ids=lambda s: s.kind)
    @pytest.mark.parametrize("nps", [33, 64])
    @pytest.mark.parametrize("shift,message", [(0.3, "is not lattice-aligned"),
                                               (0.5, "is not mirror-closed")])
    def test_off_lattice_centre_rejected(self, spec, nps, shift, message):
        g = pl.build_grid(spec, nps)
        cx, cy = spec.center
        moved = dataclasses.replace(spec, center=(cx + shift * g.delta, cy))
        with pytest.raises(GeometryError, match=message):
            mirror_ranks(dataclasses.replace(g, spec=moved), 0)

    @pytest.mark.parametrize("dim", [2, -1])
    def test_direction_validated(self, dim):
        spec = pl.disk(1.0)
        g = pl.build_grid(spec, 17)
        with pytest.raises(GeometryError):
            symmetry_axis(spec, dim)
        with pytest.raises(GeometryError):
            mirror_ranks(g, dim)


def _fixed_point_orbit_ids(grid):
    """Reference: the fixed-point loop over the two mirrors."""
    ids = np.arange(grid.n)
    mirrors = [mirror_ranks(grid, dim) for dim in (0, 1)]
    for _ in range(max(len(mirrors), 1)):
        changed = False
        for m in mirrors:
            new = np.minimum(ids, ids[m])
            if not np.array_equal(new, ids):
                ids = new
                changed = True
        if not changed:
            break
    return ids


class TestReflectionCaps:
    """``Shape.stop`` against sampled boundary geometry, through the
    reference landmarks that ``diagnostics.plane_positions`` reads."""

    def test_disk(self):
        caps = reflection_caps(pl.disk(1.0), 0)
        assert caps.lam0 == 1.0
        assert caps.lam1 == 0.0

    def test_centered_square(self):
        caps = reflection_caps(pl.rectangle(1.0, 1.0), 0)
        assert caps.lam0 == 0.5
        assert caps.lam1 == 0.0

    def test_annulus_touching_position(self):
        caps = reflection_caps(pl.annulus(0.5, 1.0), 0)
        assert caps.lam1 == pytest.approx(0.75, abs=1e-8)
        assert caps.lam1 < caps.lam0
        assert caps.lam1 > 0.0  # strictly beyond the symmetry axis

    def test_ordering_for_all_builtins(self):
        for spec in (pl.disk(1.0), pl.annulus(0.3), pl.ellipse(1, 0.6),
                     pl.unit_square(), pl.stadium(1.0, 0.5)):
            for dim in (0, 1):
                caps = reflection_caps(spec, dim)
                assert caps.lam1 < caps.lam0
                if spec.kind != "annulus":
                    assert caps.lam1 == spec.center[dim]

    @pytest.mark.parametrize("a", [0.05, 0.3, 0.5, 0.85])
    @pytest.mark.parametrize("center", [(0.0, 0.0), (-1.0, 0.25)])
    def test_annulus_stop_in_closed_form(self, a, center):
        spec = pl.annulus(a, 1.0, center=center)
        for dim in (0, 1):
            caps = reflection_caps(spec, dim)
            assert caps.lam1 == center[dim] + (a + 1.0) / 2

    def test_containment_monotone_above_lam2(self):
        """The boundary of the cap beyond any plane in (lam1, lam0),
        reflected, stays in the closure; on the annulus it leaves the
        closure just below lam1."""

        def worst_reflected_level(spec, dim, lam):
            worst = -math.inf
            for pts, _ in spec.boundary_loops(4096):
                q = pts[pts[:, dim] > lam].copy()
                q[:, dim] = 2.0 * lam - q[:, dim]
                if len(q):
                    worst = max(worst, float(np.max(spec.level(q[:, 0], q[:, 1]))))
            return worst

        rng = np.random.default_rng(11)
        for spec in ALL_KINDS + OFF_CENTRE:
            tol = 1e-12 * _diameter(spec)
            for dim in (0, 1):
                caps = reflection_caps(spec, dim)
                for lam in rng.uniform(caps.lam1, caps.lam0, size=20):
                    assert worst_reflected_level(spec, dim, lam) <= tol
                if spec.kind == "annulus":
                    assert worst_reflected_level(spec, dim, caps.lam1 - 1e-3) > 1e-4

    def test_non_axis_aligned_rejected(self):
        with pytest.raises(GeometryError):
            reflection_caps(pl.disk(1.0), (0.7, 0.7))
