"""Kept grids, their matrices and their factorizations are shared between calls.

``build_grid`` keeps the grid it built last, and a second one only after
an A, B, A return: a miss on the key of the grid it dropped last keeps
the last grid too, and from then on both are hits. A miss with two kept
drops both before the new grid is built. So at most two grids and their
factorizations (disk at 257: about 31 MB each) are alive, and callers
that never return to the grid before last keep one. Each build first
gives the C heap's free pages back to the system.
``assemble_laplacian`` memoizes the matrix and the first solve's
factorization on the grid; the memo is the one owner of both. Sharing
must not change a single bit of any result and must not keep a grid
alive once the rule drops it; a rebuilt grid has the same tag, so it
takes the old one's fields.
"""

import dataclasses
import gc
import hashlib
import json
import os
import subprocess
import sys
import weakref

import numpy as np
import pytest
import scipy.sparse.linalg as spla
from hypothesis import HealthCheck, given, settings, strategies as st

import platelab as pl
from platelab import cli, geometry
from platelab.geometry import GeometryError
from platelab.fields import ScalarField
from platelab.poisson import DiscreteLaplacian, GridMismatchError, solve_dirichlet
from conftest import make_strip_grid, orbit_aligned_mass

ARRAYS = ("xs", "ys", "ix", "iy", "index_of", "theta", "neighbor")
# (name, spec, nodes per side, mass): the uncut grids of the A, B, A sequences
SEQUENCE = {
    "square": (pl.unit_square(), 129, 1.5),
    "rectangle": (pl.rectangle(1.0, 0.5), 129, 0.75),
    "small square": (pl.unit_square(), 33, 1.5),
    "small rectangle": (pl.rectangle(1.0, 0.5), 33, 0.75),
}
# small grids for the property test of the rule, by index
RULE_GRIDS = [(pl.disk(1.0), 9), (pl.disk(1.0), 11), (pl.unit_square(), 9),
              (pl.rectangle(1.0, 0.5), 9)]


@pytest.fixture
def empty_cache(monkeypatch):
    """No grid kept and no key dropped by earlier tests, so the next build is
    a fresh one and no return can be taken for an A, B, A. Calling the
    returned function empties the cache again; the old state comes back
    after the test."""
    def empty():
        monkeypatch.setattr(geometry, "_kept", {})
        monkeypatch.setattr(geometry, "_dropped", None)

    empty()
    return empty


@pytest.fixture
def counts(monkeypatch):
    """Counts of grid builds and of factorizations."""
    seen = {"build": 0, "splu": 0}
    build, splu = geometry._build_grid, spla.splu

    def counted_build(*args):
        seen["build"] += 1
        return build(*args)

    def counted_splu(*args, **kwargs):
        seen["splu"] += 1
        return splu(*args, **kwargs)

    monkeypatch.setattr(geometry, "_build_grid", counted_build)
    monkeypatch.setattr(spla, "splu", counted_splu)
    return seen


def outcome(name):
    """Everything ``optimize`` returns on a ``SEQUENCE`` entry but its wall
    time, in a form a fresh interpreter can print."""
    spec, nps, M = SEQUENCE[name]
    pair, report = pl.optimize(spec, nps, 1.0, 2.0, M)
    fields = b"".join(f.values.tobytes() for f in (pair.u, pair.v, pair.rho))
    return [repr(pair.theta), repr(pair.t), hashlib.sha256(fields).hexdigest(),
            repr(dataclasses.replace(report, wall_time=0.0))]


def _fresh_outcome(name):
    here = os.path.dirname(os.path.abspath(__file__))
    src = os.path.dirname(os.path.dirname(os.path.abspath(pl.__file__)))
    code = ("import json, sys; sys.path[:0] = [%r, %r]; import test_grid_cache as t; "
            "print(json.dumps(t.outcome(%r)))" % (src, here, name))
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=300, check=True)
    return json.loads(done.stdout.splitlines()[-1])


def _tag(spec, size):
    return hashlib.sha1(repr((spec, size)).encode()).hexdigest()[:12]


def _kept_by_rule(keys):
    """Reference model of the rule: the kept keys after each build of
    ``keys``, the one returned last at the end."""
    kept, dropped = [], None
    for key in keys:
        if key in kept:  # a hit
            kept.remove(key)
        elif not (len(kept) == 1 and key == dropped):  # not an A, B, A return
            if kept:  # the one returned last is dropped last
                dropped = kept[-1]
            kept = []
        kept.append(key)
        yield list(kept)


def _same(first, second):
    (p1, r1), (p2, r2) = first, second
    for a, b in zip((p1.u, p1.v, p1.rho), (p2.u, p2.v, p2.rho)):
        assert np.array_equal(a.values, b.values)
    assert (p1.theta, p1.t) == (p2.theta, p2.t)
    assert dataclasses.replace(r1, wall_time=0.0) == dataclasses.replace(r2, wall_time=0.0)


class TestSharing:
    def test_same_inputs_get_the_same_grid(self):
        g = pl.build_grid(pl.disk(1.0), 33)
        assert pl.build_grid(pl.disk(1.0), 33) is g
        assert pl.build_grid(pl.disk(1.0), np.int64(33)) is g

    def test_signed_zero_centres_get_distinct_grids(self):
        plain = pl.build_grid(pl.disk(), 33)
        signed = pl.build_grid(pl.disk(center=(-0.0, 0.0)), 33)
        assert signed is not plain
        assert signed.tag != plain.tag
        assert pl.build_grid(pl.disk(), 33) is not signed

    def test_second_optimize_reuses_the_factorization(self, monkeypatch):
        spec = pl.ellipse(1.0, 0.6)
        first = pl.optimize(spec, 65, 1.0, 2.0, 1.5 * spec.area())

        def refactor(*args, **kwargs):
            raise AssertionError("grid factorized twice")

        monkeypatch.setattr(spla, "splu", refactor)
        _same(first, pl.optimize(spec, 65, 1.0, 2.0, 1.5 * spec.area()))

    def test_alternating_grids_match_fresh_interpreters(self):
        runs = [outcome(name) for name in ("square", "rectangle", "square")]
        assert runs[0] == runs[2]
        assert runs[:2] == [_fresh_outcome(name) for name in ("square", "rectangle")]

    def test_alternating_optimize_factorizes_twice_after_the_first(self, empty_cache, counts):
        names = ["small square", "small rectangle"] * 2 + ["small square"]
        runs = [outcome(names[0])]
        counts.update(build=0, splu=0)
        runs += [outcome(name) for name in names[1:]]
        # B drops A; A returns, is rebuilt and kept with B; the last two are hits
        assert counts == {"build": 2, "splu": 2}
        fresh = {name: _fresh_outcome(name) for name in names[:2]}
        assert runs == [fresh[name] for name in names]

    def test_solve_then_verify_builds_and_factorizes_once(self, tmp_path, empty_cache,
                                                          counts):
        M = orbit_aligned_mass(pl.disk(1.0), 33, 1.0, 2.0)
        empty_cache()
        counts.update(build=0, splu=0)
        report, fields = str(tmp_path / "report.json"), str(tmp_path / "fields.csv")
        assert cli.main(["solve", "--domain", "disk", "--h", "1", "--H", "2",
                         "--mass", "%.17g" % M, "--grid", "33",
                         "--out", report, "--fields", fields]) == 0
        assert cli.main(["verify", "--report", report, "--fields", fields]) == 0
        assert counts == {"build": 1, "splu": 1}


class TestRelease:
    def test_previous_grid_dies_without_the_cyclic_collector(self, empty_cache):
        spec = pl.rectangle(1.0, 0.75)
        gc.disable()
        try:
            pair, _ = pl.optimize(spec, 33, 1.0, 2.0, 1.5 * spec.area())
            grid = pair.grid
            assert set(grid._memo) == {"matrix", "lu"}
            ref = weakref.ref(grid)
            del pair, grid
            pl.build_grid(pl.rectangle(0.75, 1.0), 33)
            assert ref() is None
        finally:
            gc.enable()

    def test_a_third_grid_drops_both(self, empty_cache):
        a, b, c = pl.rectangle(1.0, 0.75), pl.rectangle(0.75, 1.0), pl.disk(1.0)
        gc.disable()
        try:
            grids = [pl.build_grid(spec, 17) for spec in (a, b, a)]
            assert pl.build_grid(b, 17) is grids[1] and pl.build_grid(a, 17) is grids[2]
            for g in grids[1:]:
                solve_dirichlet(pl.assemble_laplacian(g), ScalarField(g, np.ones(g.n)))
                assert set(g._memo) == {"matrix", "lu"}
            refs = [weakref.ref(g) for g in grids[1:]]
            del grids, g
            third = pl.build_grid(c, 17)
            assert [ref() for ref in refs] == [None, None]
            assert list(geometry._kept.values()) == [third]
        finally:
            gc.enable()

    def test_a_failed_build_leaves_no_entry(self, empty_cache):
        a, b = pl.disk(1.0), pl.unit_square()
        kept = [pl.build_grid(spec, 17) for spec in (a, b, a)][1:]
        with pytest.raises(GeometryError, match="must be an integer"):
            pl.build_grid(b, 17.0)
        assert list(geometry._kept.values()) == kept  # refused before the cache is read
        bad = pl.annulus(0.9, 1.0)
        with pytest.raises(GeometryError, match="no interior nodes"):
            pl.build_grid(bad, 5)
        assert geometry._kept == {} and geometry._dropped != repr((bad, 5))
        with pytest.raises(GeometryError, match="no interior nodes"):
            pl.build_grid(bad, 5)
        assert geometry._kept == {}

    def test_each_miss_and_no_hit_trims_the_heap(self, empty_cache, monkeypatch):
        trims = []
        monkeypatch.setattr(geometry, "_malloc_trim", trims.append)
        for spec in (pl.disk(1.0), pl.disk(1.0), pl.unit_square(), pl.disk(1.0)):
            pl.build_grid(spec, 17)
        assert trims == [0, 0, 0]

    def test_replace_starts_with_an_empty_memo(self):
        g = pl.build_grid(pl.disk(1.0), 17)
        pl.assemble_laplacian(g)
        assert "matrix" in g._memo
        copy = dataclasses.replace(g, tag="copy")
        assert copy._memo == {} and "matrix" in g._memo


class TestRule:
    @settings(derandomize=True, database=None, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(st.integers(3, 4).flatmap(
        lambda k: st.lists(st.integers(0, k - 1), min_size=1, max_size=24)))
    def test_kept_grids_follow_the_rule(self, empty_cache, keys):
        empty_cache()
        refs, before = {}, []
        for key, kept in zip(keys, _kept_by_rule(keys)):
            spec, size = RULE_GRIDS[key]
            grid = pl.build_grid(spec, size)
            assert grid.tag == _tag(spec, size)
            # a hit returns the kept grid itself, a miss a new one
            assert (key in refs and refs[key]() is grid) == (key in before)
            refs[key] = weakref.ref(grid)
            assert [g.tag for g in geometry._kept.values()] == [_tag(*RULE_GRIDS[k]) for k in kept]
            assert len(geometry._kept) <= 2
            # no grid outlives the rule
            assert {k for k, ref in refs.items() if ref() is not None} == set(kept)
            before = kept

    def test_distinct_sweep_rows_never_keep_two_grids(self, tmp_path, monkeypatch,
                                                      empty_cache, counts):
        kept_at_build, alive_at_build, built = [], [], []
        build = geometry._build_grid

        def watched(*args):
            kept_at_build.append(len(geometry._kept))
            alive_at_build.append(sum(ref() is not None for ref in built))
            grid = build(*args)
            built.append(weakref.ref(grid))
            return grid

        monkeypatch.setattr(geometry, "_build_grid", watched)
        gc.disable()
        try:
            assert cli.main(["sweep-annulus", "--inner-from", "0.2", "--inner-to", "0.6",
                             "--steps", "8", "--grid", "17", "--nr", "64",
                             "--out", str(tmp_path / "sweep.csv")]) == 0
        finally:
            gc.enable()
        # each row's grid is built for its check and again for its solve,
        # both times after the last grid is dropped and released: a row's
        # pair held past its row kept its grid and factorization alive
        assert kept_at_build == [0] * 16 and len(geometry._kept) == 1
        assert alive_at_build == [0] * 16
        assert counts == {"build": 16, "splu": 8}


class TestReadOnly:
    @pytest.mark.parametrize("name", ARRAYS)
    def test_shared_grid_arrays_refuse_writes(self, name):
        a = getattr(pl.build_grid(pl.disk(1.0), 17), name)
        with pytest.raises(ValueError, match="read-only"):
            a[(0,) * a.ndim] = 0

    def test_hand_built_grids_stay_writable(self):
        g = make_strip_grid(3, 0.1)
        assert all(getattr(g, name).flags.writeable for name in ARRAYS)


class TestMemoBoundary:
    def test_operators_share_one_matrix_and_factorization(self, empty_cache, counts):
        g = pl.build_grid(pl.rectangle(1.0, 0.75), 17)
        first, second = pl.assemble_laplacian(g), DiscreteLaplacian(g)
        assert first is not second and first._csr is second._csr
        f = ScalarField(g, np.ones(g.n))
        solve_dirichlet(first, f)
        solve_dirichlet(second, f)
        assert counts["splu"] == 1 and set(g._memo) == {"matrix", "lu"}


class TestFingerprint:
    def test_a_rebuilt_grid_takes_the_same_fields(self, empty_cache):
        spec = pl.rectangle(1.0, 0.75)
        first = pl.build_grid(spec, 17)
        empty_cache()
        second = pl.build_grid(spec, 17)
        assert second is not first and second.tag == first.tag
        f = ScalarField(first, np.ones(first.n))
        w = solve_dirichlet(pl.assemble_laplacian(second), f)
        assert np.array_equal(w.values, solve_dirichlet(pl.assemble_laplacian(first), f).values)
        other = pl.build_grid(spec, 19)
        with pytest.raises(GridMismatchError):
            solve_dirichlet(pl.assemble_laplacian(other), f)
