"""The last grid, its matrix and its factorization are shared between calls.

``build_grid`` keeps the grid it built last; ``assemble_laplacian``
memoizes the matrix and the first solve's factorization on the grid.
The memo is the one owner of both. Sharing must not change a single bit
of any result and must not keep a grid alive once a different one is
built; a rebuilt grid has the same tag, so it takes the old one's fields.
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

import platelab as pl
from platelab import cli, geometry
from platelab.fields import ScalarField
from platelab.poisson import DiscreteLaplacian, GridMismatchError, solve_dirichlet
from conftest import make_strip_grid, orbit_aligned_mass

ARRAYS = ("xs", "ys", "ix", "iy", "index_of", "theta", "neighbor")
# (name, spec, nodes per side, mass): the uncut grids of the A, B, A sequence
SEQUENCE = {
    "square": (pl.unit_square(), 129, 1.5),
    "rectangle": (pl.rectangle(1.0, 0.5), 129, 0.75),
}


@pytest.fixture
def empty_cache(monkeypatch):
    """No grid kept from earlier tests, so the next build is a fresh one."""
    monkeypatch.setattr(geometry, "_last", None)


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

    def test_solve_then_verify_builds_and_factorizes_once(self, tmp_path, monkeypatch,
                                                          counts):
        M = orbit_aligned_mass(pl.disk(1.0), 33, 1.0, 2.0)
        monkeypatch.setattr(geometry, "_last", None)
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

    def test_replace_starts_with_an_empty_memo(self):
        g = pl.build_grid(pl.disk(1.0), 17)
        pl.assemble_laplacian(g)
        assert "matrix" in g._memo
        copy = dataclasses.replace(g, tag="copy")
        assert copy._memo == {} and "matrix" in g._memo


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
    def test_a_rebuilt_grid_takes_the_same_fields(self, monkeypatch):
        spec = pl.rectangle(1.0, 0.75)
        first = pl.build_grid(spec, 17)
        monkeypatch.setattr(geometry, "_last", None)
        second = pl.build_grid(spec, 17)
        assert second is not first and second.tag == first.tag
        f = ScalarField(first, np.ones(first.n))
        w = solve_dirichlet(pl.assemble_laplacian(second), f)
        assert np.array_equal(w.values, solve_dirichlet(pl.assemble_laplacian(first), f).values)
        other = pl.build_grid(spec, 19)
        with pytest.raises(GridMismatchError):
            solve_dirichlet(pl.assemble_laplacian(other), f)
