"""Shared fixtures: converged optimal pairs reused across test modules.

The symmetry suite uses masses aligned to complete reflection orbits of
the converged ordering: the threshold then cuts between orbits, the
converged density is exactly mirror-symmetric, and the measured field
asymmetry sits at the solver floor instead of at the single-node
mass-balancing level. This is an experiment-design choice (the mass is a
free parameter of the suite), not a solver change.

The reflection helpers only tests read live here too: a full-grid
reference reflection, the mirror ranks and orbit ids across the
symmetry axes, and the sweep landmarks and plane window that
``diagnostics.plane_positions`` folds into one function.
"""

from dataclasses import dataclass

import numpy as np
import pytest

import platelab as pl
from platelab.diagnostics import MIN_LAMBDAS, N_LAMBDAS, PLANE_MARGIN, DiagnosticsError
from platelab.geometry import GeometryError, Grid, _mirror_stencil, symmetry_axis


def make_strip_grid(n_nodes, delta):
    """Hand-built row of interior nodes (cell area delta^2): a minimal
    fixture for operations that only need counts, areas, and tags."""
    spec = pl.rectangle(n_nodes * delta + delta, 2 * delta)
    xs = (np.arange(n_nodes + 2, dtype=float) - (n_nodes + 1) / 2.0) * delta
    ys = np.array([-delta, 0.0, delta])
    ix = np.arange(1, n_nodes + 1, dtype=np.int64)
    iy = np.ones(n_nodes, dtype=np.int64)
    index_of = -np.ones((3, n_nodes + 2), dtype=np.int64)
    index_of[1, 1 : n_nodes + 1] = np.arange(n_nodes)
    theta = np.ones((n_nodes, 4))
    neighbor = -np.ones((n_nodes, 4), dtype=np.int64)
    neighbor[1:, 0] = np.arange(n_nodes - 1)
    neighbor[:-1, 1] = np.arange(1, n_nodes)
    return Grid(
        spec=spec, delta=delta, xs=xs, ys=ys, ix=ix, iy=iy, index_of=index_of,
        theta=theta, neighbor=neighbor, tag="strip-%d-%g" % (n_nodes, delta),
    )


@dataclass(frozen=True)
class Reflection:
    """Field values at the reflected node positions; ``present[i]`` is
    False, and ``values[i]`` NaN, where node i's mirror has no interior
    support."""

    values: np.ndarray
    present: np.ndarray


def reflect_values(grid, values, axis, lam):
    """Reference full-grid reflection: ``values`` at every node's mirror
    across ``{x_axis = lam}``, absent (and NaN) where the mirror has no
    interior support. An aligned and an off-lattice branch, each with its
    own node set."""
    values = np.asarray(values, dtype=float)
    if values.shape != (grid.n,):
        raise GeometryError("field length %d does not match grid (%d nodes)"
                            % (values.shape[0], grid.n))
    dim = int(axis)
    coords = grid.xs if dim == 0 else grid.ys
    j = (grid.ix if dim == 0 else grid.iy).astype(float)
    j_other = grid.iy if dim == 0 else grid.ix

    jlam = (lam - coords[0]) / grid.delta
    two_jlam = 2.0 * jlam
    snapped = round(two_jlam)
    if abs(two_jlam - snapped) < 1e-9:
        two_jlam = float(snapped)
    t = two_jlam - j

    nmax = coords.shape[0]
    tr = np.rint(t)
    aligned = np.abs(t - tr) < 1e-9

    out = np.full(grid.n, np.nan)
    present = np.zeros(grid.n, dtype=bool)

    def rank_at(jj):
        ok = (jj >= 0) & (jj < nmax)
        jc = np.clip(jj, 0, nmax - 1)
        if dim == 0:
            r = grid.index_of[j_other, jc]
        else:
            r = grid.index_of[jc, j_other]
        return np.where(ok, r, -1)

    ia = np.flatnonzero(aligned)
    if ia.size:
        r = rank_at(tr[ia].astype(np.int64))
        good = r >= 0
        out[ia[good]] = values[r[good]]
        present[ia] = good

    ib = np.flatnonzero(~aligned)
    if ib.size:
        j0 = np.floor(t[ib]).astype(np.int64)
        w = t[ib] - j0
        r0 = rank_at(j0)
        r1 = rank_at(j0 + 1)
        good = (r0 >= 0) & (r1 >= 0)
        out[ib[good]] = (1.0 - w[good]) * values[r0[good]] + w[good] * values[
            r1[good]
        ]
        present[ib] = good

    return Reflection(values=out, present=present)


def mirror_ranks(grid, dim):
    """Interior rank of each node's mirror image across the symmetry axis
    in direction ``dim``, read off the library's mirror stencil.

    Raises when any interior node's mirror is not itself an interior node
    (which cannot happen for an exactly symmetric domain on the symmetric
    lattice that ``build_grid`` produces).
    """
    lam = symmetry_axis(grid.spec, dim)
    r0, _, w, present = _mirror_stencil(grid, dim, lam, np.arange(grid.n))
    plane = "{%s = %r}" % ("xy"[dim], lam)
    if np.any(w != 0.0):
        raise GeometryError("axis %s is not lattice-aligned" % plane)
    if not present.all():
        raise GeometryError("grid is not mirror-closed across %s" % plane)
    return r0


def mirror_orbit_ids(grid):
    """Canonical orbit id per node under the two symmetry reflections:
    they commute, so a node's orbit is itself, its two mirrors and its
    mirror across both, and its id is the least of those ranks."""
    mx, my = mirror_ranks(grid, 0), mirror_ranks(grid, 1)
    return np.minimum.reduce([np.arange(grid.n), mx, my, mx[my]])


@dataclass(frozen=True)
class ReflectionCaps:
    """Plane-sweep landmarks along one direction.

    lam0: first plane position touching the closure (sup of the coordinate).
    lam1: stuck position (internal tangency of the reflected cap, or plane
          orthogonal to the boundary); for every plane in (lam1, lam0) the
          reflected cap stays inside the closure.
    """

    lam0: float
    lam1: float

    def __post_init__(self):
        if not self.lam1 < self.lam0:
            raise GeometryError("invalid caps: lam1=%r lam0=%r" % (self.lam1, self.lam0))


def reflection_caps(spec, dim):
    """Reference sweep landmarks along direction ``dim`` (0 or 1), in
    closed form.

    ``lam0`` is the largest coordinate of the closure. The plane moving in
    from there stops ``Shape.stop`` from the centre (Gidas, Ni and
    Nirenberg): at the centre on the convex kinds, which are symmetric
    about their centre axes, and at ``(inner + outer) / 2`` on the
    annulus, where the reflected cap first touches the inner circle.
    """
    lam1 = symmetry_axis(spec, dim) + spec.shape.stop(spec.params)
    return ReflectionCaps(lam0=spec.bbox()[2 * dim + 1], lam1=lam1)


def plane_window(pair, dim):
    """Reference open interval of plane positions across direction
    ``dim`` used by the moving-plane checks."""
    caps = reflection_caps(pair.spec, dim)
    margin = PLANE_MARGIN * pair.grid.delta
    lo = caps.lam1 + margin
    hi = caps.lam0 - margin
    if not lo < hi:
        raise DiagnosticsError("empty plane window: [%g, %g]" % (lo, hi))
    return lo, hi


def plane_positions(pair, dim, n_lambda=N_LAMBDAS):
    """Reference plane list: ``n_lambda`` equally spaced positions over
    ``plane_window``, ends included."""
    if n_lambda < MIN_LAMBDAS:
        raise DiagnosticsError("n_lambda must be at least %d" % MIN_LAMBDAS)
    lo, hi = plane_window(pair, dim)
    return np.linspace(lo, hi, n_lambda)


def orbit_aligned_mass(spec, nodes_per_side, h, H, fill=0.5, passes=2):
    """Mass near ``fill`` of the admissible bracket whose threshold cut
    falls between reflection orbits of the converged ordering."""
    grid = pl.build_grid(spec, nodes_per_side)
    ids = mirror_orbit_ids(grid)
    sizes = np.bincount(ids, minlength=grid.n)
    area = grid.discrete_area
    cell = grid.cell_area
    M = h * area + fill * (H - h) * area
    for _ in range(passes):
        pair, _ = pl.optimize(spec, nodes_per_side, h, H, M)
        order = np.argsort(-pair.u.values, kind="stable")
        oid = ids[order]
        K_target = (M - h * area) / ((H - h) * cell)
        counts = {}
        open_orbits = 0
        best = None
        for pos in range(grid.n):
            o = oid[pos]
            c = counts.get(o, 0) + 1
            counts[o] = c
            if c == 1:
                open_orbits += 1
            if c == sizes[o]:
                open_orbits -= 1
            if open_orbits == 0:
                cut = pos + 1
                if best is None or abs(cut - K_target) < abs(best - K_target):
                    best = cut
                if cut > K_target + 50:
                    break
        M = h * area + best * (H - h) * cell
    return M


def make_aligned_pair(spec, nodes_per_side, h=1.0, H=2.0, fill=0.5):
    M = orbit_aligned_mass(spec, nodes_per_side, h, H, fill=fill)
    pair, report = pl.optimize(spec, nodes_per_side, h, H, M)
    return pair, report


@pytest.fixture(scope="session")
def disk_pair_128():
    return make_aligned_pair(pl.disk(1.0), 257)


@pytest.fixture(scope="session")
def square_pair_128():
    return make_aligned_pair(pl.unit_square(), 129)


@pytest.fixture(scope="session")
def ellipse_pair_128():
    return make_aligned_pair(pl.ellipse(1.0, 0.6), 257)


@pytest.fixture(scope="session")
def disk_pair_64():
    return make_aligned_pair(pl.disk(1.0), 129)


@pytest.fixture(scope="session")
def pair_matrix():
    """Converged runs on every built-in composite domain at three mass
    levels (quarter, half, and three-quarter fill of the bracket)."""
    domains = [
        ("disk", pl.disk(1.0), 129),
        ("square", pl.unit_square(), 65),
        ("ellipse", pl.ellipse(1.0, 0.6), 129),
        ("annulus", pl.annulus(0.5, 1.0), 129),
    ]
    h, H = 1.0, 2.0
    runs = []
    for name, spec, nps in domains:
        area = pl.build_grid(spec, nps).discrete_area
        for fill in (0.25, 0.5, 0.75):
            M = h * area + fill * (H - h) * area
            pair, report = pl.optimize(spec, nps, h, H, M)
            runs.append((name, fill, M, pair, report))
    return runs


@pytest.fixture(scope="session")
def disk_uniform_eig_128():
    grid = pl.build_grid(pl.disk(1.0), 257)
    op = pl.assemble_laplacian(grid)
    rho = pl.uniform_density(grid, 1.0, 1.0, grid.discrete_area)
    return pl.principal_pair(op, rho)


@pytest.fixture(scope="session")
def square_uniform_eig_128():
    grid = pl.build_grid(pl.unit_square(), 129)
    op = pl.assemble_laplacian(grid)
    rho = pl.uniform_density(grid, 1.0, 1.0, grid.discrete_area)
    return pl.principal_pair(op, rho)
