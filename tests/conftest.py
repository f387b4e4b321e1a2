"""Shared fixtures: converged optimal pairs reused across test modules.

The symmetry suite uses masses aligned to complete reflection orbits of
the converged ordering: the threshold then cuts between orbits, the
converged density is exactly mirror-symmetric, and the measured field
asymmetry sits at the solver floor instead of at the single-node
mass-balancing level. This is an experiment-design choice (the mass is a
free parameter of the suite), not a solver change.
"""

import numpy as np
import pytest

import platelab as pl
from platelab.geometry import Grid, mirror_orbit_ids


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
