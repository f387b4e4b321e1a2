"""Analytic planar domains, masked finite-difference grids, reflections.

A domain is described by an analytic level function (negative inside,
positive outside) rather than a mesh, so boundary crossings and normals
are closed-form. Grids are uniform lattices masked to the interior, with
per-direction cut fractions for links that cross the boundary. Everything
that depends on the kind of domain sits in one table of ``Shape`` records.

Reflections are always with respect to axis-aligned planes ``{x = lam}``
or ``{y = lam}``, named by their direction ``dim`` (0 or 1); domains
needing another direction should be rotated at construction time, not
the grid. Every kind is symmetric about its two centre lines and about
no other axis-aligned line, so a domain's symmetry axes are those two
lines: ``symmetry_axis`` is the one place that says where they are. One
mirror stencil places each node's reflection on its lattice line, and
``reflect_cap``, the one reflection entry point, reads it on the cap
beyond a plane. Where a moving plane stops is closed form too: the
table's ``stop`` entry, which ``diagnostics.plane_positions`` reads.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy import sparse
from scipy.sparse.csgraph import connected_components

# direction order used for stencil neighbors and cut fractions
WEST, EAST, SOUTH, NORTH = 0, 1, 2, 3
_STEPS = ((-1, 0), (1, 0), (0, -1), (0, 1))

_BOUNDARY_LEVEL_TOL = 1e-12  # in units of the spacing


class GeometryError(ValueError):
    pass


class DisconnectedInteriorError(GeometryError):
    """Interior lattice nodes fall into more than one connected component."""

    def __init__(self, sizes):
        self.component_sizes = tuple(sizes)
        super().__init__(
            "interior is disconnected: %d components of sizes %s"
            % (len(sizes), list(sizes))
        )


def _direction(dim):
    """``dim`` checked to name a lattice direction: 0 for x, 1 for y."""
    if dim not in (0, 1):
        raise GeometryError("axis dim must be 0 or 1, got %r" % (dim,))
    return int(dim)


# ---------------------------------------------------------------- shape table


@dataclass(frozen=True)
class Shape:
    """Everything that depends on the kind of a domain.

    ``level`` and ``chords`` take coordinates relative to the domain's
    centre; ``bbox`` and ``loops`` take the centre. ``loops`` samples each
    boundary loop together with its outward unit normals, the only place
    the normal is described (the annulus's inner-circle normals point
    into the hole).
    Every kind is symmetric about both centre axes, so a lattice line
    ``{x_other = c}`` meets the boundary at plus and minus each half chord
    that ``chords`` returns along ``dim`` (NaN where the line misses that
    part of the boundary). ``stop`` is where a plane moving in from the
    far side stops, measured from the centre and the same along both
    axes: 0 for the convex kinds, ``(inner + outer) / 2`` for the annulus,
    where the reflected cap first touches the inner circle.
    """

    names: tuple  # parameter names, in ``params`` order
    level: Callable  # (params, x, y) -> level, negative inside
    bbox: Callable  # (params, cx, cy) -> (xmin, xmax, ymin, ymax)
    area: Callable  # params -> area
    loops: Callable  # (params, n, cx, cy) -> [(points (m,2), outward normals (m,2))]
    chords: Callable  # (params, dim, c) -> half chords along ``dim``
    stop: Callable = lambda p: 0.0  # params -> stop position of the moving plane
    check: Callable = None  # params -> None, raises on invalid parameters


def _box(cx, cy, hx, hy):
    return (cx - hx, cx + hx, cy - hy, cy + hy)


def _half_chord(r, c):
    """Half chord of a circle of radius ``r`` at distance ``c`` from its
    centre, NaN if the line misses it. Factored: ``r*r - c*c`` cancels
    near tangency."""
    with np.errstate(invalid="ignore"):
        return np.sqrt((r - c) * (r + c))


def _ellipse_loops(a, b, n, cx, cy):
    """Curved loops are parameterized by angle."""
    t = np.linspace(0.0, 2 * math.pi, n, endpoint=False)
    pts = np.column_stack([cx + a * np.cos(t), cy + b * np.sin(t)])
    nrm = np.column_stack([np.cos(t) / a, np.sin(t) / b])
    nrm /= np.linalg.norm(nrm, axis=1)[:, None]
    return [(pts, nrm)]


def _circle(r, n, cx, cy, outward):
    t = np.linspace(0.0, 2 * math.pi, n, endpoint=False)
    pts = np.column_stack([cx + r * np.cos(t), cy + r * np.sin(t)])
    return pts, outward * np.column_stack([np.cos(t), np.sin(t)])


def _annulus_level(p, x, y):
    a, r = p
    rad = np.hypot(x, y)
    return np.maximum(rad - r, a - rad)


def _annulus_loops(p, n, cx, cy):
    """Samples split between the circles in proportion to their length."""
    a, r = p
    n_out = max(8, int(round(n * r / (r + a))))
    n_in = max(8, n - n_out)
    return [_circle(r, n_out, cx, cy, 1.0), _circle(a, n_in, cx, cy, -1.0)]


def _check_annulus(p):
    if not p[0] < p[1]:
        raise GeometryError("annulus needs inner < outer radius")


def _ellipse_level(p, x, y):
    a, b = p
    return (x / a) ** 2 + (y / b) ** 2 - 1.0


def _ellipse_chords(p, dim, c):
    along, across = p[dim], p[1 - dim]
    return (along / across * _half_chord(across, c),)


def _rectangle_level(p, x, y):
    w, h = p
    qx = np.abs(x) - 0.5 * w
    qy = np.abs(y) - 0.5 * h
    outside = np.hypot(np.maximum(qx, 0.0), np.maximum(qy, 0.0))
    inside = np.minimum(np.maximum(qx, qy), 0.0)
    return outside + inside


def _rectangle_loops(p, n, cx, cy):
    """Counter-clockwise from the bottom-left corner, by arclength."""
    w, h = p
    s = (np.arange(n) + 0.5) * (2.0 * (w + h)) / n
    side = np.searchsorted([w, w + h, 2 * w + h], s, side="right")
    x = np.choose(side, [cx - 0.5 * w + s, cx + 0.5 * w,
                         cx + 0.5 * w - (s - w - h), cx - 0.5 * w])
    y = np.choose(side, [cy - 0.5 * h, cy - 0.5 * h + (s - w),
                         cy + 0.5 * h, cy + 0.5 * h - (s - 2 * w - h)])
    nrm = np.array([(0.0, -1.0), (1.0, 0.0), (0.0, 1.0), (-1.0, 0.0)])[side]
    return [(np.column_stack([x, y]), nrm)]


def _stadium_level(p, x, y):
    length, r = p
    qx = np.maximum(np.abs(x) - 0.5 * length, 0.0)
    return np.hypot(qx, y) - r


def _stadium_loops(p, n, cx, cy):
    """Bottom edge, right cap, top edge, left cap, by arclength."""
    length, r = p
    half = 0.5 * length
    s = (np.arange(n) + 0.5) * (2.0 * length + 2.0 * math.pi * r) / n
    piece = np.searchsorted(
        [length, length + math.pi * r, 2 * length + math.pi * r], s, side="right"
    )
    right = piece == 1
    phi = np.where(right, (s - length) / r - 0.5 * math.pi,
                   (s - 2 * length - math.pi * r) / r + 0.5 * math.pi)
    arc_x = np.where(right, cx + half, cx - half) + r * np.cos(phi)
    x = np.choose(piece, [cx - half + s, arc_x, cx + half - (s - length - math.pi * r), arc_x])
    y = np.choose(piece, [cy - r, cy + r * np.sin(phi), cy + r, cy + r * np.sin(phi)])
    flat = (piece == 0) | (piece == 2)
    nrm = np.column_stack([np.where(flat, 0.0, np.cos(phi)),
                           np.where(flat, piece - 1.0, np.sin(phi))])
    return [(np.column_stack([x, y]), nrm)]


def _stadium_chords(p, dim, c):
    length, r = p
    if dim == 0:
        return (0.5 * length + _half_chord(r, c),)
    return (_half_chord(r, np.maximum(np.abs(c) - 0.5 * length, 0.0)),)


# For disk/annulus/rectangle/stadium the level is the exact signed
# distance; for the ellipse it is the quadratic form (same sign, same
# zero set).
_SHAPES = {
    "disk": Shape(
        names=("radius",),
        level=lambda p, x, y: np.hypot(x, y) - p[0],
        bbox=lambda p, cx, cy: _box(cx, cy, p[0], p[0]),
        area=lambda p: math.pi * p[0] ** 2,
        loops=lambda p, n, cx, cy: _ellipse_loops(p[0], p[0], n, cx, cy),
        chords=lambda p, dim, c: (_half_chord(p[0], c),),
    ),
    "annulus": Shape(
        names=("inner", "outer"),
        level=_annulus_level,
        bbox=lambda p, cx, cy: _box(cx, cy, p[1], p[1]),
        area=lambda p: math.pi * (p[1] * p[1] - p[0] * p[0]),
        loops=_annulus_loops,
        chords=lambda p, dim, c: (_half_chord(p[1], c), _half_chord(p[0], c)),
        stop=lambda p: 0.5 * (p[0] + p[1]),
        check=_check_annulus,
    ),
    "ellipse": Shape(
        names=("semi_x", "semi_y"),
        level=_ellipse_level,
        bbox=lambda p, cx, cy: _box(cx, cy, p[0], p[1]),
        area=lambda p: math.pi * p[0] * p[1],
        loops=lambda p, n, cx, cy: _ellipse_loops(p[0], p[1], n, cx, cy),
        chords=_ellipse_chords,
    ),
    "rectangle": Shape(
        names=("width", "height"),
        level=_rectangle_level,
        bbox=lambda p, cx, cy: _box(cx, cy, 0.5 * p[0], 0.5 * p[1]),
        area=lambda p: p[0] * p[1],
        loops=_rectangle_loops,
        chords=lambda p, dim, c: (np.full(np.shape(c), 0.5 * p[dim]),),
    ),
    "stadium": Shape(
        names=("length", "cap_radius"),
        level=_stadium_level,
        bbox=lambda p, cx, cy: (cx - 0.5 * p[0] - p[1], cx + 0.5 * p[0] + p[1],
                                cy - p[1], cy + p[1]),
        area=lambda p: p[0] * 2 * p[1] + math.pi * p[1] * p[1],
        loops=_stadium_loops,
        chords=_stadium_chords,
    ),
}


def _shape(kind):
    try:
        return _SHAPES[kind]
    except KeyError:
        raise GeometryError("unknown domain kind %r" % (kind,)) from None


# ---------------------------------------------------------------- domains


@dataclass(frozen=True)
class DomainSpec:
    """Analytic description of the domain: kind, parameters, centre."""

    kind: str
    params: tuple
    center: tuple

    @property
    def shape(self):
        return _shape(self.kind)

    def level(self, x, y):
        """Level function of the boundary: negative inside, positive outside."""
        x = np.asarray(x, dtype=float) - self.center[0]
        y = np.asarray(y, dtype=float) - self.center[1]
        return self.shape.level(self.params, x, y)

    def bbox(self):
        return self.shape.bbox(self.params, *self.center)

    def area(self):
        return self.shape.area(self.params)

    def boundary_loops(self, n):
        """Sample each boundary loop: list of (points (m,2), outward normals (m,2)).

        ``n`` is the total sample count.
        """
        return self.shape.loops(self.params, n, *self.center)

    def to_dict(self):
        """JSON-ready form; :meth:`from_dict` inverts it exactly."""
        return {
            "kind": self.kind,
            "params": list(self.params),
            "center": list(self.center),
        }

    @classmethod
    def from_dict(cls, d):
        """Validated spec from :meth:`to_dict` output; any other key is
        not read. Without ``center`` the domain sits at the origin."""
        return _validated(d["kind"], d["params"], d.get("center", (0.0, 0.0)))


def symmetry_axis(spec, dim):
    """Position of the domain's symmetry axis ``{x_dim = c}`` across
    direction ``dim`` (0 or 1): the centre line, as every kind is
    symmetric about both centre lines."""
    return spec.center[_direction(dim)]


def _validated(kind, params, center):
    """The spec of a known kind with positive parameters."""
    shape = _shape(kind)
    if len(params) != len(shape.names):
        raise GeometryError("%s takes parameters %s, got %r" % (kind, shape.names, params))
    for name, v in zip(shape.names, params):
        if not (v > 0):
            raise GeometryError("%s must be strictly positive, got %r" % (name, v))
    params = tuple(float(v) for v in params)
    if shape.check is not None:
        shape.check(params)
    return DomainSpec(kind, params, (float(center[0]), float(center[1])))


def disk(radius=1.0, center=(0.0, 0.0)):
    return _validated("disk", (radius,), center)


def annulus(inner, outer=1.0, center=(0.0, 0.0)):
    return _validated("annulus", (inner, outer), center)


def ellipse(semi_x=1.0, semi_y=0.6, center=(0.0, 0.0)):
    return _validated("ellipse", (semi_x, semi_y), center)


def rectangle(width=1.0, height=1.0, center=(0.0, 0.0)):
    return _validated("rectangle", (width, height), center)


def unit_square():
    """The square (0,1)^2, centred at (0.5, 0.5)."""
    return rectangle(1.0, 1.0, center=(0.5, 0.5))


def stadium(length=1.0, cap_radius=0.5, center=(0.0, 0.0)):
    return _validated("stadium", (length, cap_radius), center)


# ---------------------------------------------------------------------- grid


@dataclass(frozen=True)
class Grid:
    """Masked uniform lattice over a domain.

    Interior nodes are lattice points with level below ``-1e-12 * delta``,
    enumerated row-major (y outer, x inner). ``theta[i, d]`` is the cut
    fraction of node ``i`` toward direction ``d`` (WEST/EAST/SOUTH/NORTH):
    1.0 when the neighbor link is interior-to-interior or ends at a node
    with level <= 0, the fractional distance to the boundary in units of
    the spacing otherwise.
    ``neighbor[i, d]`` holds the interior rank of the neighbor or -1.
    """

    spec: DomainSpec
    delta: float
    xs: np.ndarray
    ys: np.ndarray
    ix: np.ndarray
    iy: np.ndarray
    index_of: np.ndarray
    theta: np.ndarray
    neighbor: np.ndarray
    tag: str

    @property
    def n(self):
        return self.ix.shape[0]

    @property
    def node_x(self):
        return self.xs[self.ix]

    @property
    def node_y(self):
        return self.ys[self.iy]

    @property
    def cell_area(self):
        return self.delta * self.delta

    @property
    def discrete_area(self):
        """Lattice measure of the interior: n * delta^2."""
        return self.n * self.delta * self.delta

    @property
    def has_cut(self):
        return bool(np.any(self.theta < 1.0))

    def boundary_adjacent_mask(self):
        """Nodes with at least one link leaving the interior node set."""
        return np.any(self.neighbor < 0, axis=1)


def _symmetric_coords(center, delta, half_extent):
    """Lattice coordinates ``center + k*delta`` covering +-half_extent.

    Offsets are symmetric integers so mirror-image nodes get bitwise
    mirror-image coordinates whenever the center is exactly representable.
    """
    m = int(math.ceil(half_extent / delta - 1e-9))
    offs = np.arange(-m, m + 1, dtype=float)
    return center + offs * delta


def build_grid(spec, nodes_per_side):
    """Build the masked lattice with boundary-cut data.

    ``nodes_per_side`` counts boundary-inclusive nodes across the longer
    bounding-box side, so the spacing is ``side / (nodes_per_side - 1)``;
    the lattice extends one spacing beyond the bounding box. Cut fractions
    are the closed-form crossings of the lattice lines with the boundary.
    """
    if nodes_per_side < 5:
        raise GeometryError("nodes_per_side must be at least 5, got %d" % nodes_per_side)
    xmin, xmax, ymin, ymax = spec.bbox()
    side = max(xmax - xmin, ymax - ymin)
    delta = side / (nodes_per_side - 1)
    cx = 0.5 * (xmin + xmax)
    cy = 0.5 * (ymin + ymax)
    xs = _symmetric_coords(cx, delta, 0.5 * (xmax - xmin) + delta)
    ys = _symmetric_coords(cy, delta, 0.5 * (ymax - ymin) + delta)
    nx, ny = xs.shape[0], ys.shape[0]

    X, Y = np.meshgrid(xs, ys)  # shape (ny, nx)
    level = spec.level(X, Y)
    # a node on the boundary up to rounding is a boundary node, not an
    # interior node with a vanishing cut fraction
    mask = level < -_BOUNDARY_LEVEL_TOL * delta

    n_interior = int(mask.sum())
    if n_interior == 0:
        raise GeometryError("no interior nodes at this resolution")

    nodes = np.argwhere(mask)  # row-major (iy, ix)
    iy = nodes[:, 0].astype(np.int64)
    ix = nodes[:, 1].astype(np.int64)
    index_of = -np.ones((ny, nx), dtype=np.int64)
    index_of[iy, ix] = np.arange(n_interior)

    centred = (xs - spec.center[0], ys - spec.center[1])
    theta = np.ones((n_interior, 4))
    neighbor = -np.ones((n_interior, 4), dtype=np.int64)
    for d, (dx, dy) in enumerate(_STEPS):
        jx = ix + dx
        jy = iy + dy
        ok = (jx >= 0) & (jx < nx) & (jy >= 0) & (jy < ny)
        if not ok.all():
            raise GeometryError("interior node touches the lattice edge")
        neighbor[:, d] = index_of[jy, jx]
        # a link ending at a node with level <= 0 stays full, with zero
        # Dirichlet data at that node
        cut = np.flatnonzero((neighbor[:, d] < 0) & (level[jy, jx] > 0.0))
        dim, sign = (0, dx) if dx else (1, dy)
        node = (centred[0][ix[cut]], centred[1][iy[cut]])
        half = np.array(spec.shape.chords(spec.params, dim, node[1 - dim]))
        # distances from the node to the crossings +-half ahead of it (NaN
        # half chords, lines that miss a circle, drop out with the rest)
        s = sign * node[dim]
        ahead = np.concatenate([half - s, -half - s])
        ahead[~(ahead > 0.0)] = np.inf
        t = ahead.min(axis=0) / delta
        assert np.all(np.isfinite(t))
        theta[cut, d] = np.minimum(t, 1.0)

    # the interior must be one 4-connected component
    links = neighbor[:, [EAST, NORTH]].T.ravel()
    linked = links >= 0
    adjacency = sparse.coo_matrix(
        (np.ones(linked.sum()), (np.tile(np.arange(n_interior), 2)[linked], links[linked])),
        shape=(n_interior, n_interior),
    )
    ncomp, labels = connected_components(adjacency, directed=False)
    if ncomp > 1:
        raise DisconnectedInteriorError(sorted(np.bincount(labels).tolist(), reverse=True))

    payload = (
        spec.kind,
        spec.params,
        spec.center,
        round(delta, 15),
        nx,
        ny,
        n_interior,
    )
    tag = hashlib.sha1(repr(payload).encode()).hexdigest()[:12]

    grid = Grid(
        spec=spec,
        delta=delta,
        xs=xs,
        ys=ys,
        ix=ix,
        iy=iy,
        index_of=index_of,
        theta=theta,
        neighbor=neighbor,
        tag=tag,
    )
    assert np.all(grid.theta > 0.0) and np.all(grid.theta <= 1.0)
    return grid


# ----------------------------------------------------------------- reflection


def _mirror_stencil(grid, dim, lam, nodes):
    """Where the mirror across ``{x_dim = lam}`` of each node in ``nodes``
    (ranks) falls: a fraction ``w`` of a spacing from interior node ``r0``
    toward ``r1`` on the node's lattice line (ranks are -1 off the
    interior). The plane's doubled lattice position snaps to an integer
    within 1e-9 spacings, so lattice and half-lattice planes give
    ``w == 0`` exactly; ``present`` marks the mirrors with interior
    support."""
    dim = _direction(dim)
    coords = grid.xs if dim == 0 else grid.ys
    along, across = (grid.ix, grid.iy) if dim == 0 else (grid.iy, grid.ix)
    j, j_other = along[nodes], across[nodes]
    lines = grid.index_of if dim == 0 else grid.index_of.T  # [j_other, j] -> rank
    two_jlam = 2.0 * ((lam - coords[0]) / grid.delta)
    snapped = round(two_jlam)
    if abs(two_jlam - snapped) < 1e-9:
        two_jlam = float(snapped)
    t = two_jlam - j.astype(float)
    j0 = np.floor(t).astype(np.int64)
    w = t - j0

    def rank_at(jj):
        inside = (jj >= 0) & (jj < coords.shape[0])
        return np.where(inside, lines[j_other, np.clip(jj, 0, coords.shape[0] - 1)], -1)

    r0, r1 = rank_at(j0), rank_at(j0 + 1)
    present = (r0 >= 0) & ((w == 0.0) | (r1 >= 0))
    return r0, r1, w, present


def _mirrored(values, r0, r1, w):
    """``values`` at the mirrors a stencil places: linear interpolation
    along the lattice line, the node value itself where ``w == 0``."""
    v0 = values[r0]
    return np.where(w == 0.0, v0, (1.0 - w) * v0 + w * values[r1])


def _node_values(grid, values):
    values = np.asarray(values, dtype=float)
    if values.shape != (grid.n,):
        raise GeometryError("field length %d does not match grid (%d nodes)"
                            % (values.shape[0], grid.n))
    return values


def reflect_cap(grid, fields, dim, lam):
    """The cap beyond the plane ``{x_dim = lam}`` and each of ``fields``
    reflected onto it.

    ``dim`` is 0 or 1. Returns the ranks of the nodes with coordinate
    above ``lam`` whose mirror has interior support, and per field its
    values at their mirrors: linear interpolation along the reflection
    direction, so lattice and half-lattice planes reproduce node values
    exactly. One stencil, evaluated on the cap only, serves every field.
    """
    fields = [_node_values(grid, f) for f in fields]
    coords = grid.node_x if _direction(dim) == 0 else grid.node_y
    cap = np.flatnonzero(coords > lam)
    r0, r1, w, present = _mirror_stencil(grid, dim, lam, cap)
    r0, r1, w = r0[present], r1[present], w[present]
    return cap[present], [_mirrored(f, r0, r1, w) for f in fields]
