"""Analytic planar domains, masked finite-difference grids, reflections.

A domain is described by an analytic level function (negative inside,
positive outside) rather than a mesh, so boundary crossings and normals
are closed-form. Grids are uniform lattices masked to the interior, with
per-direction cut fractions for links that cross the boundary. Everything
that depends on the kind of domain sits in one table of ``Shape`` records.

Reflections are always with respect to axis-aligned planes ``{x = lam}``
or ``{y = lam}``; domains needing another direction should be rotated at
construction time, not the grid.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy import ndimage

# direction order used for stencil neighbors and cut fractions
WEST, EAST, SOUTH, NORTH = 0, 1, 2, 3
_STEPS = ((-1, 0), (1, 0), (0, -1), (0, 1))

_AXIS_SYMMETRY_TOL = 1e-12
_CAP_BISECT_TOL = 1e-10
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


@dataclass(frozen=True)
class Axis:
    """Axis-aligned reflection plane: dim=0 is {x = offset}, dim=1 is {y = offset}."""

    dim: int
    offset: float

    def __post_init__(self):
        if self.dim not in (0, 1):
            raise GeometryError("axis dim must be 0 or 1, got %r" % (self.dim,))


# ---------------------------------------------------------------- shape table


@dataclass(frozen=True)
class Shape:
    """Everything that depends on the kind of a domain.

    ``level``, ``gradient``, ``distance`` and ``chords`` take coordinates
    relative to the domain's centre; ``bbox`` and ``loops`` take the centre.
    Every kind is symmetric about both centre axes, so a lattice line
    ``{x_other = c}`` meets the boundary at plus and minus each half chord
    that ``chords`` returns along ``dim`` (NaN where the line misses that
    part of the boundary).
    """

    names: tuple  # parameter names, in ``params`` order
    level: Callable  # (params, x, y) -> level, negative inside
    bbox: Callable  # (params, cx, cy) -> (xmin, xmax, ymin, ymax)
    area: Callable  # params -> area
    loops: Callable  # (params, n, cx, cy) -> [(points (m,2), outward normals (m,2))]
    gradient: Callable  # (params, x, y) -> outward direction at a boundary point
    chords: Callable  # (params, dim, c) -> half chords along ``dim``
    convex: bool = True
    check: Callable = None  # params -> None, raises on invalid parameters
    distance: Callable = None  # (params, x, y) -> boundary distance, if not the level


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


def _annulus_gradient(p, x, y):
    a, r = p
    rad = math.hypot(x, y)
    return (1.0 if abs(rad - r) <= abs(rad - a) else -1.0) * np.array([x, y])


def _check_annulus(p):
    if not p[0] < p[1]:
        raise GeometryError("annulus needs inner < outer radius")


def _ellipse_level(p, x, y):
    a, b = p
    return (x / a) ** 2 + (y / b) ** 2 - 1.0


def _ellipse_distance(p, x, y):
    a, b = p
    gn = math.hypot(2 * x / a**2, 2 * y / b**2)
    lev = _ellipse_level(p, x, y)
    return lev / gn if gn > 0 else lev


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


def _rectangle_gradient(p, x, y):
    w, h = p
    if 0.5 * w - abs(x) <= 0.5 * h - abs(y):
        return np.array([math.copysign(1.0, x), 0.0])
    return np.array([0.0, math.copysign(1.0, y)])


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


def _stadium_gradient(p, x, y):
    ax = max(abs(x) - 0.5 * p[0], 0.0)
    return np.array([math.copysign(ax, x), y])


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
        gradient=lambda p, x, y: np.array([x, y]),
        chords=lambda p, dim, c: (_half_chord(p[0], c),),
    ),
    "annulus": Shape(
        names=("inner", "outer"),
        level=_annulus_level,
        bbox=lambda p, cx, cy: _box(cx, cy, p[1], p[1]),
        area=lambda p: math.pi * (p[1] * p[1] - p[0] * p[0]),
        loops=_annulus_loops,
        gradient=_annulus_gradient,
        chords=lambda p, dim, c: (_half_chord(p[1], c), _half_chord(p[0], c)),
        convex=False,
        check=_check_annulus,
    ),
    "ellipse": Shape(
        names=("semi_x", "semi_y"),
        level=_ellipse_level,
        bbox=lambda p, cx, cy: _box(cx, cy, p[0], p[1]),
        area=lambda p: math.pi * p[0] * p[1],
        loops=lambda p, n, cx, cy: _ellipse_loops(p[0], p[1], n, cx, cy),
        gradient=lambda p, x, y: np.array([x / p[0] ** 2, y / p[1] ** 2]),
        chords=_ellipse_chords,
        distance=_ellipse_distance,
    ),
    "rectangle": Shape(
        names=("width", "height"),
        level=_rectangle_level,
        bbox=lambda p, cx, cy: _box(cx, cy, 0.5 * p[0], 0.5 * p[1]),
        area=lambda p: p[0] * p[1],
        loops=_rectangle_loops,
        gradient=_rectangle_gradient,
        chords=lambda p, dim, c: (np.full(np.shape(c), 0.5 * p[dim]),),
    ),
    "stadium": Shape(
        names=("length", "cap_radius"),
        level=_stadium_level,
        bbox=lambda p, cx, cy: (cx - 0.5 * p[0] - p[1], cx + 0.5 * p[0] + p[1],
                                cy - p[1], cy + p[1]),
        area=lambda p: p[0] * 2 * p[1] + math.pi * p[1] * p[1],
        loops=_stadium_loops,
        gradient=_stadium_gradient,
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
    """Analytic description of the domain: kind, parameters, symmetry axes."""

    kind: str
    params: tuple
    center: tuple
    axes: tuple

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

    def diameter(self):
        xmin, xmax, ymin, ymax = self.bbox()
        return math.hypot(xmax - xmin, ymax - ymin)

    def area(self):
        return self.shape.area(self.params)

    @property
    def is_convex(self):
        return self.shape.convex

    def sup_coord(self, dim):
        """Largest coordinate of the closure along axis ``dim``."""
        box = self.bbox()
        return box[1] if dim == 0 else box[3]

    def inf_coord(self, dim):
        box = self.bbox()
        return box[0] if dim == 0 else box[2]

    def n_boundary_loops(self):
        return len(self.boundary_loops(16))

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
            "axes": [[ax.dim, ax.offset] for ax in self.axes],
        }

    @classmethod
    def from_dict(cls, d):
        """Validated spec from :meth:`to_dict` output. Without ``center``
        the domain sits at the origin; without ``axes`` both centre axes
        are declared."""
        axes = d.get("axes")
        if axes is not None:
            axes = [Axis(int(dim), float(offset)) for dim, offset in axes]
        return _validated(d["kind"], d["params"], d.get("center", (0.0, 0.0)), axes)


def _check_axes(spec):
    """Declared axes must be exact symmetries of the level function."""
    xmin, xmax, ymin, ymax = spec.bbox()
    rng = np.random.default_rng(12345)
    px = rng.uniform(xmin, xmax, 400)
    py = rng.uniform(ymin, ymax, 400)
    tol = _AXIS_SYMMETRY_TOL * spec.diameter()
    for ax in spec.axes:
        if ax.dim == 0:
            qx, qy = 2.0 * ax.offset - px, py
        else:
            qx, qy = px, 2.0 * ax.offset - py
        mismatch = np.max(np.abs(spec.level(px, py) - spec.level(qx, qy)))
        if mismatch > tol:
            raise GeometryError(
                "declared axis %r is not a symmetry (level mismatch %.3e)"
                % (ax, mismatch)
            )


def _validated(kind, params, center, axes=None):
    """The spec of a known kind with positive parameters and true symmetry
    axes; ``axes=None`` declares both axes through the centre."""
    shape = _shape(kind)
    if len(params) != len(shape.names):
        raise GeometryError("%s takes parameters %s, got %r" % (kind, shape.names, params))
    for name, v in zip(shape.names, params):
        if not (v > 0):
            raise GeometryError("%s must be strictly positive, got %r" % (name, v))
    params = tuple(float(v) for v in params)
    if shape.check is not None:
        shape.check(params)
    cx, cy = float(center[0]), float(center[1])
    if axes is None:
        axes = (Axis(0, cx), Axis(1, cy))
    spec = DomainSpec(kind, params, (cx, cy), tuple(axes))
    _check_axes(spec)
    return spec


def disk(radius=1.0, center=(0.0, 0.0)):
    return _validated("disk", (radius,), center)


def annulus(inner, outer=1.0, center=(0.0, 0.0)):
    return _validated("annulus", (inner, outer), center)


def ellipse(semi_x=1.0, semi_y=0.6, center=(0.0, 0.0)):
    return _validated("ellipse", (semi_x, semi_y), center)


def rectangle(width=1.0, height=1.0, center=(0.0, 0.0)):
    return _validated("rectangle", (width, height), center)


def unit_square():
    """The square (0,1)^2 with both mid-plane axes declared."""
    return rectangle(1.0, 1.0, center=(0.5, 0.5))


def stadium(length=1.0, cap_radius=0.5, center=(0.0, 0.0)):
    return _validated("stadium", (length, cap_radius), center)


def boundary_normal(spec, p):
    """Outward unit normal at a boundary point (normalized level gradient).

    ``p`` must lie within 1e-10 * diameter of the boundary.
    """
    shape = spec.shape
    x = float(p[0]) - spec.center[0]
    y = float(p[1]) - spec.center[1]
    distance = (shape.distance or shape.level)(spec.params, x, y)
    if abs(distance) > 1e-10 * spec.diameter():
        raise GeometryError("point %r is not on the boundary" % (p,))
    g = shape.gradient(spec.params, x, y)
    n = g / np.linalg.norm(g)
    assert abs(np.linalg.norm(n) - 1.0) < 1e-12
    return n


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
    structure = np.array([[0, 1, 0], [1, 1, 1], [0, 1, 0]])
    labels, ncomp = ndimage.label(mask, structure=structure)
    if ncomp > 1:
        sizes = sorted(
            (int((labels == k).sum()) for k in range(1, ncomp + 1)), reverse=True
        )
        raise DisconnectedInteriorError(sizes)

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


@dataclass(frozen=True)
class Reflection:
    """Field values composed with a plane reflection, sampled at interior nodes.

    ``present[i]`` is False where the reflected point has no interior
    interpolation support; ``values[i]`` is NaN there.
    """

    values: np.ndarray
    present: np.ndarray


def reflect_values(grid, values, axis, lam):
    """Sample ``values`` (per interior node) at reflected node positions.

    The reflection is about the plane ``{x_dim = lam}``. Off-lattice
    positions are linearly interpolated along the reflection direction;
    positions whose interpolation support leaves the interior node set are
    flagged absent. Lattice-aligned planes reproduce node values exactly.
    """
    values = np.asarray(values, dtype=float)
    if values.shape != (grid.n,):
        raise GeometryError("field length %d does not match grid (%d nodes)"
                            % (values.shape[0], grid.n))
    dim = axis.dim if isinstance(axis, Axis) else int(axis)
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


def reflect_field(f, axis, lam):
    """Field-level wrapper around :func:`reflect_values`."""
    return reflect_values(f.grid, f.values, axis, lam)


def mirror_ranks(grid, axis):
    """Interior rank of each node's mirror image across a declared axis.

    Raises when any interior node's mirror is not itself an interior node
    (which cannot happen for an exactly symmetric domain on the symmetric
    lattice that ``build_grid`` produces).
    """
    ax = axis if isinstance(axis, Axis) else Axis(int(axis), 0.0)
    coords = grid.xs if ax.dim == 0 else grid.ys
    nmax = coords.shape[0]
    two_jlam = 2.0 * (ax.offset - coords[0]) / grid.delta
    snapped = round(two_jlam)
    if abs(two_jlam - snapped) > 1e-9:
        raise GeometryError("axis %r is not lattice-aligned" % (ax,))
    if ax.dim == 0:
        jm = snapped - grid.ix
        ok = (jm >= 0) & (jm < nmax)
        ranks = grid.index_of[grid.iy, np.clip(jm, 0, nmax - 1)]
    else:
        jm = snapped - grid.iy
        ok = (jm >= 0) & (jm < nmax)
        ranks = grid.index_of[np.clip(jm, 0, nmax - 1), grid.ix]
    if not (ok.all() and (ranks >= 0).all()):
        raise GeometryError("grid is not mirror-closed across %r" % (ax,))
    return ranks


def mirror_orbit_ids(grid):
    """Canonical orbit id per node under all declared reflection axes."""
    ids = np.arange(grid.n)
    mirrors = [mirror_ranks(grid, ax) for ax in grid.spec.axes]
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


# ------------------------------------------------------------ sweep landmarks


@dataclass(frozen=True)
class ReflectionCaps:
    """Plane-sweep landmarks along one axis direction.

    lam0: first plane position touching the closure (sup of the coordinate).
    lam1: stuck position (internal tangency of the reflected cap, or plane
          orthogonal to the boundary).
    lam2: last position with the reflected cap still inside the closure.
    """

    dim: int
    lam0: float
    lam1: float
    lam2: float

    def __post_init__(self):
        if not (self.lam2 <= self.lam1 + 1e-12 and self.lam1 < self.lam0):
            raise GeometryError(
                "invalid caps: lam2=%r lam1=%r lam0=%r"
                % (self.lam2, self.lam1, self.lam0)
            )


def cap_reflection_contained(spec, dim, lam, n_samples=4096, slack=0.0):
    """True iff the reflection of the cap ``{x_dim > lam}`` stays in the closure.

    Tested on a dense boundary sample of the cap; ``slack`` loosens the
    inside test (used by the tangency detector).
    """
    tol = 1e-12 * spec.diameter() + slack
    for pts, _ in spec.boundary_loops(n_samples):
        coord = pts[:, dim]
        sel = coord > lam
        if not sel.any():
            continue
        q = pts[sel].copy()
        q[:, dim] = 2.0 * lam - q[:, dim]
        if np.max(spec.level(q[:, 0], q[:, 1])) > tol:
            return False
    return True


def _cap_stuck(spec, dim, lam, n_samples=4096):
    """True iff the sweep is stuck at ``lam``: reflected cap touches the
    boundary away from the plane, or the plane meets the boundary
    orthogonally (within sample resolution)."""
    diam = spec.diameter()
    touch = 1e-9 * diam
    loops = spec.boundary_loops(n_samples)
    # (i) internal tangency: a reflected cap boundary point reaches the boundary
    for pts, _ in loops:
        coord = pts[:, dim]
        sel = coord > lam + 1e-7 * diam  # exclude the plane itself
        if not sel.any():
            continue
        q = pts[sel].copy()
        q[:, dim] = 2.0 * lam - q[:, dim]
        if np.max(spec.level(q[:, 0], q[:, 1])) >= -touch:
            return True
    # (ii) orthogonality: |nu_dim| vanishing where the plane crosses the boundary
    for pts, nrm in loops:
        gap = 2.0 * _max_sample_gap(pts)
        near = np.abs(pts[:, dim] - lam) <= gap
        if near.any() and np.min(np.abs(nrm[near, dim])) <= 1e-6:
            return True
    return False


def _max_sample_gap(pts):
    seg = np.diff(np.vstack([pts, pts[:1]]), axis=0)
    return float(np.max(np.hypot(seg[:, 0], seg[:, 1])))


def reflection_caps(spec, axis):
    """Compute the sweep landmarks for an axis-aligned direction.

    Declared-axis convex domains short-circuit to
    ``lam1 = lam2 = offset`` (exact); otherwise both landmarks come from
    scan-bracketed bisection on the analytic boundary.
    """
    if isinstance(axis, Axis):
        dim = axis.dim
    elif axis in (0, 1):
        dim = int(axis)
    else:
        raise GeometryError("axis must be axis-aligned (dim 0 or 1), got %r" % (axis,))
    lam0 = spec.sup_coord(dim)

    declared = next((a for a in spec.axes if a.dim == dim), None)
    if declared is not None and spec.is_convex:
        return ReflectionCaps(dim=dim, lam0=lam0, lam1=declared.offset, lam2=declared.offset)

    lo_limit = declared.offset if declared is not None else spec.inf_coord(dim)
    tol = _CAP_BISECT_TOL * spec.diameter()

    lam2 = _bisect_landmark(
        lambda lam: cap_reflection_contained(spec, dim, lam), lo_limit, lam0, tol
    )
    lam1 = _bisect_landmark(
        lambda lam: not _cap_stuck(spec, dim, lam), lo_limit, lam0, tol
    )
    lam1 = max(lam1, lam2)
    return ReflectionCaps(dim=dim, lam0=lam0, lam1=lam1, lam2=lam2)


def _bisect_landmark(pred, lo_limit, lam0, tol, n_scan=256):
    """Infimum of the interval ending at lam0 on which ``pred`` holds.

    Scans downward from lam0 for the first failure, then bisects the
    bracket. Returns ``lo_limit`` when the predicate holds all the way
    down.
    """
    span = lam0 - lo_limit
    good = lam0 - span / n_scan
    if not pred(good):
        raise GeometryError("sweep predicate fails arbitrarily close to lam0")
    bad = None
    for k in range(2, n_scan + 1):
        lam = lam0 - span * k / n_scan
        if lam <= lo_limit:
            break
        if pred(lam):
            good = lam
        else:
            bad = lam
            break
    if bad is None:
        return lo_limit
    while good - bad > tol:
        mid = 0.5 * (good + bad)
        if pred(mid):
            good = mid
        else:
            bad = mid
    return 0.5 * (good + bad)
